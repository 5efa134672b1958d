// ChunkManager: the memory-server side of the two-stage allocation scheme
// (§4.2.4). The MS's wimpy memory thread hands out fixed 8 MB chunks over
// RPC; all fine-grained allocation happens at compute servers.
//
// Reclamation (kRpcFreeNode / kRpcAllocNode): node-sized regions freed by
// leaf merges and migration tombstone retirement park on a per-MS grace
// list tagged with the fabric-wide reclamation epoch (alloc/reclaim.h).
// Once every operation pinned at or before that epoch has retired, the
// node moves to a size-keyed recycle pool; compute servers drain the pool
// before requesting fresh chunks, so delete-heavy churn plateaus instead
// of growing the chunk footprint monotonically.
#ifndef SHERMAN_ALLOC_CHUNK_MANAGER_H_
#define SHERMAN_ALLOC_CHUNK_MANAGER_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <vector>

#include "alloc/layout.h"
#include "alloc/reclaim.h"
#include "obs/metrics.h"
#include "rdma/memory_server.h"

namespace sherman {

class ChunkManager {
 public:
  // Manages the chunk area of `ms` and installs itself as the RPC handler
  // for kRpcAllocChunk / kRpcFreeChunk / kRpcFreeNode / kRpcAllocNode.
  // `reclaim` keys the grace list; null means no grace period (frees are
  // recyclable immediately — unit-test configurations only). Counts go to
  // `registry` as alloc.*, and with `vlog` (the deployment runs a value
  // log) the segment bookkeeping's as vlog.*.
  ChunkManager(rdma::MemoryServer* ms, obs::Registry* registry,
               const ReclaimEpoch* reclaim = nullptr, bool vlog = false);

  // Returns the host-memory offset of a fresh chunk, or 0 if exhausted.
  uint64_t AllocChunk();
  // Returns a chunk to the free list. `offset` must have come from
  // AllocChunk.
  void FreeChunk(uint64_t offset);

  // Parks a node-sized region on the grace list, tagged with the current
  // reclamation epoch. The bytes stay untouched (readers bouncing off the
  // tombstone need them) until the node is recycled via AllocNode.
  // Idempotent: re-freeing an already-parked offset is a counted no-op
  // (crash recovery re-issues frees whose original may have landed).
  void FreeNode(uint64_t offset, uint32_t size);
  // Hands out a recycled node of exactly `size` bytes whose grace period
  // has passed, or 0 if none is ready.
  uint64_t AllocNode(uint32_t size);

  // Crash recovery (kRpcSweepLocks): clears every lock lane owned by
  // `owner_tag` in this MS's device and host lock tables. Returns lanes
  // released.
  uint64_t SweepLocks(uint16_t owner_tag);

  // --- value-log segment bookkeeping (src/vlog/) ---
  // Segments are carved out of this MS's chunk area by compute servers;
  // the MS is the single liveness authority, so owner and foreign clients
  // cannot race an extent retire against a segment free. A sealed segment
  // whose extents are all dead is freed straight onto the node grace list
  // (same epoch protection as merged leaves).
  void VlogRegister(uint64_t base, uint32_t cls, uint32_t seg_bytes);
  uint64_t VlogRetire(uint64_t addr);  // any offset inside the extent
  void VlogSeal(uint64_t base, uint32_t used);
  // base | (used << 40) | (cls << 56) of a sealed, unclaimed segment with
  // dead permille >= `min_dead_permille` (marks it claimed); 0 if none.
  // Segment bases are chunk-area offsets (< 2^40) and `used` <= 65535
  // extents (TreeOptions::Validate bounds vlog_segment_bytes), so the
  // packing is lossless.
  uint64_t VlogVictim(uint64_t min_dead_permille);
  uint64_t VlogMaskWord(uint64_t base, uint32_t word) const;

  uint64_t vlog_live_segments() const { return vlog_.size(); }
  // Registered segments not sealed yet (their owner may still append).
  uint64_t vlog_unsealed_segments() const {
    return static_cast<uint64_t>(std::count_if(
        vlog_.begin(), vlog_.end(),
        [](const auto& seg) { return !seg.second.sealed; }));
  }

  uint64_t total_chunks() const { return total_chunks_; }
  uint64_t allocated_chunks() const { return allocated_; }
  uint64_t allocated_bytes() const { return allocated_ * kChunkSize; }

  // Freed nodes still inside their grace window (not yet poolable).
  uint64_t grace_pending() const { return grace_.size(); }

 private:
  struct GraceNode {
    uint64_t offset;
    uint32_t size;
    uint64_t epoch;  // reclamation epoch at free time
  };

  // Moves grace-list entries whose epoch has been passed into the
  // size-keyed recycle pools. Grace entries are epoch-ordered (epochs
  // only grow), so the sweep stops at the first still-protected node.
  void SweepGraceList();

  rdma::MemoryServer* ms_;
  const ReclaimEpoch* reclaim_;
  uint64_t next_fresh_;       // bump pointer over never-used chunks
  uint64_t end_;              // end of the chunk area
  uint64_t total_chunks_;
  uint64_t allocated_ = 0;
  std::vector<uint64_t> free_list_;

  struct VlogSegment {
    uint32_t cls = 0;        // extent size = 64 << cls bytes
    uint32_t seg_bytes = 0;
    uint32_t capacity = 0;   // extents the segment can hold
    uint32_t used = 0;       // set at seal; 0 while the owner appends
    uint32_t dead_count = 0;
    uint64_t sealed_epoch = 0;  // reclaim epoch current at seal time
    bool sealed = false;
    bool claimed = false;    // a GC pass owns relocation
    std::vector<uint64_t> dead;  // bitmap, one bit per extent slot
  };

  // Frees a fully-dead sealed segment onto the grace list.
  void VlogMaybeFree(uint64_t base);

  std::deque<GraceNode> grace_;
  std::map<uint32_t, std::vector<uint64_t>> pool_;  // size -> offsets
  std::set<uint64_t> parked_;  // offsets in grace_ or pool_ (dup-free guard)
  obs::Counter* nodes_freed_;
  obs::Counter* nodes_recycled_;
  obs::Counter* duplicate_frees_;

  std::map<uint64_t, VlogSegment> vlog_;  // base offset -> segment
  // Null unless the deployment runs a value log.
  obs::Counter* vlog_retires_ = nullptr;
  obs::Counter* vlog_segments_freed_ = nullptr;
  obs::Counter* vlog_victims_ = nullptr;
};

}  // namespace sherman

#endif  // SHERMAN_ALLOC_CHUNK_MANAGER_H_
