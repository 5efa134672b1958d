// Leaf-hint sidecar (1-RTT point lookups): a compact MS-resident table
// mapping lo fence key -> (leaf address, fingerprint) for the leaves homed
// on that MS, in the Outback spirit of a lightweight MS-side routing
// structure in front of the index.
//
// A client with no cached path RDMA-READs each MS's table (header +
// sorted entry array) into a LOCAL MIRROR, then serves cold point lookups
// with ONE leaf READ at the hinted address. The mirror is one per compute
// server: one op at a time fetches it, and the CS's other ops traverse
// until that fetch lands. Hints are ADVISORY ONLY:
// every hinted leaf still passes the ordinary validation (version /
// checksum, tombstone, role, fence) and a miss or stale entry falls back
// to full B-link traversal — correctness never depends on a hint.
//
// Publication protocol: the structural op that creates or retires a leaf
// maintains the table over the leaf's HOME MS's memory-thread RPC lane
// (kRpcHintPublish / kRpcHintInvalidate):
//  - leaf split (fixed and varlen) publishes the new sibling after the
//    B-link commit;
//  - leaf merge, migration flip, and recovery replay invalidate BEFORE
//    the leaf's kRpcFreeNode — DMSan enforces the ordering (a node may
//    never be freed while a hint still maps to it);
//  - migration flip publishes the relocated copy after the child swap;
//  - bulk load seeds the table directly (no simulated traffic), like the
//    tree build itself.
// Because the invalidate and the free travel the same RPC lane, the
// MS-side table can never outlive the leaf it points to; the CLIENT
// mirror can (it refreshes on a generation change), which is exactly why
// hints stay advisory.
//
// Each entry carries fingerprint = HintFingerprint(lo, addr), recomputed
// by the client per entry, so a torn mirror fetch (the table mutated
// under the in-flight READ) drops the damaged entries instead of serving
// garbage addresses.
#ifndef SHERMAN_CACHE_LEAF_HINTS_H_
#define SHERMAN_CACHE_LEAF_HINTS_H_

#include <cstdint>

#include "alloc/layout.h"
#include "obs/metrics.h"
#include "rdma/global_address.h"
#include "rdma/memory_server.h"

namespace sherman {

namespace dmsan {
class Checker;
}

// SplitMix64 finalizer over (lo, packed addr): cheap, deterministic, and
// recomputable client-side without shared state.
inline uint64_t HintFingerprint(uint64_t lo, uint64_t packed_addr) {
  uint64_t x = lo ^ (packed_addr * 0x9E3779B97F4A7C15ull) ^
               0x5EAF41B75ull /* leaf-hint salt */;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

// The MS-side directory: owns the hint area of one memory server's host
// DRAM (layout.h) and installs itself as the RPC handler for
// kRpcHintPublish / kRpcHintInvalidate on that MS's memory thread
// (chained behind the ChunkManager's handler). All mutations go through
// MemoryRegion::Write so concurrent client READs of the area observe them
// with torn-read fidelity.
class LeafHintDirectory {
 public:
  // `checker` (nullable) receives OnHintPublished / OnHintInvalidated so
  // the free-while-hinted rule can be enforced. Table churn counts into
  // `registry` as hint.{published,invalidated,dropped_full}.
  LeafHintDirectory(rdma::MemoryServer* ms, dmsan::Checker* checker,
                    obs::Registry* registry);

  LeafHintDirectory(const LeafHintDirectory&) = delete;
  LeafHintDirectory& operator=(const LeafHintDirectory&) = delete;

  // RPC bodies (also callable directly from tests).
  uint64_t Publish(uint64_t lo, uint64_t packed_addr);
  uint64_t Invalidate(uint64_t packed_addr);

  // Bulk-load seeding: same table mutation, no memory-thread charge (the
  // loader writes MS memory directly, before any simulated traffic).
  void SeedDirect(uint64_t lo, rdma::GlobalAddress addr);

  uint64_t live_entries() const;
  uint64_t generation() const;

 private:
  // Sorted-array maintenance over host memory. Returns 1 if stored.
  uint64_t Insert(uint64_t lo, uint64_t packed_addr);
  void BumpGeneration();

  rdma::MemoryServer* ms_;
  dmsan::Checker* checker_;
  obs::Counter* published_;
  obs::Counter* invalidated_;
  obs::Counter* dropped_full_;
};

}  // namespace sherman

#endif  // SHERMAN_CACHE_LEAF_HINTS_H_
