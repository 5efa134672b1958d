// Per-MS log-structured value store (the FlexKV-style index/value split).
//
// Values above kInlineThreshold (core/node_layout.h) are written
// OUT-OF-LINE: the leaf slot keeps an 8-byte packed pointer (fingerprint +
// size class + location) and the bytes live in a value-log extent on a
// memory server.
//
// Space management is log-structured. A compute server carves SEGMENTS
// (vlog_segment_bytes, one open segment per size class) out of the
// ordinary chunk allocator, registers each with its owning MS, and bump-
// allocates fixed-size extents inside them — appends cost zero extra
// round trips beyond the value WRITE itself. Each class opens its next
// segment ahead: once the open one has handed out kOpenAheadEighths/8 of
// its extents, a background coroutine allocates and registers a spare.
// A full segment only posts its seal, and the class goes on in the spare.
// A reservation that finds the spare still on its way waits for it; with
// no spare coming (the open-ahead found no memory, and is not retried
// before the class's next segment), it opens the next segment itself
// (chunk and register RPCs), which is why a reservation is the one step
// of a put that can fail. The MS is the single
// liveness authority: every extent retire (delete, update, GC relocation)
// is an RPC to the owner MS, which tracks a per-segment dead bitmap and
// frees a sealed, fully-dead segment onto the PR-4 epoch-protected grace
// list itself — so owner frees and foreign retires cannot race, and
// readers pinned before a retire finish safely. An append is two steps: a
// put Reserves its extent before it takes the leaf lock (a reservation is
// the only step that can fail, and the only one that may call a memory
// thread), then Writes the record beside the lock and awaits the WRITE
// before the leaf names the extent. Segment-level GC
// (TreeClient::VlogGcOnce) claims a sealed victim above a dead-fraction
// threshold, re-reads each live record, and relocates it tree-guided
// under the leaf lock (copy-then-flip, the migration ordering): reserve a
// fresh extent before the lock -> write it -> repoint the leaf slot ->
// retire the old extent.
//
// Extent record: [klen u16][vlen u16][key bytes][value bytes], within a
// 64<<class byte extent (classes 0..7: 64 B .. 8 KB). The key rides along
// so GC can find the owning leaf without an index scan.
#ifndef SHERMAN_VLOG_VLOG_H_
#define SHERMAN_VLOG_VLOG_H_

#include <cstdint>
#include <string>

#include "alloc/cs_allocator.h"
#include "core/stats.h"
#include "rdma/fabric.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "util/slice.h"
#include "util/status.h"

namespace sherman {
namespace vlog {

inline constexpr uint32_t kNumClasses = 8;     // 64 B << c, c in [0,8)
inline constexpr uint32_t kMinExtentBytes = 64;
inline constexpr uint32_t kRecordHeader = 4;   // [klen u16][vlen u16]
// GC victim threshold: a sealed segment with at least this many dead
// extents per thousand written is eligible for TreeClient::VlogGcOnce.
inline constexpr uint32_t kGcDeadPermille = 250;
// A class opens its next segment ahead once its open segment has handed
// out this many eighths of its extents. In bench_e2e's ycsb-string
// (seeds 1 and 2), opening at the last extent (8/8) left 3,463-4,325
// reservations waiting for their spare and raised insert p99 by 1-3%; 7/8
// left 367-544 waiting, with about 1.5 spares idle in the deployment on
// average. Opening at install matched 7/8's p99 but kept 13 spares idle
// (space_amp +0.5%), and a spare taken before its class needs it can
// deny another class its first segment when memory runs short.
inline constexpr uint32_t kOpenAheadEighths = 7;

// Packed value-log pointer, as stored in a leaf slot:
//   [63:56] key fingerprint   [55:48] size class
//   [47:40] memory server id  [39:0]  byte offset on that MS
struct VlogPtr {
  static uint64_t Pack(uint8_t fp, uint8_t cls, uint16_t ms, uint64_t off) {
    return (static_cast<uint64_t>(fp) << 56) |
           (static_cast<uint64_t>(cls) << 48) |
           (static_cast<uint64_t>(ms & 0xff) << 40) | (off & 0xffffffffffull);
  }
  static uint8_t Fp(uint64_t p) { return static_cast<uint8_t>(p >> 56); }
  static uint8_t Cls(uint64_t p) { return static_cast<uint8_t>(p >> 48); }
  static uint16_t Ms(uint64_t p) { return static_cast<uint16_t>((p >> 40) & 0xff); }
  static uint64_t Off(uint64_t p) { return p & 0xffffffffffull; }
  static uint32_t ExtentBytes(uint64_t p) { return kMinExtentBytes << Cls(p); }
  static rdma::GlobalAddress Addr(uint64_t p) {
    rdma::GlobalAddress a;
    a.node = Ms(p);
    a.offset = Off(p);
    return a;
  }
};

// Smallest class whose extent holds `record_bytes`, or kNumClasses if the
// record is too large even for the biggest class.
uint32_t SizeClassFor(uint32_t record_bytes);

// The compute-server side of the value log. One instance per TreeClient;
// owns an open segment and at most one spare per size class.
class VlogClient {
 public:
  // Counts into the fabric's registry as vlog.*, shared by every CS.
  VlogClient(rdma::Fabric* fabric, CsAllocator* allocator, int cs_id,
             uint32_t segment_bytes);

  // Hands out the extent for the record [key|value] and returns its
  // packed pointer (fingerprint = fp). A full segment posts its seal and
  // the class goes on in its spare; with no spare coming, the reservation
  // opens the next segment itself (chunk and register RPCs). Counts an
  // append. An extent never written is simply retired.
  sim::Task<StatusOr<uint64_t>> Reserve(const Slice& key, const Slice& value,
                                        uint8_t fp, OpStats* stats);
  // Writes the record into a reserved extent with one RDMA WRITE, then
  // counts `landed` down when one is given.
  sim::Task<void> Write(uint64_t ptr, Slice key, Slice value, OpStats* stats,
                        sim::CountdownLatch* landed = nullptr);

  // Reads the record behind `ptr` (klen/vlen known from the leaf slot:
  // the read covers exactly the record) and returns the value bytes.
  // Fails with Corruption when the record header or key does not match —
  // the caller re-reads the leaf (the extent was concurrently relocated).
  sim::Task<Status> Read(uint64_t ptr, const Slice& expect_key, uint16_t vlen,
                         std::string* value, OpStats* stats);

  // Marks the extent dead at its owning MS (idempotent).
  sim::Task<void> Retire(uint64_t ptr, OpStats* stats);
  // Retire, posted without waiting: the caller's op does not pay (or
  // count) its round trip.
  void RetireAsync(uint64_t ptr) { sim::Spawn(Retire(ptr, nullptr)); }

  // Seals every open segment at its MS so GC victim queries can see it.
  // A spare holds no extent, so it is kept: the class's next reservation
  // goes on in it. Every registered segment is thus sealed or still this
  // client's to fill.
  sim::Task<void> SealOpen(OpStats* stats);

  // Builds the on-extent record for (key, value). Exposed for GC, which
  // re-appends records it read back from a victim segment.
  static uint32_t RecordBytes(const Slice& key, const Slice& value) {
    return kRecordHeader + static_cast<uint32_t>(key.size()) +
           static_cast<uint32_t>(value.size());
  }

  // GC outcomes, counted by the GC pass that drives this handle
  // (TreeClient::VlogGcOnce).
  void CountGcPass() { gc_passes_->Inc(); }
  void CountGcRelocated() { gc_relocated_->Inc(); }
  void CountGcStale() { gc_stale_->Inc(); }  // victim extent unreferenced

 private:
  struct OpenSegment {
    rdma::GlobalAddress base = rdma::kNullAddress;  // null while none is open
    uint32_t used = 0;  // extents handed out
    // The next segment, registered ahead (null until OpenAhead lands).
    rdma::GlobalAddress spare = rdma::kNullAddress;
    // An Open of this class is in flight, the spare's or a foreground
    // one. Coroutines sharing one client (worker threads of a CS) may
    // Reserve in the same class concurrently; a reservation that finds
    // no room waits this flag out and re-checks, so a class never opens
    // two segments at once.
    bool opening = false;
  };

  // Allocates and registers a fresh segment of class `cls`; null when
  // memory is exhausted.
  sim::Task<rdma::GlobalAddress> Open(uint32_t cls, OpStats* stats);
  // Opens the class's spare in the background.
  sim::Task<void> OpenAhead(uint32_t cls);

  rdma::Fabric* fabric_;
  CsAllocator* allocator_;
  int cs_id_;
  uint32_t segment_bytes_;
  OpenSegment open_[kNumClasses];
  obs::Counter* appends_;
  obs::Counter* append_bytes_;
  obs::Counter* reads_;
  obs::Counter* retires_;
  obs::Counter* segments_opened_;
  obs::Counter* gc_passes_;
  obs::Counter* gc_relocated_;
  obs::Counter* gc_stale_;
};

}  // namespace vlog
}  // namespace sherman

#endif  // SHERMAN_VLOG_VLOG_H_
