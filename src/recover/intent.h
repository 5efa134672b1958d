// Intent records: the write-ahead anchors that make multi-RDMA-write
// structural operations crash-consistent.
//
// Every structural op (leaf / internal / root split, leaf merge, migration
// flip) performs several one-sided WRITEs that only together leave the
// remote tree consistent. A client that dies between them leaves the tree
// torn — and, because the index lives in passive disaggregated memory,
// nobody on the memory side will ever repair it. Before its FIRST remote
// write, the op therefore publishes a 64-byte INTENT RECORD into its
// client's slot of the intent slab on MS 0 (one extra awaited WRITE) and
// clears the slot after its LAST write. A survivor that steals the dead
// client's lock lease reads the slab and, for each in-doubt record,
// replays the op forward (if its commit point was passed) or rolls it back
// (if not) — see recover::Recoverer. Records carry enough to re-resolve
// everything else from the live tree, so recovery is idempotent: a
// recoverer that itself crashes mid-recovery leaves a state a later
// recoverer handles with the same decision procedure.
#ifndef SHERMAN_RECOVER_INTENT_H_
#define SHERMAN_RECOVER_INTENT_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>

#include "alloc/layout.h"
#include "core/node_layout.h"
#include "core/stats.h"
#include "fault/crash_point.h"
#include "rdma/fabric.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "util/logging.h"

namespace sherman::recover {

enum class IntentOp : uint8_t {
  kNone = 0,
  kSplit = 1,  // leaf or internal split (level disambiguates)
  kMerge = 2,  // leaf merge into left sibling
  kFlip = 3,   // migration copy-then-flip of one node
  kRoot = 4,   // new-root install (root-pointer CAS is the commit point)
};

struct IntentRecord {
  IntentOp op = IntentOp::kNone;
  uint8_t level = 0;
  // Fence interval of the primary node at publish time.
  Key lo = 0;
  Key hi = 0;
  rdma::GlobalAddress primary;  // split: node being split; merge: leaf L;
                                // flip: source node; root: new root node
  rdma::GlobalAddress second;   // split: new sibling; merge: left-sibling
                                // hint; flip: target copy
  rdma::GlobalAddress parent;   // resolve hint only (re-resolved live)
  uint64_t aux = 0;             // split: separator key

  void Serialize(uint8_t out[kIntentSlotBytes]) const {
    std::memset(out, 0, kIntentSlotBytes);
    out[0] = static_cast<uint8_t>(op);
    out[1] = level;
    auto put = [&out](int at, uint64_t v) { std::memcpy(out + at, &v, 8); };
    put(8, lo);
    put(16, hi);
    put(24, primary.ToU64());
    put(32, second.ToU64());
    put(40, parent.ToU64());
    put(48, aux);
  }

  static IntentRecord Deserialize(const uint8_t in[kIntentSlotBytes]) {
    IntentRecord r;
    r.op = static_cast<IntentOp>(in[0]);
    r.level = in[1];
    auto get = [&in](int at) {
      uint64_t v;
      std::memcpy(&v, in + at, 8);
      return v;
    };
    r.lo = get(8);
    r.hi = get(16);
    r.primary = rdma::GlobalAddress::FromU64(get(24));
    r.second = rdma::GlobalAddress::FromU64(get(32));
    r.parent = rdma::GlobalAddress::FromU64(get(40));
    r.aux = get(48);
    return r;
  }
};

// Remote address of client `cs`'s slot `slot` (slab lives on MS 0's host
// memory, next to the root pointer it must survive with).
inline rdma::GlobalAddress IntentSlotAddress(int cs, int slot) {
  return rdma::GlobalAddress(
      0, kIntentSlabOffset +
             (static_cast<uint64_t>(cs) * kIntentSlotsPerClient + slot) *
                 kIntentSlotBytes);
}

// Remote address of client `cs`'s recovery-claim word.
inline rdma::GlobalAddress RecoveryClaimAddress(int cs) {
  return rdma::GlobalAddress(0, kRecoveryClaimOffset + 8ull * cs);
}

// Internal levels with a reserved intent slot each (taller levels share
// the last), and the reserve: those slots plus one for a root install.
inline constexpr int kReservedIntentLevels = 3;
inline constexpr uint32_t kReservedIntentSlots = kReservedIntentLevels + 1;
// How long an op that must not wait for a slot (IntentTable::TryClaim
// found none) backs off before it retries.
inline constexpr sim::SimTime kIntentSlotBackoffNs = 2000;

// Client-side intent publisher: owns the local free-slot state of one
// client's slab and issues the publish/clear WRITEs. Slots are claimed
// locally (the slab is client-private, so no remote coordination).
//
// The last kReservedIntentSlots slots are a reserve that leaf-level ops
// (leaf splits, merges, leaf flips) never take: one for each internal
// level up to kReservedIntentLevels (taller levels share the last) and
// one for a root install. Only an op holding at most a leaf lock waits
// for a slot (Claim). An op holding a lock above the leaf level (an
// internal split or flip, a merge) claims with TryClaim and backs off or
// aborts when none is free. A split's ascent only ever needs the next
// level's slot or the root's, whose holder ascends the same way, so the
// reserve keeps ascents moving however many leaf splits hold the general
// slots.
class IntentTable {
 public:
  IntentTable(rdma::Fabric* fabric, int cs_id)
      : fabric_(fabric), cs_id_(cs_id) {
    SHERMAN_CHECK_MSG(cs_id_ >= 0 && cs_id_ < static_cast<int>(kMaxIntentClients),
                      "client id outside the intent slab");
    for (uint32_t i = 0; i < kIntentSlotsPerClient; i++) free_ |= 1u << i;
  }

  IntentTable(const IntentTable&) = delete;
  IntentTable& operator=(const IntentTable&) = delete;

  // Crash hygiene: a publisher still parked for a slot at destruction
  // belongs to a dead client; keep its frame reachable (see the fault
  // graveyard).
  ~IntentTable() {
    for (std::coroutine_handle<> h : slot_waiters_.DetachAll()) {
      fault::Injector().Bury(h);
    }
  }

  // Claims a general slot, waiting while none is free.
  sim::Task<int> Claim() {
    while ((free_ & kGeneral) == 0) co_await slot_waiters_.Wait();
    co_return Take(std::countr_zero(free_ & kGeneral));
  }

  // Claims without waiting: the reserved slot of an `op` at `level` (none
  // at the leaf level), else a general slot; -1 when neither is free.
  int TryClaim(IntentOp op, uint8_t level) {
    const int reserved = ReservedSlot(op, level);
    if (reserved >= 0 && (free_ & (1u << reserved)) != 0) {
      return Take(reserved);
    }
    if ((free_ & kGeneral) == 0) return -1;
    return Take(std::countr_zero(free_ & kGeneral));
  }

  // Writes `rec` into the claimed `slot`, then counts `landed` down when
  // one is given. Awaited, the record is durable on MS 0 before the
  // caller's first structural write. Spawned, the WRITE is posted before
  // Spawn returns, so a structural write the caller posts next follows it
  // in post order (DMSan rule V3) and lands beside it.
  sim::Task<void> Publish(int slot, const IntentRecord& rec, OpStats* stats,
                          sim::CountdownLatch* landed = nullptr) {
    rec.Serialize(staged_[slot]);
    rdma::RdmaResult r = co_await fabric_->qp(cs_id_, 0).Post(
        rdma::WorkRequest::Write(IntentSlotAddress(cs_id_, slot),
                                 staged_[slot], kIntentSlotBytes));
    if (stats != nullptr) stats->round_trips++;
    SHERMAN_CHECK(r.status.ok());
    if (landed != nullptr) landed->Arrive();
  }

  // Clears the slot after the op's last structural write (or releases a
  // claimed slot never published), WITHOUT blocking the caller: the
  // zeroing WRITE is posted synchronously here (posted work completes
  // even if the client's CPU dies right after — the NIC owns it), so the
  // one-RTT clear leaves the op's critical path. The slot becomes
  // reusable when the completion lands. A crash that fires before this
  // call leaves a COMPLETED intent behind, which recovery resolves as a
  // no-op: every replay is idempotent past its commit point, and
  // rolled-forward frees are idempotent at the grace list.
  void ClearAsync(int slot) {
    SHERMAN_CHECK(slot >= 0 && slot < static_cast<int>(kIntentSlotsPerClient));
    std::memset(staged_[slot], 0, kIntentSlotBytes);
    sim::Spawn(ClearTask(slot));
  }

 private:
  static constexpr uint32_t kGeneral =
      (1u << (kIntentSlotsPerClient - kReservedIntentSlots)) - 1;

  // Root installs take the last slot; internal level l the l-th of the
  // ones before it, counting down.
  static int ReservedSlot(IntentOp op, uint8_t level) {
    constexpr int kRoot = kIntentSlotsPerClient - 1;
    if (op == IntentOp::kRoot) return kRoot;
    if (level == 0) return -1;
    return kRoot - std::min<int>(level, kReservedIntentLevels);
  }

  int Take(int slot) {
    free_ &= ~(1u << slot);
    return slot;
  }

  sim::Task<void> ClearTask(int slot) {
    rdma::RdmaResult r = co_await fabric_->qp(cs_id_, 0).Post(
        rdma::WorkRequest::Write(IntentSlotAddress(cs_id_, slot),
                                 staged_[slot], kIntentSlotBytes));
    SHERMAN_CHECK(r.status.ok());
    free_ |= 1u << slot;
    // Only general slots have waiters.
    if ((kGeneral & (1u << slot)) != 0) slot_waiters_.WakeOne();
  }

  rdma::Fabric* fabric_;
  int cs_id_;
  uint32_t free_ = 0;  // bitmap of free slots
  // Staging buffers: WRITE payloads are snapshotted at post time, but the
  // per-slot buffer keeps Publish re-entrant across slots.
  uint8_t staged_[kIntentSlotsPerClient][kIntentSlotBytes] = {};
  sim::CoroQueue slot_waiters_;
};

}  // namespace sherman::recover

#endif  // SHERMAN_RECOVER_INTENT_H_
