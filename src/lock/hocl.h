// HoclClient: the hierarchical on-chip lock (§4.3), one instance per
// compute server, shared by its client threads.
//
// Every stage of the design is independently toggleable so the ablations of
// Figures 10, 11 and 16 are real configurations:
//   onchip        — global lock table in NIC on-chip memory vs. host DRAM
//   hierarchical  — acquire a CS-local lock before the remote CAS
//   wait_queue    — FIFO wait queue on local locks vs. local spinning
//   handover      — pass the held global lock to the next local waiter
//                   (bounded by max_handover_depth, default 4)
//
// Unlock() takes the operation's pending write-backs: with command
// combination (§4.5) they are doorbell-batched together with the lock-
// release write (one round trip); without it, each write is issued and
// awaited separately, then the release follows — the behaviour of FG.
#ifndef SHERMAN_LOCK_HOCL_H_
#define SHERMAN_LOCK_HOCL_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/stats.h"
#include "lock/local_lock_table.h"
#include "lock/lock_table.h"
#include "rdma/fabric.h"
#include "sim/task.h"

namespace sherman {

struct HoclOptions {
  bool onchip = true;
  bool hierarchical = true;
  bool wait_queue = true;
  bool handover = true;
  uint32_t max_handover_depth = 4;  // MAX_DEPTH in Figure 6
  // Original FG releases with RDMA_FAA; FG+ and Sherman use RDMA_WRITE.
  bool release_with_faa = false;

  // --- lock leases (crash-fault tolerance) ---
  // Holders stamp the current fabric-wide lease id (the clock quantized
  // by lease_period_ns) into the lock lane's high byte on acquisition; a
  // waiter that fetches a lane whose stamp lags the current lease id by
  // at least lease_expiry_periods concludes the holder crashed, awaits
  // the recovery hook (which resolves the dead client's in-doubt intents
  // and releases its lanes), and then acquires normally. The period must
  // comfortably exceed the longest lock hold (multi-lock merge / flip
  // protocols hold for tens of microseconds; ordinary ops for a few);
  // long holders renew via RenewLease. Off under release_with_faa (the
  // arithmetic release cannot carry a stamp).
  sim::SimTime lease_period_ns = 100'000;
  uint32_t lease_expiry_periods = 4;
};

// Returned by Lock(); pass back to Unlock().
struct LockGuard {
  GlobalLockRef ref;
  bool via_handover = false;
};

class HoclClient {
 public:
  // Awaited when a lock waiter observes an expired lease: receives the
  // dead holder's owner tag and must resolve that client's in-doubt
  // intents and release its lanes before returning (see
  // recover::Recoverer). Must be re-entrant-safe: several waiters of the
  // same survivor can observe the same dead tag concurrently.
  using RecoveryHook = std::function<sim::Task<void>(uint16_t dead_tag)>;

  // Counts into the fabric's registry as lock.*.
  HoclClient(rdma::Fabric* fabric, int cs_id, HoclOptions options);

  HoclClient(const HoclClient&) = delete;
  HoclClient& operator=(const HoclClient&) = delete;

  void set_recovery_hook(RecoveryHook hook) { recovery_hook_ = std::move(hook); }

  // Acquires the exclusive lock guarding `node_addr` (Figure 6, HOCL_Lock).
  sim::Task<LockGuard> Lock(rdma::GlobalAddress node_addr, OpStats* stats);

  // Bounded acquisition for multi-lock protocols (leaf merging): fails
  // with Retry immediately if this CS already holds or contends the
  // local lock, and bounds the global CAS attempts; on failure nothing
  // is held and `*guard` is untouched. Lock() waits forever, which is
  // fine for a single lock but can deadlock an agent holding one lane
  // while waiting on another: the finite lock table hashes distinct
  // nodes onto shared lanes, so two agents' lock SETS can alias into a
  // waits-for cycle no local ordering discipline can rule out.
  // Multi-lock holders use TryLock for every lock after their first and
  // abort their protocol on failure instead.
  //
  // Returns OK (acquired), Retry (live contention; back off and
  // re-resolve), or LeaseSteal: an attempt fetched an EXPIRED lease — the
  // holder is dead and will never release, so the bounded retry loop
  // stops instead of the old unbounded abort/backoff/retry storm.
  // TryLock does NOT drive recovery itself: its callers are multi-lock
  // protocols still holding their primary lock, and recovery must never
  // run under a caller-held lock (it locks the torn nodes with this very
  // protocol). The caller aborts its protocol on LeaseSteal; the dead
  // lane is actually recovered when an unbounded Lock() — which waits
  // holding nothing — lands on it, which any primary op targeting the
  // nodes behind the lane eventually does.
  sim::Task<Status> TryLock(rdma::GlobalAddress node_addr,
                            uint32_t max_attempts, LockGuard* guard,
                            OpStats* stats);

  // Re-stamps the held lock's lane with a fresh lease id (one 2-byte
  // WRITE). Long-running holders (migration passes, recovery itself)
  // call this between protocol phases so their lease never expires under
  // a live client.
  sim::Task<void> RenewLease(const LockGuard& guard, OpStats* stats);

  // Releases the lock (Figure 6, HOCL_Unlock), first applying `write_backs`
  // (all must target the lock's MS if `combine` is set — command
  // combination rides the in-order QP).
  sim::Task<void> Unlock(LockGuard guard,
                         std::vector<rdma::WorkRequest> write_backs,
                         bool combine, OpStats* stats);

  // The current lease stamp (the quantized clock's low byte, never 0 so a
  // stamped lane is distinguishable from the lease-free encoding).
  uint16_t LeaseStampNow() const;
  // Does `lane` (fetched from the GLT) carry an expired lease?
  bool LaneExpired(uint16_t lane) const;

  const HoclOptions& options() const { return options_; }

  // CS-local lanes currently held or waited on.
  size_t live_local_lanes() const { return llt_.touched(); }

  // The 16-bit owner tag this CS writes into a lock it owns (low byte of
  // the lane).
  uint16_t OwnerTag() const { return static_cast<uint16_t>(cs_id_) + 1; }

 private:
  // The remote acquisition loop on the GLT (lines 17-19 of Figure 6),
  // shared by Lock and TryLock: posts the masked CAS until it succeeds or
  // `max_attempts` posts failed (kWaitForever: never). With `stop_on_dead`,
  // a fetched lane whose lease expired stops the loop and reports the
  // dead holder: Lock drops its local lane and drives recovery, TryLock
  // surfaces LeaseSteal.
  struct Acquired {
    bool ok = false;        // the lane is ours
    uint16_t dead_tag = 0;  // else the dead holder that stopped the loop
  };
  static constexpr uint32_t kWaitForever = UINT32_MAX;
  sim::Task<Acquired> AcquireGlobal(const GlobalLockRef& ref,
                                    uint32_t max_attempts, bool stop_on_dead,
                                    OpStats* stats);

  // Local-lane helpers shared by Lock's acquisition loop, the bounded
  // TryLock and Unlock. AcquireLocal returns true when the lane is
  // contended (the caller parks or spins); ReleaseLocal hands the lane to
  // the next local waiter FIFO, or drops its entry when nobody waits.
  bool AcquireLocal(LocalLockTable::LocalLock& local);
  void ReleaseLocal(const GlobalLockRef& ref);

  // The full lane value for a fresh acquisition (owner tag + lease stamp).
  uint16_t AcquireLane() const;
  bool LeasesActive() const { return !options_.release_with_faa; }

  rdma::Fabric* fabric_;
  int cs_id_;
  HoclOptions options_;
  LocalLockTable llt_;
  RecoveryHook recovery_hook_;
  // lock.* in the fabric's registry, shared by every CS's client.
  obs::Counter* handovers_;
  obs::Counter* cas_attempts_;  // global lock-table CAS attempts
  obs::Counter* cas_failures_;
  obs::Counter* lease_steals_;
};

}  // namespace sherman

#endif  // SHERMAN_LOCK_HOCL_H_
