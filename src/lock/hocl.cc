#include "lock/hocl.h"

#include <utility>

#include "obs/trace.h"
#include "sanitizer/dmsan.h"
#include "util/logging.h"

namespace sherman {

namespace {
// Local spin interval when hierarchical && !wait_queue.
constexpr sim::SimTime kLocalSpinNs = 500;

// DMSan feed: the acquire CAS's outcome is unknown at post time, so
// successful acquisitions are reported explicitly at completion — the
// shadow-held window is then a strict subset of the actual held window.
void DmsanLockAcquired(rdma::Fabric* fabric, int cs_id,
                       const GlobalLockRef& ref, uint16_t lane_value) {
  if (!dmsan::Active()) return;
  if (dmsan::Checker* c = dmsan::Find(&fabric->simulator())) {
    c->OnLockAcquired(cs_id, ref, lane_value);
  }
}

void DmsanLockReleased(rdma::Fabric* fabric, int cs_id,
                       const GlobalLockRef& ref) {
  if (!dmsan::Active()) return;
  if (dmsan::Checker* c = dmsan::Find(&fabric->simulator())) {
    c->OnLockReleased(cs_id, ref);
  }
}

// Posts `wrs` in order: one doorbell batch when `combine` (§4.5), else
// each WR awaited before the next, as FG does.
sim::Task<void> PostInOrder(rdma::Qp& qp, std::vector<rdma::WorkRequest> wrs,
                            bool combine, OpStats* stats) {
  if (wrs.empty()) co_return;
  if (combine) {
    rdma::RdmaResult r = co_await qp.PostBatch(std::move(wrs));
    if (stats != nullptr) stats->round_trips++;
    SHERMAN_CHECK(r.status.ok());
    co_return;
  }
  for (const rdma::WorkRequest& wr : wrs) {
    rdma::RdmaResult r = co_await qp.Post(wr);
    if (stats != nullptr) stats->round_trips++;
    SHERMAN_CHECK(r.status.ok());
  }
}
}  // namespace

HoclClient::HoclClient(rdma::Fabric* fabric, int cs_id, HoclOptions options)
    : fabric_(fabric),
      cs_id_(cs_id),
      options_(options),
      handovers_(fabric->registry().GetCounter("lock.handovers")),
      cas_attempts_(fabric->registry().GetCounter("lock.cas_attempts")),
      cas_failures_(fabric->registry().GetCounter("lock.cas_failures")),
      lease_steals_(fabric->registry().GetCounter("lock.lease_steals")) {
  // The lease encoding keeps the owner tag in the lane's low byte.
  SHERMAN_CHECK_MSG(cs_id_ >= 0 && cs_id_ < 0xff,
                    "owner tag must fit the lane's owner byte");
}

uint16_t HoclClient::LeaseStampNow() const {
  // Quantized clock, folded into 1..255 (0 is the lease-free encoding).
  const uint64_t period =
      static_cast<uint64_t>(fabric_->simulator().now()) /
      static_cast<uint64_t>(options_.lease_period_ns);
  return static_cast<uint16_t>(period % 255) + 1;
}

bool HoclClient::LaneExpired(uint16_t lane) const {
  const uint16_t stamp = LockLaneStamp(lane);
  if (LockLaneOwner(lane) == 0 || stamp == 0) return false;  // free / no lease
  const uint16_t now = LeaseStampNow();
  // Wrap-aware age over the 255-value stamp ring. Ages in the far half are
  // treated as fresh (alias of a very old stamp only delays detection by a
  // few periods — the waiter keeps polling and the age keeps growing).
  const uint16_t age =
      static_cast<uint16_t>((now - stamp + 255) % 255);
  return age >= options_.lease_expiry_periods && age <= 127;
}

uint16_t HoclClient::AcquireLane() const {
  return MakeLockLane(OwnerTag(), LeasesActive() ? LeaseStampNow() : 0);
}

sim::Task<HoclClient::Acquired> HoclClient::AcquireGlobal(
    const GlobalLockRef& ref, uint32_t max_attempts, bool stop_on_dead,
    OpStats* stats) {
  rdma::Qp& qp = fabric_->qp(cs_id_, ref.ms);
  const int shift = ref.lane_shift();
  for (uint32_t i = 0; max_attempts == kWaitForever || i < max_attempts;
       i++) {
    uint64_t fetched = 0;
    cas_attempts_->Inc();
    const uint16_t lane_value = AcquireLane();
    auto wr = rdma::WorkRequest::MaskedCas(
        ref.word_address(), 0,
        static_cast<uint64_t>(lane_value) << shift, ref.lane_mask(),
        &fetched, ref.space);
    wr.origin = rdma::kWrOriginLock;
    rdma::RdmaResult r = co_await qp.Post(wr);
    if (stats != nullptr) stats->round_trips++;
    SHERMAN_CHECK(r.status.ok());
    if (r.cas_success) {
      if (options_.hierarchical) {
        llt_.Get(ref.ms, ref.index).lane_stamp = LockLaneStamp(lane_value);
      }
      DmsanLockAcquired(fabric_, cs_id_, ref, lane_value);
      co_return Acquired{.ok = true};
    }
    cas_failures_->Inc();
    if (stats != nullptr) stats->lock_retries++;
    // Crash detection: a fetched lane whose lease stamp has expired marks
    // a dead holder, which no number of further attempts will ever see
    // release.
    const uint16_t lane =
        static_cast<uint16_t>((fetched & ref.lane_mask()) >> shift);
    if (stop_on_dead && LeasesActive() && LockLaneOwner(lane) != OwnerTag() &&
        LaneExpired(lane)) {
      co_return Acquired{.dead_tag = LockLaneOwner(lane)};
    }
  }
  co_return Acquired{};
}

bool HoclClient::AcquireLocal(LocalLockTable::LocalLock& local) {
  if (!local.held) {
    local.held = true;
    return false;
  }
  return true;  // caller must park (wait queue) or spin
}

void HoclClient::ReleaseLocal(const GlobalLockRef& ref) {
  LocalLockTable::LocalLock& local = llt_.Get(ref.ms, ref.index);
  local.handover_depth = 0;
  if (options_.wait_queue && !local.wait_queue.empty()) {
    // Transfer local ownership FIFO; the successor re-acquires the global
    // lock itself. Fire resumes it inline, so `local` is not touched after.
    LocalLockTable::Waiter* w = local.wait_queue.front();
    local.wait_queue.pop_front();
    w->handover = false;
    w->signal.Fire();
    return;
  }
  llt_.Drop(ref.ms, ref.index);
}

sim::Task<LockGuard> HoclClient::Lock(rdma::GlobalAddress node_addr,
                                      OpStats* stats) {
  SHERMAN_TEVENT(stats != nullptr ? stats->trace : nullptr, "lock.acquire",
                 node_addr.node);
  LockGuard guard;
  guard.ref = LockFor(node_addr, options_.onchip);
  // A waiter stops on an expired lease only when it can recover the dead
  // holder; otherwise it waits the lane out.
  const bool recovers = recovery_hook_ != nullptr;

  while (true) {
    // Hierarchical: serialize conflicting threads of this CS locally
    // before touching the network (lines 6-16 of Figure 6). FG-style
    // clients hammer the remote lock directly.
    if (options_.hierarchical) {
      LocalLockTable::LocalLock* local =
          &llt_.Get(guard.ref.ms, guard.ref.index);
      if (AcquireLocal(*local)) {
        if (options_.wait_queue) {
          LocalLockTable::Waiter waiter;
          local->wait_queue.push_back(&waiter);
          co_await waiter.signal;  // woken by Unlock, holding the local lock
          if (waiter.handover) {
            guard.via_handover = true;
            handovers_->Inc();
            if (stats != nullptr) stats->used_handover = true;
            SHERMAN_TINSTANT(stats != nullptr ? stats->trace : nullptr,
                             "lock.handover");
            co_return guard;  // global lock inherited: no remote access
          }
        } else {
          // No wait queue: unfair local spinning. A spinner neither holds
          // nor queues, so the holder's release may drop the entry; fetch
          // it again after every delay.
          do {
            co_await fabric_->simulator().Delay(kLocalSpinNs);
            local = &llt_.Get(guard.ref.ms, guard.ref.index);
          } while (local->held);
          local->held = true;
        }
      }
    }

    const Acquired a =
        co_await AcquireGlobal(guard.ref, kWaitForever, recovers, stats);
    if (a.ok) co_return guard;

    // The holder is dead. Drop the local lane BEFORE recovering: recovery
    // locks the torn nodes with this very protocol, and parking on a
    // local lane while the recoverer needs it would deadlock this CS
    // against itself. After recovery the full local+global acquisition
    // re-runs (another local thread may legitimately have won meanwhile).
    if (options_.hierarchical) ReleaseLocal(guard.ref);
    lease_steals_->Inc();
    SHERMAN_TINSTANT(stats != nullptr ? stats->trace : nullptr,
                     "lock.lease_steal", a.dead_tag);
    co_await recovery_hook_(a.dead_tag);
  }
}

sim::Task<Status> HoclClient::TryLock(rdma::GlobalAddress node_addr,
                                      uint32_t max_attempts, LockGuard* guard,
                                      OpStats* stats) {
  SHERMAN_TEVENT(stats != nullptr ? stats->trace : nullptr, "lock.try",
                 node_addr.node, max_attempts);
  LockGuard g;
  g.ref = LockFor(node_addr, options_.onchip);

  if (options_.hierarchical) {
    LocalLockTable::LocalLock& local = llt_.Get(g.ref.ms, g.ref.index);
    // A local holder/contender means waiting — exactly what a bounded
    // acquire must not do. The caller's protocol is opportunistic.
    if (local.held) co_return Status::Retry("local lane contended");
    local.held = true;
  }

  // A dead holder always stops the bounded loop: no number of attempts
  // will ever see its lane released.
  const Acquired a =
      co_await AcquireGlobal(g.ref, max_attempts, /*stop_on_dead=*/true, stats);
  if (a.ok) {
    *guard = g;
    co_return Status::OK();
  }
  if (options_.hierarchical) ReleaseLocal(g.ref);
  if (a.dead_tag != 0) {
    // Surface the dead holder WITHOUT recovering inline (and without
    // counting a steal — nothing was stolen): TryLock callers are
    // multi-lock protocols still holding their primary lock, and
    // recovery (which locks torn nodes with the ordinary protocol) must
    // never run under a caller-held lock. The caller aborts and releases;
    // recovery happens when an unbounded Lock() — which holds nothing
    // while it waits — lands on one of the dead client's lanes, which
    // any primary op targeting the nodes behind this lane will do.
    co_return Status::LeaseSteal("bounded acquire found a dead holder");
  }
  co_return Status::Retry("global lane contended");
}

sim::Task<void> HoclClient::RenewLease(const LockGuard& guard, OpStats* stats) {
  if (!LeasesActive()) co_return;
  const GlobalLockRef& ref = guard.ref;
  // The lane is exclusively ours; a plain 2-byte WRITE re-stamps it. The
  // payload is snapshotted when the WR is posted, so a frame-local is
  // fine. Skipped when the stamp is still current, so long protocols can
  // renew at every phase for free except when a period boundary passed.
  const uint16_t lane = MakeLockLane(OwnerTag(), LeaseStampNow());
  if (options_.hierarchical) {
    LocalLockTable::LocalLock& local = llt_.Get(ref.ms, ref.index);
    if (local.lane_stamp == LockLaneStamp(lane)) co_return;
    local.lane_stamp = LockLaneStamp(lane);
  }
  SHERMAN_TINSTANT(stats != nullptr ? stats->trace : nullptr, "lock.renew");
  rdma::WorkRequest renew = rdma::WorkRequest::Write(
      ref.lane_address(), &lane, sizeof(lane), ref.space);
  renew.origin = rdma::kWrOriginLock;
  rdma::RdmaResult r = co_await fabric_->qp(cs_id_, ref.ms).Post(renew);
  if (stats != nullptr) stats->round_trips++;
  SHERMAN_CHECK(r.status.ok());
}

sim::Task<void> HoclClient::Unlock(LockGuard guard,
                                   std::vector<rdma::WorkRequest> write_backs,
                                   bool combine, OpStats* stats) {
  SHERMAN_TEVENT(stats != nullptr ? stats->trace : nullptr, "lock.release",
                 write_backs.size());
  const GlobalLockRef& ref = guard.ref;
  rdma::Qp& qp = fabric_->qp(cs_id_, ref.ms);

  LocalLockTable::LocalLock* local = nullptr;
  LocalLockTable::Waiter* next = nullptr;
  uint16_t renew_lane = 0;  // frame-local: posted before this frame returns
  if (options_.hierarchical) {
    local = &llt_.Get(ref.ms, ref.index);
    SHERMAN_CHECK(local->held);
    if (options_.wait_queue && !local->wait_queue.empty()) {
      next = local->wait_queue.front();
    }
  }

  const bool hand_over = options_.handover && next != nullptr &&
                         local->handover_depth < options_.max_handover_depth;

  // Build the release write: zero the 16-bit lane (or FAA back, for the
  // original FG configuration).
  static const uint16_t kZero = 0;
  rdma::WorkRequest release =
      options_.release_with_faa
          ? rdma::WorkRequest::Faa(
                ref.word_address(),
                static_cast<uint64_t>(-static_cast<uint64_t>(OwnerTag()))
                    << ref.lane_shift(),
                nullptr, ref.space)
          : rdma::WorkRequest::Write(ref.lane_address(), &kZero,
                                     sizeof(kZero), ref.space);
  release.origin = rdma::kWrOriginLock;

  if (hand_over) {
    // Keep the global lock; flush pending write-backs, then wake the next
    // local waiter with the lock in hand. Posting before waking keeps QP
    // order: the successor's reads execute after these writes.
    local->handover_depth++;
    // A handover chain keeps the lane stamped with the FIRST acquirer's
    // lease. Re-stamp when the stamp has gone stale (crossed a lease
    // period) so a long chain can never age a LIVE holder's lease into
    // an expiry — the 2-byte write rides the write-back batch (or is the
    // batch, at most once per period per lane).
    if (LeasesActive() && local->lane_stamp != 0 &&
        local->lane_stamp != LeaseStampNow()) {
      local->lane_stamp = LeaseStampNow();
      renew_lane = MakeLockLane(OwnerTag(), local->lane_stamp);
      rdma::WorkRequest restamp = rdma::WorkRequest::Write(
          ref.lane_address(), &renew_lane, sizeof(renew_lane), ref.space);
      restamp.origin = rdma::kWrOriginLock;
      write_backs.push_back(restamp);
    }
    co_await PostInOrder(qp, std::move(write_backs), combine, stats);
    LocalLockTable::Waiter* w = local->wait_queue.front();
    local->wait_queue.pop_front();
    w->handover = true;
    w->signal.Fire();
    co_return;
  }

  // Full release: write-backs followed by the global release, combined into
  // one doorbell batch when command combination is on (§4.5).
  write_backs.push_back(release);
  co_await PostInOrder(qp, std::move(write_backs), combine, stats);

  // The FAA release is an arithmetic delta, not a lane image, so DMSan
  // cannot decode it from the posted WR; clear the shadow explicitly.
  if (options_.release_with_faa) DmsanLockReleased(fabric_, cs_id_, ref);

  if (options_.hierarchical) ReleaseLocal(ref);
  co_return;
}

}  // namespace sherman
