#include "recover/recoverer.h"

#include <string>
#include <utility>

#include "fault/crash_point.h"
#include "lock/lock_table.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace sherman::recover {

namespace {
// Bounded retries for live-contention waits inside recovery. Recovery only
// ever waits on LIVE holders (the dead client's lanes are swept first), so
// these bounds are generous safety rails, not correctness knobs.
constexpr uint32_t kResolveAttempts = 64;
constexpr sim::SimTime kResolveBackoffNs = 2'000;
constexpr uint32_t kClaimAttempts = 1 << 16;
}  // namespace

Recoverer::Recoverer(ShermanSystem* system, TreeClient* client)
    : system_(system), t_(client) {
  obs::Registry& r = system_->registry();
  recoveries_ = r.GetCounter("recover.recoveries");
  partial_recoveries_ = r.GetCounter("recover.partial_recoveries");
  intents_replayed_ = r.GetCounter("recover.intents_replayed");
  intents_rolled_back_ = r.GetCounter("recover.intents_rolled_back");
  lanes_swept_ = r.GetCounter("recover.lanes_swept");
  orphans_freed_ = r.GetCounter("recover.orphans_freed");
  trace_ = obs::TraceCtx::For(&system_->tracer(),
                              obs::RingId::Recoverer(t_->cs_id()));
}

Recoverer::~Recoverer() {
  // A survivor torn down mid-recovery (a crash test ending while it is
  // frozen) leaves its parked waiters behind; hand them to the fault
  // graveyard like every other dead wait queue.
  for (auto& [tag, parked] : in_progress_) {
    for (std::coroutine_handle<> h : parked.DetachAll()) {
      fault::Injector().Bury(h);
    }
  }
}

uint32_t Recoverer::node_size() const {
  return system_->options().shape.node_size;
}

sim::Task<bool> Recoverer::CasClaim(int dead_cs, uint64_t* expected,
                                    uint64_t desired) {
  uint64_t fetched = 0;
  rdma::RdmaResult r =
      co_await system_->fabric()
          .qp(t_->cs_id(), 0)
          .Post(rdma::WorkRequest::Cas(RecoveryClaimAddress(dead_cs),
                                       *expected, desired, &fetched));
  SHERMAN_CHECK(r.status.ok());
  if (r.cas_success) *expected = desired;
  co_return r.cas_success;
}

sim::Task<uint64_t> Recoverer::ClaimDeadClient(int dead_cs) {
  rdma::Qp& qp = system_->fabric().qp(t_->cs_id(), 0);
  const rdma::GlobalAddress addr = RecoveryClaimAddress(dead_cs);
  bool observed_busy = false;
  for (uint32_t i = 0; i < kClaimAttempts; i++) {
    const uint64_t mine =
        MakeLockLane(t_->hocl().OwnerTag(), t_->hocl().LeaseStampNow());
    uint64_t fetched = 0;
    rdma::RdmaResult r =
        co_await qp.Post(rdma::WorkRequest::Cas(addr, 0, mine, &fetched));
    SHERMAN_CHECK(r.status.ok());
    if (r.cas_success) co_return mine;
    const uint16_t lane = static_cast<uint16_t>(fetched & 0xffff);
    if (t_->hocl().LaneExpired(lane)) {
      // The previous recoverer died mid-recovery; take over (every
      // recovery step is idempotent, so re-running from the top is safe).
      rdma::RdmaResult r2 = co_await qp.Post(
          rdma::WorkRequest::Cas(addr, fetched, mine, &fetched));
      SHERMAN_CHECK(r2.status.ok());
      if (r2.cas_success) co_return mine;
      continue;
    }
    // A live survivor is recovering. Wait for it to release the claim —
    // once the word reads zero again the dead client is fully recovered.
    observed_busy = true;
    co_await system_->simulator().Delay(
        t_->hocl().options().lease_period_ns / 2);
    uint64_t word = 0;
    rdma::RdmaResult rr = co_await qp.Post(
        rdma::WorkRequest::Read(addr, &word, 8));
    SHERMAN_CHECK(rr.status.ok());
    if (word == 0 && observed_busy) co_return 0;
  }
  SHERMAN_CHECK_MSG(false, "recovery claim starved");
  co_return 0;
}

sim::Task<void> Recoverer::SweepLocks(uint16_t dead_tag) {
  SHERMAN_TEVENT(&trace_, "recover.sweep_locks", dead_tag);
  for (int ms = 0; ms < system_->fabric().num_memory_servers(); ms++) {
    const uint64_t swept = co_await system_->fabric()
                               .qp(t_->cs_id(), ms)
                               .Rpc(kRpcSweepLocks, dead_tag);
    lanes_swept_->Inc(swept);
  }
}

sim::Task<void> Recoverer::ClearRemoteSlot(int dead_cs, int slot) {
  static const uint8_t kZeros[kIntentSlotBytes] = {};
  rdma::RdmaResult r =
      co_await system_->fabric()
          .qp(t_->cs_id(), 0)
          .Post(rdma::WorkRequest::Write(IntentSlotAddress(dead_cs, slot),
                                         kZeros, kIntentSlotBytes));
  SHERMAN_CHECK(r.status.ok());
}

sim::Task<void> Recoverer::FreeNodeRemote(rdma::GlobalAddress addr) {
  // Replayed/rolled-back splits, roots and merges may retire a leaf the
  // hint sidecar still maps; drop the mapping before the free (DMSan V6).
  // A flip's frees are its own tails' (TreeClient::FinishFlip and
  // RollBackFlip).
  co_await t_->HintInvalidate(addr, nullptr);
  co_await system_->fabric()
      .qp(t_->cs_id(), addr.node)
      .Rpc(kRpcFreeNode, addr.offset, node_size());
  orphans_freed_->Inc();
}

sim::Task<void> Recoverer::RecoverDeadOwner(uint16_t dead_tag) {
  SHERMAN_CHECK(dead_tag != 0);
  const int dead_cs = static_cast<int>(dead_tag) - 1;
  SHERMAN_CHECK_MSG(dead_cs != t_->cs_id(),
                    "a client cannot recover itself");
  if (auto it = in_progress_.find(dead_tag); it != in_progress_.end()) {
    // Another coroutine of this survivor is already on it. Park until it
    // has swept the dead client's lanes (or ended): a lock waiter that
    // re-contended sooner would only fetch the dead lane again.
    co_await it->second.Wait();
    co_return;
  }
  sim::CoroQueue& parked = in_progress_[dead_tag];
  const sim::SimTime t0 = system_->simulator().now();

  // Flight-record the moment of activation: the dead client's last spans
  // (what it was doing when it died) and this survivor's recent history.
  system_->tracer().DumpToStderr(
      "recovery activated: cs" + std::to_string(t_->cs_id()) +
          " recovering dead owner tag " + std::to_string(dead_tag),
      {obs::RingId::Client(dead_cs), obs::RingId::Client(t_->cs_id()),
       obs::RingId::Recoverer(t_->cs_id())});
  SHERMAN_TSPAN(&trace_, "recover.recover_dead", dead_tag);

  uint64_t claim = co_await ClaimDeadClient(dead_cs);
  if (claim != 0) {
    // Read the dead client's whole intent slab in one READ.
    std::vector<uint8_t> slab(kIntentSlotsPerClient * kIntentSlotBytes);
    rdma::RdmaResult r =
        co_await system_->fabric()
            .qp(t_->cs_id(), 0)
            .Post(rdma::WorkRequest::Read(IntentSlotAddress(dead_cs, 0),
                                          slab.data(),
                                          static_cast<uint32_t>(slab.size())));
    SHERMAN_CHECK(r.status.ok());

    // Release every lane the dead client holds BEFORE resolving intents:
    // the resolution below re-acquires what it needs with the ordinary
    // HOCL protocol, and survivors blocked on dead lanes unwedge
    // immediately. Torn states stay invisible meanwhile (fence / free-flag
    // validation bounces readers; writers re-verify under their locks).
    co_await SweepLocks(dead_tag);
    parked.WakeAll();

    bool all_resolved = true;
    bool usurped = false;
    for (uint32_t slot = 0; slot < kIntentSlotsPerClient && !usurped;
         slot++) {
      const IntentRecord rec =
          IntentRecord::Deserialize(slab.data() + slot * kIntentSlotBytes);
      if (rec.op == IntentOp::kNone) continue;
      // Re-stamp the claim BEFORE each resolution — one resolution's
      // bounded retry loops can outlast a lease period. A failed CAS
      // means our claim lease expired and another survivor took over:
      // stop immediately and leave the word alone (every step so far is
      // idempotent; the usurper finishes the job).
      if (!co_await CasClaim(dead_cs, &claim,
                             MakeLockLane(t_->hocl().OwnerTag(),
                                          t_->hocl().LeaseStampNow()))) {
        usurped = true;
        break;
      }
      SHERMAN_TINSTANT(&trace_, "recover.intent",
                       static_cast<uint64_t>(rec.op));
      Status st = co_await RecoverIntent(rec);
      if (!st.ok()) {
        all_resolved = false;
        continue;  // intent stays published; a later trigger retries it
      }
      co_await ClearRemoteSlot(dead_cs, slot);
    }

    if (usurped || !all_resolved) {
      partial_recoveries_->Inc();
      if (!usurped) co_await CasClaim(dead_cs, &claim, 0);
    } else {
      // With every intent resolved, the dead client's reclamation pins
      // can go: recycling (frozen fabric-wide since the crash) resumes.
      // An unresolved intent keeps the pins — they are what protects the
      // tombstoned nodes the retry will still read.
      system_->reclaim_epoch().MarkDead(dead_cs);
      recoveries_->Inc();
      co_await CasClaim(dead_cs, &claim, 0);
    }
  }

  last_duration_ns_ = system_->simulator().now() - t0;
  // Out of the map first: a woken waiter that meets the tag again starts
  // a fresh recovery rather than parking on a queue nobody wakes.
  in_progress_.extract(dead_tag).mapped().WakeAll();
}

sim::Task<Status> Recoverer::RecoverIntent(const IntentRecord& rec) {
  // A resolution reads through this survivor's cache like any index
  // operation, so it pins the reclamation epoch like one: a stale
  // translation may name a node freed long ago (an explicit operator call
  // holds no op's pin).
  EpochPin pin(&system_->reclaim_epoch(), t_->cs_id());
  switch (rec.op) {
    case IntentOp::kRoot:
      co_return co_await RecoverRoot(rec);
    case IntentOp::kSplit:
      co_return co_await RecoverSplit(rec);
    case IntentOp::kMerge:
      co_return co_await RecoverMerge(rec);
    case IntentOp::kFlip:
      co_return co_await RecoverFlip(rec);
    case IntentOp::kNone:
      break;
  }
  co_return Status::OK();
}

// --- new-root install -------------------------------------------------------
//
// Commit point: the root-pointer CAS. The staged root node is reachable iff
// it sits on the leftmost spine under the CURRENT root (later growth can
// stack more roots above it), so walk the spine rather than compare the
// pointer alone.
sim::Task<Status> Recoverer::RecoverRoot(const IntentRecord& rec) {
  uint8_t ptr_buf[8];
  Status st = co_await t_->ReadRaw(rdma::GlobalAddress(0, kRootPointerOffset),
                                   ptr_buf, sizeof(ptr_buf), nullptr);
  SHERMAN_CHECK(st.ok());
  uint64_t packed;
  std::memcpy(&packed, ptr_buf, 8);
  rdma::GlobalAddress addr = rdma::GlobalAddress::FromU64(packed);

  std::vector<uint8_t> buf(node_size());
  for (int depth = 0; depth < 64 && !addr.is_null(); depth++) {
    if (addr == rec.primary) {
      intents_replayed_->Inc();  // committed; nothing left to do
      co_return Status::OK();
    }
    st = co_await t_->ReadNodeChecked(addr, buf.data(), nullptr);
    if (!st.ok()) co_return Status::Retry("root spine unreadable");
    NodeView view(buf.data(), &system_->options().shape);
    if (view.is_leaf()) break;
    addr = view.leftmost_child();
  }
  // Not reachable: the CAS never happened (or lost). The staged node is an
  // orphan allocation — retire it.
  co_await FreeNodeRemote(rec.primary);
  intents_rolled_back_->Inc();
  co_return Status::OK();
}

// --- leaf / internal split --------------------------------------------------
//
// Commit point: the doorbell batch that rewrites the split node with its
// shrunk fence + sibling pointer (and releases its lock). Detection: walk
// the primary's sibling chain across the original interval — the new
// sibling appears in the chain iff the commit batch landed. (Survivor
// activity after the lane sweep can insert more nodes into the chain or
// even tombstone the primary, but it can neither link the unpublished
// sibling nor unlink a linked one: unlinking a node requires removing its
// parent separator, which for the new sibling is exactly what the dead
// client never got to insert.)
sim::Task<Status> Recoverer::RecoverSplit(const IntentRecord& rec) {
  std::vector<uint8_t> buf(node_size());
  rdma::GlobalAddress addr = rec.primary;
  bool linked = false;
  for (int chase = 0; chase < 64 && !addr.is_null(); chase++) {
    if (addr == rec.second) {
      linked = true;
      break;
    }
    Status st = co_await t_->ReadNodeChecked(addr, buf.data(), nullptr);
    if (!st.ok()) co_return Status::Retry("split chain unreadable");
    NodeView view(buf.data(), &system_->options().shape);
    if (view.hi_fence() >= rec.hi) break;  // walked past the old interval
    addr = view.sibling();
  }

  if (!linked) {
    // Rolled back: the staged sibling was never published; nothing else
    // remote changed (the primary still covers the whole interval, or has
    // since been restructured by survivors — either way consistently).
    co_await FreeNodeRemote(rec.second);
    intents_rolled_back_->Inc();
    co_return Status::OK();
  }

  // Committed: the B-link chain already serves the new sibling's range;
  // replay the missing ascent so descents stop paying the sibling chase.
  // Only the dead client could have inserted this separator, so a plain
  // presence check is race-free.
  const Key sep = rec.aux;
  if (!co_await SeparatorPresent(sep, static_cast<uint8_t>(rec.level + 1))) {
    Status st = co_await t_->InsertInternal(
        sep, rec.second, static_cast<uint8_t>(rec.level + 1), nullptr);
    if (!st.ok()) co_return st;
  }
  intents_replayed_->Inc();
  co_return Status::OK();
}

sim::Task<bool> Recoverer::SeparatorPresent(Key sep, uint8_t level) {
  for (uint32_t attempt = 0; attempt < kResolveAttempts; attempt++) {
    StatusOr<rdma::GlobalAddress> pr =
        co_await t_->FindNodeAddr(sep, level, nullptr);
    if (!pr.ok()) {
      if (pr.status().IsRetry()) continue;
      co_return false;  // e.g. the tree is not that tall: no parent yet
    }
    ParsedInternal parsed;
    Status st = co_await t_->ReadInternalContaining(*pr, sep, &parsed, nullptr);
    if (!st.ok()) {
      if (st.IsRetry()) continue;
      co_return false;
    }
    for (const auto& [k, child] : parsed.entries) {
      if (k == sep) co_return true;
    }
    co_return false;
  }
  co_return false;
}

// --- leaf merge -------------------------------------------------------------
//
// Commit point: the tombstone write on the merged leaf L (the FIRST write
// of the publish sequence). If it never landed nothing remote changed and
// the intent is simply dropped. If it landed, [lo, hi) is dark until the
// parent entry is removed and the left sibling widened — replay those
// under freshly acquired locks, re-verifying the (possibly evolved)
// neighborhood exactly like the original merge protocol. If survivors
// have refilled the left sibling so the survivors no longer fit, undo
// instead: revive L (clear its free flag) and restore its parent link —
// the B-link chain serves [lo, hi) through the left sibling the moment L
// is live again.
sim::Task<Status> Recoverer::RecoverMerge(const IntentRecord& rec) {
  const TreeOptions& o = system_->options();
  const Key lo = rec.lo;
  const Key hi = rec.hi;
  OpStats stats;
  stats.trace = &trace_;

  // Hold L's lane for the whole resolution (post-sweep it is free; other
  // survivors bounce off the tombstone rather than contend).
  const TreeClient::Locked leaf{rec.primary,
                                co_await t_->hocl_.Lock(rec.primary, &stats)};
  std::vector<uint8_t> buf(node_size());
  Status st = co_await t_->ReadRaw(rec.primary, buf.data(), node_size(),
                                   &stats);
  SHERMAN_CHECK(st.ok());
  NodeView view(buf.data(), &o.shape);

  if (!view.is_free()) {
    // Tombstone never landed: the merge published nothing. Drop it.
    co_await t_->Release(leaf, {}, &stats);
    intents_rolled_back_->Inc();
    co_return Status::OK();
  }

  for (uint32_t attempt = 0; attempt < kResolveAttempts; attempt++) {
    if (attempt > 0) {
      co_await system_->simulator().Delay(kResolveBackoffNs);
    }
    // This loop can outlast a lease period while L's lane stays ours;
    // keep the lease fresh (no-op unless a period boundary passed) or a
    // waiter would declare US dead and sweep the lane mid-repair.
    co_await t_->hocl_.RenewLease(leaf.guard, &stats);
    // Current left neighbor: the node covering lo-1 at leaf level. The
    // intent's hint is tried first; survivor splits/merges since the
    // crash are chased like any other fence move.
    std::vector<uint8_t> sbuf(node_size());
    StatusOr<TreeClient::Locked> sl = co_await t_->LockCovering(
        lo - 1, /*level=*/0, sbuf.data(), &stats, {rec.primary},
        TreeClient::Acquire::kTry,
        attempt == 0 ? rec.second : rdma::kNullAddress);
    if (!sl.ok()) continue;
    TreeClient::Locked sib = *sl;
    NodeView sview(sbuf.data(), &o.shape);

    const bool chain_intact =
        sview.hi_fence() == lo && sview.sibling() == rec.primary;
    if (!chain_intact && sview.hi_fence() < hi) {
      // Transient (e.g. the neighbor is mid-restructure); retry.
      co_await t_->Release(sib, {}, &stats);
      continue;
    }

    if (!chain_intact) {
      // A previous (crashed) recoverer already widened the neighbor over
      // [lo, hi). Only the tail work can be missing: the parent entry and
      // the free.
      co_await t_->Release(sib, {}, &stats);
    } else {
      if (!LeafMergeFits(sview, view, o.two_level_versions,
                         /*headroom=*/false)) {
        // Undo: survivors refilled the neighbor; the survivors no longer
        // fit. Revive L — the chain (neighbor.sibling == L) serves
        // [lo, hi) again the moment the free flag clears — then restore
        // its parent separator so descents find it directly. (If the
        // separator insert fails — the only cause is memory exhaustion —
        // the revived L is still served through the B-link chain, so the
        // intent is resolved either way.)
        co_await t_->Release(sib, {}, &stats);
        view.set_free(false);
        view.Reseal(o.consistency);
        std::vector<rdma::WorkRequest> wrs;
        wrs.push_back(rdma::WorkRequest::Write(rec.primary, buf.data(),
                                               node_size()));
        co_await t_->Release(leaf, std::move(wrs), &stats);
        if (!co_await SeparatorPresent(lo, 1)) {
          Status ist = co_await t_->InsertInternal(lo, rec.primary, 1, &stats);
          (void)ist;
        }
        t_->cache_.InvalidateLevel1Covering(lo);
        intents_rolled_back_->Inc();
        co_return Status::OK();
      }
    }

    // Replay forward: drop the parent separator (if still present), widen
    // the neighbor, retire L.
    bool parent_done = false;
    for (uint32_t pa = 0; pa < kResolveAttempts && !parent_done; pa++) {
      co_await t_->hocl_.RenewLease(leaf.guard, &stats);
      std::vector<uint8_t> pbuf(node_size());
      StatusOr<TreeClient::Locked> pl = co_await t_->LockCovering(
          lo, /*level=*/1, pbuf.data(), &stats,
          {rec.primary, chain_intact ? sib.addr : rdma::kNullAddress},
          TreeClient::Acquire::kTry);
      if (!pl.ok()) continue;
      TreeClient::Locked par = *pl;
      NodeView pview(pbuf.data(), &o.shape);
      if (pview.InternalRemove(lo, rec.primary)) {
        pview.Seal(o.consistency);
        std::vector<rdma::WorkRequest> wrs;
        wrs.push_back(
            rdma::WorkRequest::Write(par.addr, pbuf.data(), node_size()));
        co_await t_->Release(par, std::move(wrs), &stats);
      } else {
        co_await t_->Release(par, {}, &stats);
      }
      parent_done = true;
    }
    if (!parent_done) {
      // Could not pin the parent down (live contention — possibly a client
      // parked on this very recovery). Give up; the intent stays and the
      // next trigger retries without the cycle.
      if (chain_intact) co_await t_->Release(sib, {}, &stats);
      co_await t_->Release(leaf, {}, &stats);
      co_return Status::Retry("merge replay: parent contended");
    }

    if (chain_intact) {
      MoveLeafEntries(&sview, view, o.two_level_versions);
      sview.set_hi_fence(hi);
      sview.set_sibling(view.sibling());
      sview.Seal(o.consistency);
      std::vector<rdma::WorkRequest> wrs;
      wrs.push_back(
          rdma::WorkRequest::Write(sib.addr, sbuf.data(), node_size()));
      co_await t_->Release(sib, std::move(wrs), &stats);
    }

    co_await FreeNodeRemote(rec.primary);
    co_await t_->Release(leaf, {}, &stats);
    t_->cache_.InvalidateLevel1Covering(lo);
    intents_replayed_->Inc();
    co_return Status::OK();
  }
  co_await t_->Release(leaf, {}, &stats);
  co_return Status::Retry("merge recovery: neighborhood contended");
}

// --- migration flip ---------------------------------------------------------
//
// Commit point: the parent's child-pointer swap (ReplaceChild). Detection
// resolves the LIVE parent for the node's lo key: while uncommitted the
// child is the source (a tombstoned leaf source freezes its whole range,
// and a live internal source keeps its fences through survivor edits), so
// anything else means the swap landed. Either way the migrator's own tail
// runs, on the source locked here: TreeClient::FinishFlip completes the
// B-link repair and retires the source, TreeClient::RollBackFlip revives
// a tombstoned leaf source and retires the orphan copy. Holding the
// source, the replay's neighbour locks are bounded (Acquire::kTry).
sim::Task<Status> Recoverer::RecoverFlip(const IntentRecord& rec) {
  const Key lo = rec.lo;
  OpStats stats;
  stats.trace = &trace_;

  const TreeClient::Locked src{rec.primary,
                               co_await t_->hocl_.Lock(rec.primary, &stats)};
  std::vector<uint8_t> buf(node_size());
  Status st = co_await t_->ReadRaw(rec.primary, buf.data(), node_size(),
                                   &stats);
  SHERMAN_CHECK(st.ok());

  rdma::GlobalAddress child;
  for (uint32_t attempt = 0; attempt < kResolveAttempts; attempt++) {
    // See RecoverMerge: the source's lane is held across this loop.
    co_await t_->hocl_.RenewLease(src.guard, &stats);
    StatusOr<rdma::GlobalAddress> pr = co_await t_->FindNodeAddr(
        lo, static_cast<uint8_t>(rec.level + 1), &stats);
    if (!pr.ok()) continue;
    ParsedInternal parsed;
    st = co_await t_->ReadInternalContaining(*pr, lo, &parsed, &stats);
    if (!st.ok()) continue;
    child = parsed.ChildFor(lo);
    break;
  }
  if (child.is_null()) {
    co_await t_->Release(src, {}, &stats);
    co_return Status::Retry("flip recovery: parent unresolvable");
  }

  if (child == rec.primary) {
    co_await t_->RollBackFlip(src, buf.data(), rec.second, rdma::kWrNoIntent,
                              &stats);
    intents_rolled_back_->Inc();
  } else {
    st = co_await t_->FinishFlip(src, buf.data(), rec.second,
                                 rdma::kNullAddress, TreeClient::Acquire::kTry,
                                 rdma::kWrNoIntent, &stats,
                                 /*relinked=*/nullptr);
    co_await t_->Release(src, {}, &stats);
    if (!st.ok()) co_return Status::Retry("flip recovery: neighbor contended");
    intents_replayed_->Inc();
  }
  orphans_freed_->Inc();
  t_->cache_.InvalidateKeyRange(rec.lo, rec.hi);
  co_return Status::OK();
}

}  // namespace sherman::recover
