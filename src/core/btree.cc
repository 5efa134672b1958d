#include "core/btree.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "core/record_policy.h"
#include "fault/crash_point.h"
#include "lock/lock_table.h"
#include "recover/recoverer.h"
#include "util/logging.h"
#include "vlog/vlog.h"

namespace sherman {

namespace {
constexpr int kMaxSiblingChase = 64;
// Restart cap of every traversal loop (simulation hygiene; generously
// above anything the paper's workloads produce).
constexpr uint32_t kMaxRestarts = 256;
// Leaves one scan READ batch fetches at most.
constexpr uint32_t kMaxScanBatch = 16;
// Weight of the newest leaf in TreeClient::scan_fill_'s running mean.
constexpr double kScanFillWeight = 1.0 / 16;
// The paper's idle-fabric floor for the 4-bit version wraparound guard
// (§4.4); WrapGuardTrips derives the congestion-aware threshold.
constexpr sim::SimTime kVersionWrapRetryNs = 8000;
// Re-reads one read of a node may spend on the wraparound guard.
constexpr uint32_t kMaxWrapRetries = 16;
// Cap on validated re-reads of one node (simulation hygiene; generously
// above anything the paper's workloads produce).
constexpr uint32_t kMaxReadRetries = 4096;
// Global CAS attempts of a bounded (Acquire::kTry) lock acquisition.
constexpr uint32_t kTryLockAttempts = 16;
// Locked resolves a flip's left-neighbour repair may spend.
constexpr uint32_t kMaxRelinkAttempts = 64;

// Named crash sites: one per remote-write milestone of every multi-write
// structural op in this file (tests/recover_test.cc enumerates the full
// registry and kills a victim client at each site; SHERMAN_CRASH_AT
// arms the same sites from the environment). Between two adjacent sites
// exactly one batch of remote writes lands, so the sweep exercises every
// crash-reachable remote state.
const int kCrashSplitIntent = fault::RegisterCrashSite("split.intent");
const int kCrashSplitSibling = fault::RegisterCrashSite("split.sibling");
const int kCrashSplitLeaf = fault::RegisterCrashSite("split.leaf");
const int kCrashSplitLinked = fault::RegisterCrashSite("split.linked");
const int kCrashIsplitIntent = fault::RegisterCrashSite("isplit.intent");
const int kCrashIsplitRight = fault::RegisterCrashSite("isplit.right");
const int kCrashIsplitCommit = fault::RegisterCrashSite("isplit.commit");
const int kCrashIsplitLinked = fault::RegisterCrashSite("isplit.linked");
const int kCrashSplitRoot = fault::RegisterCrashSite("split.root");
const int kCrashMergeIntent = fault::RegisterCrashSite("merge.intent");
const int kCrashMergeTombstone = fault::RegisterCrashSite("merge.tombstone");
const int kCrashMergeParent = fault::RegisterCrashSite("merge.parent");
const int kCrashMergeSibling = fault::RegisterCrashSite("merge.sibling");
const int kCrashMergeFreed = fault::RegisterCrashSite("merge.freed");
// The flip's tail after its commit (FinishFlip); its earlier sites are in
// src/migrate/migrator.cc.
const int kCrashFlipSibfixed = fault::RegisterCrashSite("flip.sibfixed");
const int kCrashFlipFreed = fault::RegisterCrashSite("flip.freed");
}  // namespace

void TreeOptions::Validate() const {
  SHERMAN_CHECK(shape.node_size >= 128);
  SHERMAN_CHECK(shape.key_size >= 8);
  SHERMAN_CHECK(shape.value_size >= 8);
  SHERMAN_CHECK_MSG(shape.leaf_capacity() >= 2, "node too small for leaves");
  SHERMAN_CHECK_MSG(shape.internal_capacity() >= 3,
                    "node too small for internal fanout");
  if (two_level_versions) {
    SHERMAN_CHECK_MSG(consistency == Consistency::kVersions,
                      "two-level versions require version-based checks");
  }
  SHERMAN_CHECK_MSG(merge_threshold >= 0 && merge_threshold <= 0.9,
                    "merge_threshold must be in [0, 0.9]");
  if (shape.varlen) {
    // Slotted leaves are whole-node write-back with node-level validation;
    // per-entry version pairs cannot cover a variable region.
    SHERMAN_CHECK_MSG(!two_level_versions,
                      "varlen requires two_level_versions=false");
    SHERMAN_CHECK_MSG(shape.node_size <= 65535,
                      "varlen slots store u16 offsets");
    SHERMAN_CHECK(shape.max_key_len >= 1 && shape.max_key_len <= 255);
    // A leaf must hold at least two maximal entries, or a single oversize
    // routing group could wedge the split path.
    SHERMAN_CHECK_MSG(
        shape.var_usable_bytes() >=
            2 * (kVarSlotSize + shape.max_key_len + kInlineThreshold),
        "node too small for two maximal varlen entries");
    SHERMAN_CHECK_MSG(vlog_segment_bytes >= (64u << 7) &&
                          vlog_segment_bytes / 64 <= 65535,
                      "vlog_segment_bytes out of range");
  }
}

// ---------------------------------------------------------------------------
// TreeClient
// ---------------------------------------------------------------------------

TreeClient::TreeClient(ShermanSystem* system, int cs_id)
    : system_(system),
      cs_id_(cs_id),
      hocl_(&system->fabric(), cs_id, system->options().lock),
      allocator_(&system->fabric(), cs_id),
      cache_(system->options().enable_cache ? system->options().cache_bytes : 0,
             system->options().shape.node_size,
             /*seed=*/0x5eed0000 + static_cast<uint64_t>(cs_id),
             &system->registry()),
      intents_(&system->fabric(), cs_id),
      recoverer_(std::make_unique<recover::Recoverer>(system, this)),
      leaf_merges_(system->registry().GetCounter("reclaim.leaf_merges")),
      merge_aborts_(system->registry().GetCounter("reclaim.merge_aborts")),
      nodes_freed_(system->registry().GetCounter("reclaim.nodes_freed")) {
  // A lock waiter that observes an expired lease recovers the dead holder
  // through this client's Recoverer before re-contending the lane.
  hocl_.set_recovery_hook(
      [this](uint16_t dead_tag) { return recoverer_->RecoverDeadOwner(dead_tag); });
  if (system->options().shape.varlen) {
    vlog_ = std::make_unique<vlog::VlogClient>(
        &system->fabric(), &allocator_, cs_id,
        system->options().vlog_segment_bytes);
  }
  if (system->options().enable_leaf_hints) {
    obs::Registry& r = system->registry();
    hint_consults_ = r.GetCounter("hint.consults");
    hint_served_ = r.GetCounter("hint.served");
    hint_stale_ = r.GetCounter("hint.stale");
    hint_chases_ = r.GetCounter("hint.chases");
    hint_refreshes_ = r.GetCounter("hint.refreshes");
    hint_publishes_ = r.GetCounter("hint.publish_rpcs");
    hint_invalidates_ = r.GetCounter("hint.invalidate_rpcs");
  }
}

TreeClient::~TreeClient() = default;

const TreeOptions& TreeClient::opt() const { return system_->options_; }

rdma::Qp& TreeClient::QpFor(rdma::GlobalAddress addr) {
  return system_->fabric_.qp(cs_id_, addr.node);
}

sim::Task<Status> TreeClient::ReadRaw(rdma::GlobalAddress addr, uint8_t* buf,
                                      uint32_t len, OpStats* stats) {
  SHERMAN_TEVENT(stats != nullptr ? stats->trace : nullptr, "rdma.read", len,
                 addr.node);
  rdma::RdmaResult r =
      co_await QpFor(addr).Post(rdma::WorkRequest::Read(addr, buf, len));
  if (stats != nullptr) stats->round_trips++;
  co_return r.status;
}

bool TreeClient::NodeConsistent(const uint8_t* buf) const {
  NodeView view(const_cast<uint8_t*>(buf), &opt().shape);
  const bool ok = opt().consistency == TreeOptions::Consistency::kChecksum
                      ? view.VerifyChecksum()
                      : view.NodeVersionsMatch();
  // A passing version/checksum check is exactly what clears DMSan's
  // torn-read taint (rule V4) on this buffer.
  if (ok && dmsan::Active()) dmsan::NoteValidatedAll(buf, node_size());
  return ok;
}

bool TreeClient::WrapGuardTrips(sim::SimTime read_ns) const {
  if (opt().consistency != TreeOptions::Consistency::kVersions) return false;
  // Wraparound guard threshold: a 4-bit version can only wrap after 16
  // writes, and every write of this node is lock-protected — at minimum a
  // lock CAS round trip plus a full node read before the write-back. A
  // read can therefore never legitimately be slower than 16 such cycles,
  // no matter how congested the fabric (congestion slows the writers at
  // least as much). The paper's 8 us constant is the idle-fabric floor.
  // Each write cycle includes a node-sized READ from the same MS, so
  // congestion inflates the writers at least as much as this reader; the
  // 4x margin covers reader-side-only queueing asymmetry.
  const rdma::FabricConfig& fcfg = system_->fabric_.config();
  const sim::SimTime rtt = 2 * fcfg.wire_latency_ns + 600;
  const sim::SimTime node_wire = static_cast<sim::SimTime>(
      node_size() / fcfg.link_bytes_per_ns);
  const sim::SimTime min_write_cycle = 2 * rtt + 2 * node_wire;
  return read_ns > std::max<sim::SimTime>(kVersionWrapRetryNs,
                                          16 * 4 * min_write_cycle);
}

sim::Task<Status> TreeClient::ReadNodeChecked(rdma::GlobalAddress addr,
                                              uint8_t* buf, OpStats* stats) {
  sim::Simulator& sim = system_->fabric_.simulator();
  uint32_t wrap_retries = 0;
  for (uint32_t i = 0; i < kMaxReadRetries; i++) {
    const sim::SimTime start = sim.now();
    Status st = co_await ReadRaw(addr, buf, node_size(), stats);
    if (!st.ok()) co_return st;
    const sim::SimTime duration = sim.now() - start;
    if (!NodeConsistent(buf)) {
      if (stats != nullptr) stats->read_retries++;
      SHERMAN_TINSTANT(stats != nullptr ? stats->trace : nullptr,
                       "tree.read_retry");
      continue;
    }
    // 4-bit wraparound guard (§4.4): a read long enough to span a full
    // version cycle is retried even with matching versions. Re-reads are
    // bounded: a sustained slow-read condition (congestion) cannot hide a
    // wrap anyway — 16 lock-protected writes of one node take far longer
    // than any transient queueing spike — and unbounded retries here would
    // feed a metastable retry storm.
    if (WrapGuardTrips(duration) && wrap_retries < kMaxWrapRetries) {
      wrap_retries++;
      if (stats != nullptr) stats->read_retries++;
      continue;
    }
    co_return Status::OK();
  }
  co_return Status::TimedOut("node read retries exhausted");
}

sim::Task<Status> TreeClient::LoadRoot(OpStats* stats) {
  SHERMAN_TEVENT(stats != nullptr ? stats->trace : nullptr, "tree.load_root");
  uint8_t ptr_buf[8];
  Status st = co_await ReadRaw(rdma::GlobalAddress(0, kRootPointerOffset),
                               ptr_buf, sizeof(ptr_buf), stats);
  if (!st.ok()) co_return st;
  uint64_t packed;
  std::memcpy(&packed, ptr_buf, 8);
  const rdma::GlobalAddress root = rdma::GlobalAddress::FromU64(packed);
  SHERMAN_CHECK_MSG(!root.is_null(), "no root installed (bulk load missing?)");

  std::vector<uint8_t> buf(node_size());
  st = co_await ReadNodeChecked(root, buf.data(), stats);
  if (!st.ok()) co_return st;
  NodeView view(buf.data(), &opt().shape);
  root_addr_ = root;
  root_level_ = view.level();
  root_known_ = true;
  if (view.level() > 0 && opt().enable_cache) {
    ParsedInternal parsed;
    if (ParseInternal(buf.data(), opt().shape, root, &parsed).ok()) {
      cache_.Insert(parsed);
    }
  }
  co_return Status::OK();
}

sim::Task<Status> TreeClient::ReadInternalContaining(rdma::GlobalAddress addr,
                                                     Key key,
                                                     ParsedInternal* out,
                                                     OpStats* stats) {
  std::vector<uint8_t> buf(node_size());
  uint32_t rereads = 0;
  for (int chase = 0; chase < kMaxSiblingChase; chase++) {
    Status st = co_await ReadNodeChecked(addr, buf.data(), stats);
    if (!st.ok()) co_return st;
    {
      // A tombstoned internal node (migrated away; content intact, free
      // flag set) still parses, but following it would keep the caller on
      // the stale pre-migration path forever. Bounce to the caller so it
      // invalidates the cached pointer and re-resolves through the flipped
      // parent.
      NodeView peek(buf.data(), &opt().shape);
      if (peek.is_free()) co_return Status::Retry("freed internal node");
    }
    ParsedInternal parsed;
    st = ParseInternal(buf.data(), opt().shape, addr, &parsed);
    if (!st.ok()) {
      // Torn read (Retry) or stale pointer landing on garbage (Corruption):
      // re-read a few times, then hand the restart decision to the caller.
      if (stats != nullptr) stats->read_retries++;
      if (++rereads > 8) co_return Status::Retry("unparseable internal node");
      chase--;
      continue;
    }
    if (key < parsed.lo) co_return Status::Retry("fell left of node");
    if (key >= parsed.hi) {
      if (parsed.sibling.is_null()) {
        co_return Status::Retry("missing sibling during chase");
      }
      addr = parsed.sibling;
      continue;
    }
    *out = std::move(parsed);
    co_return Status::OK();
  }
  co_return Status::Retry("sibling chase bound exceeded");
}

sim::Task<StatusOr<rdma::GlobalAddress>> TreeClient::FindNodeAddr(
    Key key, uint8_t target_level, OpStats* stats) {
  const TreeOptions& o = opt();
  for (uint32_t attempt = 0; attempt < kMaxRestarts; attempt++) {
    rdma::GlobalAddress addr;
    bool have_start = false;
    if (o.enable_cache) {
      const ParsedInternal* p = cache_.LookupUpper(key);
      if (p != nullptr && p->level > target_level) {
        if (p->level == target_level + 1) co_return p->ChildFor(key);
        addr = p->ChildFor(key);
        have_start = true;
      }
    }
    if (!have_start) {
      if (!root_known_) {
        Status st = co_await LoadRoot(stats);
        if (!st.ok()) co_return st;
      }
      if (root_level_ < target_level) {
        co_return Status::Internal("target level above root");
      }
      if (root_level_ == target_level) co_return root_addr_;
      addr = root_addr_;
    }

    bool restart = false;
    while (!restart) {
      ParsedInternal parsed;
      Status st = co_await ReadInternalContaining(addr, key, &parsed, stats);
      if (st.IsRetry()) {
        cache_.Invalidate(key, addr);
        // Drop any cached upper node that still steers this key to the dead
        // child: after a migration flip the live parent points at the copy,
        // but a stale cached parent would re-route us to the tombstone on
        // every restart.
        cache_.InvalidateUpperCovering(key, addr);
        // Refresh the root only when it is implicated or restarts repeat:
        // a stale root stays correct via sibling chases, and re-reading it
        // from every client on every invalidation would hammer its MS.
        if (addr == root_addr_ || attempt >= 2) root_known_ = false;
        restart = true;
        break;
      }
      if (!st.ok()) co_return st;
      if (o.enable_cache) cache_.Insert(parsed);
      if (parsed.level <= target_level) {
        // Stale starting point steered us too deep; restart from the root.
        cache_.Invalidate(key, parsed.self);
        if (attempt >= 2) root_known_ = false;
        restart = true;
        break;
      }
      if (parsed.level == target_level + 1) co_return parsed.ChildFor(key);
      addr = parsed.ChildFor(key);
    }
  }
  co_return Status::Internal("traversal restarts exhausted");
}

sim::Task<StatusOr<TreeClient::LeafRef>> TreeClient::FindLeafAddr(
    Key key, OpStats* stats, bool allow_hint) {
  const rdma::FabricConfig& f = system_->fabric_.config();
  co_await system_->fabric_.simulator().Delay(f.cpu_cache_lookup_ns);
  if (opt().enable_cache) {
    const ParsedInternal* p = cache_.LookupLevel1(key);
    if (p != nullptr) {
      if (stats != nullptr) stats->cache_hits++;
      SHERMAN_TINSTANT(stats != nullptr ? stats->trace : nullptr, "cache.hit");
      co_return LeafRef{p->ChildFor(key)};
    }
    if (stats != nullptr) stats->cache_misses++;
    SHERMAN_TINSTANT(stats != nullptr ? stats->trace : nullptr, "cache.miss");
  }
  if (opt().enable_leaf_hints && allow_hint) {
    rdma::GlobalAddress hinted;
    if (co_await HintLeafAddr(key, &hinted, stats)) {
      SHERMAN_TINSTANT(stats != nullptr ? stats->trace : nullptr, "hint.hit");
      co_return LeafRef{hinted, /*via_hint=*/true};
    }
  }
  SHERMAN_TEVENT(stats != nullptr ? stats->trace : nullptr, "tree.descend");
  StatusOr<rdma::GlobalAddress> r = co_await FindNodeAddr(key, 0, stats);
  if (!r.ok()) co_return r.status();
  co_return LeafRef{*r};
}

sim::Task<StatusOr<TreeClient::Locked>> TreeClient::LockChasing(
    rdma::GlobalAddress addr, Key key, uint8_t* buf, OpStats* stats,
    uint8_t level, std::array<rdma::GlobalAddress, 2> held, Acquire how) {
  const TreeOptions& o = opt();
  const bool first = held[0].is_null() && held[1].is_null();
  SHERMAN_TEVENT(first && stats != nullptr ? stats->trace : nullptr,
                 "tree.lock_read", level);
  for (int chase = 0; chase < kMaxSiblingChase; chase++) {
    const GlobalLockRef lane = LockFor(addr, o.lock.onchip);
    bool owned = true;
    for (const rdma::GlobalAddress h : held) {
      if (!h.is_null() && LockFor(h, o.lock.onchip) == lane) owned = false;
    }
    LockGuard guard;
    if (owned && how == Acquire::kTry) {
      // Bounded, never a waiting Lock: the finite lock table can hash
      // another multi-lock agent's held lane onto the one we want, a
      // cross-agent deadlock no lane ordering prevents. TryLock does not
      // recover a dead holder inline (we hold other locks); the next
      // waiting Lock that lands on the lane does.
      const Status got =
          co_await hocl_.TryLock(addr, kTryLockAttempts, &guard, stats);
      if (got.IsLeaseSteal()) {
        co_return Status::Retry("lane held by a dead client");
      }
      if (!got.ok()) co_return Status::Retry("lane contended");
    } else if (owned) {
      guard = co_await hocl_.Lock(addr, stats);
    }
    Status st = co_await ReadRaw(addr, buf, node_size(), stats);
    SHERMAN_CHECK(st.ok());
    NodeView view(buf, &o.shape);
    const bool usable = !view.is_free() && view.level() == level;
    // A leaf that validates teaches the cached parent its split, if the
    // parent has not seen it (as in ReadLeafChasing).
    const bool learned =
        usable && level == 0 && key >= view.lo_fence() &&
        cache_.LearnSplit(key, addr, view.hi_fence(), view.sibling());
    if (usable && view.InFence(key)) co_return Locked{addr, guard, owned};
    const rdma::GlobalAddress next = (usable && key >= view.hi_fence())
                                         ? view.sibling()
                                         : rdma::kNullAddress;
    // Nothing was written under this lock, so its release is posted, not
    // awaited: the chase goes on at once. A next lock on the same lane
    // queues behind the release locally (or, without a local table, at the
    // MS, where its CAS cannot pass the release posted before it), and a
    // posted release lands even if this client dies next.
    if (owned) sim::Spawn(hocl_.Unlock(guard, {}, o.combine_commands, nullptr));
    if (first) {
      // Only a leaf was reached through a level-1 translation: a hop above
      // (the linker's ascent, a repair lock) leaves the cached level-1
      // nodes alone, and a chase the split explains keeps its parent.
      if (level == 0 && !learned) cache_.InvalidateLevel1Covering(key);
      // A root has no right sibling: a cached root found with one is stale
      // (the tree grew since this client loaded it), and would start every
      // later descent from the leftmost leaf.
      if (addr == root_addr_ && !next.is_null()) root_known_ = false;
    }
    if (next.is_null()) co_return Status::Retry("locked node unusable");
    addr = next;
  }
  co_return Status::Retry("locked sibling chase bound");
}

sim::Task<StatusOr<TreeClient::Locked>> TreeClient::LockCovering(
    Key key, uint8_t level, uint8_t* buf, OpStats* stats,
    std::array<rdma::GlobalAddress, 2> held, Acquire how,
    rdma::GlobalAddress hint) {
  rdma::GlobalAddress start = hint;
  if (start.is_null() && level == 0) {
    StatusOr<LeafRef> r =
        co_await FindLeafAddr(key, stats, /*allow_hint=*/false);
    if (!r.ok()) co_return r.status();
    start = r->addr;
  } else if (start.is_null()) {
    StatusOr<rdma::GlobalAddress> r = co_await FindNodeAddr(key, level, stats);
    if (!r.ok()) co_return r.status();
    start = *r;
  }
  StatusOr<Locked> lr =
      co_await LockChasing(start, key, buf, stats, level, held, how);
  if (!lr.ok() && lr.status().IsRetry()) {
    // LockChasing drops at most a first leaf lock's level-1 translation, and
    // whatever steered this resolve (a cached parent naming a migration
    // tombstone or a merged-away node) would steer the next one back here.
    if (level == 0) {
      cache_.InvalidateLevel1Covering(key);
    } else {
      cache_.InvalidateUpperCovering(key, start);
    }
  }
  co_return lr;
}

sim::Task<void> TreeClient::Release(Locked locked,
                                    std::vector<rdma::WorkRequest> write_backs,
                                    OpStats* stats) {
  if (locked.owned) {
    co_await hocl_.Unlock(locked.guard, std::move(write_backs),
                          opt().combine_commands, stats);
    co_return;
  }
  if (!write_backs.empty()) {
    rdma::RdmaResult r =
        co_await QpFor(locked.addr).PostBatch(std::move(write_backs));
    if (stats != nullptr) stats->round_trips++;
    SHERMAN_CHECK(r.status.ok());
  }
}

// --- Delete-path leaf merging (space reclamation) ---------------------------

namespace {
// Deletes an aborted leaf waits before the next merge attempt, and the
// backoff map size cap (stale entries for recycled addresses only delay a
// fresh leaf's first merge by one window).
constexpr uint64_t kMergeBackoffDeletes = 32;
constexpr size_t kMergeBackoffCap = 4096;
}  // namespace

bool TreeClient::MergeBackoffExpired(rdma::GlobalAddress addr) {
  auto it = merge_backoff_.find(addr.ToU64());
  if (it == merge_backoff_.end()) return true;
  if (delete_ops_ < it->second) return false;
  merge_backoff_.erase(it);
  return true;
}

void TreeClient::RecordMergeAbort(rdma::GlobalAddress addr) {
  merge_aborts_->Inc();
  if (merge_backoff_.size() >= kMergeBackoffCap) merge_backoff_.clear();
  merge_backoff_[addr.ToU64()] = delete_ops_ + kMergeBackoffDeletes;
}

// Merge protocol (holding the underflowed leaf L's lock throughout; lock
// order leaf -> left sibling -> parent. Deadlock safety does NOT rest on
// that ordering alone — the finite lock table can alias two agents' lock
// sets onto shared lanes, which no ordering rules out — but on bounded
// acquisition: both secondary locks are TryLocks that abort the merge
// when exhausted, so no agent ever waits unboundedly while holding a
// lane another agent needs):
//   1. resolve the level-1 parent covering L.lo lock-free and locate the
//      preceding child S (L must appear as an explicit (L.lo -> L) entry;
//      a leftmost child's separator lives a level up and is skipped);
//   2. lock S, verify it is still the direct left neighbor (hi == L.lo,
//      sibling == L) and that the survivors fit;
//   3. stage S' = S + survivors, hi fence = L.hi, sibling = L.sibling
//      (locally — nothing remote changes until every check passed);
//   4. lock the parent, re-verify the (L.lo -> L) entry, stage its
//      removal;
//   5. publish: tombstone L FIRST (readers bounce and re-traverse), then
//      the parent (fresh descents resolve [L.lo, L.hi) to S's entry),
//      then S' (the B-link chain absorbs the range) — see the step-5
//      comment in the body for why this exact order is load-bearing;
//   6. post the hint invalidate and the free that parks L on its MS's
//      epoch-keyed grace list (the bytes stay a stable tombstone until
//      every op pinned at or before the free retires), clear the intent
//      and release L, awaiting neither RPC.
// Any verification failure releases the secondary locks and reports
// false with no remote state changed; the caller falls back to the plain
// entry write-back (the delete itself has already been staged locally).
sim::Task<bool> TreeClient::TryMergeLeafLocked(const Locked& locked,
                                               uint8_t* buf, OpStats* stats) {
  SHERMAN_TEVENT(stats != nullptr ? stats->trace : nullptr, "tree.merge_leaf");
  const TreeOptions& o = opt();
  NodeView view(buf, &o.shape);
  const Key lo = view.lo_fence();
  const Key hi = view.hi_fence();
  SHERMAN_CHECK(lo != 0);

  // 1. Locate parent + left sibling lock-free.
  StatusOr<rdma::GlobalAddress> pr = co_await FindNodeAddr(lo, 1, stats);
  if (!pr.ok()) {
    RecordMergeAbort(locked.addr);
    co_return false;
  }
  ParsedInternal parent;
  Status st = co_await ReadInternalContaining(*pr, lo, &parent, stats);
  if (!st.ok() || parent.level != 1) {
    RecordMergeAbort(locked.addr);
    co_return false;
  }
  size_t ei = SIZE_MAX;
  for (size_t i = 0; i < parent.entries.size(); i++) {
    if (parent.entries[i].first == lo &&
        parent.entries[i].second == locked.addr) {
      ei = i;
      break;
    }
  }
  if (ei == SIZE_MAX) {  // leftmost child of its parent, or a stale parse
    RecordMergeAbort(locked.addr);
    co_return false;
  }
  const rdma::GlobalAddress s_hint =
      ei == 0 ? parent.leftmost : parent.entries[ei - 1].second;
  if (s_hint.is_null()) {
    RecordMergeAbort(locked.addr);
    co_return false;
  }

  // 2. Lock the left sibling (chasing splits; lane-aware vs L's lock).
  std::vector<uint8_t> sbuf(node_size());
  StatusOr<Locked> sl = co_await LockChasing(
      s_hint, lo - 1, sbuf.data(), stats, /*level=*/0, {locked.addr},
      Acquire::kTry);
  if (!sl.ok()) {
    RecordMergeAbort(locked.addr);
    co_return false;
  }
  Locked sib = *sl;
  NodeView sview(sbuf.data(), &o.shape);

  // Anti-thrash headroom (LeafMergeFits): drained chains, the reclamation
  // target, pass easily.
  const bool ok = sview.is_leaf() && !sview.is_free() &&
                  sview.hi_fence() == lo && sview.sibling() == locked.addr &&
                  LeafMergeFits(sview, view, o.two_level_versions,
                                /*headroom=*/true);
  if (!ok) {
    co_await Release(sib, {}, stats);
    RecordMergeAbort(locked.addr);
    co_return false;
  }

  // 3. Stage the widened sibling.
  const rdma::FabricConfig& f = system_->fabric_.config();
  co_await system_->fabric_.simulator().Delay(f.cpu_node_sort_ns);
  MoveLeafEntries(&sview, view, o.two_level_versions);
  sview.set_hi_fence(hi);
  sview.set_sibling(view.sibling());
  sview.Seal(o.consistency);

  // 4. Lock the parent and re-verify under the lock (it may have split or
  // been rewritten since the lock-free read).
  std::vector<uint8_t> pbuf(node_size());
  StatusOr<Locked> pl = co_await LockChasing(
      parent.self, lo, pbuf.data(), stats, /*level=*/1,
      {locked.addr, sib.addr}, Acquire::kTry);
  if (!pl.ok()) {
    co_await Release(sib, {}, stats);
    RecordMergeAbort(locked.addr);
    co_return false;
  }
  Locked par = *pl;
  NodeView pview(pbuf.data(), &o.shape);
  if (pview.is_free() || pview.level() != 1 ||
      !pview.InternalRemove(lo, locked.addr)) {
    co_await Release(par, {}, stats);
    co_await Release(sib, {}, stats);
    RecordMergeAbort(locked.addr);
    co_return false;
  }
  pview.Seal(o.consistency);

  // 5. Every verification passed and nothing remote has changed yet.
  // Holding three locks, the merge must not wait for an intent slot
  // (recover/intent.h): without one it aborts like a failed TryLock.
  const int intent_slot = intents_.TryClaim(recover::IntentOp::kMerge, 0);
  if (intent_slot < 0) {
    co_await Release(par, {}, stats);
    co_await Release(sib, {}, stats);
    RecordMergeAbort(locked.addr);
    co_return false;
  }
  // From here the merge cannot fail. First anchor the op: publish the intent
  // record (one awaited WRITE to MS 0) so a crash anywhere in the publish
  // sequence below is recoverable — the tombstone is the commit point a
  // survivor's Recoverer keys its replay/rollback decision on. Then
  // publish in the migration's safety order: tombstone L FIRST (readers
  // holding its address bounce and re-traverse — they spin for the couple
  // of round trips until the repair lands, the same window MoveLockedNode
  // accepts), then the parent (descents now bypass L), then the widened
  // sibling (the B-link chain absorbs the range). Tombstoning before
  // [lo, hi) becomes writable through S' closes the stale-read window:
  // nobody can serve L's frozen content after a newer write lands on the
  // live copy. The release order (par, then sib, then L) keeps every
  // write under a still-held lane even when the finite lock table aliases
  // two of the three locks onto one lane. Sequential awaits give the
  // cross-MS ordering; the parent and sibling writes ride their lock
  // releases. The free and the intent clear are posted BEFORE L's lane is
  // released, so every crash window leaves either the intent or a held
  // lane (usually both) for a survivor to find.
  recover::IntentRecord rec;
  rec.op = recover::IntentOp::kMerge;
  rec.level = 0;
  rec.lo = lo;
  rec.hi = hi;
  rec.primary = locked.addr;
  rec.second = sib.addr;
  rec.parent = par.addr;
  co_await intents_.Publish(intent_slot, rec, stats);
  co_await fault::Injector().AtSite(kCrashMergeIntent, cs_id_);

  view.set_free(true);
  view.Reseal(o.consistency);
  {
    rdma::WorkRequest tomb =
        rdma::WorkRequest::Write(locked.addr, buf, node_size());
    tomb.intent_slot = static_cast<uint8_t>(intent_slot);
    rdma::RdmaResult w = co_await QpFor(locked.addr).Post(tomb);
    if (stats != nullptr) stats->round_trips++;
    SHERMAN_CHECK(w.status.ok());
  }
  co_await fault::Injector().AtSite(kCrashMergeTombstone, cs_id_);
  {
    std::vector<rdma::WorkRequest> wrs;
    wrs.push_back(
        rdma::WorkRequest::Write(par.addr, pbuf.data(), node_size()));
    wrs.back().intent_slot = static_cast<uint8_t>(intent_slot);
    co_await Release(par, std::move(wrs), stats);
  }
  co_await fault::Injector().AtSite(kCrashMergeParent, cs_id_);
  {
    std::vector<rdma::WorkRequest> wrs;
    wrs.push_back(
        rdma::WorkRequest::Write(sib.addr, sbuf.data(), node_size()));
    wrs.back().intent_slot = static_cast<uint8_t>(intent_slot);
    co_await Release(sib, std::move(wrs), stats);
  }
  co_await fault::Injector().AtSite(kCrashMergeSibling, cs_id_);
  if (stats != nullptr) stats->bytes_written += 3ull * node_size();

  // 6. Post the invalidate of any hint entry pointing at the doomed leaf,
  // then the free that parks the leaf on its MS's grace list (recycled
  // only after every op pinned at or before this free has retired). One
  // FIFO memory thread serves both in post order, so the invalidate lands
  // first (DMSan rule V6). Neither is awaited: a memory thread backed up
  // past the lease would otherwise hold L's lane into a false recovery.
  // Posted RPCs are served even if this client dies next, so every crash
  // state keeps the intent and the held lane a survivor needs, and a
  // replayed free is idempotent at the grace list. Then clear the intent,
  // and only then release L's lane.
  sim::Spawn(HintInvalidate(locked.addr, nullptr));
  QpFor(locked.addr).PostRpc(kRpcFreeNode, locked.addr.offset, node_size());
  co_await fault::Injector().AtSite(kCrashMergeFreed, cs_id_);
  intents_.ClearAsync(intent_slot);
  co_await Release(locked, {}, stats);
  nodes_freed_->Inc();
  leaf_merges_->Inc();

  // Our cached parse of the parent still routes [lo, hi) to the tombstone.
  cache_.InvalidateLevel1Covering(lo);
  if (o.enable_cache) {
    ParsedInternal fresh;
    if (ParseInternal(pbuf.data(), o.shape, par.addr, &fresh).ok()) {
      cache_.Insert(fresh);
    }
  }
  co_return true;
}

// --- Migration flip tails ---------------------------------------------------

sim::Task<Status> TreeClient::FinishFlip(const Locked& src, uint8_t* buf,
                                         rdma::GlobalAddress copy,
                                         rdma::GlobalAddress sibling_hint,
                                         Acquire how, uint8_t intent_tag,
                                         OpStats* stats, bool* relinked) {
  const TreeOptions& o = opt();
  NodeView view(buf, &o.shape);
  const uint8_t level = view.level();
  const Key lo = view.lo_fence();
  // 1. Repair the B-link chain so sibling chases skip the source. The node
  // covering lo - 1 is the direct left neighbour; it is rewritten only
  // while it still links the source. Any other state means the chain
  // already bypasses it: a replay after the dead migrator's own repair, or
  // a survivor merge since.
  if (lo != 0) {
    std::vector<uint8_t> sbuf(node_size());
    bool repaired = false;
    for (uint32_t attempt = 0; attempt < kMaxRelinkAttempts && !repaired;
         attempt++) {
      // The source's lock is held across this multi-RTT phase: renew its
      // lease (free unless a lease period passed) so a waiter never takes
      // this live protocol for a crashed holder.
      co_await hocl_.RenewLease(src.guard, stats);
      StatusOr<Locked> lr = co_await LockCovering(
          lo - 1, level, sbuf.data(), stats, {src.addr}, how,
          attempt == 0 ? sibling_hint : rdma::kNullAddress);
      if (!lr.ok()) {
        if (lr.status().IsRetry()) continue;
        co_return lr.status();
      }
      NodeView sview(sbuf.data(), &o.shape);
      std::vector<rdma::WorkRequest> wrs;
      if (sview.hi_fence() == lo && sview.sibling() == src.addr) {
        sview.set_sibling(copy);
        sview.Seal(o.consistency);
        wrs.push_back(
            rdma::WorkRequest::Write(lr->addr, sbuf.data(), node_size()));
        if (relinked != nullptr) *relinked = true;
      }
      co_await Release(*lr, std::move(wrs), stats);
      repaired = true;
    }
    if (!repaired) co_return Status::TimedOut("sibling-fix retries exhausted");
  }
  co_await fault::Injector().AtSite(kCrashFlipSibfixed, cs_id_);
  // 2. Internal sources tombstone after the flip (leaves before it; see
  // Migrator::MoveLockedNode). The write is posted on its own, not folded
  // into the unlock batch, so the free below — and the crash window
  // between them — always sees a tombstoned source.
  if (!view.is_free()) {
    view.set_free(true);
    view.Reseal(o.consistency);
    rdma::WorkRequest tw = rdma::WorkRequest::Write(src.addr, buf, node_size());
    tw.intent_slot = intent_tag;
    rdma::RdmaResult r = co_await QpFor(src.addr).Post(tw);
    SHERMAN_CHECK(r.status.ok());
  }
  // 3. Retire the tombstoned source through its MS's epoch-keyed grace
  // list: the bytes stay a stable tombstone until every operation pinned
  // at or before this instant has retired. A leaf's hints go first (DMSan
  // rule V6). The source stays locked until the caller has cleared the
  // intent, so every crash window leaves a held lane or an intent (or
  // both) for a survivor to find.
  if (level == 0) co_await HintInvalidate(src.addr, stats);
  co_await QpFor(src.addr).Rpc(kRpcFreeNode, src.addr.offset, node_size());
  if (stats != nullptr) stats->round_trips++;
  co_await fault::Injector().AtSite(kCrashFlipFreed, cs_id_);
  co_return Status::OK();
}

sim::Task<void> TreeClient::RollBackFlip(Locked src, uint8_t* buf,
                                         rdma::GlobalAddress copy,
                                         uint8_t intent_tag, OpStats* stats) {
  NodeView view(buf, &opt().shape);
  std::vector<rdma::WorkRequest> wrs;
  if (view.is_free()) {
    view.set_free(false);
    view.Reseal(opt().consistency);
    wrs.push_back(rdma::WorkRequest::Write(src.addr, buf, node_size()));
    wrs.back().intent_slot = intent_tag;
  }
  co_await Release(src, std::move(wrs), stats);
  // The copy was never published, so no hint names it.
  co_await QpFor(copy).Rpc(kRpcFreeNode, copy.offset, node_size());
  if (stats != nullptr) stats->round_trips++;
}

// ---------------------------------------------------------------------------
// The op core. Each op is written once over a record policy R
// (core/record_policy.h): FixedPolicy serves Insert/Lookup/Delete and the
// fixed batch ops, VarPolicy their *Var twins. The skeletons never ask
// which one they run; the policy supplies only what the leaf layout
// changes, and btree.cc alone turns the ranges it dirtied into WRITEs.
// ---------------------------------------------------------------------------

sim::Task<StatusOr<TreeClient::Locked>> TreeClient::LockLeaf(Key rk,
                                                             uint8_t* buf,
                                                             OpStats* stats) {
  for (uint32_t attempt = 0; attempt < kMaxRestarts; attempt++) {
    StatusOr<LeafRef> leaf_r =
        co_await FindLeafAddr(rk, stats, /*allow_hint=*/attempt == 0);
    if (!leaf_r.ok()) co_return leaf_r.status();
    StatusOr<Locked> locked_r =
        co_await LockChasing(leaf_r->addr, rk, buf, stats);
    if (locked_r.ok() || !locked_r.status().IsRetry()) co_return locked_r;
    // A hinted address that went dead-end must leave the mirror, or every
    // subsequent restart re-serves it.
    if (leaf_r->via_hint) NoteHintStale(rk);
    // Repeated dead ends mean even a fresh resolution keeps steering here
    // — the classic case is a cached root that was still a leaf (or
    // since-merged node) when this client loaded it, which FindNodeAddr's
    // root shortcut returns forever. Refresh it.
    if (attempt >= 2) root_known_ = false;
  }
  co_return Status::Internal("leaf lock restarts exhausted");
}

template <class Fn>
sim::Task<Status> TreeClient::ReadLeafChasing(Key rk, uint8_t* buf, Fn& visit,
                                              OpStats* stats) {
  const TreeOptions& o = opt();
  rdma::GlobalAddress probe_addr;  // last tombstone this read bounced off
  for (uint32_t attempt = 0; attempt < kMaxRestarts; attempt++) {
    StatusOr<LeafRef> leaf_r =
        co_await FindLeafAddr(rk, stats, /*allow_hint=*/attempt == 0);
    if (!leaf_r.ok()) co_return leaf_r.status();
    rdma::GlobalAddress addr = leaf_r->addr;

    bool restart = false;
    uint32_t rereads = 0;
    for (int chase = 0; chase < kMaxSiblingChase && !restart; chase++) {
      Status st = co_await ReadNodeChecked(addr, buf, stats);
      if (!st.ok()) co_return st;
      NodeView view(buf, &o.shape);
      if (view.is_free() || !view.is_leaf() || rk < view.lo_fence()) {
        cache_.InvalidateLevel1Covering(rk);
        // A hinted leaf that was merged, migrated, or recycled into a
        // different role: drop the mirror entry and fall back to a full
        // traversal — the hint is never trusted past validation.
        if (leaf_r->via_hint && chase == 0) NoteHintStale(rk);
        if (view.is_free()) probe_addr = addr;
        if (attempt >= 2) root_known_ = false;  // stale root (see LockLeaf)
        restart = true;
        break;
      }
      // A valid leaf teaches the cached parent its split if the parent
      // has not seen it: the key's own leaf as well as one chased past.
      const bool learned =
          cache_.LearnSplit(rk, addr, view.hi_fence(), view.sibling());
      if (rk >= view.hi_fence()) {
        if (!learned) cache_.InvalidateLevel1Covering(rk);
        if (addr == root_addr_) root_known_ = false;  // stale (see LockChasing)
        // Valid hinted leaf, but the key split off to its right since the
        // mirror was fetched; the B-link chase still serves it.
        if (leaf_r->via_hint && chase == 0) NoteHintChase();
        if (view.sibling().is_null()) {
          restart = true;
          break;
        }
        addr = view.sibling();
        continue;
      }
      Status done;
      if (co_await visit(view, &done)) co_return done;
      // Torn entry or relocated value: re-read the same leaf.
      if (stats != nullptr) stats->read_retries++;
      if (++rereads > kMaxReadRetries) {
        co_return Status::TimedOut("leaf re-read retries exhausted");
      }
      chase--;
    }
    // Chase bound exhausted: a stale translation steered us far left of
    // the key (heavy split/merge churn since it was cached). The chase
    // already invalidated it, so a restart resolves freshly — failing the
    // op here would surface a spurious error for a live key.
    if (!restart) {
      // A hinted start that needed > kMaxSiblingChase hops was not the
      // key's leaf at all (mirror predecessor across a hint-table hole):
      // drop the entry so later ops stop re-serving it.
      if (leaf_r->via_hint) NoteHintStale(rk);
      if (attempt >= 2) root_known_ = false;
    }
    // Repeated bounces off the same tombstone mean the structural op that
    // planted it may have died with its client; probe its lock so a dead
    // holder's lease expiry is noticed and recovered.
    co_await ProbeLockForRecovery(&probe_addr, attempt, stats);
  }
  co_return Status::Internal("leaf read restarts exhausted");
}

sim::Task<void> TreeClient::WriteBackAndUnlock(const Locked& locked,
                                               uint8_t* buf,
                                               const LeafWrite& w,
                                               OpStats* stats) {
  if (stats != nullptr) stats->bytes_written += w.bytes();
  std::vector<rdma::WorkRequest> wrs;
  wrs.reserve(w.ranges.size());
  for (const auto& [off, len] : w.ranges) {
    wrs.push_back(
        rdma::WorkRequest::Write(locked.addr.Plus(off), buf + off, len));
  }
  if (!opt().combine_commands && wrs.size() > 1) {
    // Without command combination the release waits for the write-back,
    // but the leaf's ranges (a sorted leaf's delete writes its header and
    // its shifted suffix) still share one doorbell batch. A posted batch
    // lands whole even if the client dies next; awaited one by one, a
    // crash between them would leave a leaf that never validates again.
    rdma::RdmaResult r =
        co_await QpFor(locked.addr).PostBatch(std::exchange(wrs, {}));
    if (stats != nullptr) stats->round_trips++;
    SHERMAN_CHECK(r.status.ok());
  }
  co_await Release(locked, std::move(wrs), stats);
}

sim::Task<void> TreeClient::MergeOrWriteBack(const Locked& locked,
                                             uint8_t* buf, const LeafWrite& w,
                                             OpStats* stats) {
  const TreeOptions& o = opt();
  delete_ops_++;
  NodeView view(buf, &o.shape);
  if (!w.ranges.empty() &&
      LeafMergeCandidate(view, o.two_level_versions, o.merge_threshold) &&
      MergeBackoffExpired(locked.addr)) {
    if (co_await TryMergeLeafLocked(locked, buf, stats)) co_return;
  }
  co_await WriteBackAndUnlock(locked, buf, w, stats);
}

template <class R>
sim::Task<Status> TreeClient::Put(R rec, OpStats* stats,
                                  const PutBind<typename R::Value>* bind) {
  Status st = rec.CheckPut();
  if (!st.ok()) co_return st;
  const rdma::FabricConfig& f = system_->fabric_.config();
  // Pinned before the reservation: value-log GC counts an unreferenced
  // extent as orphaned only once every op pinned at or before its
  // segment's seal has drained.
  EpochPin pin(&system_->reclaim_, cs_id_);
  co_await system_->fabric_.simulator().Delay(f.cpu_op_overhead_ns);
  // The extent is reserved before the lock, so no lock is held across a
  // segment rotation's RPCs; its WRITE rides beside the lock CAS and leaf
  // READ. The WRITE counts `written` down in this frame, and it is awaited
  // on every path before the pointer can reach a leaf.
  st = co_await rec.Reserve(*this, stats);
  if (!st.ok()) co_return st;
  sim::CountdownLatch written(0);
  rec.PostWrite(*this, &written, stats);

  std::vector<uint8_t> buf(node_size());
  StatusOr<Locked> locked_r = co_await LockLeaf(rec.route(), buf.data(), stats);
  co_await written.Wait();
  if (!locked_r.ok()) {
    co_await rec.Abandon(*this, stats);
    co_return locked_r.status();
  }
  co_await system_->fabric_.simulator().Delay(rec.SearchNs(f));
  if (bind != nullptr) rec.Bind((*bind)());
  NodeView view(buf.data(), &opt().shape);
  LeafWrite w;
  if (rec.Put(&view, &w)) {
    if (w.seal) view.Seal(opt().consistency);
    co_await WriteBackAndUnlock(*locked_r, buf.data(), w, stats);
    rec.Published(*this);
    co_return Status::OK();
  }
  st = co_await SplitLeafAndUnlock(rec, *locked_r, std::move(buf), stats);
  if (st.ok()) {
    rec.Published(*this);
  } else {
    co_await rec.Abandon(*this, stats);  // never referenced
  }
  co_return st;
}

template <class R>
sim::Task<Status> TreeClient::Get(R rec, OpStats* stats) {
  Status st = rec.Check();
  if (!st.ok()) co_return st;
  const rdma::FabricConfig& f = system_->fabric_.config();
  sim::Simulator& sim = system_->fabric_.simulator();
  EpochPin pin(&system_->reclaim_, cs_id_);
  co_await sim.Delay(f.cpu_op_overhead_ns);

  std::vector<uint8_t> buf(node_size());
  const std::optional<Status> fast =
      co_await rec.Speculate(*this, buf.data(), stats);
  if (fast.has_value()) co_return *fast;
  auto visit = [&](NodeView& view, Status* done) -> sim::Task<bool> {
    co_await sim.Delay(rec.SearchNs(f));
    const LeafRead got = rec.Read(view);
    if (got == LeafRead::kTorn) co_return false;
    if (got == LeafRead::kRemote) {
      // Corruption: the extent moved between the leaf read and the value
      // read (an update or GC); the re-read leaf has the fresh pointer.
      *done = co_await rec.Fetch(*this, stats);
      co_return !done->IsCorruption();
    }
    *done = got == LeafRead::kHit ? Status::OK() : Status::NotFound();
    co_return true;
  };
  co_return co_await ReadLeafChasing(rec.route(), buf.data(), visit, stats);
}

template <class R>
sim::Task<Status> TreeClient::Remove(R rec, OpStats* stats) {
  Status st = rec.Check();
  if (!st.ok()) co_return st;
  const rdma::FabricConfig& f = system_->fabric_.config();
  EpochPin pin(&system_->reclaim_, cs_id_);
  co_await system_->fabric_.simulator().Delay(f.cpu_op_overhead_ns);

  std::vector<uint8_t> buf(node_size());
  StatusOr<Locked> locked_r = co_await LockLeaf(rec.route(), buf.data(), stats);
  if (!locked_r.ok()) co_return locked_r.status();
  co_await system_->fabric_.simulator().Delay(rec.SearchNs(f));
  NodeView view(buf.data(), &opt().shape);
  LeafWrite w;
  if (!rec.Remove(&view, &w)) {
    co_await Release(*locked_r, {}, stats);
    co_return Status::NotFound();
  }
  if (w.seal) view.Seal(opt().consistency);
  co_await MergeOrWriteBack(*locked_r, buf.data(), w, stats);
  rec.Removed(*this);
  co_return Status::OK();
}

// --- leaf splits ------------------------------------------------------------

namespace {
struct SplitSites {
  int intent;     // intent published, and a cross-MS sibling beside it
  int sibling;    // cross-MS sibling written ahead of the commit batch
  int committed;  // both nodes written, lock released
  int linked;     // separator inserted one level up
};
const SplitSites kLeafSplitSites = {kCrashSplitIntent, kCrashSplitSibling,
                                    kCrashSplitLeaf, kCrashSplitLinked};
const SplitSites kInternalSplitSites = {kCrashIsplitIntent, kCrashIsplitRight,
                                        kCrashIsplitCommit, kCrashIsplitLinked};
}  // namespace

template <class R>
sim::Task<Status> TreeClient::SplitLeafAndUnlock(R& rec, Locked locked,
                                                 std::vector<uint8_t> buf,
                                                 OpStats* stats) {
  SHERMAN_TEVENT(stats != nullptr ? stats->trace : nullptr, "tree.split_leaf");
  const TreeOptions& o = opt();
  const rdma::FabricConfig& f = system_->fabric_.config();
  NodeView view(buf.data(), &o.shape);
  co_await system_->fabric_.simulator().Delay(f.cpu_node_sort_ns);

  StatusOr<Key> cut = rec.Cut(view);
  if (!cut.ok()) {
    co_await Release(locked, {}, stats);
    co_return cut.status();
  }
  // Claim the split's intent slot: under this leaf lock alone the claim
  // may wait (recover/intent.h).
  const int intent_slot = co_await intents_.Claim();
  // Allocate the sibling (may RPC a memory thread; Figure 7, line 20).
  const rdma::GlobalAddress sib_addr = co_await allocator_.Alloc(node_size());
  if (sib_addr.is_null()) {
    intents_.ClearAsync(intent_slot);
    co_await Release(locked, {}, stats);
    co_return Status::OutOfMemory("disaggregated memory exhausted");
  }
  const Key split_key = *cut;
  const Key old_lo = view.lo_fence();
  const Key old_hi = view.hi_fence();
  const uint8_t new_version = (view.front_version() + 1) & 0xf;

  // The sibling takes the upper half, fences [split_key, old_hi); this
  // node keeps the lower half, fences [old_lo, split_key), and points at
  // the sibling (Figure 7, lines 26-28).
  std::vector<uint8_t> sib_buf(node_size());
  NodeView sib(sib_buf.data(), &o.shape);
  sib.InitLeaf(split_key, old_hi, view.sibling());
  view.InitLeaf(old_lo, split_key, sib_addr);
  rec.Fill(&view, &sib);

  co_await CommitSplit(locked, /*level=*/0, old_lo, old_hi, split_key,
                       sib_addr, new_version, buf.data(), sib_buf.data(),
                       intent_slot, stats);
  // The put has committed: the sibling is reachable through this leaf's
  // B-link pointer. This client's cached parent learns the split now; the
  // parent link is left to a linker so the put returns now (a departure
  // from Figure 7, line 39).
  cache_.LearnSplit(split_key, locked.addr, split_key, sib_addr);
  sim::Spawn(LinkLeafSplit(split_key, sib_addr, intent_slot));
  co_return Status::OK();
}

sim::Task<void> TreeClient::LinkLeafSplit(Key sep, rdma::GlobalAddress sib_addr,
                                          int intent_slot) {
  EpochPin pin(&system_->reclaim_, cs_id_);
  const Status st =
      co_await LinkSplit(/*level=*/0, sep, sib_addr, intent_slot, nullptr);
  // The put has committed either way, and the B-link chain still reaches
  // the sibling. Counted where it happens, so the tree.* family exists
  // only in a deployment that lost a link.
  if (!st.ok()) system_->registry().GetCounter("tree.link_failures")->Inc();
  // Advertise the new sibling to the hint sidecar. Purely advisory and
  // after the intent clears: a crash mid-publish leaves a fully committed
  // split whose sibling is simply not hinted yet. The left leaf's entry
  // stays valid (same address, same lo fence).
  co_await HintPublish(sib_addr, sep, nullptr);
}

sim::Task<void> TreeClient::CommitSplit(const Locked& locked, uint8_t level,
                                        Key lo, Key hi, Key sep,
                                        rdma::GlobalAddress sib_addr,
                                        uint8_t new_version, uint8_t* buf,
                                        uint8_t* sib_buf, int intent_slot,
                                        OpStats* stats) {
  const TreeOptions& o = opt();
  const SplitSites& sites = level == 0 ? kLeafSplitSites : kInternalSplitSites;
  // Anchor the split before its first remote write: a crash between the
  // writes below, or before LinkSplit lands the separator, is replayed
  // (commit batch landed: finish the ascent) or rolled back (retire the
  // unpublished sibling) from this record. Leaf and internal splits share
  // the record shape; the level tells them apart. RecoverSplit needs only
  // the u64 separator.
  recover::IntentRecord intent;
  intent.op = recover::IntentOp::kSplit;
  intent.level = level;
  intent.lo = lo;
  intent.hi = hi;
  intent.primary = locked.addr;
  intent.second = sib_addr;
  intent.aux = sep;

  // Node-level versions bump across the rewrite.
  buf[kOffFnv] = new_version;
  buf[node_size() - 1] = new_version;
  NodeView(sib_buf, &o.shape).Reseal(o.consistency);
  NodeView(buf, &o.shape).Reseal(o.consistency);
  if (stats != nullptr) stats->bytes_written += 2ull * node_size();

  // Write back. If the sibling landed on the same MS the three commands
  // (sibling, node, lock release) combine into one doorbell batch (§4.5)
  // behind the awaited intent — crash-safe under fail-stop, because a
  // POSTED batch completes at the NIC whether or not the client survives
  // it, so the remote states are exactly {nothing, intent, committed}. A
  // cross-MS sibling needs its own WRITE. It is posted in the same instant
  // as the intent, right behind it, and the split awaits both: the
  // sibling is private until the commit batch links it, so a crash leaves
  // nothing, the intent alone, the intent and the sibling, or the commit.
  std::vector<rdma::WorkRequest> wrs;
  rdma::WorkRequest sw =
      rdma::WorkRequest::Write(sib_addr, sib_buf, node_size());
  sw.intent_slot = static_cast<uint8_t>(intent_slot);
  if (sib_addr.node == locked.addr.node) {
    co_await intents_.Publish(intent_slot, intent, stats);
    co_await fault::Injector().AtSite(sites.intent, cs_id_);
    wrs.push_back(sw);
  } else {
    sim::CountdownLatch landed(1);
    sim::Spawn(intents_.Publish(intent_slot, intent, stats, &landed));
    rdma::RdmaResult r = co_await QpFor(sib_addr).Post(sw);
    SHERMAN_CHECK(r.status.ok());
    co_await landed.Wait();
    co_await fault::Injector().AtSite(sites.intent, cs_id_);
    co_await fault::Injector().AtSite(sites.sibling, cs_id_);
  }
  wrs.push_back(rdma::WorkRequest::Write(locked.addr, buf, node_size()));
  wrs.back().intent_slot = static_cast<uint8_t>(intent_slot);
  co_await Release(locked, std::move(wrs), stats);
  // The commit write has applied (the await covers it): the sibling is now
  // reachable through the B-link chain, so its shadow flips private->live.
  if (dmsan::Active()) {
    if (dmsan::Checker* dc = dmsan::Find(&system_->fabric_.simulator())) {
      dc->PublishNode(sib_addr, level);
    }
  }
  co_await fault::Injector().AtSite(sites.committed, cs_id_);
}

sim::Task<Status> TreeClient::LinkSplit(uint8_t level, Key sep,
                                        rdma::GlobalAddress child,
                                        int intent_slot, OpStats* stats) {
  const SplitSites& sites = level == 0 ? kLeafSplitSites : kInternalSplitSites;
  // Ascend: insert the separator into the parent level (Figure 7, line 39).
  const Status st = co_await InsertInternal(
      sep, child, static_cast<uint8_t>(level + 1), stats);
  co_await fault::Injector().AtSite(sites.linked, cs_id_);
  intents_.ClearAsync(intent_slot);
  co_return st;
}

sim::Task<Status> TreeClient::InsertInternal(Key sep,
                                             rdma::GlobalAddress child,
                                             uint8_t level, OpStats* stats) {
  const TreeOptions& o = opt();
  const rdma::FabricConfig& f = system_->fabric_.config();

  for (uint32_t attempt = 0; attempt < kMaxRestarts; attempt++) {
    if (!root_known_) {
      Status st = co_await LoadRoot(stats);
      if (!st.ok()) co_return st;
    }
    if (root_level_ < level) {
      Status st = co_await MakeNewRoot(sep, child, level, stats);
      if (st.IsRetry()) continue;  // lost the root CAS, or no intent slot
      co_return st;
    }

    std::vector<uint8_t> buf(node_size());
    StatusOr<Locked> locked_r =
        co_await LockCovering(sep, level, buf.data(), stats);
    if (!locked_r.ok()) {
      if (locked_r.status().IsRetry()) continue;
      co_return locked_r.status();
    }
    Locked locked = *locked_r;
    NodeView view(buf.data(), &o.shape);
    SHERMAN_CHECK_MSG(view.level() == level, "locked level %u, wanted %u",
                      view.level(), level);

    co_await system_->fabric_.simulator().Delay(f.cpu_node_search_ns);
    if (view.InternalInsert(sep, child)) {
      view.Seal(o.consistency);
      LeafWrite w;
      w.WholeNode(node_size());
      co_await WriteBackAndUnlock(locked, buf.data(), w, stats);
      co_return Status::OK();
    }

    // Internal split: promote the middle separator (it moves up, unlike a
    // leaf split). Holding this node's lock, it must not wait for an
    // intent slot (recover/intent.h): without one, let go and retry.
    const int intent_slot =
        intents_.TryClaim(recover::IntentOp::kSplit, level);
    if (intent_slot < 0) {
      co_await Release(locked, {}, stats);
      co_await system_->fabric_.simulator().Delay(
          recover::kIntentSlotBackoffNs);
      continue;
    }
    co_await system_->fabric_.simulator().Delay(f.cpu_node_sort_ns);
    std::vector<std::pair<Key, rdma::GlobalAddress>> ents;
    const uint32_t n = view.count();
    ents.reserve(n + 1);
    for (uint32_t i = 0; i < n; i++) {
      ents.emplace_back(view.InternalKey(i), view.InternalChild(i));
    }
    ents.emplace_back(sep, child);
    std::sort(ents.begin(), ents.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });

    const rdma::GlobalAddress right_addr =
        co_await allocator_.Alloc(node_size());
    if (right_addr.is_null()) {
      intents_.ClearAsync(intent_slot);
      co_await Release(locked, {}, stats);
      co_return Status::OutOfMemory("disaggregated memory exhausted");
    }

    const size_t mid = ents.size() / 2;
    const Key promote = ents[mid].first;
    const Key old_lo = view.lo_fence();
    const Key old_hi = view.hi_fence();
    const rdma::GlobalAddress old_sibling = view.sibling();
    const rdma::GlobalAddress old_leftmost = view.leftmost_child();
    const uint8_t new_version = (view.front_version() + 1) & 0xf;

    std::vector<uint8_t> right_buf(node_size());
    NodeView right(right_buf.data(), &o.shape);
    right.InitInternal(level, promote, old_hi, old_sibling,
                       /*leftmost=*/ents[mid].second);
    for (size_t j = mid + 1; j < ents.size(); j++) {
      right.SetInternalEntry(static_cast<uint32_t>(j - mid - 1),
                             ents[j].first, ents[j].second);
    }
    right.set_count(static_cast<uint16_t>(ents.size() - mid - 1));
    view.InitInternal(level, old_lo, promote, right_addr, old_leftmost);
    for (size_t j = 0; j < mid; j++) {
      view.SetInternalEntry(static_cast<uint32_t>(j), ents[j].first,
                            ents[j].second);
    }
    view.set_count(static_cast<uint16_t>(mid));

    co_await CommitSplit(locked, level, old_lo, old_hi, promote, right_addr,
                         new_version, buf.data(), right_buf.data(),
                         intent_slot, stats);
    co_return co_await LinkSplit(level, promote, right_addr, intent_slot,
                                 stats);
  }
  co_return Status::Internal("internal insert restarts exhausted");
}

sim::Task<Status> TreeClient::MakeNewRoot(Key sep, rdma::GlobalAddress child,
                                          uint8_t level, OpStats* stats) {
  SHERMAN_TEVENT(stats != nullptr ? stats->trace : nullptr, "tree.new_root",
                 level);
  const TreeOptions& o = opt();
  const rdma::GlobalAddress old_root = root_addr_;

  // A root install waits on no slot either: the reserve's root slot is
  // busy only while another install of this client is in flight.
  const int intent_slot = intents_.TryClaim(recover::IntentOp::kRoot, level);
  if (intent_slot < 0) {
    co_await system_->fabric_.simulator().Delay(recover::kIntentSlotBackoffNs);
    co_return Status::Retry("no intent slot");
  }
  const rdma::GlobalAddress addr = co_await allocator_.Alloc(node_size());
  if (addr.is_null()) {
    intents_.ClearAsync(intent_slot);
    co_return Status::OutOfMemory();
  }

  // The root-pointer CAS is the commit point; the intent only tracks the
  // staged node so a crash before (or a lost race at) the CAS cannot leak
  // it. Recovery decides by walking the leftmost spine: the staged node
  // is reachable iff the CAS won.
  recover::IntentRecord intent;
  intent.op = recover::IntentOp::kRoot;
  intent.level = level;
  intent.hi = kMaxKey;
  intent.primary = addr;
  co_await intents_.Publish(intent_slot, intent, stats);

  std::vector<uint8_t> buf(node_size());
  NodeView view(buf.data(), &o.shape);
  view.InitInternal(level, 0, kMaxKey, rdma::kNullAddress,
                    /*leftmost=*/old_root);
  SHERMAN_CHECK(view.InternalInsert(sep, child));
  view.Reseal(o.consistency);

  rdma::WorkRequest stage =
      rdma::WorkRequest::Write(addr, buf.data(), node_size());
  stage.intent_slot = static_cast<uint8_t>(intent_slot);
  rdma::RdmaResult w = co_await QpFor(addr).Post(stage);
  if (stats != nullptr) stats->round_trips++;
  SHERMAN_CHECK(w.status.ok());
  co_await fault::Injector().AtSite(kCrashSplitRoot, cs_id_);

  // Publish via CAS on the meta root pointer.
  uint64_t fetched = 0;
  rdma::WorkRequest root_cas =
      rdma::WorkRequest::Cas(rdma::GlobalAddress(0, kRootPointerOffset),
                             old_root.ToU64(), addr.ToU64(), &fetched);
  root_cas.origin = rdma::kWrOriginRoot;  // the blessed root-swap path
  rdma::RdmaResult c =
      co_await system_->fabric_.qp(cs_id_, 0).Post(root_cas);
  if (stats != nullptr) stats->round_trips++;
  SHERMAN_CHECK(c.status.ok());
  if (!c.cas_success) {
    // Clear the intent BEFORE the local free: the freed address can be
    // handed to another thread of this client immediately, and a stale
    // intent naming a reused address would make recovery retire a node
    // someone else published. ClearAsync posts its WRITE synchronously,
    // which is ordering enough — posted work completes even if this
    // client dies before the completion.
    intents_.ClearAsync(intent_slot);
    allocator_.Free(addr, node_size());
    root_known_ = false;  // someone else grew the tree
    co_return Status::Retry("root CAS lost");
  }
  root_addr_ = addr;
  root_level_ = level;
  root_known_ = true;
  if (dmsan::Active()) {
    if (dmsan::Checker* dc = dmsan::Find(&system_->fabric_.simulator())) {
      dc->PublishNode(addr, level);
    }
  }
  if (o.enable_cache) {
    ParsedInternal parsed;
    if (ParseInternal(buf.data(), o.shape, addr, &parsed).ok()) {
      cache_.Insert(parsed);
    }
  }
  intents_.ClearAsync(intent_slot);
  co_return Status::OK();
}

// --- scans -----------------------------------------------------------------

sim::Task<void> TreeClient::ReadInto(rdma::GlobalAddress addr, uint8_t* buf,
                                     uint32_t len, sim::SimTime* duration,
                                     sim::CountdownLatch* latch) {
  sim::Simulator& sim = system_->fabric_.simulator();
  const sim::SimTime start = sim.now();
  co_await QpFor(addr).Post(rdma::WorkRequest::Read(addr, buf, len));
  if (duration != nullptr) *duration = sim.now() - start;
  latch->Arrive();
}

sim::Task<void> TreeClient::ProbeLockForRecovery(rdma::GlobalAddress* addr,
                                                 uint32_t attempt,
                                                 OpStats* stats) {
  if (addr->is_null() || (attempt & 7) != 7) co_return;
  LockGuard g = co_await hocl_.Lock(*addr, stats);
  co_await hocl_.Unlock(g, {}, opt().combine_commands, stats);
  *addr = rdma::GlobalAddress();
}

template <class R>
sim::Task<Status> TreeClient::Scan(R rec, uint32_t count,
                                   std::vector<typename R::ScanEntry>* out,
                                   OpStats* stats) {
  // A fixed sentinel start aborts in CheckScan; an empty scan succeeds
  // whatever its byte start.
  Status st = rec.CheckScan();
  out->clear();
  if (count == 0) co_return Status::OK();
  if (!st.ok()) co_return st;
  const TreeOptions& o = opt();
  const rdma::FabricConfig& f = system_->fabric_.config();
  sim::Simulator& sim = system_->fabric_.simulator();
  EpochPin pin(&system_->reclaim_, cs_id_);
  co_await sim.Delay(f.cpu_op_overhead_ns);

  // The routing cursor: every leaf left of it has been collected.
  Key cursor = rec.route();
  if (cursor == kMaxKey) co_return Status::OK();  // nothing sorts >= start
  std::vector<std::vector<uint8_t>> bufs;
  std::vector<sim::SimTime> read_ns;  // each leaf buffer's last READ
  rdma::GlobalAddress probe_addr;  // last tombstone this scan bounced off

  // Only restarts count against the bound: a batch whose leaves were all
  // collected is progress, however many a long scan takes.
  for (uint32_t attempt = 0; attempt < kMaxRestarts;) {
    // Plan a batch of target leaves from the cached level-1 nodes, falling
    // back to a single traversal; fetch them with parallel RDMA_READs
    // (§4.4, "Range query").
    std::vector<rdma::GlobalAddress> leaves;
    bool hinted = false;  // the batch's one leaf came from the hint mirror
    if (o.enable_cache) {
      // Just the leaves expected to hold the entries still needed: the
      // cursor's leaf is expected to hold the fill times its key share
      // above the cursor, every later leaf the fill. A wrong guess costs a
      // second batch or a restart below, never an entry.
      const double need = count - out->size();
      const double fill =
          scan_fill_ >= 0 ? scan_fill_ : o.shape.leaf_capacity() / 2;
      double expected = 0;
      const ParsedInternal* p = cache_.LookupLevel1(cursor);
      // Child i of p, numbered as ParsedInternal::ChildIndex numbers them.
      size_t i = p != nullptr ? p->ChildIndex(cursor) : 0;
      while (p != nullptr && leaves.size() < kMaxScanBatch &&
             expected < need) {
        if (i > p->entries.size()) {
          // Past p's last child: go on in its right neighbour, if cached
          // and adjacent.
          const ParsedInternal* next =
              p->hi == kMaxKey ? nullptr : cache_.LookupLevel1(p->hi);
          p = next != nullptr && next->lo == p->hi ? next : nullptr;
          i = 0;
          continue;
        }
        double share = 1;
        if (leaves.empty()) {
          const Key lo = i == 0 ? p->lo : p->entries[i - 1].first;
          const Key hi = i < p->entries.size() ? p->entries[i].first : p->hi;
          if (hi != kMaxKey) {
            share = static_cast<double>(hi - cursor) /
                    static_cast<double>(hi - lo);
          }
        }
        leaves.push_back(i == 0 ? p->leftmost : p->entries[i - 1].second);
        expected += share * fill;
        i++;
      }
    }
    if (leaves.empty()) {
      StatusOr<LeafRef> r =
          co_await FindLeafAddr(cursor, stats, /*allow_hint=*/attempt == 0);
      if (!r.ok()) co_return r.status();
      leaves.push_back(r->addr);
      hinted = r->via_hint;
    }

    // Each leaf is collected once its own READ lands: under load the
    // batch's responses land spread out, and the leaves before the last
    // one need not wait for it.
    bufs.assign(leaves.size(), std::vector<uint8_t>(node_size()));
    read_ns.assign(leaves.size(), 0);
    std::vector<sim::CountdownLatch> landed(leaves.size(),
                                            sim::CountdownLatch(1));
    {
      SHERMAN_TEVENT(stats != nullptr ? stats->trace : nullptr,
                     "rdma.read_batch", leaves.size());
      for (size_t i = 0; i < leaves.size(); i++) {
        sim::Spawn(ReadInto(leaves[i], bufs[i].data(), node_size(),
                            &read_ns[i], &landed[i]));
      }
      co_await landed[0].Wait();
    }
    if (stats != nullptr) {
      stats->round_trips += static_cast<uint32_t>(leaves.size());
    }

    std::optional<Status> result;  // how the scan ends, once it does
    bool restart = false;
    for (size_t i = 0; i < leaves.size() && !restart && !result; i++) {
      if (!landed[i].done()) {
        SHERMAN_TEVENT(stats != nullptr ? stats->trace : nullptr, "rdma.read",
                       node_size(), leaves[i].node);
        co_await landed[i].Wait();
      }
      uint32_t rereads = 0;
      uint32_t wrap_retries = 0;
      int chases = 0;
      while (true) {
        if (rereads > kMaxReadRetries) {
          result = Status::TimedOut("scan leaf retries exhausted");
          break;
        }
        NodeView view(bufs[i].data(), &o.shape);
        bool reread_needed = !NodeConsistent(bufs[i].data());
        // 4-bit wraparound guard (§4.4), bounded as in ReadNodeChecked: a
        // READ slower than a full version cycle proves nothing by
        // matching versions.
        if (!reread_needed && WrapGuardTrips(read_ns[i]) &&
            wrap_retries < kMaxWrapRetries) {
          wrap_retries++;
          reread_needed = true;
        }
        if (!reread_needed) {
          const bool usable = !view.is_free() && view.is_leaf() &&
                              cursor >= view.lo_fence();
          const bool right = usable && cursor >= view.hi_fence();
          // Valid hinted leaf, but the cursor split off to its right since
          // the mirror was fetched; the chase below still serves it.
          if (right && hinted && chases == 0) NoteHintChase();
          if (right && !view.sibling().is_null() &&
              chases < kMaxSiblingChase) {
            // B-link sibling chase, mirroring Lookup. Restart-and-
            // re-resolve is NOT enough here: a crashed client can leave a
            // committed leaf split whose parent separator is missing until
            // recovery replays it, and every re-resolution would route the
            // cursor back to the left half forever. The sibling pointer is
            // authoritative; follow it.
            chases++;
            leaves[i] = view.sibling();
            reread_needed = true;  // fetch the sibling into this buffer
          } else if (!usable || right) {
            cache_.InvalidateLevel1Covering(cursor);
            // A hinted start that was no live leaf of the cursor's, or that
            // the chase bound could not carry there, leaves the mirror.
            const bool misled =
                usable ? chases == kMaxSiblingChase : chases == 0;
            if (hinted && misled) NoteHintStale(cursor);
            if (view.is_free()) probe_addr = leaves[i];
            if (attempt >= 2) root_known_ = false;  // stale root (see LockLeaf)
            restart = true;
            break;
          }
        }
        if (!reread_needed) {
          // The policy collects the entries at or past the cursor (NOT the
          // start: a restart can land on a leaf whose lo fence moved left
          // of the cursor — a merge widened it over an already-scanned
          // range — and re-collecting that would duplicate keys out of
          // order). Retry asks for a re-read: a torn entry, or a value
          // relocated between the leaf READ and its own.
          co_await sim.Delay(rec.SearchNs(f));
          uint32_t live = 0;
          st = co_await rec.ScanLeaf(*this, view, cursor, count, out, &live,
                                     stats);
          if (st.ok()) {
            // The first leaf collected sets the mean.
            const double w = scan_fill_ < 0 ? 1 : kScanFillWeight;
            scan_fill_ += w * (live - scan_fill_);
            cursor = view.hi_fence();
            if (out->size() >= count || cursor == kMaxKey) {
              result = Status::OK();
            }
            break;
          }
          if (!st.IsRetry()) {
            result = st;
            break;
          }
        }
        // Re-read this leaf.
        if (stats != nullptr) stats->read_retries++;
        rereads++;
        const sim::SimTime start = sim.now();
        st = co_await ReadRaw(leaves[i], bufs[i].data(), node_size(), stats);
        if (!st.ok()) {
          result = st;
          break;
        }
        read_ns[i] = sim.now() - start;
      }
    }
    // A restart reuses the buffers, and a return frees them and the
    // latches: the batch's READs still in flight land first.
    for (sim::CountdownLatch& l : landed) co_await l.Wait();
    if (result.has_value()) co_return *result;
    if (restart) {
      // Repeated bounces off one tombstone may mean its writer died
      // mid-structural-op (see ReadLeafChasing).
      co_await ProbeLockForRecovery(&probe_addr, attempt, stats);
      attempt++;
    }
  }
  co_return Status::Internal("scan restarts exhausted");
}

// --- batched ops ------------------------------------------------------------

namespace {
// Cap on READs per doorbell ring (real NIC postlists are bounded); larger
// per-MS fetch sets split into multiple rings, still pipelined.
constexpr size_t kMaxReadBatch = 16;
}  // namespace

sim::Task<void> TreeClient::PlanLeafInto(Key key, LeafRef* ref, Status* st,
                                         OpStats* stats,
                                         sim::CountdownLatch* latch) {
  StatusOr<LeafRef> r = co_await FindLeafAddr(key, stats);
  if (r.ok()) {
    *ref = *r;
  } else {
    *st = r.status();
  }
  latch->Arrive();
}

sim::Task<std::vector<rdma::GlobalAddress>> TreeClient::PlanLeaves(
    const std::vector<Key>& routes, OpStats* stats) {
  // Hot keys repeat in Zipfian batches, and varlen keys share routing
  // keys: one descent serves every copy. Cache hits are local; misses
  // traverse concurrently.
  std::map<Key, size_t> plan_of;  // routing key -> plan slot
  std::vector<Key> uniq;
  for (Key rk : routes) {
    if (rk != kNullKey && plan_of.try_emplace(rk, uniq.size()).second) {
      uniq.push_back(rk);
    }
  }
  std::vector<LeafRef> refs(uniq.size());
  std::vector<Status> plan_st(uniq.size(), Status::OK());
  {
    SHERMAN_TSPAN(stats != nullptr ? stats->trace : nullptr, "batch.plan",
                  uniq.size());
    sim::CountdownLatch latch(uniq.size());
    for (size_t j = 0; j < uniq.size(); j++) {
      sim::Spawn(PlanLeafInto(uniq[j], &refs[j], &plan_st[j], stats, &latch));
    }
    co_await latch.Wait();
  }
  std::vector<rdma::GlobalAddress> leaves(routes.size());
  for (size_t i = 0; i < routes.size(); i++) {
    if (routes[i] == kNullKey) continue;
    const size_t j = plan_of[routes[i]];
    if (plan_st[j].ok()) leaves[i] = refs[j].addr;
  }
  co_return leaves;
}

sim::Task<void> TreeClient::PostReadsInto(uint16_t ms_node,
                                          std::vector<rdma::WorkRequest> wrs,
                                          OpStats* stats,
                                          sim::CountdownLatch* latch) {
  SHERMAN_TEVENT(stats != nullptr ? stats->trace : nullptr, "rdma.read_batch",
                 wrs.size(), ms_node);
  rdma::RdmaResult r = co_await system_->fabric_.qp(cs_id_, ms_node)
                           .PostReadBatch(std::move(wrs));
  SHERMAN_CHECK(r.status.ok());
  if (stats != nullptr) stats->round_trips++;
  latch->Arrive();
}

sim::Task<bool> TreeClient::FetchLeaves(
    const std::vector<rdma::GlobalAddress>& leaves,
    std::vector<std::vector<uint8_t>>* bufs, OpStats* stats) {
  sim::Simulator& sim = system_->fabric_.simulator();
  bufs->assign(leaves.size(), std::vector<uint8_t>(node_size()));
  std::map<uint16_t, std::vector<rdma::WorkRequest>> per_ms;
  for (size_t j = 0; j < leaves.size(); j++) {
    per_ms[leaves[j].node].push_back(
        rdma::WorkRequest::Read(leaves[j], (*bufs)[j].data(), node_size()));
  }
  std::vector<std::pair<uint16_t, std::vector<rdma::WorkRequest>>> rings;
  for (auto& [ms, wrs] : per_ms) {
    for (size_t at = 0; at < wrs.size(); at += kMaxReadBatch) {
      const size_t end = std::min(at + kMaxReadBatch, wrs.size());
      rings.emplace_back(ms, std::vector<rdma::WorkRequest>(
                                 wrs.begin() + at, wrs.begin() + end));
    }
  }
  const sim::SimTime fetch_start = sim.now();
  if (!rings.empty()) {
    SHERMAN_TSPAN(stats != nullptr ? stats->trace : nullptr, "multiget.fetch",
                  rings.size());
    sim::CountdownLatch latch(rings.size());
    for (auto& [ms, wrs] : rings) {
      sim::Spawn(PostReadsInto(ms, std::move(wrs), stats, &latch));
    }
    co_await latch.Wait();
  }
  // 4-bit wraparound guard (§4.4), batch edition: a fetch longer than a
  // full version cycle could take proves nothing by matching versions.
  co_return WrapGuardTrips(sim.now() - fetch_start);
}

template <class R>
sim::Task<void> TreeClient::FetchInto(R* rec, Status* st, OpStats* stats,
                                      sim::CountdownLatch* latch) {
  *st = co_await rec->Fetch(*this, stats);
  latch->Arrive();
}

template <class R, class K>
sim::Task<Status> TreeClient::MultiGetRecords(
    std::vector<K> keys, std::vector<typename R::Result>* out,
    OpStats* stats) {
  const TreeOptions& o = opt();
  const rdma::FabricConfig& f = system_->fabric_.config();
  sim::Simulator& sim = system_->fabric_.simulator();
  out->assign(keys.size(), typename R::Result{});
  if (keys.empty()) co_return Status::OK();
  const size_t n = keys.size();
  std::vector<R> recs;
  recs.reserve(n);
  std::vector<Key> routes(n, kNullKey);  // kNullKey: rejected, not planned
  for (size_t i = 0; i < n; i++) {
    recs.push_back(R(o, keys[i], {}, &(*out)[i].value));
    const Status st = recs[i].Check();
    if (st.ok()) {
      routes[i] = recs[i].route();
    } else {
      (*out)[i].status = st;
    }
  }
  EpochPin pin(&system_->reclaim_, cs_id_);
  co_await sim.Delay(f.cpu_op_overhead_ns);

  // Phase 1 — plan every key to its leaf.
  const std::vector<rdma::GlobalAddress> planned =
      co_await PlanLeaves(routes, stats);

  // Phase 2 — fetch each distinct leaf once, doorbell-batched per MS.
  std::map<uint64_t, size_t> buf_of;  // leaf addr -> buffer index
  std::vector<rdma::GlobalAddress> leaves;
  std::vector<size_t> key_buf(n, SIZE_MAX);
  for (size_t i = 0; i < n; i++) {
    if (planned[i].is_null()) continue;
    auto [it, inserted] = buf_of.try_emplace(planned[i].ToU64(), leaves.size());
    if (inserted) leaves.push_back(planned[i]);
    key_buf[i] = it->second;
  }
  std::vector<std::vector<uint8_t>> bufs;
  const bool slow_fetch = co_await FetchLeaves(leaves, &bufs, stats);

  // Phase 3 — validate locally. Stale plans and torn reads fall back to
  // the singleton path; out-of-line values resolve concurrently.
  std::vector<size_t> remote;
  std::vector<size_t> retry;
  for (size_t i = 0; i < n; i++) {
    if (routes[i] == kNullKey) continue;
    if (key_buf[i] == SIZE_MAX) {
      // Planning failed (e.g. restarts exhausted under churn); the
      // singleton path retries from scratch with its own bounds.
      retry.push_back(i);
      continue;
    }
    uint8_t* buf = bufs[key_buf[i]].data();
    NodeView view(buf, &o.shape);
    if (slow_fetch || !NodeConsistent(buf)) {
      if (stats != nullptr) stats->read_retries++;
      retry.push_back(i);
      continue;
    }
    if (view.is_free() || !view.is_leaf() || !view.InFence(routes[i])) {
      cache_.InvalidateLevel1Covering(routes[i]);
      retry.push_back(i);
      continue;
    }
    co_await sim.Delay(recs[i].SearchNs(f));
    const LeafRead got = recs[i].Read(view);
    if (got == LeafRead::kTorn) {
      if (stats != nullptr) stats->read_retries++;
      retry.push_back(i);
    } else if (got == LeafRead::kRemote) {
      remote.push_back(i);
    } else {
      (*out)[i].status =
          got == LeafRead::kHit ? Status::OK() : Status::NotFound();
    }
  }
  if (!remote.empty()) {
    SHERMAN_TSPAN(stats != nullptr ? stats->trace : nullptr,
                  "multiget.vlog_fetch", remote.size());
    sim::CountdownLatch latch(remote.size());
    for (size_t i : remote) {
      sim::Spawn(FetchInto(&recs[i], &(*out)[i].status, stats, &latch));
    }
    co_await latch.Wait();
    // Relocated mid-flight: the singleton path re-reads leaf + value.
    for (size_t i : remote) {
      if ((*out)[i].status.IsCorruption()) retry.push_back(i);
    }
  }

  // Phase 4 — re-serve the stragglers op-at-a-time (handles splits,
  // sibling chases, and version churn with the full retry machinery).
  SHERMAN_TSPAN(stats != nullptr ? stats->trace : nullptr,
                "multiget.fallback", retry.size());
  Status overall = Status::OK();
  for (size_t i : retry) {
    const Status st = co_await Get(recs[i], stats);
    (*out)[i].status = st;
    if (!st.ok() && !st.IsNotFound() && overall.ok()) overall = st;
  }
  co_return overall;
}

template <class Apply>
sim::Task<void> TreeClient::ApplyGroups(
    const std::vector<rdma::GlobalAddress>& planned,
    std::vector<uint8_t>* defer, [[maybe_unused]] OpStats* stats,
    Apply apply) {
  std::map<uint64_t, std::vector<size_t>> groups;  // leaf addr -> items
  for (size_t i = 0; i < planned.size(); i++) {
    if (planned[i].is_null()) {
      (*defer)[i] = 1;
    } else {
      groups[planned[i].ToU64()].push_back(i);
    }
  }
  if (groups.empty()) co_return;
  SHERMAN_TSPAN(stats != nullptr ? stats->trace : nullptr, "batch.apply",
                groups.size());
  sim::CountdownLatch latch(groups.size());
  for (auto& [addr_u64, idxs] : groups) {
    sim::Spawn(
        apply(rdma::GlobalAddress::FromU64(addr_u64), std::move(idxs), &latch));
  }
  co_await latch.Wait();
}

template <class R>
sim::Task<void> TreeClient::ApplyPutGroup(
    rdma::GlobalAddress addr, std::vector<size_t> idxs, std::vector<R>* recs,
    sim::CountdownLatch* written, std::vector<uint8_t>* defer, OpStats* stats,
    sim::CountdownLatch* latch) {
  const rdma::FabricConfig& f = system_->fabric_.config();
  std::vector<uint8_t> buf(node_size());
  StatusOr<Locked> locked_r = co_await LockChasing(
      addr, (*recs)[idxs[0]].route(), buf.data(), stats);
  if (!locked_r.ok()) {
    for (size_t idx : idxs) (*defer)[idx] = 1;
    latch->Arrive();
    co_return;
  }
  co_await written->Wait();
  NodeView view(buf.data(), &opt().shape);
  LeafWrite w;
  std::vector<size_t> applied;
  // Routing keys with a deferred instance. Every later instance is
  // deferred too: the singleton fallback runs in batch order, so an
  // instance applied here would be overwritten by an earlier, deferred
  // one (a varlen leaf may refuse a large value yet take a smaller one).
  std::set<Key> deferred;
  for (size_t idx : idxs) {
    R& rec = (*recs)[idx];
    // Off this leaf after a sibling chase, or full: the split goes
    // through Put().
    bool fits = deferred.count(rec.route()) == 0 && view.InFence(rec.route());
    if (fits) {
      co_await system_->fabric_.simulator().Delay(rec.SearchNs(f));
      fits = rec.Put(&view, &w);
    }
    if (!fits) {
      (*defer)[idx] = 1;
      deferred.insert(rec.route());
      continue;
    }
    applied.push_back(idx);
  }
  if (w.seal) view.Seal(opt().consistency);
  co_await WriteBackAndUnlock(*locked_r, buf.data(), w, stats);
  // Duplicate keys share this group, so a put superseded within the batch
  // is retired here too, once the leaf no longer names it.
  for (size_t idx : applied) (*recs)[idx].Published(*this);
  latch->Arrive();
}

template <class R, class K, class V>
sim::Task<Status> TreeClient::MultiPut(std::vector<std::pair<K, V>> kvs,
                                       OpStats* stats) {
  if (kvs.empty()) co_return Status::OK();
  const size_t n = kvs.size();
  std::vector<R> recs;
  recs.reserve(n);
  std::vector<Key> routes(n);
  for (size_t i = 0; i < n; i++) {
    recs.push_back(R(opt(), kvs[i].first, kvs[i].second));
    const Status st = recs[i].CheckPut();
    if (!st.ok()) co_return st;
    routes[i] = recs[i].route();
  }
  EpochPin pin(&system_->reclaim_, cs_id_);  // before any reservation (Put)
  co_await system_->fabric_.simulator().Delay(
      system_->fabric_.config().cpu_op_overhead_ns);

  // Phase 0 — reserve every record's value-log extent before any lock, in
  // batch order. A failed reservation retires the extents reserved before
  // it: no leaf names them, and none of their WRITEs was posted.
  for (size_t i = 0; i < n; i++) {
    const Status st = co_await recs[i].Reserve(*this, stats);
    if (st.ok()) continue;
    for (size_t j = 0; j < i; j++) co_await recs[j].Abandon(*this, stats);
    co_return st;
  }
  // Then post all their WRITEs at once, beside the plan and the group
  // locks. Each WRITE counts `written` down in this frame: every group
  // awaits it before it applies, and so does the batch before it returns.
  sim::CountdownLatch written(0);
  for (R& rec : recs) rec.PostWrite(*this, &written, stats);

  // Phase 1 — plan; phase 2 — group by target leaf and apply each group
  // under one lock, groups in parallel, each group's write-back riding its
  // lock release. Duplicate keys stay in one group (same plan), applied in
  // batch order: the later write wins in the staged leaf.
  const std::vector<rdma::GlobalAddress> planned =
      co_await PlanLeaves(routes, stats);
  std::vector<uint8_t> defer(n, 0);
  co_await ApplyGroups(
      planned, &defer, stats,
      [&](rdma::GlobalAddress addr, std::vector<size_t> idxs,
          sim::CountdownLatch* latch) {
        return ApplyPutGroup(addr, std::move(idxs), &recs, &written, &defer,
                             stats, latch);
      });
  co_await written.Wait();  // before any abandon below, and before returning

  // Phase 3 — deferred records (splits, fence moves, plan failures) take
  // the singleton path, which reserves its own copy: drop the batch's.
  for (size_t i = 0; i < n; i++) {
    if (!defer[i]) continue;
    co_await recs[i].Abandon(*this, stats);
    const Status st = co_await Put(recs[i], stats);
    if (!st.ok()) co_return st;
  }
  co_return Status::OK();
}

template <class R>
sim::Task<void> TreeClient::ApplyRemoveGroup(
    rdma::GlobalAddress addr, std::vector<size_t> idxs, std::vector<R>* recs,
    std::vector<Status>* out, std::vector<uint8_t>* defer, OpStats* stats,
    sim::CountdownLatch* latch) {
  const rdma::FabricConfig& f = system_->fabric_.config();
  std::vector<uint8_t> buf(node_size());
  StatusOr<Locked> locked_r = co_await LockChasing(
      addr, (*recs)[idxs[0]].route(), buf.data(), stats);
  if (!locked_r.ok()) {
    for (size_t idx : idxs) (*defer)[idx] = 1;
    latch->Arrive();
    co_return;
  }
  NodeView view(buf.data(), &opt().shape);
  LeafWrite w;
  std::vector<size_t> removed;
  for (size_t idx : idxs) {
    R& rec = (*recs)[idx];
    if (!view.InFence(rec.route())) {  // sibling chase moved us off this key
      (*defer)[idx] = 1;
      continue;
    }
    co_await system_->fabric_.simulator().Delay(rec.SearchNs(f));
    if (rec.Remove(&view, &w)) {
      (*out)[idx] = Status::OK();
      removed.push_back(idx);
    } else {
      (*out)[idx] = Status::NotFound();
    }
  }
  if (w.seal) view.Seal(opt().consistency);
  co_await MergeOrWriteBack(*locked_r, buf.data(), w, stats);
  for (size_t idx : removed) (*recs)[idx].Removed(*this);
  latch->Arrive();
}

template <class R, class K>
sim::Task<Status> TreeClient::MultiRemove(std::vector<K> keys,
                                          std::vector<Status>* out,
                                          OpStats* stats) {
  out->assign(keys.size(), Status::NotFound());
  if (keys.empty()) co_return Status::OK();
  const size_t n = keys.size();
  std::vector<R> recs;
  recs.reserve(n);
  std::vector<Key> routes(n);
  for (size_t i = 0; i < n; i++) {
    recs.push_back(R(opt(), keys[i]));
    const Status st = recs[i].Check();
    if (!st.ok()) co_return st;
    routes[i] = recs[i].route();
  }
  EpochPin pin(&system_->reclaim_, cs_id_);
  co_await system_->fabric_.simulator().Delay(
      system_->fabric_.config().cpu_op_overhead_ns);

  // Plan, then clear each leaf group's entries under one lock with the
  // writes + release in a single doorbell, groups in parallel. Duplicate
  // keys stay in one group, so the second removal reports NotFound.
  const std::vector<rdma::GlobalAddress> planned =
      co_await PlanLeaves(routes, stats);
  std::vector<uint8_t> defer(n, 0);
  co_await ApplyGroups(
      planned, &defer, stats,
      [&](rdma::GlobalAddress addr, std::vector<size_t> idxs,
          sim::CountdownLatch* latch) {
        return ApplyRemoveGroup(addr, std::move(idxs), &recs, out, &defer,
                                stats, latch);
      });

  // Deferred keys (fence moves, plan failures) take the singleton path.
  Status overall = Status::OK();
  for (size_t i = 0; i < n; i++) {
    if (!defer[i]) continue;
    const Status st = co_await Remove(recs[i], stats);
    (*out)[i] = st;
    if (!st.ok() && !st.IsNotFound() && overall.ok()) overall = st;
  }
  co_return overall;
}

// --- the public ops: one-line adapters onto the op core ----------------------

sim::Task<Status> TreeClient::Insert(Key key, uint64_t value, OpStats* stats,
                                     const PutBind<uint64_t>* bind) {
  return Put(FixedPolicy(opt(), key, value), stats, bind);
}

sim::Task<Status> TreeClient::Lookup(Key key, uint64_t* value,
                                     OpStats* stats) {
  return Get(FixedPolicy(opt(), key, 0, value), stats);
}

sim::Task<Status> TreeClient::Delete(Key key, OpStats* stats) {
  return Remove(FixedPolicy(opt(), key), stats);
}

sim::Task<Status> TreeClient::RangeQuery(
    Key from, uint32_t count, std::vector<std::pair<Key, uint64_t>>* out,
    OpStats* stats) {
  return Scan(FixedPolicy(opt(), from), count, out, stats);
}

sim::Task<Status> TreeClient::MultiGet(std::vector<Key> keys,
                                       std::vector<MultiGetResult>* out,
                                       OpStats* stats) {
  return MultiGetRecords<FixedPolicy>(std::move(keys), out, stats);
}

sim::Task<Status> TreeClient::MultiInsert(
    std::vector<std::pair<Key, uint64_t>> kvs, OpStats* stats) {
  return MultiPut<FixedPolicy>(std::move(kvs), stats);
}

sim::Task<Status> TreeClient::MultiDelete(std::vector<Key> keys,
                                          std::vector<Status>* out,
                                          OpStats* stats) {
  return MultiRemove<FixedPolicy>(std::move(keys), out, stats);
}

sim::Task<Status> TreeClient::InsertVar(const Slice& key, const Slice& value,
                                        OpStats* stats,
                                        const PutBind<std::string>* bind) {
  return Put(VarPolicy(opt(), key, value), stats, bind);
}

sim::Task<Status> TreeClient::LookupVar(const Slice& key, std::string* value,
                                        OpStats* stats) {
  return Get(VarPolicy(opt(), key, {}, value), stats);
}

sim::Task<Status> TreeClient::DeleteVar(const Slice& key, OpStats* stats) {
  return Remove(VarPolicy(opt(), key), stats);
}

sim::Task<Status> TreeClient::ScanVar(
    const Slice& from, uint32_t count,
    std::vector<std::pair<std::string, std::string>>* out, OpStats* stats) {
  return Scan(VarPolicy(opt(), from), count, out, stats);
}

sim::Task<Status> TreeClient::MultiGetVar(std::vector<std::string> keys,
                                          std::vector<VarGetResult>* out,
                                          OpStats* stats) {
  return MultiGetRecords<VarPolicy>(std::move(keys), out, stats);
}

sim::Task<Status> TreeClient::MultiInsertVar(
    std::vector<std::pair<std::string, std::string>> kvs, OpStats* stats) {
  return MultiPut<VarPolicy>(std::move(kvs), stats);
}

// ---------------------------------------------------------------------------
// ShermanSystem
// ---------------------------------------------------------------------------

ShermanSystem::ShermanSystem(rdma::FabricConfig fabric_config,
                             TreeOptions tree_options)
    : options_(tree_options), fabric_(fabric_config) {
  options_.Validate();
  tracer_ = std::make_unique<obs::Tracer>(&fabric_.simulator());
  obs::RegisterFatalDumpTracer(tracer_.get());
  // Flight-record every injected client death (SHERMAN_CRASH_AT kills and
  // explicit KillClient): the victim's last spans show what it was doing
  // when it died. Owner-scoped so a newer system's registration wins.
  fault::Injector().SetDeathObserver(this, [this](int cs) {
    tracer_->DumpToStderr(
        "client cs" + std::to_string(cs) + " declared dead (crash injection)",
        {obs::RingId::Client(cs)});
    if (dmsan_ != nullptr) dmsan_->OnClientDead(cs);
  });
  if (dmsan::DefaultEnabled()) {
    dmsan::Checker::Config dcfg;
    dcfg.node_size = options_.shape.node_size;
    dcfg.lock = options_.lock;
    dcfg.reclaim = &reclaim_;
    dcfg.tracer = tracer_.get();
    dcfg.sim = &fabric_.simulator();
    dmsan_ = std::make_unique<dmsan::Checker>(dcfg);
    dmsan::Attach(&fabric_.simulator(), dmsan_.get());
  }
  for (int i = 0; i < fabric_.num_memory_servers(); i++) {
    chunks_.push_back(std::make_unique<ChunkManager>(
        &fabric_.ms(i), &registry(), &reclaim_, options_.shape.varlen));
    if (options_.enable_leaf_hints) {
      // After the ChunkManager: the directory chains its RPC handler in
      // front of the manager's (which aborts on unknown opcodes).
      hints_.push_back(std::make_unique<LeafHintDirectory>(
          &fabric_.ms(i), dmsan_.get(), &registry()));
    }
  }
  for (int i = 0; i < fabric_.num_compute_servers(); i++) {
    clients_.push_back(std::make_unique<TreeClient>(this, i));
  }
  RegisterCollectors();
}

ShermanSystem::~ShermanSystem() {
  fault::Injector().ClearDeathObserver(this);
  if (dmsan_ != nullptr) dmsan::Detach(&fabric_.simulator());
}

// Counts live in registry counters bumped where the work happens; these
// collectors publish only the levels components keep anyway. They read the
// LIVE deployment at snapshot time, so servers added later
// (AddMemoryServer) are included automatically.
void ShermanSystem::RegisterCollectors() {
  registry().AddCollector([this](obs::MetricsSnapshot* s) {
    double cache_bytes = 0;
    sim::SimTime recovery_ns = 0;  // the slowest survivor's last recovery
    for (const auto& client : clients_) {
      cache_bytes += static_cast<double>(client->cache().bytes_used());
      recovery_ns =
          std::max(recovery_ns, client->recoverer().last_duration_ns());
    }
    uint64_t grace = 0;
    for (const auto& cm : chunks_) grace += cm->grace_pending();
    s->SetGauge("cache.bytes_used", cache_bytes);
    s->SetGauge("recover.last_duration_ns", static_cast<double>(recovery_ns));
    s->SetGauge("alloc.allocated_bytes", static_cast<double>(TotalAllocatedBytes()));
    s->SetGauge("reclaim.grace_pending", static_cast<double>(grace));
    s->SetGauge("reclaim.epoch", static_cast<double>(reclaim_.current()));
    s->SetGauge("reclaim.pinned_ops", static_cast<double>(reclaim_.pinned_ops()));
  });
  if (options_.shape.varlen) {
    registry().AddCollector([this](obs::MetricsSnapshot* s) {
      uint64_t live = 0;
      for (const auto& cm : chunks_) live += cm->vlog_live_segments();
      s->SetGauge("vlog.live_segments", static_cast<double>(live));
    });
  }
  if (options_.enable_leaf_hints) {
    registry().AddCollector([this](obs::MetricsSnapshot* s) {
      uint64_t live = 0;
      for (const auto& dir : hints_) live += dir->live_entries();
      s->SetGauge("hint.live_entries", static_cast<double>(live));
    });
  }
}

rdma::GlobalAddress ShermanSystem::DebugRootAddr() const {
  auto* self = const_cast<ShermanSystem*>(this);
  const uint8_t* p = self->fabric_.ms(0).host().raw(kRootPointerOffset);
  uint64_t packed;
  std::memcpy(&packed, p, 8);
  return rdma::GlobalAddress::FromU64(packed);
}

int ShermanSystem::AddMemoryServer() {
  rdma::MemoryServer& ms = fabric_.AddMemoryServer();
  chunks_.push_back(std::make_unique<ChunkManager>(
      &ms, &registry(), &reclaim_, options_.shape.varlen));
  if (options_.enable_leaf_hints) {
    hints_.push_back(
        std::make_unique<LeafHintDirectory>(&ms, dmsan_.get(), &registry()));
  }
  return ms.id();
}

uint32_t ShermanSystem::DebugHeight() const {
  auto* self = const_cast<ShermanSystem*>(this);
  const rdma::GlobalAddress root = DebugRootAddr();
  NodeView view(self->fabric_.HostRaw(root), &options_.shape);
  return view.level() + 1u;
}

}  // namespace sherman
