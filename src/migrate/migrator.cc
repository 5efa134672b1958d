#include "migrate/migrator.h"

#include <utility>
#include <vector>

#include "alloc/layout.h"
#include "fault/crash_point.h"
#include "obs/trace.h"
#include "recover/intent.h"
#include "sanitizer/dmsan.h"
#include "util/logging.h"

namespace sherman::migrate {

namespace {
// Bounded copy passes per range, and protocol retries (races) per node.
constexpr uint32_t kMaxPasses = 8;
constexpr uint32_t kMaxRetries = 64;
// Safety bound on the control-plane residual walk.
constexpr uint64_t kMaxWalkNodes = 1u << 22;

// Crash sites of the copy-then-flip protocol up to its commit (see
// btree.cc for the site discipline and the tail's flip.sibfixed and
// flip.freed; tests/recover_test.cc sweeps these).
const int kCrashFlipIntent = fault::RegisterCrashSite("flip.intent");
const int kCrashFlipCopy = fault::RegisterCrashSite("flip.copy");
const int kCrashFlipTombstone = fault::RegisterCrashSite("flip.tombstone");
const int kCrashFlipFlipped = fault::RegisterCrashSite("flip.flipped");
}  // namespace

Migrator::Migrator(ShermanSystem* system, MigratorOptions options,
                   ShardMap* map, route::AdaptiveRouter* router)
    : system_(system), options_(options), map_(map), router_(router) {
  obs::Registry& r = system_->registry();
  shards_migrated_ = r.GetCounter("migrate.shards_migrated");
  ranges_migrated_ = r.GetCounter("migrate.ranges_migrated");
  leaves_moved_ = r.GetCounter("migrate.leaves_moved");
  internals_moved_ = r.GetCounter("migrate.internals_moved");
  passes_ = r.GetCounter("migrate.passes");
  bytes_copied_ = r.GetCounter("migrate.bytes_copied");
  chunk_rpcs_ = r.GetCounter("migrate.chunk_rpcs");
  sibling_fixes_ = r.GetCounter("migrate.sibling_fixes");
  residual_leaves_ = r.GetCounter("migrate.residual_leaves");
  source_nodes_freed_ = r.GetCounter("migrate.source_nodes_freed");
  flips_ = r.GetCounter("migrate.flips");
  busy_ns_ = r.GetCounter("migrate.busy_ns");
  SHERMAN_CHECK(options_.cs_id >= 0 &&
                options_.cs_id < system_->num_clients());
  trace_ = obs::TraceCtx::For(&system_->tracer(), obs::RingId::Migrator());
}

sim::Task<rdma::GlobalAddress> Migrator::AllocOnTarget(uint16_t ms,
                                                       uint32_t size) {
  SHERMAN_CHECK(size > 0 && size <= kChunkSize);
  if (chunk_base_.is_null() || chunk_ms_ != ms ||
      chunk_used_ + size > kChunkSize) {
    const uint64_t off = co_await system_->fabric()
                             .qp(options_.cs_id, ms)
                             .Rpc(kRpcAllocChunk, 0);
    if (off == 0) co_return rdma::kNullAddress;
    chunk_ms_ = ms;
    chunk_base_ = rdma::GlobalAddress(ms, off);
    chunk_used_ = 0;
    chunk_rpcs_->Inc();
  }
  const rdma::GlobalAddress addr = chunk_base_.Plus(chunk_used_);
  chunk_used_ += size;
  // The migrator bump-allocates outside CsAllocator, so it feeds DMSan's
  // allocation shadow itself: the copy target is private until the flip.
  if (dmsan::Active()) {
    if (dmsan::Checker* c = system_->dmsan_checker()) {
      c->OnNodeAllocated(options_.cs_id, addr, size);
    }
  }
  co_return addr;
}

sim::Task<Status> Migrator::ReplaceChild(Key key, uint8_t level,
                                         rdma::GlobalAddress old_addr,
                                         rdma::GlobalAddress new_addr,
                                         rdma::GlobalAddress held,
                                         OpStats* stats) {
  TreeClient& t = tc();
  const TreeShape& shape = system_->options().shape;
  std::vector<uint8_t> buf(node_size());
  for (uint32_t attempt = 0; attempt < kMaxRetries; attempt++) {
    // This lock, like the sibling fix's, waits (Acquire::kWait) while
    // `held` is held, although HOCL's multi-lock rule (lock/hocl.h) asks
    // for a bounded TryLock: that is a protocol change of its own, since it
    // changes the migration's timing.
    StatusOr<TreeClient::Locked> lr =
        co_await t.LockCovering(key, level, buf.data(), stats, {held});
    if (!lr.ok()) {
      if (lr.status().IsRetry()) continue;
      co_return lr.status();
    }
    TreeClient::Locked locked = *lr;
    NodeView view(buf.data(), &shape);
    bool found = false;
    if (view.leftmost_child() == old_addr) {
      view.set_leftmost_child(new_addr);
      found = true;
    } else {
      const uint32_t n = view.count();
      for (uint32_t i = 0; i < n; i++) {
        if (view.InternalChild(i) == old_addr) {
          view.SetInternalEntry(i, view.InternalKey(i), new_addr);
          found = true;
          break;
        }
      }
    }
    if (!found) {  // structure raced between resolve and lock; re-resolve
      co_await t.Release(locked, {}, stats);
      continue;
    }
    view.Seal(system_->options().consistency);
    std::vector<rdma::WorkRequest> wrs;
    wrs.push_back(
        rdma::WorkRequest::Write(locked.addr, buf.data(), node_size()));
    co_await t.Release(locked, std::move(wrs), stats);
    // Our own cache may still hold the pre-flip parse of this node.
    t.cache_.Invalidate(key, locked.addr);
    co_return Status::OK();
  }
  co_return Status::TimedOut("replace-child retries exhausted");
}

sim::Task<Status> Migrator::MoveLockedNode(TreeClient::Locked locked,
                                           std::vector<uint8_t>* buf,
                                           uint8_t level, Key cursor,
                                           uint16_t target,
                                           rdma::GlobalAddress sibling_hint,
                                           rdma::GlobalAddress* naddr_out,
                                           OpStats* stats) {
  SHERMAN_TSPAN(stats != nullptr ? stats->trace : nullptr, "migrate.move_node",
                level, target);
  TreeClient& t = tc();
  const TreeOptions& o = system_->options();
  NodeView view(buf->data(), &o.shape);
  const Key node_lo = view.lo_fence();
  const int cs = options_.cs_id;

  // Claim the flip's intent slot. Above the leaf level this holds an
  // internal lock, so it must not wait for one (recover/intent.h): without
  // a slot it lets go, and the pass retries.
  int intent_slot;
  if (level == 0) {
    intent_slot = co_await t.intents_.Claim();
  } else {
    intent_slot = t.intents_.TryClaim(recover::IntentOp::kFlip, level);
    if (intent_slot < 0) {
      co_await t.Release(locked, {}, stats);
      co_return Status::Retry("no intent slot");
    }
  }
  // Copy the frozen node into a shard-private chunk on the target.
  const rdma::GlobalAddress naddr = co_await AllocOnTarget(target, node_size());
  if (naddr.is_null()) {
    t.intents_.ClearAsync(intent_slot);
    co_await t.Release(locked, {}, stats);
    co_return Status::OutOfMemory("target MS exhausted during migration");
  }

  // Anchor the flip before its first remote write: the parent's
  // child-pointer swap (ReplaceChild) is the commit point a survivor's
  // Recoverer keys on — rollback retires the unflipped copy (and revives
  // a pre-flip leaf tombstone); replay completes the B-link repair and
  // retires the source.
  recover::IntentRecord intent;
  intent.op = recover::IntentOp::kFlip;
  intent.level = level;
  intent.lo = node_lo;
  intent.hi = view.hi_fence();
  intent.primary = locked.addr;
  intent.second = naddr;
  co_await t.intents_.Publish(intent_slot, intent, stats);
  co_await fault::Injector().AtSite(kCrashFlipIntent, cs);
  const auto tag = static_cast<uint8_t>(intent_slot);  // DMSan provenance

  rdma::WorkRequest copy_wr =
      rdma::WorkRequest::Write(naddr, buf->data(), node_size());
  copy_wr.intent_slot = tag;
  rdma::RdmaResult w =
      co_await system_->fabric().qp(cs, target).Post(copy_wr);
  SHERMAN_CHECK(w.status.ok());
  bytes_copied_->Inc(node_size());
  co_await fault::Injector().AtSite(kCrashFlipCopy, cs);

  // Tombstone ordering is level-dependent and safety-critical:
  //  - LEAVES tombstone BEFORE the flip. Once the free flag lands, every
  //    lock-free reader holding the old address bounces and re-traverses,
  //    so nobody can serve the frozen content after a later write lands on
  //    the live copy (readers spin on restart for the couple of round
  //    trips until the flip publishes N; writers just block on the lock).
  //  - INTERNALS tombstone AFTER the flip + sibling repair (FinishFlip).
  //    Their content is routing info only — stale routing is healed by
  //    fence checks and sibling chases — so there is no stale-read window
  //    to close and no reason to make readers spin.
  if (level == 0) {
    view.set_free(true);
    view.Reseal(o.consistency);
    rdma::WorkRequest tw =
        rdma::WorkRequest::Write(locked.addr, buf->data(), node_size());
    tw.intent_slot = tag;
    rdma::RdmaResult r = co_await t.QpFor(locked.addr).Post(tw);
    SHERMAN_CHECK(r.status.ok());
    co_await fault::Injector().AtSite(kCrashFlipTombstone, cs);
  }

  // FLIP: fresh descents now resolve to the copy. The source's lock is
  // held across this multi-RTT phase (and the sibling repair after it);
  // renew its lease at each phase boundary — free unless a lease period
  // passed — so a waiter can never mistake this live protocol for a
  // crashed holder.
  co_await t.hocl_.RenewLease(locked.guard, stats);
  Status st = co_await ReplaceChild(cursor, static_cast<uint8_t>(level + 1),
                                    locked.addr, naddr, locked.addr, stats);
  if (!st.ok()) {
    co_await t.RollBackFlip(locked, buf->data(), naddr, tag, stats);
    t.intents_.ClearAsync(intent_slot);
    co_return st;
  }
  // The parent's child pointer now names the copy: private -> live.
  if (dmsan::Active()) {
    if (dmsan::Checker* c = system_->dmsan_checker()) {
      c->PublishNode(naddr, level);
    }
  }
  // Re-home the leaf hint: same lo fence, new address. The publish lands
  // on the copy's MS; the overwrite path in the source MS's directory (if
  // source and target share an MS) or FinishFlip's invalidate (if not)
  // drops the old mapping before the source is freed.
  if (level == 0) co_await t.HintPublish(naddr, node_lo, stats);
  co_await fault::Injector().AtSite(kCrashFlipFlipped, cs);
  bool relinked = false;
  st = co_await t.FinishFlip(locked, buf->data(), naddr, sibling_hint,
                             TreeClient::Acquire::kWait, tag, stats,
                             &relinked);
  if (relinked) sibling_fixes_->Inc();
  t.intents_.ClearAsync(intent_slot);
  co_await t.Release(locked, {}, stats);
  // A sibling fix that gave up leaves the source unfreed, tombstoned (a
  // leaf) or live (an internal node): the flipped parent is authoritative
  // and chain restarts heal through it.
  if (!st.ok()) co_return st;
  source_nodes_freed_->Inc();
  *naddr_out = naddr;
  co_return Status::OK();
}

sim::Task<Status> Migrator::LeafPass(Key lo, Key hi, uint16_t target,
                                     uint64_t* moved) {
  SHERMAN_TSPAN(&trace_, "migrate.leaf_pass", lo, hi);
  TreeClient& t = tc();
  const TreeOptions& o = system_->options();
  Key cursor = lo;
  rdma::GlobalAddress prev_new = rdma::kNullAddress;
  Key prev_new_hi = 0;
  uint32_t stuck = 0;

  while (cursor < hi) {
    if (++stuck > kMaxRetries) {
      co_return Status::TimedOut("leaf pass stuck");
    }
    // Pin the reclamation epoch per iteration: the resolve -> lock -> move
    // window holds raw addresses, but a whole-pass pin would stall node
    // recycling for the full migration.
    EpochPin pin(&system_->reclaim_epoch(), options_.cs_id);
    OpStats stats;
    stats.trace = &trace_;
    // Never via the leaf-hint mirror: the migration pass itself is what
    // makes hints stale, and this locate-lock-validate loop has no
    // stale-entry feedback — a wrong hint would re-serve until the
    // stuck bound trips.
    StatusOr<TreeClient::LeafRef> ref =
        co_await t.FindLeafAddr(cursor, &stats, /*allow_hint=*/false);
    if (!ref.ok()) {
      if (ref.status().IsRetry()) continue;
      co_return ref.status();
    }
    std::vector<uint8_t> buf(node_size());
    if (ref->addr.node == target) {
      // Already home: validate lock-free and advance without disturbing
      // writers (re-walk passes over mostly-migrated ranges stay cheap).
      Status st = co_await t.ReadNodeChecked(ref->addr, buf.data(), &stats);
      if (!st.ok()) co_return st;
      NodeView peek(buf.data(), &system_->options().shape);
      if (!peek.is_free() && peek.is_leaf() && peek.InFence(cursor)) {
        prev_new = ref->addr;
        prev_new_hi = peek.hi_fence();
        cursor = peek.hi_fence();
        stuck = 0;
        continue;
      }
      t.cache_.InvalidateLevel1Covering(cursor);  // stale plan; retry
      continue;
    }
    StatusOr<TreeClient::Locked> lr =
        co_await t.LockChasing(ref->addr, cursor, buf.data(), &stats);
    if (!lr.ok()) {
      if (lr.status().IsRetry()) continue;
      co_return lr.status();
    }
    TreeClient::Locked locked = *lr;
    NodeView view(buf.data(), &o.shape);
    const Key leaf_lo = view.lo_fence();
    const Key leaf_hi = view.hi_fence();

    if (locked.addr.node == target) {  // already home (or migrated earlier)
      co_await t.Release(locked, {}, &stats);
      prev_new = locked.addr;
      prev_new_hi = leaf_hi;
      cursor = leaf_hi;
      stuck = 0;
      continue;
    }

    const rdma::GlobalAddress hint =
        prev_new_hi == leaf_lo ? prev_new : rdma::kNullAddress;
    rdma::GlobalAddress naddr;
    Status st = co_await MoveLockedNode(locked, &buf, /*level=*/0, cursor,
                                        target, hint, &naddr, &stats);
    if (!st.ok()) co_return st;

    (*moved)++;
    leaves_moved_->Inc();
    prev_new = naddr;
    prev_new_hi = leaf_hi;
    cursor = leaf_hi;
    stuck = 0;
  }
  co_return Status::OK();
}

sim::Task<Status> Migrator::InternalPass(Key lo, Key hi, uint16_t target) {
  // With height 2 the only level-1 node is the root, which never moves.
  if (system_->DebugHeight() < 3) co_return Status::OK();
  SHERMAN_TSPAN(&trace_, "migrate.internal_pass", lo, hi);
  TreeClient& t = tc();
  const TreeOptions& o = system_->options();
  Key cursor = lo;
  rdma::GlobalAddress prev_new = rdma::kNullAddress;
  Key prev_new_hi = 0;
  uint32_t stuck = 0;

  while (cursor < hi) {
    if (++stuck > kMaxRetries) {
      co_return Status::TimedOut("internal pass stuck");
    }
    EpochPin pin(&system_->reclaim_epoch(), options_.cs_id);
    OpStats stats;
    stats.trace = &trace_;
    std::vector<uint8_t> buf(node_size());
    StatusOr<TreeClient::Locked> lr =
        co_await t.LockCovering(cursor, /*level=*/1, buf.data(), &stats);
    if (!lr.ok()) {
      if (lr.status().IsRetry()) continue;
      co_return lr.status();
    }
    TreeClient::Locked locked = *lr;
    NodeView view(buf.data(), &o.shape);
    const Key node_lo = view.lo_fence();
    const Key node_hi = view.hi_fence();
    // Only nodes fully contained in the range move (boundary nodes are
    // shared with neighboring shards); the root never moves.
    const bool migrate = node_lo >= lo && node_hi <= hi &&
                         locked.addr.node != target &&
                         locked.addr != system_->DebugRootAddr();
    if (!migrate) {
      co_await t.Release(locked, {}, &stats);
      if (locked.addr.node == target) {
        prev_new = locked.addr;
        prev_new_hi = node_hi;
      }
      cursor = node_hi;
      stuck = 0;
      continue;
    }

    const rdma::GlobalAddress hint =
        prev_new_hi == node_lo ? prev_new : rdma::kNullAddress;
    rdma::GlobalAddress naddr;
    Status st = co_await MoveLockedNode(locked, &buf, /*level=*/1, cursor,
                                        target, hint, &naddr, &stats);
    if (st.IsRetry()) {  // no intent slot free: back off, then re-resolve
      co_await system_->simulator().Delay(recover::kIntentSlotBackoffNs);
      continue;
    }
    if (!st.ok()) co_return st;

    internals_moved_->Inc();
    prev_new = naddr;
    prev_new_hi = node_hi;
    cursor = node_hi;
    stuck = 0;
  }
  co_return Status::OK();
}

uint64_t Migrator::CountOffTarget(Key lo, Key hi, uint16_t target) const {
  const TreeShape& shape = system_->options().shape;
  rdma::Fabric& fabric = system_->fabric();
  rdma::GlobalAddress addr = system_->DebugRootAddr();
  // Descend live pointers to the leaf covering lo.
  for (uint64_t guard = 0; guard < kMaxWalkNodes; guard++) {
    NodeView view(fabric.HostRaw(addr), &shape);
    if (view.is_leaf()) break;
    addr = view.InternalChildFor(lo);
  }
  uint64_t off = 0;
  for (uint64_t guard = 0; guard < kMaxWalkNodes && !addr.is_null(); guard++) {
    NodeView view(fabric.HostRaw(addr), &shape);
    if (view.lo_fence() >= hi) break;
    if (addr.node != target) off++;
    addr = view.sibling();
  }
  return off;
}

sim::Task<Status> Migrator::MigrateRange(Key lo, Key hi, uint16_t target_ms) {
  if (lo < 1) lo = 1;
  if (hi <= lo) co_return Status::OK();
  SHERMAN_CHECK(target_ms <
                static_cast<uint16_t>(system_->fabric().num_memory_servers()));
  if (system_->DebugHeight() < 2) {
    co_return Status::InvalidArgument(
        "tree too shallow to migrate (root is a leaf)");
  }
  SHERMAN_TSPAN(&trace_, "migrate.range", lo, hi);
  const sim::SimTime t0 = system_->simulator().now();

  // Bounded copy passes: splits racing ahead of the walk can drop fresh
  // leaves on other servers; re-walk until a pass moves nothing.
  bool clean = false;
  for (uint32_t pass = 0; pass < kMaxPasses && !clean; pass++) {
    uint64_t moved = 0;
    Status st = co_await LeafPass(lo, hi, target_ms, &moved);
    passes_->Inc();
    if (!st.ok()) co_return st;
    clean = moved == 0;
  }
  Status st = co_await InternalPass(lo, hi, target_ms);
  if (!st.ok()) co_return st;
  if (!clean) residual_leaves_->Inc(CountOffTarget(lo, hi, target_ms));

  // Flip-time invalidation broadcast: drop every compute server's cached
  // leaf translations for the moved range (they point at tombstones).
  for (int cs = 0; cs < system_->num_clients(); cs++) {
    system_->client(cs).cache().InvalidateKeyRange(lo, hi);
  }

  ranges_migrated_->Inc();
  busy_ns_->Inc(static_cast<uint64_t>(system_->simulator().now() - t0));
  co_return Status::OK();
}

sim::Task<Status> Migrator::MigrateShard(int shard, uint16_t target_ms) {
  SHERMAN_CHECK_MSG(map_ != nullptr && router_ != nullptr,
                    "MigrateShard needs a shard map and a router");
  const auto [lo, hi] = router_->ShardBounds(shard);
  Status st = co_await MigrateRange(lo, hi, target_ms);
  if (!st.ok()) co_return st;
  map_->Flip(shard, target_ms);
  SHERMAN_TINSTANT(&trace_, "migrate.flip", shard);
  flips_->Inc();
  shards_migrated_->Inc();
  co_return Status::OK();
}

}  // namespace sherman::migrate
