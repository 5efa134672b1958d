// Tests for the adaptive hybrid offload subsystem (src/route/):
//  - shard mapping and the planner's cost model / assignment decisions,
//  - hotness tracking and epoch flipping under injected contention stats,
//  - the MS-side tree executor (correctness, lock-decline, fallback, and
//    the memory-thread throughput ceiling),
//  - integration: hybrid throughput >= max(pure one-sided, pure RPC) on a
//    canned skewed write-intensive mix and a cold-cache uniform read mix.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench/runner.h"
#include "core/hybrid_system.h"
#include "core/presets.h"
#include "lock/lock_table.h"
#include "obs/trace.h"
#include "route/hotness.h"
#include "route/router.h"
#include "route/tree_rpc.h"

namespace sherman {
namespace {

using route::AdaptiveRouter;
using route::HotnessTracker;
using route::Path;
using route::RouterModel;
using route::RouterOptions;
using route::ShardEstimate;

rdma::FabricConfig SmallFabric(int ms = 2, int cs = 2) {
  rdma::FabricConfig f;
  f.num_memory_servers = ms;
  f.num_compute_servers = cs;
  f.ms_memory_bytes = 32ull << 20;
  return f;
}

// A count summed over every component of the deployment.
uint64_t Count(HybridSystem* system, const char* name) {
  return system->sherman().registry().Snapshot().counter(name);
}

HybridOptions SmallHybrid(int shards = 8,
                          RouterOptions::Policy policy =
                              RouterOptions::Policy::kAdaptive) {
  HybridOptions o;
  o.tree = ShermanOptions();
  o.router.num_shards = shards;
  o.router.policy = policy;
  return o;
}

// --- shard mapping ---------------------------------------------------------

TEST(RouterShardTest, RangePartitionCoversUniverse) {
  rdma::Fabric fabric(SmallFabric());
  HotnessTracker tracker(8, &fabric.registry());
  RouterOptions opt;
  opt.num_shards = 8;
  opt.universe_lo = 1;
  opt.universe_hi = 801;
  RouterModel model = route::ModelFromFabric(fabric.config(), true);
  AdaptiveRouter router(opt, model, &tracker, &fabric);

  EXPECT_EQ(router.ShardFor(1), 0);
  EXPECT_EQ(router.ShardFor(800), 7);
  // Out-of-universe keys clamp instead of crashing.
  EXPECT_EQ(router.ShardFor(0), 0);
  EXPECT_EQ(router.ShardFor(100000), 7);
  // Monotone, and every shard non-empty for a uniform sweep.
  std::vector<int> seen(8, 0);
  int prev = 0;
  for (Key k = 1; k < 801; k++) {
    const int s = router.ShardFor(k);
    EXPECT_GE(s, prev);
    EXPECT_LT(s, 8);
    prev = s;
    seen[s]++;
  }
  for (int s = 0; s < 8; s++) EXPECT_EQ(seen[s], 100);
  // Home MS pinning is stable and within range.
  EXPECT_EQ(router.HomeMsFor(0), 0);
  EXPECT_EQ(router.HomeMsFor(3), 1);  // 2 memory servers
}

TEST(RouterShardTest, SingleShardNeedsNoPartition) {
  HybridSystem system(SmallFabric(), SmallHybrid(1));
  system.BulkLoad({{2, 20}, {4, 40}, {6, 60}}, 0.5);
  EXPECT_EQ(system.router().ShardFor(2), 0);
  EXPECT_EQ(system.router().ShardFor(1ull << 40), 0);
}

TEST(RouterShardTest, QuantileBoundariesBalanceSparseKeySpaces) {
  // Two "tenants" at distant key bases: equal-width universe cuts would
  // put each tenant in one shard; quantile cuts split them evenly.
  HybridOptions o = SmallHybrid(8);
  HybridSystem system(SmallFabric(), o);
  std::vector<std::pair<Key, uint64_t>> kvs;
  for (Key k = 0; k < 400; k++) kvs.emplace_back((1ull << 32) + 2 * k, k);
  for (Key k = 0; k < 400; k++) kvs.emplace_back((9ull << 32) + 2 * k, k);
  system.BulkLoad(kvs, 0.8);

  std::vector<int> pop(8, 0);
  for (const auto& [k, v] : kvs) pop[system.router().ShardFor(k)]++;
  for (int s = 0; s < 8; s++) EXPECT_EQ(pop[s], 100);
}

// --- cost model / planner --------------------------------------------------

RouterModel TestModel() {
  RouterModel m;
  m.rtt_ns = 1800;
  m.rpc_wire_ns = 1300;
  m.rpc_service_ns = 3000;
  m.tree_height = 4;
  // Cache-free compute servers: every one-sided lookup walks the full
  // descent, the regime where MS-side offload has the most to offer.
  m.cache_enabled = false;
  m.num_ms = 2;
  return m;
}

ShardEstimate ColdReadShard(double ops = 50) {
  ShardEstimate e;
  e.ops = ops;
  e.write_frac = 0.05;
  e.miss_ratio = 0.9;  // cache-cold: full descents
  e.warm = true;
  return e;
}

ShardEstimate HotWriteShard(double ops = 400) {
  ShardEstimate e;
  e.ops = ops;
  e.write_frac = 0.8;
  e.miss_ratio = 0.05;  // hot => cached
  e.cas_fails_per_write = 0.5;
  e.handover_rate = 0.4;
  e.warm = true;
  return e;
}

TEST(RouterPlanTest, CostModelOrdersPathsSensibly) {
  const RouterModel m = TestModel();
  // A cache-cold read shard pays most of the descent in round trips; the
  // RPC path at an idle MS is cheaper.
  EXPECT_GT(route::EstimateOneSidedNs(ColdReadShard(), m),
            route::EstimateRpcNs(0, 1e6, m));
  // With the index cache enabled, a cache-hot shard reads in ~1 round
  // trip; RPC cannot beat it.
  RouterModel cached = m;
  cached.cache_enabled = true;
  ShardEstimate hot_read = ColdReadShard();
  hot_read.miss_ratio = 0.0;
  hot_read.write_frac = 0.0;
  EXPECT_LT(route::EstimateOneSidedNs(hot_read, cached),
            route::EstimateRpcNs(0, 1e6, cached));
  // Queueing grows with planned load.
  EXPECT_GT(route::EstimateRpcNs(0.5e6, 1e6, m),
            route::EstimateRpcNs(0, 1e6, m));
}

TEST(RouterPlanTest, OffloadsColdReadersKeepsHotWriters) {
  const RouterModel m = TestModel();
  RouterOptions opt;
  opt.num_shards = 4;
  opt.epoch_ns = 1'000'000;

  std::vector<ShardEstimate> shards = {HotWriteShard(), ColdReadShard(),
                                       HotWriteShard(), ColdReadShard()};
  const std::vector<Path> prev(4, Path::kOneSided);
  const std::vector<double> backlog(2, 0.0);
  const std::vector<Path> next =
      route::PlanAssignment(shards, prev, backlog, m, opt);

  EXPECT_EQ(next[0], Path::kOneSided);  // hot contended writers stay
  EXPECT_EQ(next[2], Path::kOneSided);
  EXPECT_EQ(next[1], Path::kRpc);  // cold readers offload
  EXPECT_EQ(next[3], Path::kRpc);
}

TEST(RouterPlanTest, CapacityCapLimitsOffload) {
  const RouterModel m = TestModel();
  RouterOptions opt;
  opt.num_shards = 8;
  opt.epoch_ns = 1'000'000;

  // Every shard would like to offload, but together they would swamp the
  // two memory threads: 8 shards x 60 ops x 3000 ns = 1.44 ms of service
  // per 1 ms epoch. The planner must keep utilization <= the 60% cap (and
  // in practice well below it, where queueing still leaves a profit).
  std::vector<ShardEstimate> shards(8, ColdReadShard(60));
  const std::vector<Path> prev(8, Path::kOneSided);
  const std::vector<double> backlog(2, 0.0);
  const std::vector<Path> next =
      route::PlanAssignment(shards, prev, backlog, m, opt);

  double busy[2] = {0, 0};
  for (int s = 0; s < 8; s++) {
    if (next[s] == Path::kRpc) busy[s % 2] += 60 * 3000.0;
  }
  EXPECT_LE(busy[0], 0.6 * 1e6);
  EXPECT_LE(busy[1], 0.6 * 1e6);
  // But the cheap headroom is used: at least one shard offloads.
  EXPECT_TRUE(std::count(next.begin(), next.end(), Path::kRpc) > 0);
}

TEST(RouterPlanTest, HysteresisKeepsBorderlineShards) {
  const RouterModel m = TestModel();
  RouterOptions opt;
  opt.num_shards = 1;
  opt.epoch_ns = 1'000'000;

  // Construct a shard whose measured one-sided cost sits between the
  // return and offload thresholds: whichever path it is on, it stays.
  ShardEstimate e = ColdReadShard(10);
  const double rpc = route::EstimateRpcNs(10 * 3000.0 / 2, 1e6, m);
  e.os_ns = 1.05 * rpc;
  ASSERT_GT(e.os_ns, route::kReturnMargin * rpc);
  ASSERT_LT(e.os_ns, route::kOffloadMargin * rpc);

  const std::vector<double> backlog(2, 0.0);
  EXPECT_EQ(route::PlanAssignment({e}, {Path::kOneSided}, backlog, m, opt)[0],
            Path::kOneSided);
  EXPECT_EQ(route::PlanAssignment({e}, {Path::kRpc}, backlog, m, opt)[0],
            Path::kRpc);
}

TEST(RouterPlanTest, ForcedPoliciesIgnoreSignals) {
  const RouterModel m = TestModel();
  RouterOptions opt;
  opt.num_shards = 2;
  std::vector<ShardEstimate> shards = {ColdReadShard(), HotWriteShard()};
  const std::vector<double> backlog(2, 0.0);

  opt.policy = RouterOptions::Policy::kAllOneSided;
  for (Path p :
       route::PlanAssignment(shards, {Path::kRpc, Path::kRpc}, backlog, m,
                             opt)) {
    EXPECT_EQ(p, Path::kOneSided);
  }
  opt.policy = RouterOptions::Policy::kAllRpc;
  for (Path p : route::PlanAssignment(
           shards, {Path::kOneSided, Path::kOneSided}, backlog, m, opt)) {
    EXPECT_EQ(p, Path::kRpc);
  }
}

// --- hotness tracking & epoch flipping ------------------------------------

TEST(HotnessTrackerTest, RecordsAndResetsWindows) {
  obs::Registry reg;
  HotnessTracker tracker(2, &reg);
  OpStats op;
  op.cache_hits = 1;
  op.lock_retries = 3;
  op.used_handover = true;
  tracker.Record(0, Path::kOneSided, /*is_write=*/true, op, false, 1000);
  op = OpStats();
  op.cache_misses = 2;
  tracker.Record(1, Path::kRpc, /*is_write=*/false, op, false, 2000);
  // A declined-then-retried op is recorded as served one-sided, with the
  // fallback noted.
  op = OpStats();
  tracker.Record(1, Path::kOneSided, /*is_write=*/true, op, true, 9000);

  std::vector<route::ShardWindow> w = tracker.TakeWindow();
  EXPECT_EQ(w[0].ops, 1u);
  EXPECT_EQ(w[0].writes, 1u);
  EXPECT_EQ(w[0].lock_retries, 3u);
  EXPECT_EQ(w[0].handovers, 1u);
  EXPECT_EQ(w[0].lat_one_sided_ns, 1000u);
  EXPECT_EQ(w[1].ops, 2u);
  EXPECT_EQ(w[1].ops_rpc, 1u);
  EXPECT_EQ(w[1].cache_misses, 2u);
  EXPECT_EQ(w[1].rpc_fallbacks, 1u);
  EXPECT_EQ(w[1].lat_rpc_ns, 2000u);
  EXPECT_EQ(w[1].lat_one_sided_ns, 9000u);

  // Window resets; cumulative totals persist.
  w = tracker.TakeWindow();
  EXPECT_EQ(w[0].ops, 0u);
  EXPECT_EQ(w[1].ops, 0u);
  const obs::MetricsSnapshot m = reg.Snapshot();
  EXPECT_EQ(m.counter("route.ops_one_sided"), 2u);
  EXPECT_EQ(m.counter("route.ops_rpc"), 1u);
  EXPECT_EQ(m.counter("route.rpc_fallbacks"), 1u);
}

TEST(RouterEpochTest, FlipsUnderInjectedContention) {
  rdma::Fabric fabric(SmallFabric());
  HotnessTracker tracker(2, &fabric.registry());
  RouterOptions opt;
  opt.num_shards = 2;
  opt.epoch_ns = 1'000'000;
  opt.universe_lo = 1;
  opt.universe_hi = 1001;
  RouterModel model = route::ModelFromFabric(fabric.config(), true);
  model.tree_height = 4;
  AdaptiveRouter router(opt, model, &tracker, &fabric);

  // Shard 0: cache-cold read-mostly traffic, expensive one-sided (7 us
  // measured). Shard 1: a HOT contended write shard — expensive too, but
  // its 400 ops/epoch would alone consume 1.2 ms of memory-thread service
  // per 1 ms epoch, so the wimpy-core ceiling keeps it one-sided.
  OpStats cold;
  cold.cache_misses = 1;
  OpStats contended;
  contended.cache_hits = 1;
  contended.lock_retries = 1;
  contended.used_handover = true;
  for (int i = 0; i < 50; i++) {
    tracker.Record(0, Path::kOneSided, false, cold, false, 7000);
  }
  for (int i = 0; i < 400; i++) {
    tracker.Record(1, Path::kOneSided, true, contended, false, 9000);
  }
  router.EndEpochNow();
  EXPECT_EQ(router.PathOfShard(0), Path::kRpc);
  EXPECT_EQ(router.PathOfShard(1), Path::kOneSided);
  EXPECT_EQ(router.epoch_log().back().flips, 1);

  // The cold shard warms up: hits now dominate, so one-sided lookups are a
  // single cached round trip again and the shard should flip back.
  OpStats warm;
  warm.cache_hits = 1;
  for (int e = 0; e < 6; e++) {
    for (int i = 0; i < 50; i++) {
      tracker.Record(0, Path::kOneSided, false, warm, false, 2000);
    }
    for (int i = 0; i < 400; i++) {
      tracker.Record(1, Path::kOneSided, true, contended, false, 9000);
    }
    router.EndEpochNow();
  }
  EXPECT_EQ(router.PathOfShard(0), Path::kOneSided);
  EXPECT_EQ(router.PathOfShard(1), Path::kOneSided);
  const obs::MetricsSnapshot m = fabric.registry().Snapshot();
  EXPECT_GE(m.counter("route.epochs"), 7u);
  EXPECT_GE(m.counter("route.shard_flips"), 2u);
}

// --- MS-side tree executor -------------------------------------------------

TEST(TreeRpcTest, ExecutesOpsAgainstSharedTree) {
  HybridSystem system(SmallFabric(), SmallHybrid());
  std::vector<std::pair<Key, uint64_t>> kvs;
  for (Key k = 2; k <= 4000; k += 2) kvs.emplace_back(k, k * 10);
  system.BulkLoad(kvs, 0.8);

  route::TreeRpcClient client(&system.rpc_service(), 0);
  bool done = false;
  sim::Spawn([](route::TreeRpcClient* c, HybridSystem* sys,
                bool* flag) -> sim::Task<void> {
    uint64_t v = 0;
    // Lookup of loaded / absent keys.
    EXPECT_TRUE((co_await c->Lookup(0, 100, &v, nullptr)).ok());
    EXPECT_EQ(v, 1000u);
    EXPECT_TRUE((co_await c->Lookup(1, 101, &v, nullptr)).IsNotFound());
    // Update + fresh insert, visible one-sided too.
    EXPECT_TRUE((co_await c->Insert(0, 100, 555, nullptr)).ok());
    EXPECT_TRUE((co_await c->Insert(1, 101, 556, nullptr)).ok());
    EXPECT_TRUE((co_await c->Lookup(0, 100, &v, nullptr)).ok());
    EXPECT_EQ(v, 555u);
    TreeClient& os = sys->sherman().client(0);
    EXPECT_TRUE((co_await os.Lookup(101, &v)).ok());
    EXPECT_EQ(v, 556u);
    // Delete via RPC, then the one-sided path agrees it is gone.
    EXPECT_TRUE((co_await c->Delete(0, 100, nullptr)).ok());
    EXPECT_TRUE((co_await c->Delete(1, 100, nullptr)).IsNotFound());
    EXPECT_TRUE((co_await os.Lookup(100, &v)).IsNotFound());
    // Range scan straddling leaves matches the tree contents.
    std::vector<std::pair<Key, uint64_t>> got;
    EXPECT_TRUE((co_await c->RangeQuery(0, 500, 40, &got, nullptr)).ok());
    EXPECT_EQ(got.size(), 40u);
    Key expect = 500;
    for (const auto& [k, val] : got) {
      EXPECT_EQ(k, expect);
      EXPECT_EQ(val, k * 10);
      expect += 2;
    }
    *flag = true;
  }(&client, &system, &done));
  system.simulator().Run();
  EXPECT_TRUE(done);
  system.sherman().DebugCheckInvariants();
}

TEST(TreeRpcTest, DeclinesLockedLeafAndHybridFallsBack) {
  HybridSystem system(SmallFabric(), SmallHybrid());
  // A handful of keys => the whole tree is one leaf (the root), so its
  // guarding lock is easy to find.
  std::vector<std::pair<Key, uint64_t>> kvs;
  for (Key k = 2; k <= 20; k += 2) kvs.emplace_back(k, k);
  system.BulkLoad(kvs, 0.5);
  const rdma::GlobalAddress leaf = system.sherman().DebugRootAddr();

  // Hold the leaf's HOCL lock lane, as a one-sided writer would.
  const GlobalLockRef ref = LockFor(leaf, system.sherman().options().lock.onchip);
  rdma::MemoryRegion& region =
      ref.space == rdma::MemorySpace::kDevice
          ? system.fabric().ms(ref.ms).device()
          : system.fabric().ms(ref.ms).host();
  const uint16_t held = 7;
  std::memcpy(region.raw(ref.lane_offset()), &held, 2);

  route::TreeRpcClient client(&system.rpc_service(), 0);
  bool done = false;
  sim::Spawn([](route::TreeRpcClient* c, bool* flag) -> sim::Task<void> {
    // Writes decline while the lock is held; reads still execute.
    EXPECT_TRUE((co_await c->Insert(0, 4, 99, nullptr)).IsRetry());
    EXPECT_TRUE((co_await c->Delete(0, 4, nullptr)).IsRetry());
    uint64_t v = 0;
    EXPECT_TRUE((co_await c->Lookup(0, 4, &v, nullptr)).ok());
    EXPECT_EQ(v, 4u);
    *flag = true;
  }(&client, &done));
  system.simulator().Run();
  EXPECT_TRUE(done);
  EXPECT_GE(Count(&system, "rpc.declined"), 2u);

  // Release the lane; a hybrid client forced onto the RPC path now writes
  // through the MS-side executor directly.
  const uint16_t free_lane = 0;
  std::memcpy(region.raw(ref.lane_offset()), &free_lane, 2);
  system.router().ForceAssignment(
      std::vector<Path>(system.router().num_shards(), Path::kRpc));
  done = false;
  sim::Spawn([](HybridSystem* sys, bool* flag) -> sim::Task<void> {
    EXPECT_TRUE((co_await sys->client(0).Insert(4, 99)).ok());
    uint64_t v = 0;
    EXPECT_TRUE((co_await sys->client(1).Lookup(4, &v)).ok());
    EXPECT_EQ(v, 99u);
    *flag = true;
  }(&system, &done));
  system.simulator().Run();
  EXPECT_TRUE(done);
}

TEST(TreeRpcTest, FullLeafInsertFallsBackAndSplitsOneSided) {
  HybridSystem system(SmallFabric(), SmallHybrid());
  std::vector<std::pair<Key, uint64_t>> kvs;
  for (Key k = 2; k <= 400; k += 2) kvs.emplace_back(k, k);
  system.BulkLoad(kvs, 1.0);  // leaves loaded full: any fresh insert splits

  system.router().ForceAssignment(
      std::vector<Path>(system.router().num_shards(), Path::kRpc));
  bool done = false;
  sim::Spawn([](HybridSystem* sys, bool* flag) -> sim::Task<void> {
    // Odd keys are fresh inserts into full leaves: the MS-side executor
    // must decline and the hybrid client completes them one-sided.
    for (Key k = 3; k <= 21; k += 2) {
      EXPECT_TRUE((co_await sys->client(0).Insert(k, k * 7)).ok());
    }
    for (Key k = 3; k <= 21; k += 2) {
      uint64_t v = 0;
      EXPECT_TRUE((co_await sys->client(1).Lookup(k, &v)).ok());
      EXPECT_EQ(v, k * 7);
    }
    *flag = true;
  }(&system, &done));
  system.simulator().Run();
  EXPECT_TRUE(done);
  EXPECT_GT(Count(&system, "route.rpc_fallbacks"), 0u);
  system.sherman().DebugCheckInvariants();
}

// The §3.1 motivation in miniature: with every shard on the RPC path, 8x
// the clients does NOT scale throughput. Each MS's one memory thread
// serves one request per rpc_service_ns, so 2 MSs cap at 2 / 3 us ~= 0.67
// Mops however many clients call.
TEST(TreeRpcTest, ThroughputCappedByMemoryThreads) {
  const auto run = [](int clients) {
    HybridSystem system(SmallFabric(),
                        SmallHybrid(8, RouterOptions::Policy::kAllRpc));
    system.BulkLoad(bench::MakeLoadKvs(10'000), 0.8);
    bench::RunnerOptions r;
    r.threads_per_cs = clients / 2;
    r.workload.mix = WorkloadMix::WriteOnly();
    r.workload.loaded_keys = 10'000;
    // Updates only: no leaf split can decline a put to the one-sided path.
    r.workload.update_fraction = 1.0;
    r.warmup_ns = 500'000;
    r.measure_ns = 3'000'000;
    const bench::RunResult res = bench::RunWorkload(&system, r);
    EXPECT_EQ(res.metrics.counter("route.ops_one_sided"), 0u);
    EXPECT_EQ(res.metrics.counter("route.rpc_fallbacks"), 0u);
    return res.mops;
  };
  const double mops_8 = run(8);
  const double mops_64 = run(64);
  EXPECT_LT(mops_64, 0.70);
  EXPECT_LT(mops_64, mops_8 * 2.0) << "should saturate, not scale";
  EXPECT_GT(mops_64, mops_8 * 0.8);
}

#if SHERMAN_TRACE_ENABLED
// Names of the spans on `ring` that descend from span `root`.
std::vector<std::string> SpansUnder(const obs::TraceRing* ring,
                                    uint64_t root) {
  std::vector<std::string> names;
  ring->ForEach([&](const obs::SpanRecord& span) {
    const obs::SpanRecord* r = &span;
    while (r != nullptr && r->parent != 0) {
      if (r->parent == root) {
        names.emplace_back(span.name);
        break;
      }
      r = ring->Find(r->parent);
    }
  });
  return names;
}

bool AnyWithPrefix(const std::vector<std::string>& names,
                   const std::string& prefix) {
  return std::any_of(names.begin(), names.end(), [&](const std::string& n) {
    return n.compare(0, prefix.size(), prefix) == 0;
  });
}

// One traced HybridClient::Insert under a root span (its id in *root).
sim::Task<void> TracedInsert(HybridSystem* sys, Key key, uint64_t* root,
                             bool* flag) {
  obs::TraceCtx ctx =
      obs::TraceCtx::For(&sys->sherman().tracer(), obs::RingId::Client(0));
  OpStats stats;
  stats.trace = &ctx;
  SHERMAN_TSPAN(&ctx, "op.insert");
  *root = ctx.current;
  EXPECT_TRUE((co_await sys->client(0).Insert(key, key * 3, &stats)).ok());
  *flag = true;
}

TEST(HybridTraceTest, InsertSpansReachTheCallersRoot) {
  HybridSystem system(SmallFabric(), SmallHybrid());
  std::vector<std::pair<Key, uint64_t>> kvs;
  for (Key k = 2; k <= 400; k += 2) kvs.emplace_back(k, k);
  system.BulkLoad(kvs, 1.0);  // full leaves: fresh RPC inserts decline
  const obs::TraceRing* ring = nullptr;

  // One-sided path.
  system.router().ForceAssignment(
      std::vector<Path>(system.router().num_shards(), Path::kOneSided));
  uint64_t root = 0;
  bool done = false;
  sim::Spawn(TracedInsert(&system, 100, &root, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
  ring = system.sherman().tracer().FindRing(obs::RingId::Client(0));
  ASSERT_NE(ring, nullptr);
  std::vector<std::string> spans = SpansUnder(ring, root);
  EXPECT_TRUE(AnyWithPrefix(spans, "lock."));
  EXPECT_TRUE(AnyWithPrefix(spans, "rdma.read"));

  // RPC path declined (full leaf), served by the one-sided fallback.
  system.router().ForceAssignment(
      std::vector<Path>(system.router().num_shards(), Path::kRpc));
  const uint64_t fallbacks = Count(&system, "route.rpc_fallbacks");
  done = false;
  sim::Spawn(TracedInsert(&system, 201, &root, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(Count(&system, "route.rpc_fallbacks"), fallbacks + 1);
  spans = SpansUnder(ring, root);
  EXPECT_TRUE(AnyWithPrefix(spans, "lock."));
  EXPECT_TRUE(AnyWithPrefix(spans, "rdma.read"));
}

// A traced MultiGet of `keys`, then a traced MultiInsert of their odd
// neighbours, each under its own root span (ids in *get_root, *put_root).
sim::Task<void> TracedBatches(HybridSystem* sys, std::vector<Key> keys,
                              uint64_t* get_root, uint64_t* put_root,
                              bool* flag) {
  obs::TraceCtx ctx =
      obs::TraceCtx::For(&sys->sherman().tracer(), obs::RingId::Client(0));
  OpStats stats;
  stats.trace = &ctx;
  {
    SHERMAN_TSPAN(&ctx, "op.multiget");
    *get_root = ctx.current;
    std::vector<MultiGetResult> res;
    EXPECT_TRUE((co_await sys->client(0).MultiGet(keys, &res, &stats)).ok());
    for (size_t i = 0; i < keys.size(); i++) {
      EXPECT_TRUE(res[i].status.ok()) << "key " << keys[i];
      EXPECT_EQ(res[i].value, keys[i]);
    }
  }
  {
    SHERMAN_TSPAN(&ctx, "op.multiinsert");
    *put_root = ctx.current;
    std::vector<std::pair<Key, uint64_t>> kvs;
    for (const Key k : keys) kvs.emplace_back(k + 1, k * 5);
    EXPECT_TRUE((co_await sys->client(0).MultiInsert(kvs, &stats)).ok());
  }
  *flag = true;
}

TEST(HybridTraceTest, BatchSpansReachTheCallersRoot) {
  HybridSystem system(SmallFabric(), SmallHybrid());
  std::vector<std::pair<Key, uint64_t>> kvs;
  for (Key k = 2; k <= 400; k += 2) kvs.emplace_back(k, k);
  system.BulkLoad(kvs, 1.0);  // full leaves: fresh RPC inserts decline
  // Alternate paths so one batch fans out to RPC shards and a one-sided
  // sub-batch at once; the declined RPC inserts add the fallback batch.
  std::vector<Path> paths(system.router().num_shards());
  for (size_t i = 0; i < paths.size(); i++) {
    paths[i] = i % 2 == 0 ? Path::kRpc : Path::kOneSided;
  }
  system.router().ForceAssignment(paths);
  std::vector<Key> keys;
  for (Key k = 10; k <= 390; k += 20) keys.push_back(k);

  const uint64_t fallbacks = Count(&system, "route.rpc_fallbacks");
  uint64_t get_root = 0;
  uint64_t put_root = 0;
  bool done = false;
  sim::Spawn(TracedBatches(&system, keys, &get_root, &put_root, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
  EXPECT_GT(Count(&system, "route.rpc_fallbacks"), fallbacks);

  const obs::TraceRing* ring =
      system.sherman().tracer().FindRing(obs::RingId::Client(0));
  ASSERT_NE(ring, nullptr);
  EXPECT_TRUE(AnyWithPrefix(SpansUnder(ring, get_root), "rdma.read"));
  const std::vector<std::string> put_spans = SpansUnder(ring, put_root);
  EXPECT_TRUE(AnyWithPrefix(put_spans, "lock."));
  EXPECT_TRUE(AnyWithPrefix(put_spans, "rdma.read"));
}

// Every shard on the RPC path and full leaves: the MultiInsert's declined
// keys re-run as the one-sided fallback batch, the only part of the batch
// that takes a lock from this client.
TEST(HybridTraceTest, DeclinedBatchFallbackSpansReachTheCallersRoot) {
  HybridSystem system(SmallFabric(), SmallHybrid());
  std::vector<std::pair<Key, uint64_t>> kvs;
  for (Key k = 2; k <= 400; k += 2) kvs.emplace_back(k, k);
  system.BulkLoad(kvs, 1.0);
  system.router().ForceAssignment(
      std::vector<Path>(system.router().num_shards(), Path::kRpc));
  std::vector<Key> keys;
  for (Key k = 10; k <= 390; k += 20) keys.push_back(k);

  const uint64_t fallbacks = Count(&system, "route.rpc_fallbacks");
  uint64_t get_root = 0;
  uint64_t put_root = 0;
  bool done = false;
  sim::Spawn(TracedBatches(&system, keys, &get_root, &put_root, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
  EXPECT_GT(Count(&system, "route.rpc_fallbacks"), fallbacks);

  const obs::TraceRing* ring =
      system.sherman().tracer().FindRing(obs::RingId::Client(0));
  ASSERT_NE(ring, nullptr);
  EXPECT_TRUE(AnyWithPrefix(SpansUnder(ring, put_root), "lock."));
}
#endif  // SHERMAN_TRACE_ENABLED

// --- integration: hybrid >= max(pure) --------------------------------------

double RunPolicyMops(RouterOptions::Policy policy, const WorkloadOptions& w,
                     bool enable_cache, bench::RunResult* out = nullptr) {
  rdma::FabricConfig f;
  f.num_memory_servers = 4;
  f.num_compute_servers = 4;
  f.ms_memory_bytes = 64ull << 20;

  HybridOptions o;
  o.tree = ShermanOptions();
  o.tree.enable_cache = enable_cache;
  o.router.num_shards = 128;
  o.router.policy = policy;
  o.router.epoch_ns = 500'000;

  HybridSystem system(f, o);
  system.BulkLoad(bench::MakeLoadKvs(w.loaded_keys), 0.8);

  bench::RunnerOptions r;
  r.threads_per_cs = 4;
  r.workload = w;
  r.warmup_ns = 1'500'000;
  r.measure_ns = 4'000'000;
  bench::RunResult res = bench::RunWorkload(&system, r);
  system.sherman().DebugCheckInvariants();
  if (out != nullptr) *out = res;
  return res.mops;
}

TEST(HybridIntegrationTest, SkewedWriteIntensive) {
  WorkloadOptions w;
  w.mix = WorkloadMix::WriteIntensive();
  w.loaded_keys = 60'000;
  w.zipf_theta = 0.99;

  const double one_sided =
      RunPolicyMops(RouterOptions::Policy::kAllOneSided, w, true);
  const double rpc = RunPolicyMops(RouterOptions::Policy::kAllRpc, w, true);
  bench::RunResult adaptive_res;
  const double adaptive = RunPolicyMops(RouterOptions::Policy::kAdaptive, w,
                                        true, &adaptive_res);

  // The one-sided path must dominate pure RPC on contended writes (the
  // paper's motivation). With the index cache covering the whole hot set,
  // steady state has nothing worth offloading, so the best the adaptive
  // router can do is *match* pure Sherman (modulo its exploration during
  // the cache-cold start, when RPC genuinely was cheaper) — and it must
  // still crush pure RPC.
  EXPECT_GT(one_sided, rpc);
  EXPECT_GE(adaptive, 0.985 * std::max(one_sided, rpc));
  EXPECT_GT(adaptive, 2.0 * rpc);
  EXPECT_GE(adaptive_res.metrics.counter("route.epochs"), 5u);
}

TEST(HybridIntegrationTest, UniformReadColdCache) {
  WorkloadOptions w;
  w.mix = WorkloadMix::ReadIntensive();
  // 200k keys => a 4-level tree: an uncached lookup pays ~4 round trips,
  // which is what makes near-memory execution worth it for cold shards.
  w.loaded_keys = 200'000;
  w.zipf_theta = 0;

  const double one_sided =
      RunPolicyMops(RouterOptions::Policy::kAllOneSided, w, false);
  const double rpc = RunPolicyMops(RouterOptions::Policy::kAllRpc, w, false);
  bench::RunResult adaptive_res;
  const double adaptive = RunPolicyMops(RouterOptions::Policy::kAdaptive, w,
                                        false, &adaptive_res);

  EXPECT_GE(adaptive, std::max(one_sided, rpc));
  // Cold shards actually offloaded.
  EXPECT_GT(adaptive_res.metrics.counter("route.ops_rpc"), 0u);
}

}  // namespace
}  // namespace sherman
