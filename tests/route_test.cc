// Tests for the adaptive hybrid offload subsystem (src/route/):
//  - shard mapping and the planner's cost model / assignment decisions,
//  - hotness tracking and epoch flipping under injected contention stats,
//  - the MS-side tree executor (correctness, lock-decline, fallback, and
//    the memory-thread throughput ceiling),
//  - integration: hybrid throughput >= max(pure one-sided, pure RPC) on a
//    canned skewed write-intensive mix and a cold-cache uniform read mix.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
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

HybridOptions SmallVarHybrid() {
  HybridOptions o = SmallHybrid();
  o.tree.two_level_versions = false;  // varlen requires sorted leaves
  o.tree.shape.varlen = true;
  return o;
}

// --- shard mapping ---------------------------------------------------------

TEST(RouterShardTest, RangePartitionCoversUniverse) {
  rdma::Fabric fabric(SmallFabric());
  HotnessTracker tracker(8, &fabric.registry());
  RouterOptions opt;
  opt.num_shards = 8;
  RouterModel model = route::ModelFromFabric(fabric.config(), true);
  AdaptiveRouter router(opt, model, &tracker, &fabric);
  // Cuts of the keys 1..800 into eight equal shards.
  router.SetBoundaries({101, 201, 301, 401, 501, 601, 701});

  EXPECT_EQ(router.ShardFor(1), 0);
  EXPECT_EQ(router.ShardFor(800), 7);
  // Keys past either end land in the edge shards.
  EXPECT_EQ(router.ShardFor(0), 0);
  EXPECT_EQ(router.ShardFor(100000), 7);
  EXPECT_EQ(router.ShardBounds(0), std::make_pair(Key{1}, Key{101}));
  EXPECT_EQ(router.ShardBounds(3), std::make_pair(Key{301}, Key{401}));
  EXPECT_EQ(router.ShardBounds(7), std::make_pair(Key{701}, kMaxKey));
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

// An empty bulk load has no keys to cut shards at: it cuts them all at
// kMaxKey, so every key routes to shard 0 and ops run from the first one.
TEST(RouterShardTest, EmptyBulkLoadRoutesEveryKey) {
  const auto run = [](HybridSystem* system, bool var) {
    bool done = false;
    sim::Spawn([](HybridSystem* sys, bool var, bool* flag) -> sim::Task<void> {
      route::HybridClient& c = sys->client(1);
      for (uint64_t n = 1; n <= 40; n++) {
        Status st;
        if (var) {
          std::string key = "k";
          key += std::to_string(100 + n);
          std::string value = "v";
          value += std::to_string(n);
          st = co_await c.InsertVar(Slice(key), Slice(value));
        } else {
          st = co_await c.Insert(n * 1000, n);
        }
        EXPECT_TRUE(st.ok()) << st.ToString();
      }
      if (var) {
        std::string v;
        EXPECT_TRUE((co_await c.LookupVar(Slice("k117"), &v)).ok());
        EXPECT_EQ(v, "v17");
        std::vector<std::pair<std::string, std::string>> out;
        EXPECT_TRUE((co_await c.ScanVar(Slice("k110"), 5, &out)).ok());
        EXPECT_EQ(out.size(), 5u);
        EXPECT_TRUE(!out.empty() && out.front().first == "k110");
      } else {
        uint64_t v = 0;
        EXPECT_TRUE((co_await c.Lookup(17'000, &v)).ok());
        EXPECT_EQ(v, 17u);
        std::vector<std::pair<Key, uint64_t>> out;
        EXPECT_TRUE((co_await c.RangeQuery(10'000, 5, &out)).ok());
        EXPECT_EQ(out.size(), 5u);
        EXPECT_TRUE(!out.empty() && out.front().first == 10'000u);
      }
      *flag = true;
    }(system, var, &done));
    system->simulator().Run();
    EXPECT_TRUE(done);
    EXPECT_EQ(system->router().ShardFor(1), 0);
    EXPECT_EQ(system->router().ShardFor(kMaxKey - 1), 0);
    system->sherman().DebugCheckInvariants();
  };
  {
    HybridSystem fixed(SmallFabric(), SmallHybrid());
    fixed.BulkLoad({}, 0.8);
    run(&fixed, false);
  }
  {
    HybridSystem var(SmallFabric(), SmallVarHybrid());
    var.BulkLoad({}, 0.8);
    run(&var, true);
  }
  {
    HybridSystem var(SmallFabric(), SmallVarHybrid());
    var.BulkLoadVar({}, 0.8);
    run(&var, true);
  }
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
  RouterModel model = route::ModelFromFabric(fabric.config(), true);
  model.tree_height = 4;
  AdaptiveRouter router(opt, model, &tracker, &fabric);
  router.SetBoundaries({501});

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

// The two record kinds the executor serves, each record named by a number
// n: u64 records on a fixed tree, byte-string records on a varlen one.
struct FixedRecords {
  using K = Key;
  using V = uint64_t;
  using GetResult = MultiGetResult;
  static HybridOptions Options() { return SmallHybrid(); }
  static K KeyOf(uint64_t n) { return n; }
  static V ValueOf(uint64_t n) { return n * 10; }
  static void Load(HybridSystem* system, const std::map<K, V>& records,
                   double fill) {
    system->BulkLoad({records.begin(), records.end()}, fill);
  }
  static std::vector<std::pair<K, V>> Contents(HybridSystem* system) {
    return system->sherman().DebugScanLeaves();
  }
  static sim::Task<Status> Insert(route::HybridClient& c, K k, V v) {
    return c.Insert(k, v);
  }
  static sim::Task<Status> Lookup(route::HybridClient& c, K k, V* v) {
    return c.Lookup(k, v);
  }
};

struct VarRecords {
  using K = std::string;
  using V = std::string;
  using GetResult = VarGetResult;
  static HybridOptions Options() { return SmallVarHybrid(); }
  // Fixed-width, so byte order is numeric order.
  static K KeyOf(uint64_t n) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%07llu",
                  static_cast<unsigned long long>(n));
    return buf;
  }
  static V ValueOf(uint64_t n) {
    V v = "v";
    v += std::to_string(n * 10);
    return v;
  }
  static void Load(HybridSystem* system, const std::map<K, V>& records,
                   double fill) {
    system->BulkLoadVar({records.begin(), records.end()}, fill);
  }
  static std::vector<std::pair<K, V>> Contents(HybridSystem* system) {
    return system->sherman().DebugScanLeavesVar();
  }
  // HybridClient copies its Slice operands as it is called.
  static sim::Task<Status> Insert(route::HybridClient& c, K k, V v) {
    return c.InsertVar(k, v);
  }
  static sim::Task<Status> Lookup(route::HybridClient& c, K k, V* v) {
    return c.LookupVar(k, v);
  }
};

// Records 2, 4, ..., 2 * count: odd numbers are absent.
template <typename R>
std::map<typename R::K, typename R::V> EvenRecords(uint64_t count) {
  std::map<typename R::K, typename R::V> m;
  for (uint64_t n = 2; n <= 2 * count; n += 2) m[R::KeyOf(n)] = R::ValueOf(n);
  return m;
}

template <typename R>
class TreeRpcTest : public ::testing::Test {};

struct RecordKindName {
  template <typename R>
  static std::string GetName(int) {
    return std::is_same_v<R, FixedRecords> ? "Fixed" : "Var";
  }
};
using RecordKinds = ::testing::Types<FixedRecords, VarRecords>;
TYPED_TEST_SUITE(TreeRpcTest, RecordKinds, RecordKindName);

// Each of the seven opcodes, served on a free leaf of the records
// EvenRecords<R>(2000) loaded.
template <typename R>
sim::Task<void> ServeEachOp(route::TreeRpcClient* c, bool* flag) {
  using K = typename R::K;
  using V = typename R::V;
  using Svc = route::TreeRpcService;
  Status st;
  V v{};
  // Get of a loaded and an absent record.
  st = co_await c->Call(0, Svc::kOpGet, R::KeyOf(100), nullptr, &v);
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(v, R::ValueOf(100));
  st = co_await c->Call(1, Svc::kOpGet, R::KeyOf(101), nullptr, &v);
  EXPECT_TRUE(st.IsNotFound());
  // Put: an update and a fresh insert.
  st = co_await c->Call(0, Svc::kOpPut,
                        std::pair(R::KeyOf(100), R::ValueOf(555)), nullptr);
  EXPECT_TRUE(st.ok());
  st = co_await c->Call(1, Svc::kOpPut,
                        std::pair(R::KeyOf(101), R::ValueOf(556)), nullptr);
  EXPECT_TRUE(st.ok());
  st = co_await c->Call(0, Svc::kOpGet, R::KeyOf(101), nullptr, &v);
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(v, R::ValueOf(556));
  // Remove, then the record is gone.
  st = co_await c->Call(0, Svc::kOpRemove, R::KeyOf(100), nullptr);
  EXPECT_TRUE(st.ok());
  st = co_await c->Call(1, Svc::kOpRemove, R::KeyOf(100), nullptr);
  EXPECT_TRUE(st.IsNotFound());
  // A scan straddling leaves.
  std::vector<std::pair<K, V>> got;
  st = co_await c->Call(0, Svc::kOpScan,
                        std::pair(R::KeyOf(500), uint32_t{40}), nullptr,
                        &got);
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(got.size(), 40u);
  for (size_t i = 0; i < got.size(); i++) {
    EXPECT_EQ(got[i], std::pair(R::KeyOf(500 + 2 * i),
                                R::ValueOf(500 + 2 * i)));
  }
  // The coalesced batches, each with a present and an absent record.
  // (Operand lists are built ahead of the co_await: an initializer list
  // of strings inside the awaited expression miscompiles in g++ 12.)
  std::vector<K> keys = {R::KeyOf(200), R::KeyOf(201)};
  std::vector<typename R::GetResult> gets;
  st = co_await c->Batch(1, Svc::kOpMultiGet, keys, &gets, nullptr);
  EXPECT_TRUE(st.ok());
  EXPECT_TRUE(gets[0].status.ok());
  EXPECT_EQ(gets[0].value, R::ValueOf(200));
  EXPECT_TRUE(gets[1].status.IsNotFound());
  std::vector<std::pair<K, V>> kvs = {{R::KeyOf(200), R::ValueOf(7)},
                                      {R::KeyOf(203), R::ValueOf(9)}};
  std::vector<Status> per_key;
  st = co_await c->Batch(0, Svc::kOpMultiPut, kvs, &per_key, nullptr);
  EXPECT_TRUE(st.ok());
  EXPECT_TRUE(per_key[0].ok());
  EXPECT_TRUE(per_key[1].ok());
  keys = {R::KeyOf(202), R::KeyOf(205)};
  st = co_await c->Batch(1, Svc::kOpMultiRemove, keys, &per_key, nullptr);
  EXPECT_TRUE(st.ok());
  EXPECT_TRUE(per_key[0].ok());
  EXPECT_TRUE(per_key[1].IsNotFound());
  *flag = true;
}

// Each opcode against the one leaf of EvenRecords<R>(10), its lane held.
template <typename R>
sim::Task<void> OpsOnHeldLane(route::TreeRpcClient* c, bool* flag) {
  using K = typename R::K;
  using V = typename R::V;
  using Svc = route::TreeRpcService;
  Status st;
  // Writes decline while the lock is held...
  st = co_await c->Call(0, Svc::kOpPut,
                        std::pair(R::KeyOf(4), R::ValueOf(99)), nullptr);
  EXPECT_TRUE(st.IsRetry());
  st = co_await c->Call(0, Svc::kOpRemove, R::KeyOf(4), nullptr);
  EXPECT_TRUE(st.IsRetry());
  // (Operand lists are built ahead of the co_await, as in ServeEachOp.)
  const std::vector<std::pair<K, V>> kvs = {{R::KeyOf(4), R::ValueOf(1)},
                                            {R::KeyOf(5), R::ValueOf(1)}};
  const std::vector<K> keys = {R::KeyOf(6), R::KeyOf(7)};
  std::vector<Status> per_key;
  st = co_await c->Batch(0, Svc::kOpMultiPut, kvs, &per_key, nullptr);
  EXPECT_TRUE(st.ok());
  EXPECT_TRUE(per_key[0].IsRetry());
  EXPECT_TRUE(per_key[1].IsRetry());
  st = co_await c->Batch(0, Svc::kOpMultiRemove, keys, &per_key, nullptr);
  EXPECT_TRUE(st.ok());
  EXPECT_TRUE(per_key[0].IsRetry());
  EXPECT_TRUE(per_key[1].IsRetry());
  // ...and reads are still served.
  V v{};
  st = co_await c->Call(0, Svc::kOpGet, R::KeyOf(4), nullptr, &v);
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(v, R::ValueOf(4));
  std::vector<std::pair<K, V>> got;
  st = co_await c->Call(0, Svc::kOpScan,
                        std::pair(R::KeyOf(2), uint32_t{5}), nullptr, &got);
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(got.size(), 5u);
  std::vector<typename R::GetResult> gets;
  st = co_await c->Batch(0, Svc::kOpMultiGet, keys, &gets, nullptr);
  EXPECT_TRUE(st.ok());
  EXPECT_TRUE(gets[0].status.ok());
  EXPECT_TRUE(gets[1].status.IsNotFound());
  *flag = true;
}

// A hybrid put and get of record 4.
template <typename R>
sim::Task<void> WriteThroughRpc(HybridSystem* sys, bool* flag) {
  using V = typename R::V;
  Status st;
  st = co_await R::Insert(sys->client(0), R::KeyOf(4), R::ValueOf(99));
  EXPECT_TRUE(st.ok());
  V v{};
  st = co_await R::Lookup(sys->client(1), R::KeyOf(4), &v);
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(v, R::ValueOf(99));
  *flag = true;
}

// Each of the seven opcodes, served on a free leaf.
TYPED_TEST(TreeRpcTest, ExecutesOpsAgainstSharedTree) {
  using R = TypeParam;
  using K = typename R::K;
  using V = typename R::V;
  HybridSystem system(SmallFabric(), R::Options());
  std::map<K, V> expect = EvenRecords<R>(2000);
  R::Load(&system, expect, 0.8);

  route::TreeRpcClient client(&system.rpc_service(), 0);
  bool done = false;
  sim::Spawn(ServeEachOp<R>(&client, &done));
  system.simulator().Run();
  EXPECT_TRUE(done);
  // Eight singletons and six batched records, none declined.
  EXPECT_EQ(Count(&system, "rpc.served"), 14u);
  EXPECT_EQ(Count(&system, "rpc.declined"), 0u);
  // The tree holds exactly what the executor wrote.
  expect.erase(R::KeyOf(100));
  expect[R::KeyOf(101)] = R::ValueOf(556);
  expect[R::KeyOf(200)] = R::ValueOf(7);
  expect[R::KeyOf(203)] = R::ValueOf(9);
  expect.erase(R::KeyOf(202));
  const std::vector<std::pair<K, V>> contents = R::Contents(&system);
  EXPECT_EQ((std::map<K, V>(contents.begin(), contents.end())), expect);
  EXPECT_EQ(contents.size(), expect.size());
  system.sherman().DebugCheckInvariants();
}

// On a held lane every write declines and every read is still served.
TYPED_TEST(TreeRpcTest, DeclinesLockedLeafAndHybridFallsBack) {
  using R = TypeParam;
  HybridSystem system(SmallFabric(), R::Options());
  // A handful of records => the whole tree is one leaf (the root), so its
  // guarding lock is easy to find.
  R::Load(&system, EvenRecords<R>(10), 0.5);
  const rdma::GlobalAddress leaf = system.sherman().DebugRootAddr();
  ASSERT_EQ(system.sherman().DebugHeight(), 1u);

  // Hold the leaf's HOCL lock lane, as a one-sided writer would.
  const GlobalLockRef ref =
      LockFor(leaf, system.sherman().options().lock.onchip);
  rdma::MemoryRegion& region =
      ref.space == rdma::MemorySpace::kDevice
          ? system.fabric().ms(ref.ms).device()
          : system.fabric().ms(ref.ms).host();
  const uint16_t held = 7;
  std::memcpy(region.raw(ref.lane_offset()), &held, 2);

  route::TreeRpcClient client(&system.rpc_service(), 0);
  bool done = false;
  sim::Spawn(OpsOnHeldLane<R>(&client, &done));
  system.simulator().Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(Count(&system, "rpc.declined"), 6u);
  EXPECT_EQ(Count(&system, "rpc.served"), 4u);

  // Release the lane; a hybrid client forced onto the RPC path now writes
  // through the MS-side executor directly.
  const uint16_t free_lane = 0;
  std::memcpy(region.raw(ref.lane_offset()), &free_lane, 2);
  system.router().ForceAssignment(
      std::vector<Path>(system.router().num_shards(), Path::kRpc));
  done = false;
  sim::Spawn(WriteThroughRpc<R>(&system, &done));
  system.simulator().Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(Count(&system, "rpc.served"), 6u);
  EXPECT_EQ(Count(&system, "route.rpc_fallbacks"), 0u);
}

// The executor runs the op core's record checks: a malformed varlen key
// declines, the one-sided fallback answers it exactly as a one-sided
// deployment does, and it never lands in a leaf.
TEST(TreeRpcTest, MalformedVarKeysAnswerAsOneSided) {
  // Empty, longer than max_key_len (64), and routing onto either fence
  // sentinel.
  const std::vector<std::string> keys = {"", std::string(100, 'k'),
                                         std::string(8, '\0') + "x",
                                         std::string(9, '\xff')};
  std::vector<Status> got[2];  // per deployment: [one-sided, RPC]
  for (const Path path : {Path::kOneSided, Path::kRpc}) {
    HybridSystem system(SmallFabric(), SmallVarHybrid());
    VarRecords::Load(&system, EvenRecords<VarRecords>(100), 0.8);
    system.router().ForceAssignment(
        std::vector<Path>(system.router().num_shards(), path));
    bool done = false;
    sim::Spawn([](route::HybridClient* c, const std::vector<std::string>* ks,
                  std::vector<Status>* out, bool* flag) -> sim::Task<void> {
      for (const std::string& k : *ks) {
        std::string v;
        std::vector<std::pair<std::string, std::string>> scan;
        out->push_back(co_await c->InsertVar(k, "value"));
        out->push_back(co_await c->LookupVar(k, &v));
        out->push_back(co_await c->DeleteVar(k));
        out->push_back(co_await c->ScanVar(k, 10, &scan));
      }
      *flag = true;
    }(&system.client(0), &keys, &got[path == Path::kRpc], &done));
    system.simulator().Run();
    ASSERT_TRUE(done);
    for (const auto& [k, v] : system.sherman().DebugScanLeavesVar()) {
      const Key rk = RoutingKeyFor(k);
      EXPECT_TRUE(!k.empty() && k.size() <= 64 && rk != kNullKey &&
                  rk != kMaxKey)
          << "malformed key in a leaf: " << k;
    }
    system.sherman().DebugCheckInvariants();
  }
  ASSERT_EQ(got[0].size(), 4 * keys.size());
  ASSERT_EQ(got[1].size(), got[0].size());
  for (size_t i = 0; i < got[0].size(); i++) {
    EXPECT_EQ(got[1][i].ToString(), got[0][i].ToString())
        << "op " << i % 4 << " on key " << i / 4;
  }
  // No such key can be written.
  for (size_t k = 0; k < keys.size(); k++) {
    EXPECT_TRUE(got[0][4 * k].IsInvalidArgument()) << "key " << k;
  }
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
