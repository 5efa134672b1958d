// Live shard-migration correctness: quiescent range moves are lossless and
// fully re-homed, migration under concurrent inserts/deletes/scans holds a
// shadow-map oracle, flip-time linearizability (no lost updates, monotonic
// reads across the flip), index-cache invalidation after the flip, a
// migration racing leaf splits, RPC re-routing through the versioned shard
// map, the shallow-tree guard, and a flip that cannot commit rolling back
// whole.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "alloc/layout.h"
#include "bench/runner.h"
#include "core/hybrid_system.h"
#include "core/presets.h"
#include "migrate/migrator.h"
#include "recover/intent.h"
#include "test_oracle.h"
#include "util/random.h"

namespace sherman {
namespace {

using testutil::Oracle;

rdma::FabricConfig SmallFabric(int ms = 2, int cs = 2) {
  rdma::FabricConfig f;
  f.num_memory_servers = ms;
  f.num_compute_servers = cs;
  f.ms_memory_bytes = 32ull << 20;
  return f;
}

// A count summed over every component of the deployment.
uint64_t Count(ShermanSystem* system, const char* name) {
  return system->registry().Snapshot().counter(name);
}

// Host-memory walk (control plane): addresses of all live leaves whose
// fence interval intersects [lo, hi).
std::vector<rdma::GlobalAddress> LiveLeavesInRange(ShermanSystem* sys, Key lo,
                                                   Key hi) {
  const TreeShape& shape = sys->options().shape;
  rdma::GlobalAddress addr = sys->DebugRootAddr();
  while (true) {
    NodeView view(sys->fabric().HostRaw(addr), &shape);
    if (view.is_leaf()) break;
    addr = view.InternalChildFor(lo);
  }
  std::vector<rdma::GlobalAddress> out;
  while (!addr.is_null()) {
    NodeView view(sys->fabric().HostRaw(addr), &shape);
    if (view.lo_fence() >= hi) break;
    out.push_back(addr);
    addr = view.sibling();
  }
  return out;
}

sim::Task<void> MigrateRangeTask(migrate::Migrator* mig, Key lo, Key hi,
                                 uint16_t target, Status* out, bool* done) {
  *out = co_await mig->MigrateRange(lo, hi, target);
  *done = true;
}

// --- shard map --------------------------------------------------------------

TEST(ShardMapTest, FlipBumpsVersionAndEpoch) {
  migrate::ShardMap map(8, 3);
  EXPECT_EQ(map.home(0), 0);
  EXPECT_EQ(map.home(4), 1);
  EXPECT_EQ(map.home(5), 2);
  EXPECT_EQ(map.epoch(), 0u);
  EXPECT_EQ(map.version(5), 0u);

  EXPECT_EQ(map.Flip(5, 3), 1u);
  EXPECT_EQ(map.home(5), 3);
  EXPECT_EQ(map.version(5), 1u);
  EXPECT_EQ(map.epoch(), 1u);
  EXPECT_EQ(map.version(4), 0u);  // untouched shards keep their version

  EXPECT_EQ(map.Flip(5, 1), 2u);
  EXPECT_EQ(map.epoch(), 2u);
  EXPECT_EQ(map.flips(), 2u);
}

// --- quiescent migration ----------------------------------------------------

class MigrateQuiescentTest : public ::testing::TestWithParam<const char*> {};

TEST_P(MigrateQuiescentTest, RangeMoveIsLosslessAndFullyHomed) {
  TreeOptions topt;
  ASSERT_TRUE(PresetByName(GetParam(), &topt));
  ShermanSystem system(SmallFabric(), topt);
  const uint64_t n = 20'000;
  system.BulkLoad(bench::MakeLoadKvs(n), 0.8);
  const auto before = system.DebugScanLeaves();

  const int target = system.AddMemoryServer();
  ASSERT_EQ(target, 2);
  const Key hi = WorkloadGenerator::LoadedKeyFor(n / 2);

  migrate::Migrator mig(&system, {});
  Status st;
  bool done = false;
  sim::Spawn(MigrateRangeTask(&mig, 1, hi, static_cast<uint16_t>(target), &st,
                              &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
  ASSERT_TRUE(st.ok()) << st.ToString();

  // Lossless: same key/value content, structurally sound.
  system.DebugCheckInvariants();
  EXPECT_EQ(system.DebugScanLeaves(), before);

  // Fully homed: every leaf in the range lives on the target MS, and the
  // covering level-1 nodes contained in the range moved too.
  EXPECT_GT(Count(&system, "migrate.leaves_moved"), 0u);
  EXPECT_GT(Count(&system, "migrate.internals_moved"), 0u);
  EXPECT_EQ(Count(&system, "migrate.residual_leaves"), 0u);
  for (const rdma::GlobalAddress& a : LiveLeavesInRange(&system, 1, hi)) {
    EXPECT_EQ(a.node, target) << a.ToString();
  }
  // Leaves outside the range stayed put.
  bool any_off_target = false;
  for (const rdma::GlobalAddress& a :
       LiveLeavesInRange(&system, hi, kMaxKey)) {
    if (a.node != target) any_off_target = true;
  }
  EXPECT_TRUE(any_off_target);

  // The tree still serves simulated traffic over the moved range.
  bool ops_done = false;
  sim::Spawn([](TreeClient* c, uint64_t keys, Key range_hi,
                bool* flag) -> sim::Task<void> {
    Random rng(7);
    std::set<Key> overwritten;
    for (int i = 0; i < 200; i++) {
      const Key key = WorkloadGenerator::LoadedKeyFor(rng.Uniform(keys));
      uint64_t value = 0;
      Status lst = co_await c->Lookup(key, &value);
      EXPECT_TRUE(lst.ok()) << key << ": " << lst.ToString();
      EXPECT_EQ(value, overwritten.count(key) ? key + 1 : key * 31 + 7);
      if (key < range_hi) {
        overwritten.insert(key);
        Status ist = co_await c->Insert(key, key + 1);
        EXPECT_TRUE(ist.ok()) << ist.ToString();
        EXPECT_TRUE((co_await c->Lookup(key, &value)).ok());
        EXPECT_EQ(value, key + 1);
      }
    }
    *flag = true;
  }(&system.client(1), n, hi, &ops_done));
  system.simulator().Run();
  ASSERT_TRUE(ops_done);
}

INSTANTIATE_TEST_SUITE_P(Presets, MigrateQuiescentTest,
                         ::testing::Values("sherman", "fg+"),
                         [](const auto& info) {
                           return std::string(info.param) == "fg+" ? "fgplus"
                                                                   : "sherman";
                         });

TEST(MigrateTest, ShallowTreeIsRefused) {
  ShermanSystem system(SmallFabric(), ShermanOptions());
  system.BulkLoad(bench::MakeLoadKvs(5), 1.0);  // one leaf: root is a leaf
  ASSERT_EQ(system.DebugHeight(), 1u);
  const int target = system.AddMemoryServer();

  migrate::Migrator mig(&system, {});
  Status st;
  bool done = false;
  sim::Spawn(MigrateRangeTask(&mig, 1, kMaxKey, static_cast<uint16_t>(target),
                              &st, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
}

TEST(MigrateTest, CacheInvalidationAfterFlip) {
  ShermanSystem system(SmallFabric(2, 2), ShermanOptions());
  const uint64_t n = 20'000;
  system.BulkLoad(bench::MakeLoadKvs(n), 0.8);
  const Key hi = WorkloadGenerator::LoadedKeyFor(n / 2);

  // Warm client 0's level-1 cache over the soon-to-move range.
  bool warmed = false;
  sim::Spawn([](TreeClient* c, uint64_t keys, bool* flag) -> sim::Task<void> {
    for (uint64_t r = 0; r < keys / 2; r += 25) {
      uint64_t value = 0;
      EXPECT_TRUE(
          (co_await c->Lookup(WorkloadGenerator::LoadedKeyFor(r), &value))
              .ok());
    }
    *flag = true;
  }(&system.client(0), n, &warmed));
  system.simulator().Run();
  ASSERT_TRUE(warmed);
  const size_t cached_before = system.client(0).cache().level1_nodes();
  ASSERT_GT(cached_before, 0u);

  // Migration driven from CS 1; CS 0 is idle, so every invalidation it
  // sees comes from the flip-time broadcast, not its own lazy healing.
  const int target = system.AddMemoryServer();
  migrate::Migrator mig(&system, {.cs_id = 1});
  Status st;
  bool done = false;
  sim::Spawn(MigrateRangeTask(&mig, 1, hi, static_cast<uint16_t>(target), &st,
                              &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
  ASSERT_TRUE(st.ok()) << st.ToString();
  // Idle CS 0 inserts nothing, so each entry it lost is one invalidation.
  EXPECT_LT(system.client(0).cache().level1_nodes(), cached_before);

  // Post-flip reads through the cold cache still resolve correctly.
  bool checked = false;
  sim::Spawn([](TreeClient* c, uint64_t keys, bool* flag) -> sim::Task<void> {
    for (uint64_t r = 0; r < keys / 2; r += 500) {
      const Key key = WorkloadGenerator::LoadedKeyFor(r);
      uint64_t value = 0;
      Status lst = co_await c->Lookup(key, &value);
      EXPECT_TRUE(lst.ok()) << lst.ToString();
      EXPECT_EQ(value, key * 31 + 7);
    }
    *flag = true;
  }(&system.client(0), n, &checked));
  system.simulator().Run();
  ASSERT_TRUE(checked);
}

// The sibling fix must drop a stale translation of its left neighbour.
// L is the leftmost child of its parent, so its left neighbour S is the
// last child of the parent before, P0. The migrating CS caches P0, then
// another CS merges S into its own left neighbour: the frozen cache still
// resolves L.lo - 1 to S's tombstone. Migrating L then locks that
// tombstone on every sibling-fix attempt unless the retry invalidates the
// translation ("TimedOut: sibling-fix retries exhausted").
TEST(MigrateTest, SiblingFixDropsStaleNeighbourTranslation) {
  TreeOptions topt = ShermanOptions();
  topt.shape.node_size = 256;  // 11 entries a leaf
  topt.merge_threshold = 0.4;
  ShermanSystem system(SmallFabric(2, 2), topt);
  system.BulkLoad(bench::MakeLoadKvs(400), 0.4);  // 4 entries a leaf
  ASSERT_GE(system.DebugHeight(), 3u);

  // Host-side: P0, the first level-1 node; S and S2, its last two
  // children; L, the leftmost child of P0's right sibling.
  const TreeShape& shape = system.options().shape;
  const auto view = [&](rdma::GlobalAddress a) {
    return NodeView(system.fabric().HostRaw(a), &shape);
  };
  rdma::GlobalAddress p0 = system.DebugRootAddr();
  while (view(p0).level() > 1) p0 = view(p0).leftmost_child();
  const NodeView pv = view(p0);
  ASSERT_GE(pv.count(), 2u);
  const rdma::GlobalAddress s_addr = pv.InternalChild(pv.count() - 1);
  const rdma::GlobalAddress l_addr = view(s_addr).sibling();
  const Key s_lo = view(s_addr).lo_fence();
  const Key l_lo = view(l_addr).lo_fence();
  const Key l_hi = view(l_addr).hi_fence();
  ASSERT_EQ(l_lo, pv.hi_fence()) << "L must open the next parent";

  // CS 1 caches P0 by reading a key of S.
  std::vector<Key> s_keys;
  for (const auto& [k, v] : system.DebugScanLeaves()) {
    if (k >= s_lo && k < l_lo) s_keys.push_back(k);
  }
  ASSERT_FALSE(s_keys.empty());
  bool warmed = false;
  sim::Spawn([](TreeClient* c, Key k, bool* flag) -> sim::Task<void> {
    uint64_t v = 0;
    EXPECT_TRUE((co_await c->Lookup(k, &v)).ok());
    *flag = true;
  }(&system.client(1), s_keys.front(), &warmed));
  system.simulator().Run();
  ASSERT_TRUE(warmed);

  // CS 0 deletes from S: it underflows and merges into its left neighbour.
  bool drained = false;
  sim::Spawn([](TreeClient* c, Key k, bool* flag) -> sim::Task<void> {
    EXPECT_TRUE((co_await c->Delete(k)).ok());
    *flag = true;
  }(&system.client(0), s_keys.front(), &drained));
  system.simulator().Run();
  ASSERT_TRUE(drained);
  ASSERT_TRUE(view(s_addr).is_free()) << "S was not merged away";

  // Migrate L from CS 1, whose cache still routes L.lo - 1 to S.
  const int target = system.AddMemoryServer();
  migrate::Migrator mig(&system, {.cs_id = 1});
  Status st;
  bool done = false;
  sim::Spawn(MigrateRangeTask(&mig, l_lo, l_hi, static_cast<uint16_t>(target),
                              &st, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(Count(&system, "migrate.leaves_moved"), 1u);
  system.DebugCheckInvariants();
}

// A flip that cannot commit rolls back whole: the source revived and its
// copy retired. L loses its separator in the first level-1 node, the state
// a leaf split leaves while its parent link is pending: L is reachable
// only through its left sibling, so ReplaceChild never finds the child
// pointer it swaps and times out.
TEST(MigrateTest, FlipAbortRetiresTheCopy) {
  TreeOptions topt = ShermanOptions();
  topt.shape.node_size = 256;  // 11 entries a leaf
  ShermanSystem system(SmallFabric(2, 2), topt);
  system.BulkLoad(bench::MakeLoadKvs(400), 0.4);  // 4 entries a leaf
  ASSERT_GE(system.DebugHeight(), 3u);
  const auto before = system.DebugScanLeaves();

  const TreeShape& shape = system.options().shape;
  const auto view = [&](rdma::GlobalAddress a) {
    return NodeView(system.fabric().HostRaw(a), &shape);
  };
  rdma::GlobalAddress p0 = system.DebugRootAddr();
  while (view(p0).level() > 1) p0 = view(p0).leftmost_child();
  NodeView pv = view(p0);
  ASSERT_GE(pv.count(), 1u);
  const rdma::GlobalAddress l_addr = pv.InternalChild(0);
  const Key l_lo = pv.InternalKey(0);
  const Key l_hi = view(l_addr).hi_fence();
  ASSERT_TRUE(pv.InternalRemove(l_lo, l_addr));
  pv.Seal(system.options().consistency);

  const int target = system.AddMemoryServer();
  const uint64_t freed = Count(&system, "alloc.nodes_freed");
  migrate::Migrator mig(&system, {});
  Status st;
  bool done = false;
  sim::Spawn(MigrateRangeTask(&mig, l_lo, l_hi, static_cast<uint16_t>(target),
                              &st, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(st.IsTimedOut()) << st.ToString();
  EXPECT_FALSE(view(l_addr).is_free()) << "the source stayed tombstoned";
  EXPECT_EQ(Count(&system, "alloc.nodes_freed"), freed + 1)
      << "the copy was not retired";
  EXPECT_EQ(Count(&system, "migrate.leaves_moved"), 0u);
  EXPECT_EQ(system.DebugScanLeaves(), before);

  // The migrator's intent slots and every lock lane are clear.
  for (uint32_t slot = 0; slot < kIntentSlotsPerClient; slot++) {
    EXPECT_EQ(system.fabric().HostRaw(
                  recover::IntentSlotAddress(0, static_cast<int>(slot)))[0],
              0u)
        << "live intent in slot " << slot;
  }
  for (int ms = 0; ms < system.fabric().num_memory_servers(); ms++) {
    const uint8_t* dev = system.fabric().ms(ms).device().raw(0);
    const uint8_t* host = system.fabric().ms(ms).host().raw(kHostGltOffset);
    for (uint64_t i = 0; i < kLocksPerMs * kLockBytes; i++) {
      ASSERT_EQ(dev[i] | host[i], 0) << "held lane on MS " << ms;
    }
  }
}

// --- migration under concurrent traffic -------------------------------------

class MigrateConcurrencyTest : public ::testing::TestWithParam<const char*> {};

TEST_P(MigrateConcurrencyTest, OracleHoldsUnderConcurrentMigration) {
  TreeOptions topt;
  ASSERT_TRUE(PresetByName(GetParam(), &topt));
  ShermanSystem system(SmallFabric(2, 2), topt);
  const uint64_t n = 10'000;
  const auto kvs = bench::MakeLoadKvs(n);
  system.BulkLoad(kvs, 0.8);

  Oracle oracle;
  testutil::SeedOracle(&oracle, kvs);
  constexpr int kThreads = 6;
  std::map<Key, uint64_t> last_by_thread[kThreads];
  int done = 0;
  for (int t = 0; t < kThreads; t++) {
    sim::Spawn(testutil::SingletonMixWorker(
        &system.client(t % 2), t, 1000 + 31 * t, 250, 2 * n + 100, &oracle,
        &last_by_thread[t], &done));
  }

  const int target = system.AddMemoryServer();
  migrate::Migrator mig(&system, {});
  Status mig_st;
  bool mig_done = false;
  sim::Spawn(MigrateRangeTask(&mig, 1, WorkloadGenerator::LoadedKeyFor(n / 2),
                              static_cast<uint16_t>(target), &mig_st,
                              &mig_done));
  system.simulator().Run();
  ASSERT_EQ(done, kThreads);
  ASSERT_TRUE(mig_done);
  ASSERT_TRUE(mig_st.ok()) << mig_st.ToString();
  EXPECT_GT(Count(&system, "migrate.leaves_moved"), 0u);

  testutil::CheckOracleAtQuiescence(&system, oracle, last_by_thread,
                                    kThreads);
}

INSTANTIATE_TEST_SUITE_P(Presets, MigrateConcurrencyTest,
                         ::testing::Values("sherman", "fg+", "+on-chip"),
                         [](const auto& info) {
                           std::string p = info.param;
                           for (char& c : p) {
                             if (!isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           }
                           return p;
                         });

TEST(MigrateConcurrencyTest, FlipTimeLinearizability) {
  ShermanSystem system(SmallFabric(2, 2), ShermanOptions());
  const uint64_t n = 8'000;
  system.BulkLoad(bench::MakeLoadKvs(n), 0.8);

  // 4 writers own disjoint key sets and write strictly increasing values
  // (above the bulkload value range); 4 readers re-read those keys and
  // must never observe a value going backwards — not even while the key's
  // leaf is mid-migration.
  constexpr int kPairs = 4;
  constexpr uint64_t kBase = 1ull << 48;
  int done = 0;
  for (int w = 0; w < kPairs; w++) {
    sim::Spawn([](TreeClient* c, int wid, uint64_t keys,
                  int* d) -> sim::Task<void> {
      Random rng(77 + wid);
      std::map<Key, uint64_t> seq;
      for (int i = 0; i < 300; i++) {
        const Key key =
            WorkloadGenerator::LoadedKeyFor(rng.Uniform(keys / kPairs) * kPairs +
                                            wid);
        const uint64_t value = kBase + (++seq[key]);
        Status st = co_await c->Insert(key, value);
        EXPECT_TRUE(st.ok()) << st.ToString();
      }
      (*d)++;
    }(&system.client(w % 2), w, n, &done));
    sim::Spawn([](TreeClient* c, int wid, uint64_t keys,
                  int* d) -> sim::Task<void> {
      Random rng(177 + wid);
      std::map<Key, uint64_t> last_seen;
      for (int i = 0; i < 300; i++) {
        const Key key =
            WorkloadGenerator::LoadedKeyFor(rng.Uniform(keys / kPairs) * kPairs +
                                            wid);
        uint64_t value = 0;
        Status st = co_await c->Lookup(key, &value);
        EXPECT_TRUE(st.ok()) << key << ": " << st.ToString();
        if (value >= kBase) {
          auto it = last_seen.find(key);
          if (it != last_seen.end()) {
            EXPECT_GE(value, it->second)
                << "non-monotonic read across flip for key " << key;
          }
          last_seen[key] = value;
        }
      }
      (*d)++;
    }(&system.client((w + 1) % 2), w, n, &done));
  }

  const int target = system.AddMemoryServer();
  migrate::Migrator mig(&system, {});
  Status mig_st;
  bool mig_done = false;
  sim::Spawn(MigrateRangeTask(&mig, 1, kMaxKey, static_cast<uint16_t>(target),
                              &mig_st, &mig_done));
  system.simulator().Run();
  ASSERT_EQ(done, 2 * kPairs);
  ASSERT_TRUE(mig_done);
  ASSERT_TRUE(mig_st.ok()) << mig_st.ToString();
  system.DebugCheckInvariants();
}

TEST(MigrateConcurrencyTest, MigrationRacesLeafSplits) {
  TreeOptions topt = ShermanOptions();
  topt.shape.node_size = 256;  // tiny leaves: splits are easy to provoke
  ShermanSystem system(SmallFabric(2, 2), topt);
  const uint64_t n = 4'000;
  const auto kvs = bench::MakeLoadKvs(n);
  system.BulkLoad(kvs, 0.95);  // nearly-full leaves split on first insert

  Oracle oracle;
  testutil::SeedOracle(&oracle, kvs);
  // Writers hammer fresh odd keys inside the migrating range, so splits
  // land mid-migration (including on already-moved leaves, which the next
  // copy pass must re-home).
  constexpr int kThreads = 4;
  std::map<Key, uint64_t> last_by_thread[kThreads];
  int done = 0;
  for (int t = 0; t < kThreads; t++) {
    sim::Spawn([](TreeClient* c, int tid, uint64_t keys, Oracle* oracle,
                  std::map<Key, uint64_t>* my_last, int* d) -> sim::Task<void> {
      Random rng(500 + tid);
      for (int i = 0; i < 300; i++) {
        const Key key = 1 + 2 * rng.Uniform(keys / 2);  // odd: fresh inserts
        const uint64_t value =
            (static_cast<uint64_t>(tid + 1) << 32) | (i + 1);
        (*oracle)[key].written_values.insert(value);
        (*oracle)[key].writers.insert(tid);
        (*my_last)[key] = value;
        Status st = co_await c->Insert(key, value);
        EXPECT_TRUE(st.ok()) << st.ToString();
      }
      (*d)++;
    }(&system.client(t % 2), t, n, &oracle, &last_by_thread[t], &done));
  }

  const int target = system.AddMemoryServer();
  migrate::Migrator mig(&system, {});
  Status mig_st;
  bool mig_done = false;
  sim::Spawn(MigrateRangeTask(&mig, 1, WorkloadGenerator::LoadedKeyFor(n / 2),
                              static_cast<uint16_t>(target), &mig_st,
                              &mig_done));
  system.simulator().Run();
  ASSERT_EQ(done, kThreads);
  ASSERT_TRUE(mig_done);
  ASSERT_TRUE(mig_st.ok()) << mig_st.ToString();
  // Split races force re-walks.
  EXPECT_GT(Count(&system, "migrate.passes"), 1u);

  testutil::CheckOracleAtQuiescence(&system, oracle, last_by_thread,
                                    kThreads);
}

// --- shard map + router integration -----------------------------------------

TEST(MigrateHybridTest, ShardFlipReroutesRpcPath) {
  HybridOptions opts;
  opts.tree = ShermanOptions();
  opts.router.num_shards = 8;
  opts.router.policy = route::RouterOptions::Policy::kAllRpc;
  HybridSystem system(SmallFabric(2, 2), opts);
  const uint64_t n = 20'000;
  system.BulkLoad(bench::MakeLoadKvs(n), 0.8);

  ASSERT_EQ(system.router().HomeMsFor(0), 0);
  ASSERT_EQ(system.router().HomeMsFor(1), 1);

  const int target = system.AddMemoryServer();
  ASSERT_EQ(target, 2);
  migrate::Migrator mig(&system.sherman(), {}, &system.shard_map(),
                        &system.router());
  Status mig_st;
  bool mig_done = false;
  sim::Spawn([](migrate::Migrator* m, uint16_t t, Status* out,
                bool* done) -> sim::Task<void> {
    *out = co_await m->MigrateShard(0, t);
    *done = true;
  }(&mig, static_cast<uint16_t>(target), &mig_st, &mig_done));
  system.simulator().Run();
  ASSERT_TRUE(mig_done);
  ASSERT_TRUE(mig_st.ok()) << mig_st.ToString();

  // The versioned map re-homed shard 0 and ONLY shard 0 — growing the
  // fabric must not remap unmigrated shards.
  EXPECT_EQ(system.shard_map().version(0), 1u);
  EXPECT_EQ(system.shard_map().epoch(), 1u);
  EXPECT_EQ(system.router().HomeMsFor(0), target);
  for (int s = 1; s < 8; s++) {
    EXPECT_EQ(system.router().HomeMsFor(s), s % 2) << "shard " << s;
  }

  // RPC ops on shard 0 now execute on the new MS.
  Key shard0_key = 0;
  for (uint64_t r = 0; r < n; r++) {
    const Key k = WorkloadGenerator::LoadedKeyFor(r);
    if (system.router().ShardFor(k) == 0) {
      shard0_key = k;
      break;
    }
  }
  ASSERT_NE(shard0_key, 0u);
  const uint64_t served_before = system.fabric().ms(target).rpcs_served();
  bool ops_done = false;
  sim::Spawn([](route::HybridClient* c, Key key, bool* flag) -> sim::Task<void> {
    for (int i = 0; i < 20; i++) {
      uint64_t value = 0;
      Status st = co_await c->Lookup(key, &value);
      EXPECT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(value, key * 31 + 7);
    }
    *flag = true;
  }(&system.client(0), shard0_key, &ops_done));
  system.simulator().Run();
  ASSERT_TRUE(ops_done);
  EXPECT_GE(system.fabric().ms(target).rpcs_served(), served_before + 20);
}

}  // namespace
}  // namespace sherman
