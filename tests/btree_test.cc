// Single-client tree correctness: random operation sequences verified
// against std::map, bulkload shapes, split cascades, root growth, deletes,
// range queries, and key-size sweeps — parameterized over every preset.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench/runner.h"
#include "core/btree.h"
#include "core/presets.h"
#include "lock/lock_table.h"
#include "obs/trace.h"
#include "util/random.h"
#include "vlog/vlog.h"

namespace sherman {
namespace {

rdma::FabricConfig SmallFabric(int ms = 2, int cs = 1) {
  rdma::FabricConfig f;
  f.num_memory_servers = ms;
  f.num_compute_servers = cs;
  f.ms_memory_bytes = 32ull << 20;
  return f;
}

// Drives a single-coroutine random op sequence mirrored into std::map.
sim::Task<void> RandomOps(TreeClient* client, uint64_t seed, int ops,
                          uint64_t key_space, bool with_deletes,
                          std::map<Key, uint64_t>* model, bool* done) {
  Random rng(seed);
  for (int i = 0; i < ops; i++) {
    const Key key = 1 + rng.Uniform(key_space);
    const int action = static_cast<int>(rng.Uniform(with_deletes ? 4 : 3));
    if (action == 0 || action == 2) {
      const uint64_t value = rng.Next();
      Status st = co_await client->Insert(key, value);
      EXPECT_TRUE(st.ok()) << st.ToString();
      (*model)[key] = value;
    } else if (action == 1) {
      uint64_t value = 0;
      Status st = co_await client->Lookup(key, &value);
      auto it = model->find(key);
      if (it == model->end()) {
        EXPECT_TRUE(st.IsNotFound()) << "key " << key << ": " << st.ToString();
      } else {
        EXPECT_TRUE(st.ok()) << st.ToString();
        EXPECT_EQ(value, it->second) << "key " << key;
      }
    } else {
      Status st = co_await client->Delete(key);
      if (model->erase(key) > 0) {
        EXPECT_TRUE(st.ok()) << st.ToString();
      } else {
        EXPECT_TRUE(st.IsNotFound()) << st.ToString();
      }
    }
  }
  *done = true;
}

class PresetTreeTest : public ::testing::TestWithParam<std::string> {
 protected:
  TreeOptions Options() {
    TreeOptions t;
    EXPECT_TRUE(PresetByName(GetParam(), &t));
    return t;
  }
};

TEST_P(PresetTreeTest, RandomOpsMatchStdMap) {
  TreeOptions topt = Options();
  topt.shape.node_size = 256;  // small nodes force frequent splits
  ShermanSystem system(SmallFabric(), topt);
  system.BulkLoad({}, 0.8);  // start empty: exercises root growth from leaf

  std::map<Key, uint64_t> model;
  bool done = false;
  sim::Spawn(RandomOps(&system.client(0), 99, 3000, 500, true, &model, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);

  system.DebugCheckInvariants();
  const auto scan = system.DebugScanLeaves();
  ASSERT_EQ(scan.size(), model.size());
  auto it = model.begin();
  for (size_t i = 0; i < scan.size(); i++, ++it) {
    EXPECT_EQ(scan[i].first, it->first);
    EXPECT_EQ(scan[i].second, it->second);
  }
}

TEST_P(PresetTreeTest, SequentialInsertsCascadeSplitsToDeepTree) {
  TreeOptions topt = Options();
  topt.shape.node_size = 256;
  ShermanSystem system(SmallFabric(), topt);
  system.BulkLoad({}, 0.8);

  bool done = false;
  sim::Spawn([](TreeClient* c, bool* flag) -> sim::Task<void> {
    for (Key k = 1; k <= 2000; k++) {
      Status st = co_await c->Insert(k, k * 2);
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
    // Everything must be found.
    for (Key k = 1; k <= 2000; k++) {
      uint64_t v = 0;
      Status st = co_await c->Lookup(k, &v);
      EXPECT_TRUE(st.ok()) << "key " << k << ": " << st.ToString();
      EXPECT_EQ(v, k * 2);
    }
    *flag = true;
  }(&system.client(0), &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
  EXPECT_GE(system.DebugHeight(), 3u) << "splits should have grown the tree";
  system.DebugCheckInvariants();
}

TEST_P(PresetTreeTest, RangeQueryAgainstModel) {
  TreeOptions topt = Options();
  ShermanSystem system(SmallFabric(), topt);
  const uint64_t n = 5'000;
  system.BulkLoad(bench::MakeLoadKvs(n), 0.8);

  bool done = false;
  sim::Spawn([](TreeClient* c, uint64_t n_keys, bool* flag) -> sim::Task<void> {
    Random rng(5);
    std::vector<std::pair<Key, uint64_t>> out;
    for (int trial = 0; trial < 30; trial++) {
      const Key from = 1 + rng.Uniform(2 * n_keys);
      const uint32_t count = 1 + static_cast<uint32_t>(rng.Uniform(200));
      Status st = co_await c->RangeQuery(from, count, &out);
      EXPECT_TRUE(st.ok()) << st.ToString();
      // Expected: even keys in [from, ...), up to count of them.
      Key expect = from + (from % 2);
      if (expect < 2) expect = 2;
      for (const auto& [k, v] : out) {
        EXPECT_EQ(k, expect);
        EXPECT_EQ(v, k * 31 + 7);
        expect = k + 2;
      }
      const uint64_t max_key = 2 * n_keys;
      const Key first = from + (from % 2);
      const uint64_t available =
          first > max_key ? 0 : (max_key - first) / 2 + 1;
      EXPECT_EQ(out.size(), std::min<uint64_t>(count, available));
    }
    *flag = true;
  }(&system.client(0), n, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
}

INSTANTIATE_TEST_SUITE_P(AllPresets, PresetTreeTest,
                         ::testing::Values("fg", "fg+", "+combine", "+on-chip",
                                           "+hierarchical", "sherman"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (!isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return n;
                         });

// --- bulkload shapes ---

TEST(BulkLoadTest, EmptyTreeIsSingleLeafRoot) {
  ShermanSystem system(SmallFabric(), ShermanOptions());
  system.BulkLoad({}, 0.8);
  EXPECT_EQ(system.DebugHeight(), 1u);
  EXPECT_TRUE(system.DebugScanLeaves().empty());
  system.DebugCheckInvariants();
}

TEST(BulkLoadTest, SingleKey) {
  ShermanSystem system(SmallFabric(), ShermanOptions());
  system.BulkLoad({{42, 420}}, 0.8);
  const auto scan = system.DebugScanLeaves();
  ASSERT_EQ(scan.size(), 1u);
  EXPECT_EQ(scan[0].first, 42u);
  system.DebugCheckInvariants();
}

TEST(BulkLoadTest, LargeLoadRoundTripsAndHeight) {
  ShermanSystem system(SmallFabric(), ShermanOptions());
  const uint64_t n = 100'000;
  system.BulkLoad(bench::MakeLoadKvs(n), 0.8);
  system.DebugCheckInvariants();
  const auto scan = system.DebugScanLeaves();
  ASSERT_EQ(scan.size(), n);
  EXPECT_GE(system.DebugHeight(), 3u);
  // Lookup through the simulated path too.
  bool done = false;
  sim::Spawn([](TreeClient* c, bool* flag) -> sim::Task<void> {
    uint64_t v = 0;
    for (Key k : {2ull, 100'000ull, 200'000ull}) {
      Status st = co_await c->Lookup(k, &v);
      EXPECT_TRUE(st.ok()) << "key " << k;
      EXPECT_EQ(v, k * 31 + 7);
    }
    *flag = true;
  }(&system.client(0), &done));
  system.simulator().Run();
  EXPECT_TRUE(done);
}

TEST(BulkLoadTest, FillFactorControlsLeafCount) {
  const uint64_t n = 10'000;
  auto height_leaves = [&](double fill) {
    ShermanSystem system(SmallFabric(), ShermanOptions());
    system.BulkLoad(bench::MakeLoadKvs(n), fill);
    return system.DebugScanLeaves().size();
  };
  // Same data regardless of fill; invariants checked inside scans.
  EXPECT_EQ(height_leaves(0.5), n);
  EXPECT_EQ(height_leaves(1.0), n);
}

// --- key/value size sweep (Figure 15 geometry) ---

class KeySizeTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(KeySizeTest, OperationsWorkWithWideKeys) {
  TreeOptions topt = ShermanOptions();
  topt.shape.key_size = GetParam();
  // Figure 15 fixes 32 entries per leaf by growing the node.
  topt.shape.node_size = 64 + 32 * topt.shape.leaf_entry_size();
  // Round up to something sane.
  topt.shape.node_size = std::max(topt.shape.node_size, 256u);
  ShermanSystem system(SmallFabric(), topt);
  const auto loaded = bench::MakeLoadKvs(2'000);
  system.BulkLoad(loaded, 0.8);

  std::map<Key, uint64_t> model(loaded.begin(), loaded.end());
  bool done = false;
  sim::Spawn(RandomOps(&system.client(0), 7, 500, 5'000, false, &model, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
  system.DebugCheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(Widths, KeySizeTest,
                         ::testing::Values(8, 16, 32, 64, 128, 256, 512, 1024),
                         [](const auto& info) {
                           return "key" + std::to_string(info.param);
                         });

// --- misc behaviours ---

TEST(BTreeTest, UpdateOverwritesInPlaceWithSmallWrite) {
  ShermanSystem system(SmallFabric(), ShermanOptions());
  system.BulkLoad(bench::MakeLoadKvs(1'000), 0.8);
  bool done = false;
  sim::Spawn([](TreeClient* c, bool* flag) -> sim::Task<void> {
    OpStats stats;
    Status st = co_await c->Insert(2, 12345, &stats);
    EXPECT_TRUE(st.ok());
    // Two-level versions: only the 18-byte entry is written back.
    EXPECT_EQ(stats.bytes_written, 18u);
    uint64_t v = 0;
    st = co_await c->Lookup(2, &v);
    EXPECT_TRUE(st.ok());
    EXPECT_EQ(v, 12345u);
    *flag = true;
  }(&system.client(0), &done));
  system.simulator().Run();
  EXPECT_TRUE(done);
}

TEST(BTreeTest, FgWritesWholeNodes) {
  ShermanSystem system(SmallFabric(), FgPlusOptions());
  system.BulkLoad(bench::MakeLoadKvs(1'000), 0.8);
  bool done = false;
  sim::Spawn([](TreeClient* c, uint32_t node_size, bool* flag)
                 -> sim::Task<void> {
    OpStats stats;
    Status st = co_await c->Insert(2, 12345, &stats);
    EXPECT_TRUE(st.ok());
    EXPECT_EQ(stats.bytes_written, node_size);
    *flag = true;
  }(&system.client(0), system.options().shape.node_size, &done));
  system.simulator().Run();
  EXPECT_TRUE(done);
}

TEST(BTreeTest, CombinedInsertTakesFewerRoundTripsThanFgPlus) {
  auto round_trips = [&](TreeOptions topt) {
    ShermanSystem system(SmallFabric(), topt);
    system.BulkLoad(bench::MakeLoadKvs(1'000), 0.8);
    uint32_t rts = 0;
    sim::Spawn([](TreeClient* c, uint32_t* out) -> sim::Task<void> {
      // Warm the cache so both configs start from a level-1 hit.
      uint64_t v;
      co_await c->Lookup(2, &v);
      OpStats stats;
      Status st = co_await c->Insert(4, 1, &stats);
      EXPECT_TRUE(st.ok());
      *out = stats.round_trips;
    }(&system.client(0), &rts));
    system.simulator().Run();
    return rts;
  };
  const uint32_t fg_rts = round_trips(FgPlusOptions());
  const uint32_t sherman_rts = round_trips(ShermanOptions());
  // Paper Figure 14b: FG+ needs 4 round trips, Sherman 3 (no handover).
  EXPECT_EQ(fg_rts, 4u);
  EXPECT_EQ(sherman_rts, 3u);
}

TEST(BTreeTest, DeleteFreesSlotForReuse) {
  TreeOptions topt = ShermanOptions();
  topt.shape.node_size = 256;
  ShermanSystem system(SmallFabric(), topt);
  system.BulkLoad({}, 0.8);
  bool done = false;
  sim::Spawn([](TreeClient* c, bool* flag) -> sim::Task<void> {
    // Fill a leaf, delete everything, refill: no unnecessary splits.
    for (Key k = 1; k <= 10; k++) co_await c->Insert(k, k);
    for (Key k = 1; k <= 10; k++) {
      Status st = co_await c->Delete(k);
      EXPECT_TRUE(st.ok());
    }
    for (Key k = 11; k <= 20; k++) co_await c->Insert(k, k);
    for (Key k = 1; k <= 10; k++) {
      uint64_t v;
      EXPECT_TRUE((co_await c->Lookup(k, &v)).IsNotFound());
    }
    for (Key k = 11; k <= 20; k++) {
      uint64_t v = 0;
      EXPECT_TRUE((co_await c->Lookup(k, &v)).ok());
      EXPECT_EQ(v, k);
    }
    *flag = true;
  }(&system.client(0), &done));
  system.simulator().Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(system.DebugScanLeaves().size(), 10u);
}

// Regression (delete-path sweep): sorted-mode (FG) deletes must write back
// only the header + the left-shifted suffix, not the whole node — the byte
// accounting must reflect it exactly.
TEST(BTreeTest, FgDeleteWritesOnlyShiftedSuffix) {
  ShermanSystem system(SmallFabric(), FgPlusOptions());
  const uint64_t n = 1'000;
  system.BulkLoad(bench::MakeLoadKvs(n), 0.8);
  bool done = false;
  sim::Spawn([](TreeClient* c, const TreeShape* shape, bool* flag)
                 -> sim::Task<void> {
    const uint32_t esz = shape->leaf_entry_size();
    const uint32_t cap = shape->leaf_capacity();
    const uint32_t per_leaf = std::min(
        cap, static_cast<uint32_t>(cap * 0.8));  // bulkload fill
    // Last key of the first leaf: only that one entry slot shifts.
    OpStats stats;
    Status st = co_await c->Delete(
        WorkloadGenerator::LoadedKeyFor(per_leaf - 1), &stats);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(stats.bytes_written, kHeaderSize + esz);
    // First key of the first leaf: the whole remaining tail shifts — still
    // strictly less than a whole-node write.
    stats.Reset();
    st = co_await c->Delete(WorkloadGenerator::LoadedKeyFor(0), &stats);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(stats.bytes_written, kHeaderSize + (per_leaf - 1) * esz);
    EXPECT_LT(stats.bytes_written, shape->node_size);
    // The leaf still validates and serves correctly.
    uint64_t v = 0;
    st = co_await c->Lookup(WorkloadGenerator::LoadedKeyFor(1), &v);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(v, WorkloadGenerator::LoadedKeyFor(1) * 31 + 7);
    EXPECT_TRUE(
        (co_await c->Lookup(WorkloadGenerator::LoadedKeyFor(0), &v))
            .IsNotFound());
    *flag = true;
  }(&system.client(0), &system.options().shape, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
  system.DebugCheckInvariants();
}

// Regression (delete-path sweep): range queries and MultiGet over unsorted
// leaves must skip nulled (deleted) entries — deleted keys neither appear
// in results nor count toward the requested `count`.
TEST(RangeBoundaryTest, ScanSkipsDeletedEntriesMidRange) {
  TreeOptions topt = ShermanOptions();
  topt.merge_threshold = 0;  // keep leaves in place: nulled slots persist
  ShermanSystem system(SmallFabric(2, 2), topt);
  const uint64_t n = 2'000;
  system.BulkLoad(bench::MakeLoadKvs(n), 0.8);

  bool done = false;
  sim::Spawn([](TreeClient* c, bool* flag) -> sim::Task<void> {
    // Null every odd-ranked key in ranks [300, 700).
    for (uint64_t r = 300; r < 700; r++) {
      if (r % 2 == 0) continue;
      EXPECT_TRUE(
          (co_await c->Delete(WorkloadGenerator::LoadedKeyFor(r))).ok());
    }
    // Scan across the deleted region: exactly the survivors, in order,
    // with deleted keys not counted toward `count`.
    const Key from = WorkloadGenerator::LoadedKeyFor(250);
    std::vector<std::pair<Key, uint64_t>> out;
    Status st = co_await c->RangeQuery(from, 300, &out);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(out.size(), 300u);
    uint64_t rank = 250;
    for (const auto& [k, v] : out) {
      EXPECT_EQ(k, WorkloadGenerator::LoadedKeyFor(rank)) << "rank " << rank;
      EXPECT_EQ(v, k * 31 + 7);
      // Next surviving rank: odd ranks in [300, 700) were deleted.
      rank++;
      while (rank >= 300 && rank < 700 && rank % 2 == 1) rank++;
    }
    // MultiGet over a deleted/live mix: deleted keys report NotFound.
    std::vector<Key> keys;
    for (uint64_t r = 298; r < 312; r++) {
      keys.push_back(WorkloadGenerator::LoadedKeyFor(r));
    }
    std::vector<MultiGetResult> got;
    st = co_await c->MultiGet(keys, &got);
    EXPECT_TRUE(st.ok()) << st.ToString();
    for (size_t i = 0; i < keys.size(); i++) {
      const uint64_t r = 298 + i;
      const bool deleted = r >= 300 && r < 700 && r % 2 == 1;
      if (deleted) {
        EXPECT_TRUE(got[i].status.IsNotFound()) << "rank " << r;
      } else {
        EXPECT_TRUE(got[i].status.ok()) << "rank " << r;
        EXPECT_EQ(got[i].value, keys[i] * 31 + 7);
      }
    }
    *flag = true;
  }(&system.client(0), &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
  system.DebugCheckInvariants();
}

// Same, racing: deletes landing inside the scanned range while the scan
// walks across it. Stable (never-deleted) keys must all appear exactly
// once and in order; deleted keys never surface after their delete.
TEST(RangeBoundaryTest, ScanRacesDeletesMidRange) {
  TreeOptions topt = ShermanOptions();
  topt.shape.node_size = 256;
  ShermanSystem system(SmallFabric(2, 2), topt);
  const uint64_t n = 2'000;
  system.BulkLoad(bench::MakeLoadKvs(n), 1.0);

  int done = 0;
  sim::Spawn([](TreeClient* c, int* d) -> sim::Task<void> {
    Random rng(3);
    // Delete odd-ranked keys in [200, 800) in random order; merges fire
    // as leaves drain.
    std::vector<uint64_t> ranks;
    for (uint64_t r = 200; r < 800; r++) {
      if (r % 2 == 1) ranks.push_back(r);
    }
    for (size_t i = ranks.size(); i > 1; i--) {
      std::swap(ranks[i - 1], ranks[rng.Uniform(i)]);
    }
    for (uint64_t r : ranks) {
      EXPECT_TRUE(
          (co_await c->Delete(WorkloadGenerator::LoadedKeyFor(r))).ok());
    }
    (*d)++;
  }(&system.client(0), &done));
  sim::Spawn([](TreeClient* c, int* d) -> sim::Task<void> {
    const Key from = WorkloadGenerator::LoadedKeyFor(180);
    for (int round = 0; round < 25; round++) {
      std::vector<std::pair<Key, uint64_t>> out;
      Status st = co_await c->RangeQuery(from, 350, &out);
      EXPECT_TRUE(st.ok()) << st.ToString();
      Key prev = 0;
      uint64_t even_rank = 180;
      for (const auto& [k, v] : out) {
        EXPECT_GT(k, prev) << "unsorted or duplicated key";
        prev = k;
        if ((k / 2 - 1) % 2 == 0) {
          // Even-ranked keys are stable: none may be skipped.
          EXPECT_EQ(k, WorkloadGenerator::LoadedKeyFor(even_rank))
              << "scan skipped a stable key";
          even_rank += 2;
        }
      }
    }
    (*d)++;
  }(&system.client(1), &done));
  system.simulator().Run();
  ASSERT_EQ(done, 2);
  system.DebugCheckInvariants();
}

TEST(BTreeTest, CacheDisabledStillCorrect) {
  TreeOptions topt = ShermanOptions();
  topt.enable_cache = false;
  ShermanSystem system(SmallFabric(), topt);
  system.BulkLoad(bench::MakeLoadKvs(5'000), 0.8);
  std::map<Key, uint64_t> model;
  for (const auto& kv : bench::MakeLoadKvs(5'000)) model.insert(kv);
  bool done = false;
  sim::Spawn(RandomOps(&system.client(0), 17, 500, 12'000, false, &model,
                       &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
  system.DebugCheckInvariants();
}

TEST(BTreeTest, TinyCacheEvictsButStaysCorrect) {
  TreeOptions topt = ShermanOptions();
  topt.cache_bytes = 4 * 1024;  // room for ~4 level-1 nodes
  ShermanSystem system(SmallFabric(), topt);
  system.BulkLoad(bench::MakeLoadKvs(50'000), 0.8);
  bool done = false;
  sim::Spawn([](TreeClient* c, bool* flag) -> sim::Task<void> {
    Random rng(3);
    for (int i = 0; i < 500; i++) {
      const Key k = 2 * (1 + rng.Uniform(50'000));
      uint64_t v = 0;
      Status st = co_await c->Lookup(k, &v);
      EXPECT_TRUE(st.ok()) << "key " << k;
      EXPECT_EQ(v, k * 31 + 7);
    }
    *flag = true;
  }(&system.client(0), &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
  EXPECT_GT(system.registry().Snapshot().counter("cache.evictions"), 0u);
  // Both tiers stay within their budgets: level-1 nodes inside
  // cache_bytes, upper (level >= 2) nodes inside their dedicated bound.
  const IndexCache& cache = system.client(0).cache();
  EXPECT_LE(cache.bytes_used() - cache.upper_bytes_used(), 4u * 1024);
  EXPECT_LE(cache.upper_bytes_used(), cache.upper_capacity_bytes());
}

// --- range queries across structural boundaries ----------------------------

// A scan whose range straddles a leaf that splits mid-scan: the B-link
// cursor (advance by hi fence, re-validate, restart on fence mismatch)
// must neither skip nor duplicate keys that are stable across the scan.
TEST(RangeBoundaryTest, ScanStraddlesLeafSplit) {
  TreeOptions topt = ShermanOptions();
  topt.shape.node_size = 256;  // small leaves: one insert splits
  ShermanSystem system(SmallFabric(2, 2), topt);
  const uint64_t n = 2'000;
  system.BulkLoad(bench::MakeLoadKvs(n), 1.0);  // full leaves

  // Writer: hammers fresh odd keys inside [lo, hi), forcing splits of the
  // exact leaves the scanner walks. Scanner: repeatedly scans [lo, hi)
  // and checks the stable (bulkloaded, never-written) keys are all there,
  // in order, exactly once.
  const uint64_t lo_rank = 200;
  const uint64_t hi_rank = 800;
  const Key lo = WorkloadGenerator::LoadedKeyFor(lo_rank);  // 402
  int done = 0;
  sim::Spawn([](TreeClient* c, uint64_t lo_r, uint64_t hi_r, int* d)
                 -> sim::Task<void> {
    Random rng(11);
    for (int i = 0; i < 200; i++) {
      const Key odd =
          WorkloadGenerator::LoadedKeyFor(lo_r + rng.Uniform(hi_r - lo_r)) + 1;
      EXPECT_TRUE((co_await c->Insert(odd, odd)).ok());
    }
    (*d)++;
  }(&system.client(0), lo_rank, hi_rank, &done));
  sim::Spawn([](TreeClient* c, Key from, int* d) -> sim::Task<void> {
    for (int round = 0; round < 20; round++) {
      std::vector<std::pair<Key, uint64_t>> out;
      Status st = co_await c->RangeQuery(from, 400, &out);
      EXPECT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(out.size(), 400u);
      Key prev = 0;
      Key even_cursor = from;
      for (const auto& [k, v] : out) {
        EXPECT_GT(k, prev) << "unsorted or duplicated key";
        prev = k;
        if (k % 2 == 0) {
          // Stable bulkloaded keys: none may be skipped by a split.
          EXPECT_EQ(k, even_cursor) << "scan skipped a stable key";
          EXPECT_EQ(v, k * 31 + 7);
          even_cursor = k + 2;
        } else {
          EXPECT_EQ(v, k);  // writer's odd inserts carry value == key
        }
      }
    }
    (*d)++;
  }(&system.client(1), lo, &done));
  system.simulator().Run();
  ASSERT_EQ(done, 2);
  system.DebugCheckInvariants();
  EXPECT_GT(system.DebugHeight(), 1u);
}

// A scan wide enough to cross memory-server boundaries: bulkload spreads
// consecutive leaves round-robin over MSs, so any multi-leaf scan fetches
// from several servers; the result must still be exact and ordered.
TEST(RangeBoundaryTest, ScanCrossesMsBoundaries) {
  ShermanSystem system(SmallFabric(/*ms=*/4, /*cs=*/1), ShermanOptions());
  const uint64_t n = 20'000;
  system.BulkLoad(bench::MakeLoadKvs(n), 0.8);

  // Confirm the scanned range genuinely spans several MSs (leaf walk in
  // host memory).
  {
    const TreeShape& shape = system.options().shape;
    rdma::GlobalAddress addr = system.DebugRootAddr();
    while (true) {
      NodeView view(system.fabric().HostRaw(addr), &shape);
      if (view.is_leaf()) break;
      addr = view.leftmost_child();
    }
    std::set<uint16_t> servers;
    for (int i = 0; i < 40 && !addr.is_null(); i++) {
      servers.insert(addr.node);
      NodeView view(system.fabric().HostRaw(addr), &shape);
      addr = view.sibling();
    }
    ASSERT_GE(servers.size(), 3u) << "leaves not spread across servers";
  }

  bool done = false;
  sim::Spawn([](TreeClient* c, uint64_t keys, bool* flag) -> sim::Task<void> {
    Random rng(23);
    for (int round = 0; round < 10; round++) {
      const uint64_t rank = rng.Uniform(keys - 2'000);
      const Key from = WorkloadGenerator::LoadedKeyFor(rank);
      const uint32_t count = 500 + static_cast<uint32_t>(rng.Uniform(1'000));
      std::vector<std::pair<Key, uint64_t>> out;
      Status st = co_await c->RangeQuery(from, count, &out);
      EXPECT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(out.size(), count);
      for (uint32_t i = 0; i < out.size(); i++) {
        const Key want = from + 2 * i;
        EXPECT_EQ(out[i].first, want);
        EXPECT_EQ(out[i].second, want * 31 + 7);
      }
    }
    *flag = true;
  }(&system.client(0), n, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
}

// --- 4-bit version wraparound guard (§4.4) ----------------------------------
// A leaf READ slower than the wrap guard (~241 us with 1 KB nodes) could
// span a full 4-bit version cycle, so its matching versions prove nothing:
// every leaf-read path must re-read it. The slow READ is real: CS 1 queues
// a flood of large READs at the leaf's MS NIC just before the op's READ,
// whose response then waits behind theirs.

class WrapGuardTest : public ::testing::Test {
 protected:
  static constexpr int kFloodReads = 96;
  static constexpr uint32_t kFloodBytes = 64 << 10;  // 96 x 64 KB: > 500 us

  WrapGuardTest() : WrapGuardTest(ShermanOptions()) {
    system_.BulkLoad(bench::MakeLoadKvs(4'000), 0.8);
  }
  // An unloaded tree of another shape (see VarWrapGuardTest).
  explicit WrapGuardTest(const TreeOptions& topt)
      : system_(SmallFabric(2, 2), topt) {}

  // Caches CS 0's path to `key`, so an op's first READ is the leaf's, and
  // returns the MS the leaf lives on.
  uint16_t WarmLeafMs(Key key) {
    bool done = false;
    sim::Spawn([](TreeClient* c, Key k, bool* flag) -> sim::Task<void> {
      uint64_t v = 0;
      EXPECT_TRUE((co_await c->Lookup(k, &v)).ok());
      *flag = true;
    }(&system_.client(0), key, &done));
    system_.simulator().Run();
    EXPECT_TRUE(done);
    const ParsedInternal* p = system_.client(0).cache().LookupLevel1(key);
    EXPECT_NE(p, nullptr);
    return p == nullptr ? 0 : p->ChildFor(key).node;
  }

  // Runs `op` (on CS 0) right behind the flood at `ms`'s NIC.
  void RunBehindFlood(uint16_t ms, sim::Task<void> op) {
    std::vector<rdma::WorkRequest> wrs;
    for (int i = 0; i < kFloodReads; i++) {
      wrs.push_back(rdma::WorkRequest::Read(rdma::GlobalAddress(ms, 0),
                                            flood_buf_.data(), kFloodBytes));
    }
    sim::Spawn([](rdma::Qp* qp,
                  std::vector<rdma::WorkRequest> reads) -> sim::Task<void> {
      co_await qp->PostReadBatch(std::move(reads));
    }(&system_.fabric().qp(1, ms), std::move(wrs)));
    sim::Spawn(std::move(op));
    system_.simulator().Run();
  }

  ShermanSystem system_;
  std::vector<uint8_t> flood_buf_ = std::vector<uint8_t>(kFloodBytes);
};

TEST_F(WrapGuardTest, LookupRereadsASlowLeaf) {
  const Key key = WorkloadGenerator::LoadedKeyFor(1'000);
  const uint16_t ms = WarmLeafMs(key);
  OpStats stats;
  uint64_t v = 0;
  Status st = Status::Internal("not run");
  RunBehindFlood(ms, [](TreeClient* c, Key k, uint64_t* out, Status* s,
                        OpStats* os) -> sim::Task<void> {
    *s = co_await c->Lookup(k, out, os);
  }(&system_.client(0), key, &v, &st, &stats));
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(v, key * 31 + 7);
  EXPECT_EQ(stats.read_retries, 1u);
}

TEST_F(WrapGuardTest, MultiGetRereadsASlowLeaf) {
  std::vector<Key> keys;
  for (uint64_t r = 1'000; r < 1'006; r++) {
    keys.push_back(WorkloadGenerator::LoadedKeyFor(r));
  }
  const uint16_t ms = WarmLeafMs(keys[0]);
  OpStats stats;
  std::vector<MultiGetResult> res;
  Status st = Status::Internal("not run");
  RunBehindFlood(ms, [](TreeClient* c, std::vector<Key> k,
                        std::vector<MultiGetResult>* out, Status* s,
                        OpStats* os) -> sim::Task<void> {
    *s = co_await c->MultiGet(std::move(k), out, os);
  }(&system_.client(0), keys, &res, &st, &stats));
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(res.size(), keys.size());
  for (size_t i = 0; i < keys.size(); i++) {
    EXPECT_TRUE(res[i].status.ok()) << res[i].status.ToString();
    EXPECT_EQ(res[i].value, keys[i] * 31 + 7);
  }
  EXPECT_GE(stats.read_retries, 1u);
}

TEST_F(WrapGuardTest, RangeQueryRereadsASlowLeaf) {
  const Key from = WorkloadGenerator::LoadedKeyFor(1'000);
  const uint16_t ms = WarmLeafMs(from);
  OpStats stats;
  std::vector<std::pair<Key, uint64_t>> out;
  Status st = Status::Internal("not run");
  RunBehindFlood(ms, [](TreeClient* c, Key k,
                        std::vector<std::pair<Key, uint64_t>>* o, Status* s,
                        OpStats* os) -> sim::Task<void> {
    *s = co_await c->RangeQuery(k, 8, o, os);
  }(&system_.client(0), from, &out, &st, &stats));
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(out.size(), 8u);
  for (uint64_t i = 0; i < out.size(); i++) {
    const Key k = WorkloadGenerator::LoadedKeyFor(1'000 + i);
    EXPECT_EQ(out[i].first, k);
    EXPECT_EQ(out[i].second, k * 31 + 7);
  }
  EXPECT_EQ(stats.read_retries, 1u);
}

// --- variable-length records (slotted leaves + value log) -------------------

TreeOptions VarOptions(uint32_t node_size = 512) {
  TreeOptions t = ShermanOptions();
  t.two_level_versions = false;  // varlen requires sorted leaves
  t.shape.varlen = true;
  t.shape.node_size = node_size;
  return t;
}

std::string VarKey(uint64_t rank) {
  return WorkloadGenerator::StringKeyFor(rank, 16, 40);
}

// Single-coroutine random string ops mirrored into std::map. Value lengths
// are redrawn per write across {empty, inline, threshold, out-of-line}, so
// updates cross the inline threshold in both directions; small leaves make
// heap exhaustion (not slot count) the split trigger.
TEST(VarTreeTest, RandomVarOpsMatchStdMap) {
  ShermanSystem system(SmallFabric(), VarOptions());
  system.BulkLoad({}, 0.8);  // empty start: root growth from a slotted leaf

  std::map<std::string, std::string> model;
  bool done = false;
  sim::Spawn([](TreeClient* c, std::map<std::string, std::string>* model,
                bool* flag) -> sim::Task<void> {
    Random rng(177);
    for (int i = 0; i < 2'500; i++) {
      const std::string key = VarKey(1 + rng.Uniform(400));
      const int action = static_cast<int>(rng.Uniform(4));
      if (action <= 1) {
        const uint64_t d = rng.Uniform(8);
        const uint32_t len =
            d == 0 ? 0
                   : (d < 4 ? 8 + static_cast<uint32_t>(rng.Uniform(56))
                            : (d == 4 ? 64
                                      : 65 + static_cast<uint32_t>(
                                                 rng.Uniform(150))));
        std::string value = "v";
        value += std::to_string(i);
        value += ':';
        if (value.size() > len) value.resize(len);
        value.resize(len, 'x');
        Status st = co_await c->InsertVar(Slice(key), Slice(value));
        EXPECT_TRUE(st.ok()) << st.ToString();
        (*model)[key] = value;
      } else if (action == 2) {
        std::string value;
        Status st = co_await c->LookupVar(Slice(key), &value);
        auto it = model->find(key);
        if (it == model->end()) {
          EXPECT_TRUE(st.IsNotFound()) << key << ": " << st.ToString();
        } else {
          EXPECT_TRUE(st.ok()) << st.ToString();
          EXPECT_EQ(value, it->second) << "key " << key;
        }
      } else {
        Status st = co_await c->DeleteVar(Slice(key));
        if (model->erase(key) > 0) {
          EXPECT_TRUE(st.ok()) << st.ToString();
        } else {
          EXPECT_TRUE(st.IsNotFound()) << st.ToString();
        }
      }
    }
    *flag = true;
  }(&system.client(0), &model, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);

  system.DebugCheckInvariants();
  const auto scan = system.DebugScanLeavesVar();
  ASSERT_EQ(scan.size(), model.size());
  auto it = model.begin();
  for (size_t i = 0; i < scan.size(); i++, ++it) {
    EXPECT_EQ(scan[i].first, it->first);
    EXPECT_EQ(scan[i].second, it->second);
  }
  EXPECT_GT(system.DebugHeight(), 1u) << "run too small to split";
}

// One key updated across the inline threshold in both directions: each
// transition must read back the fresh value, and every out-of-line
// predecessor must be retired (no extent leaks from repeated crossings).
TEST(VarTreeTest, UpdatesCrossInlineThresholdBothWays) {
  ShermanSystem system(SmallFabric(), VarOptions());
  system.BulkLoad({}, 0.8);

  bool done = false;
  uint64_t out_writes = 0;
  sim::Spawn([](TreeClient* c, uint64_t* out_writes,
                bool* flag) -> sim::Task<void> {
    const std::string key = VarKey(7);
    for (int round = 0; round < 10; round++) {
      const bool big = (round % 2 == 0);  // out-of-line on even rounds
      const uint32_t len = big ? 150 + round : 8 + round;
      if (big) (*out_writes)++;
      const std::string value(len, static_cast<char>('a' + round));
      EXPECT_TRUE((co_await c->InsertVar(Slice(key), Slice(value))).ok());
      std::string got;
      Status st = co_await c->LookupVar(Slice(key), &got);
      EXPECT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(got, value) << "round " << round;
    }
    *flag = true;
  }(&system.client(0), &out_writes, &done));
  // Drained: a put posts its retire without waiting for it, so the last
  // one lands after the put returned.
  system.simulator().Run();
  ASSERT_TRUE(done);
  const obs::MetricsSnapshot vs = system.registry().Snapshot();
  EXPECT_EQ(vs.counter("vlog.appends"), out_writes);
  // The final round wrote inline, so every out-of-line extent ever
  // appended was retired by a later crossing — no extent leaks.
  EXPECT_EQ(vs.counter("vlog.retires"), out_writes);
  system.DebugCheckInvariants();
}

// BulkLoadVar stages sorted string records into slotted leaves; every key
// must round-trip through LookupVar and the ordered ScanVar cursor must
// walk leaf chains (prefix-truncated suffixes rehydrated) exactly.
TEST(VarTreeTest, BulkLoadVarRoundTripsAndScans) {
  ShermanSystem system(SmallFabric(), VarOptions());
  std::vector<std::pair<std::string, std::string>> kvs;
  for (uint64_t r = 1; r <= 3'000; r++) {
    kvs.emplace_back(VarKey(r), "blv:" + VarKey(r));
  }
  std::sort(kvs.begin(), kvs.end());
  kvs.erase(std::unique(kvs.begin(), kvs.end(),
                        [](const auto& a, const auto& b) {
                          return a.first == b.first;
                        }),
            kvs.end());
  system.BulkLoadVar(kvs, 0.8);
  system.DebugCheckInvariants();
  EXPECT_GT(system.DebugCountLeaves(), 1u);

  bool done = false;
  sim::Spawn([](TreeClient* c,
                const std::vector<std::pair<std::string, std::string>>* kvs,
                bool* flag) -> sim::Task<void> {
    Random rng(31);
    for (int i = 0; i < 200; i++) {
      const auto& [k, v] = (*kvs)[rng.Uniform(kvs->size())];
      std::string got;
      Status st = co_await c->LookupVar(Slice(k), &got);
      EXPECT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(got, v);
    }
    // An ordered scan from a random interior key crosses leaf boundaries.
    const size_t at = 500;
    std::vector<std::pair<std::string, std::string>> out;
    Status st = co_await c->ScanVar(Slice((*kvs)[at].first), 300, &out);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(out.size(), 300u);
    for (size_t i = 0; i < out.size() && at + i < kvs->size(); i++) {
      EXPECT_EQ(out[i].first, (*kvs)[at + i].first);
      EXPECT_EQ(out[i].second, (*kvs)[at + i].second);
    }
    *flag = true;
  }(&system.client(0), &kvs, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);

  const auto scan = system.DebugScanLeavesVar();
  ASSERT_EQ(scan.size(), kvs.size());
  for (size_t i = 0; i < scan.size(); i++) {
    EXPECT_EQ(scan[i].first, kvs[i].first);
    EXPECT_EQ(scan[i].second, kvs[i].second);
  }
}

// The greedy packing rule BulkLoadVar implements, written the direct way
// as the reference: each routing-key group joins the open leaf unless the
// leaf plus the group, priced by VarBytesNeeded under their common
// prefix, would pass the fill target. Returns each leaf's (lo fence,
// entry count).
std::vector<std::pair<Key, uint32_t>> GreedyVarLeaves(
    const std::vector<std::pair<std::string, std::string>>& kvs,
    const TreeShape& shape, double fill) {
  const uint64_t target = std::max<uint64_t>(
      1, static_cast<uint64_t>(
             static_cast<double>(shape.var_usable_bytes()) * fill));
  std::vector<std::vector<VarEntry>> leaves;
  std::vector<VarEntry> cur;
  size_t i = 0;
  while (i < kvs.size()) {
    const Key rk = RoutingKeyFor(kvs[i].first);
    std::vector<VarEntry> cand = cur;
    size_t j = i;
    for (; j < kvs.size() && RoutingKeyFor(kvs[j].first) == rk; j++) {
      VarEntry e;
      e.key = kvs[j].first;
      e.payload.assign(kvs[j].second.begin(), kvs[j].second.end());
      e.vlen = static_cast<uint16_t>(kvs[j].second.size());
      cand.push_back(std::move(e));
    }
    if (!cur.empty() && VarBytesNeeded(cand, VarCommonPrefix(cand)) > target) {
      leaves.push_back(std::move(cur));
      cur.clear();
      continue;
    }
    cur = std::move(cand);
    i = j;
  }
  if (!cur.empty() || leaves.empty()) leaves.push_back(std::move(cur));
  std::vector<std::pair<Key, uint32_t>> out;
  for (size_t l = 0; l < leaves.size(); l++) {
    const Key lo = l == 0 ? 0 : RoutingKeyFor(leaves[l].front().key);
    out.emplace_back(lo, static_cast<uint32_t>(leaves[l].size()));
  }
  return out;
}

// Random sorted string records that stress the packing arithmetic: keys
// over a 4-letter alphabet (short shared prefixes across groups), groups
// of up to four keys sharing an 8-byte routing prefix, groups sharing a
// long (16-50 byte) prefix, and inline values of 0-64 bytes.
std::vector<std::pair<std::string, std::string>> PackingKvs(uint64_t seed,
                                                            size_t n) {
  Random rng(seed);
  auto letters = [&rng](size_t len) {
    std::string s(len, 'a');
    for (char& c : s) c = static_cast<char>('a' + rng.Uniform(4));
    return s;
  };
  std::map<std::string, std::string> kvs;
  std::map<Key, int> group_size;
  auto add = [&](const std::string& k) {
    int& g = group_size[RoutingKeyFor(k)];
    if (g == 4 || kvs.count(k) != 0) return;
    g++;
    const size_t vlen = rng.Uniform(kInlineThreshold + 1);
    kvs[k] = std::string(vlen, static_cast<char>('A' + rng.Uniform(26)));
  };
  while (kvs.size() < n) {
    switch (rng.Uniform(3)) {
      case 0:
        add(letters(1 + rng.Uniform(40)));
        break;
      case 1: {
        const std::string routing = letters(8);
        for (uint64_t k = 1 + rng.Uniform(4); k > 0; k--) {
          add(routing + letters(1 + rng.Uniform(20)));
        }
        break;
      }
      default: {
        const std::string prefix = letters(16 + rng.Uniform(35));
        for (uint64_t k = 1 + rng.Uniform(4); k > 0; k--) {
          add(prefix + letters(1 + rng.Uniform(64 - prefix.size())));
        }
      }
    }
  }
  return {kvs.begin(), kvs.end()};
}

// BulkLoadVar prices leaves from running byte sums; it must cut exactly
// where the direct greedy rule cuts, at every fill.
TEST(VarTreeTest, BulkLoadVarMatchesGreedyPacking) {
  for (const double fill : {0.5, 0.8, 1.0}) {
    for (uint64_t seed = 1; seed <= 3; seed++) {
      SCOPED_TRACE(testing::Message() << "fill " << fill << " seed " << seed);
      ShermanSystem system(SmallFabric(), VarOptions(1024));
      const auto kvs = PackingKvs(seed, 1'500);
      system.BulkLoadVar(kvs, fill);
      system.DebugCheckInvariants();
      EXPECT_EQ(system.DebugScanLeavesVar(), kvs);

      const TreeShape& shape = system.options().shape;
      std::vector<std::pair<Key, uint32_t>> loaded;
      rdma::GlobalAddress addr = system.DebugRootAddr();
      while (true) {
        NodeView view(system.fabric().HostRaw(addr), &shape);
        if (view.is_leaf()) break;
        addr = view.leftmost_child();
      }
      for (; !addr.is_null();) {
        NodeView view(system.fabric().HostRaw(addr), &shape);
        loaded.emplace_back(view.lo_fence(), view.count());
        addr = view.sibling();
      }
      const auto expected = GreedyVarLeaves(kvs, shape, fill);
      EXPECT_GT(expected.size(), 10u);
      EXPECT_EQ(loaded, expected);
    }
  }
}

// ScanVar's start contract: any byte string up to max_key_len, including
// the empty one and one routing onto the kMaxKey sentinel (nothing sorts
// at or after it); a longer start is an InvalidArgument unless the scan is
// empty.
TEST(VarTreeTest, ScanVarStartContract) {
  ShermanSystem system(SmallFabric(), VarOptions());
  std::vector<std::pair<std::string, std::string>> kvs;
  for (uint64_t r = 1; r <= 100; r++) {
    kvs.emplace_back(VarKey(r), "sc:" + VarKey(r));
  }
  std::sort(kvs.begin(), kvs.end());
  kvs.erase(std::unique(kvs.begin(), kvs.end(),
                        [](const auto& a, const auto& b) {
                          return a.first == b.first;
                        }),
            kvs.end());
  system.BulkLoadVar(kvs, 0.8);
  bool done = false;
  sim::Spawn([](TreeClient* c, uint32_t max_key_len,
                const std::vector<std::pair<std::string, std::string>>* kvs,
                bool* flag) -> sim::Task<void> {
    std::vector<std::pair<std::string, std::string>> out;
    Status st = co_await c->ScanVar(Slice(), 3, &out);
    EXPECT_TRUE(st.ok()) << st.ToString();
    const std::vector<std::pair<std::string, std::string>> first3(
        kvs->begin(), kvs->begin() + 3);
    EXPECT_EQ(out, first3);
    const std::string top(max_key_len, '\xff');
    st = co_await c->ScanVar(Slice(top), 3, &out);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_TRUE(out.empty());
    const std::string too_long(max_key_len + 1, 'k');
    st = co_await c->ScanVar(Slice(too_long), 3, &out);
    EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
    st = co_await c->ScanVar(Slice(too_long), 0, &out);
    EXPECT_TRUE(st.ok()) << st.ToString();
    *flag = true;
  }(&system.client(0), system.options().shape.max_key_len, &kvs, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
}

// Batched varlen paths: MultiInsertVar with an in-batch duplicate (the
// later write must win and the superseded extent retire), MultiGetVar
// answering present and absent keys positionally.
TEST(VarTreeTest, MultiInsertVarAndMultiGetVarRoundTrip) {
  ShermanSystem system(SmallFabric(), VarOptions());
  system.BulkLoad({}, 0.8);

  bool done = false;
  sim::Spawn([](TreeClient* c, bool* flag) -> sim::Task<void> {
    std::vector<std::pair<std::string, std::string>> kvs;
    for (uint64_t r = 1; r <= 40; r++) {
      kvs.emplace_back(VarKey(r), std::string(r % 2 == 0 ? 120 : 24,
                                              static_cast<char>('a' + r % 26)));
    }
    kvs.emplace_back(VarKey(5), std::string(200, 'Z'));  // duplicate: wins
    EXPECT_TRUE((co_await c->MultiInsertVar(kvs)).ok());

    std::vector<std::string> keys;
    for (uint64_t r = 1; r <= 40; r++) keys.push_back(VarKey(r));
    keys.push_back(VarKey(9'999));  // absent
    std::vector<VarGetResult> got;
    Status st = co_await c->MultiGetVar(keys, &got);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(got.size(), keys.size());
    if (got.size() != keys.size()) {
      *flag = true;
      co_return;
    }
    for (uint64_t r = 1; r <= 40; r++) {
      const VarGetResult& g = got[r - 1];
      EXPECT_TRUE(g.status.ok()) << "rank " << r << ": "
                                 << g.status.ToString();
      if (r == 5) {
        EXPECT_EQ(g.value, std::string(200, 'Z'));
      } else {
        EXPECT_EQ(g.value, std::string(r % 2 == 0 ? 120 : 24,
                                       static_cast<char>('a' + r % 26)));
      }
    }
    EXPECT_TRUE(got.back().status.IsNotFound());
    *flag = true;
  }(&system.client(0), &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
  system.DebugCheckInvariants();
}


// --- the wraparound guard on a varlen tree -----------------------------------

// Eight-digit decimal keys: byte order is numeric order, and each key is
// its own routing key.
std::string PinKey(uint64_t n) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08llu", static_cast<unsigned long long>(n));
  return buf;
}

// WrapGuardTest's slow READ against the varlen read paths: the swizzle
// fast path (leaf and value READ together), the batched leaf fetch and
// the scan. 1 KB nodes keep the guard at ~241 us, below the flood.
class VarWrapGuardTest : public WrapGuardTest {
 protected:
  VarWrapGuardTest() : WrapGuardTest(VarOptions(1'024)) {
    std::vector<std::pair<std::string, std::string>> kvs;
    for (uint64_t n = 1; n <= 4'000; n++) {
      kvs.emplace_back(PinKey(n), "wg:" + PinKey(n));
    }
    system_.BulkLoadVar(kvs, 0.8);
  }

  // Writes `value` under `key` through CS 0, which caches its path (and,
  // for an out-of-line value, its swizzled pointer), and returns the MS
  // its leaf lives on.
  uint16_t WarmVarLeafMs(const std::string& key, const std::string& value) {
    bool done = false;
    sim::Spawn([](TreeClient* c, std::string k, std::string v,
                  bool* flag) -> sim::Task<void> {
      EXPECT_TRUE((co_await c->InsertVar(Slice(k), Slice(v))).ok());
      *flag = true;
    }(&system_.client(0), key, value, &done));
    system_.simulator().Run();
    EXPECT_TRUE(done);
    const Key rk = RoutingKeyFor(Slice(key));
    const ParsedInternal* p = system_.client(0).cache().LookupLevel1(rk);
    EXPECT_NE(p, nullptr);
    return p == nullptr ? 0 : p->ChildFor(rk).node;
  }
};

TEST_F(VarWrapGuardTest, SwizzledLookupVarRereadsASlowLeaf) {
  const std::string key = PinKey(1'000);
  const std::string outline(100, 'o');
  const uint16_t ms = WarmVarLeafMs(key, outline);
  OpStats stats;
  std::string v;
  Status st = Status::Internal("not run");
  RunBehindFlood(ms, [](TreeClient* c, std::string k, std::string* out,
                        Status* s, OpStats* os) -> sim::Task<void> {
    *s = co_await c->LookupVar(Slice(k), out, os);
  }(&system_.client(0), key, &v, &st, &stats));
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(v, outline);
  EXPECT_EQ(stats.read_retries, 1u);
}

TEST_F(VarWrapGuardTest, MultiGetVarRereadsASlowLeaf) {
  std::vector<std::string> keys;
  for (uint64_t n = 1'000; n < 1'006; n++) keys.push_back(PinKey(n));
  const uint16_t ms = WarmVarLeafMs(keys[0], "wg:" + keys[0]);
  OpStats stats;
  std::vector<VarGetResult> res;
  Status st = Status::Internal("not run");
  RunBehindFlood(ms, [](TreeClient* c, std::vector<std::string> k,
                        std::vector<VarGetResult>* out, Status* s,
                        OpStats* os) -> sim::Task<void> {
    *s = co_await c->MultiGetVar(std::move(k), out, os);
  }(&system_.client(0), keys, &res, &st, &stats));
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(res.size(), keys.size());
  for (size_t i = 0; i < keys.size(); i++) {
    EXPECT_TRUE(res[i].status.ok()) << res[i].status.ToString();
    EXPECT_EQ(res[i].value, "wg:" + keys[i]);
  }
  EXPECT_GE(stats.read_retries, 1u);
}

TEST_F(VarWrapGuardTest, ScanVarRereadsASlowLeaf) {
  const std::string from = PinKey(1'000);
  const uint16_t ms = WarmVarLeafMs(from, "wg:" + from);
  OpStats stats;
  std::vector<std::pair<std::string, std::string>> out;
  Status st = Status::Internal("not run");
  RunBehindFlood(ms, [](TreeClient* c, std::string k,
                        std::vector<std::pair<std::string, std::string>>* o,
                        Status* s, OpStats* os) -> sim::Task<void> {
    *s = co_await c->ScanVar(Slice(k), 8, o, os);
  }(&system_.client(0), from, &out, &st, &stats));
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(out.size(), 8u);
  for (uint64_t i = 0; i < out.size(); i++) {
    EXPECT_EQ(out[i].first, PinKey(1'000 + i));
    EXPECT_EQ(out[i].second, "wg:" + PinKey(1'000 + i));
  }
  EXPECT_EQ(stats.read_retries, 1u);
}

// --- whole-tree scans -------------------------------------------------------

// A scan of every key of a quiescent tree takes hundreds of fetch batches
// (thousands of leaves); only restarts may count against its bound.
TEST(LongScanTest, RangeQueryReturnsEveryKey) {
  TreeOptions topt = ShermanOptions();
  topt.shape.node_size = 256;
  ShermanSystem system(SmallFabric(), topt);
  const uint64_t n = 20'000;
  system.BulkLoad(bench::MakeLoadKvs(n), 0.8);
  bool done = false;
  sim::Spawn([](TreeClient* c, uint64_t keys, bool* flag) -> sim::Task<void> {
    std::vector<std::pair<Key, uint64_t>> out;
    Status st = co_await c->RangeQuery(1, static_cast<uint32_t>(keys), &out);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(out.size(), keys);
    for (uint64_t i = 0; i < out.size(); i++) {
      const Key want = WorkloadGenerator::LoadedKeyFor(i);
      if (out[i] != std::pair<Key, uint64_t>(want, want * 31 + 7)) {
        ADD_FAILURE() << "entry " << i << " is key " << out[i].first;
        break;
      }
    }
    *flag = true;
  }(&system.client(0), n, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
}

TEST(LongScanTest, ScanVarReturnsEveryKey) {
  ShermanSystem system(SmallFabric(), VarOptions());
  const uint64_t n = 80'000;
  std::vector<std::pair<std::string, std::string>> kvs;
  for (uint64_t i = 1; i <= n; i++) {
    kvs.emplace_back(PinKey(i), std::string(40, 'a' + i % 26));
  }
  system.BulkLoadVar(kvs, 0.5);
  bool done = false;
  sim::Spawn([](TreeClient* c,
                const std::vector<std::pair<std::string, std::string>>* want,
                bool* flag) -> sim::Task<void> {
    std::vector<std::pair<std::string, std::string>> out;
    // The empty start sorts before every key.
    Status st = co_await c->ScanVar(
        Slice(), static_cast<uint32_t>(want->size()) + 1, &out);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(out.size(), want->size());
    for (size_t i = 0; i < out.size() && i < want->size(); i++) {
      if (out[i] != (*want)[i]) {
        ADD_FAILURE() << "entry " << i << " is key " << out[i].first;
        break;
      }
    }
    *flag = true;
  }(&system.client(0), &kvs, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
}

// --- scan batch planning ---------------------------------------------------
// Scan plans each READ batch from the cached level-1 child fences and the
// leaf fill its scans observed, across adjacent cached level-1 nodes. A
// plan gone wrong (leaves fuller or thinner than that fill, a level-1 node
// split under the cache) costs a second batch or a restart, never an
// entry: every range is checked against a std::map model.

class ScanPlanTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kKeys = 20'000;

  // What a set of ranges cost: READs, and the leaves their results span.
  struct Cost {
    uint64_t reads = 0;
    uint64_t spanned = 0;
  };

  ScanPlanTest() : system_(SmallFabric(2, 2), ShermanOptions()) {
    const std::vector<std::pair<Key, uint64_t>> kvs =
        bench::MakeLoadKvs(kKeys);
    system_.BulkLoad(kvs, 0.8);
    model_.insert(kvs.begin(), kvs.end());
  }

  // Caches every level-1 node on CS 0: a lookup every 20 keys.
  void SetUp() override {
    Run([](TreeClient* c) -> sim::Task<void> {
      for (uint64_t r = 0; r < kKeys; r += 20) {
        uint64_t v = 0;
        const Status st =
            co_await c->Lookup(WorkloadGenerator::LoadedKeyFor(r), &v);
        EXPECT_TRUE(st.ok()) << st.ToString();
      }
    }(&system_.client(0)));
  }

  void Run(sim::Task<void> task) {
    bool done = false;
    sim::Spawn([](sim::Task<void> t, bool* flag) -> sim::Task<void> {
      co_await std::move(t);
      *flag = true;
    }(std::move(task), &done));
    system_.simulator().Run();
    ASSERT_TRUE(done);
  }

  // `n` loaded keys drawn with seed `seed` among ranks [lo, hi).
  static std::vector<Key> Starts(uint64_t seed, int n, uint64_t lo,
                                 uint64_t hi) {
    Random rng(seed);
    std::vector<Key> froms;
    for (int i = 0; i < n; i++) {
      froms.push_back(
          WorkloadGenerator::LoadedKeyFor(lo + rng.Uniform(hi - lo)));
    }
    return froms;
  }

  // Lo fences of the live leaves in key order, walked in MS memory.
  std::vector<Key> LeafLos() {
    const TreeShape& shape = system_.options().shape;
    rdma::GlobalAddress addr = system_.DebugRootAddr();
    while (!NodeView(system_.fabric().HostRaw(addr), &shape).is_leaf()) {
      addr = NodeView(system_.fabric().HostRaw(addr), &shape).leftmost_child();
    }
    std::vector<Key> los;
    while (!addr.is_null()) {
      NodeView view(system_.fabric().HostRaw(addr), &shape);
      los.push_back(view.lo_fence());
      addr = view.sibling();
    }
    return los;
  }

  // RangeQuery(from, count) on CS `cs` from each start, each result equal
  // to the model's.
  Cost CheckRanges(int cs, std::vector<Key> froms, uint32_t count) {
    Cost cost;
    std::vector<std::pair<Key, Key>> bounds;  // each result's first, last
    Run([](TreeClient* c, const std::map<Key, uint64_t>* model,
           std::vector<Key> starts, uint32_t n, uint64_t* reads,
           std::vector<std::pair<Key, Key>>* spans) -> sim::Task<void> {
      for (Key from : starts) {
        OpStats stats;
        std::vector<std::pair<Key, uint64_t>> out;
        const Status st = co_await c->RangeQuery(from, n, &out, &stats);
        EXPECT_TRUE(st.ok()) << st.ToString();
        std::vector<std::pair<Key, uint64_t>> want;
        for (auto it = model->lower_bound(from);
             it != model->end() && want.size() < n; ++it) {
          want.push_back(*it);
        }
        EXPECT_EQ(out, want) << "range of " << n << " from " << from;
        *reads += stats.round_trips;
        if (!out.empty()) {
          spans->emplace_back(out.front().first, out.back().first);
        }
      }
    }(&system_.client(cs), &model_, std::move(froms), count, &cost.reads,
      &bounds));
    const std::vector<Key> los = LeafLos();
    auto leaf_of = [&los](Key k) {
      return std::upper_bound(los.begin(), los.end(), k) - los.begin();
    };
    for (const auto& [first, last] : bounds) {
      cost.spanned += leaf_of(last) - leaf_of(first) + 1;
    }
    return cost;
  }

  // Inserts `keys` (value key + 1) and deletes `dels` through CS `cs`,
  // mirroring both into the model.
  void Write(int cs, std::vector<Key> keys, std::vector<Key> dels) {
    for (Key k : keys) model_[k] = k + 1;
    for (Key k : dels) model_.erase(k);
    Run([](TreeClient* c, std::vector<Key> ins,
           std::vector<Key> rm) -> sim::Task<void> {
      for (Key k : ins) {
        const Status st = co_await c->Insert(k, k + 1);
        EXPECT_TRUE(st.ok()) << st.ToString();
      }
      for (Key k : rm) {
        const Status st = co_await c->Delete(k);
        EXPECT_TRUE(st.ok()) << st.ToString();
      }
    }(&system_.client(cs), std::move(keys), std::move(dels)));
  }

  ShermanSystem system_;
  std::map<Key, uint64_t> model_;
};

// Planned at a fixed leaf_capacity / 2 entries per leaf, these ranges read
// ~20% more leaves than their results span; planned from the fences and
// the observed fill (~43 entries at this bulk fill), within 5%.
TEST_F(ScanPlanTest, ReadsAboutTheLeavesARangeSpans) {
  const Cost cost = CheckRanges(0, Starts(11, 200, 0, kKeys - 100), 100);
  ASSERT_GT(cost.spanned, 0u);
  EXPECT_GE(cost.reads, cost.spanned);
  EXPECT_LE(static_cast<double>(cost.reads),
            1.05 * static_cast<double>(cost.spanned))
      << cost.reads << " READs for " << cost.spanned << " spanned leaves";
}

#if SHERMAN_TRACE_ENABLED
// A range from the start of a cached level-1 node's last leaf runs on into
// its cached right neighbour: one batch of parallel READs fetches both
// nodes' leaves.
TEST_F(ScanPlanTest, OneBatchAcrossTwoCachedLevel1Nodes) {
  CheckRanges(0, Starts(12, 20, 0, kKeys - 100), 100);  // learn the fill
  IndexCache& cache = system_.client(0).cache();
  const ParsedInternal* p =
      cache.LookupLevel1(WorkloadGenerator::LoadedKeyFor(kKeys / 2));
  ASSERT_NE(p, nullptr);
  ASSERT_FALSE(p->entries.empty());
  const Key from = p->entries.back().first;
  const Key boundary = p->hi;
  const ParsedInternal* next = cache.LookupLevel1(boundary);
  ASSERT_NE(next, nullptr);
  ASSERT_EQ(next->lo, boundary);

  std::vector<std::pair<Key, uint64_t>> out;
  Run([](ShermanSystem* s, Key k,
         std::vector<std::pair<Key, uint64_t>>* o) -> sim::Task<void> {
    obs::TraceCtx ctx =
        obs::TraceCtx::For(&s->tracer(), obs::RingId::Client(0));
    OpStats stats;
    stats.trace = &ctx;
    SHERMAN_TSPAN(&ctx, "op.range");
    const Status st = co_await s->client(0).RangeQuery(k, 100, o, &stats);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }(&system_, from, &out));
  ASSERT_EQ(out.size(), 100u);
  ASSERT_GE(out.back().first, boundary) << "the range ends in the first node";
  EXPECT_EQ(out.front(), (std::pair<Key, uint64_t>(*model_.lower_bound(from))));

  const std::vector<Key> los = LeafLos();
  const auto first = std::upper_bound(los.begin(), los.end(), from);
  const auto last = std::upper_bound(los.begin(), los.end(), out.back().first);
  const obs::TraceRing* ring =
      system_.tracer().FindRing(obs::RingId::Client(0));
  ASSERT_NE(ring, nullptr);
  std::vector<uint64_t> batches;  // leaves per rdma.read_batch
  ring->ForEach([&](const obs::SpanRecord& r) {
    if (std::string(r.name) == "rdma.read_batch") batches.push_back(r.a0);
  });
  EXPECT_EQ(batches,
            std::vector<uint64_t>{static_cast<uint64_t>(last - first + 1)});
}
#endif  // SHERMAN_TRACE_ENABLED

// Once the fill is learned, leaves fuller and thinner than it, and a
// neighbour level-1 node that CS 1 split after CS 0 cached it, still give
// CS 0 the model's ranges.
TEST_F(ScanPlanTest, StalePlansNeverLoseEntries) {
  CheckRanges(0, Starts(13, 50, 0, kKeys - 100), 100);  // learn the fill
  const uint32_t cap = system_.options().shape.leaf_capacity();

  // Ranks [2000, 4000): CS 1 fills each leaf to capacity with the odd key
  // after each of its first loaded keys.
  const std::vector<Key> los = LeafLos();
  std::vector<Key> fill_up;
  for (size_t i = 0; i + 1 < los.size(); i++) {
    if (los[i] < WorkloadGenerator::LoadedKeyFor(2'000) ||
        los[i] >= WorkloadGenerator::LoadedKeyFor(4'000)) {
      continue;
    }
    auto it = model_.lower_bound(los[i]);
    const auto end = model_.lower_bound(los[i + 1]);
    const size_t live = std::distance(it, end);
    for (size_t n = live; n < cap; n++, ++it) fill_up.push_back(it->first + 1);
  }
  // Ranks [8000, 10000): CS 1 deletes three loaded keys in four.
  std::vector<Key> thin;
  for (uint64_t r = 8'000; r < 10'000; r++) {
    if (r % 4 != 0) thin.push_back(WorkloadGenerator::LoadedKeyFor(r));
  }
  ASSERT_FALSE(fill_up.empty());
  Write(1, fill_up, thin);
  CheckRanges(0, Starts(14, 100, 1'900, 4'000), 100);
  CheckRanges(0, Starts(15, 100, 7'900, 10'000), 100);

  // CS 1 splits the cached right neighbour of the level-1 node covering
  // rank 14,000: an odd key after every loaded key in it doubles its
  // leaves.
  IndexCache& cache = system_.client(0).cache();
  const ParsedInternal* p =
      cache.LookupLevel1(WorkloadGenerator::LoadedKeyFor(14'000));
  ASSERT_NE(p, nullptr);
  const Key boundary = p->hi;
  const Key tail = p->entries.empty() ? p->lo : p->entries.back().first;
  const ParsedInternal* next = cache.LookupLevel1(boundary);
  ASSERT_NE(next, nullptr);
  ASSERT_EQ(next->lo, boundary);
  const rdma::GlobalAddress next_addr = next->self;
  const Key next_hi = next->hi;
  std::vector<Key> grow;
  for (auto it = model_.lower_bound(boundary);
       it != model_.end() && it->first < next_hi; ++it) {
    grow.push_back(it->first + 1);
  }
  Write(1, grow, {});
  const NodeView split(system_.fabric().HostRaw(next_addr),
                       &system_.options().shape);
  ASSERT_LT(split.hi_fence(), next_hi) << "the neighbour did not split";

  // From the cached node's last leaves into the split neighbour, and from
  // loaded keys within the neighbour (loaded key 2 * (rank + 1)).
  std::vector<Key> froms =
      Starts(16, 50, boundary / 2 - 1, next_hi / 2 - 1);
  froms.insert(froms.begin(), {tail, tail + 1, boundary - 1});
  CheckRanges(0, froms, 100);
  CheckRanges(0, {tail}, 300);
  system_.DebugCheckInvariants();
}

// --- per-op cost pins --------------------------------------------------------

// One public op's cost on a quiescent single-client tree: its OpStats and
// its simulated latency.
struct OpCost {
  std::string op;
  uint32_t round_trips = 0;
  uint32_t read_retries = 0;
  uint32_t lock_retries = 0;
  uint64_t bytes_written = 0;
  uint32_t cache_hits = 0;
  uint32_t cache_misses = 0;
  sim::SimTime latency_ns = 0;
};

// Renders costs as the initializer rows of the expected tables below, so a
// mismatch prints both tables line by line.
std::string CostTable(const std::vector<OpCost>& costs) {
  std::string out;
  for (const OpCost& c : costs) {
    out += "{\"" + c.op + "\", " + std::to_string(c.round_trips) + ", " +
           std::to_string(c.read_retries) + ", " +
           std::to_string(c.lock_retries) + ", " +
           std::to_string(c.bytes_written) + ", " +
           std::to_string(c.cache_hits) + ", " +
           std::to_string(c.cache_misses) + ", " +
           std::to_string(c.latency_ns) + "},\n";
  }
  return out;
}

// Records the cost of each op run through Run(). Next() names the op,
// resets stats() and starts its clock. (Names stay out of
// the co_await expression: GCC rejects string literals there.)
class CostLog {
 public:
  explicit CostLog(sim::Simulator* sim) : sim_(sim) {}
  void Next(std::string name) {
    name_ = std::move(name);
    stats_.Reset();
    start_ = sim_->now();
  }
  OpStats* stats() { return &stats_; }
  sim::Task<Status> Run(sim::Task<Status> op) {
    const Status st = co_await std::move(op);
    EXPECT_TRUE(st.ok() || st.IsNotFound()) << name_ << ": " << st.ToString();
    costs.push_back(OpCost{name_, stats_.round_trips, stats_.read_retries,
                           stats_.lock_retries, stats_.bytes_written,
                           stats_.cache_hits, stats_.cache_misses,
                           sim_->now() - start_});
    co_return st;
  }
  std::vector<OpCost> costs;

 private:
  sim::Simulator* sim_;
  std::string name_;
  OpStats stats_;
  sim::SimTime start_ = 0;
};

// Fixed records on 256-byte nodes (11 entries per leaf), loaded half full:
// keys 10, 20, ..., 2000, five per leaf.
std::vector<OpCost> FixedOpCosts(TreeOptions topt) {
  topt.shape.node_size = 256;
  ShermanSystem system(SmallFabric(), topt);
  std::vector<std::pair<Key, uint64_t>> kvs;
  for (Key k = 10; k <= 2000; k += 10) kvs.emplace_back(k, k + 1);
  system.BulkLoad(kvs, 0.5);
  const size_t leaves = system.DebugCountLeaves();
  CostLog log(&system.simulator());
  bool done = false;
  sim::Spawn([](TreeClient* c, CostLog* log, bool* flag) -> sim::Task<void> {
    uint64_t v = 0;
    log->Next("lookup.cold");
    co_await log->Run(c->Lookup(500, &v, log->stats()));
    EXPECT_EQ(v, 501u);
    log->Next("lookup.cached");
    co_await log->Run(c->Lookup(500, &v, log->stats()));
    log->Next("insert.update");
    co_await log->Run(c->Insert(500, 7, log->stats()));
    // Six new keys fill 500's leaf; the seventh splits it.
    for (Key k = 501; k <= 507; k++) {
      log->Next(k == 507 ? "insert.split" : "insert.new");
      co_await log->Run(c->Insert(k, k, log->stats()));
    }
    log->Next("delete.plain");
    co_await log->Run(c->Delete(1000, log->stats()));
    // Leaf [1510, 1560): its third delete leaves 2 of 11 live and merges
    // it into the five-entry leaf on its left.
    log->Next("delete.plain");
    co_await log->Run(c->Delete(1510, log->stats()));
    log->Next("delete.plain");
    co_await log->Run(c->Delete(1520, log->stats()));
    log->Next("delete.merge");
    co_await log->Run(c->Delete(1530, log->stats()));
    std::vector<std::pair<Key, uint64_t>> range;
    log->Next("range");
    co_await log->Run(c->RangeQuery(300, 20, &range, log->stats()));
    EXPECT_EQ(range.size(), 20u);
    std::vector<MultiGetResult> got;
    std::vector<Key> get_keys = {100, 200, 205, 300, 1000};
    log->Next("multiget");
    co_await log->Run(c->MultiGet(get_keys, &got, log->stats()));
    std::vector<std::pair<Key, uint64_t>> put_kvs = {
        {110, 1}, {111, 2}, {1200, 3}};
    log->Next("multiinsert");
    co_await log->Run(c->MultiInsert(put_kvs, log->stats()));
    std::vector<Status> del;
    std::vector<Key> del_keys = {111, 1200, 1205};
    log->Next("multidelete");
    co_await log->Run(c->MultiDelete(del_keys, &del, log->stats()));
    *flag = true;
  }(&system.client(0), &log, &done));
  system.simulator().Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(system.registry().Snapshot().counter("reclaim.leaf_merges"), 1u);
  EXPECT_EQ(system.DebugCountLeaves(), leaves);  // one split, one merge
  system.DebugCheckInvariants();
  return log.costs;
}

// Varlen records on 512-byte nodes, bulk loaded half full with 40-byte
// inline values under keys "00000010" ... "00002000".
std::vector<OpCost> VarOpCosts() {
  ShermanSystem system(SmallFabric(), VarOptions());
  std::vector<std::pair<std::string, std::string>> kvs;
  for (uint64_t n = 10; n <= 2000; n += 10) {
    kvs.emplace_back(PinKey(n), std::string(40, 'a' + n % 26));
  }
  system.BulkLoadVar(kvs, 0.5);
  const size_t leaves = system.DebugCountLeaves();
  CostLog log(&system.simulator());
  uint64_t relocated = 0;
  bool done = false;
  sim::Spawn([](TreeClient* c, CostLog* log, uint64_t* relocated,
                bool* flag) -> sim::Task<void> {
    const std::string inline8(8, 'i');
    const std::string inline60(60, 'j');
    const std::string outline(100, 'o');
    std::string v;
    log->Next("lookupvar.cold");
    co_await log->Run(c->LookupVar(Slice(PinKey(500)), &v, log->stats()));
    log->Next("lookupvar.cached");
    co_await log->Run(c->LookupVar(Slice(PinKey(500)), &v, log->stats()));
    log->Next("insertvar.update");
    co_await log->Run(
        c->InsertVar(Slice(PinKey(500)), Slice(inline8), log->stats()));
    log->Next("insertvar.outline");
    co_await log->Run(
        c->InsertVar(Slice(PinKey(505)), Slice(outline), log->stats()));
    log->Next("lookupvar.swizzled");
    co_await log->Run(c->LookupVar(Slice(PinKey(505)), &v, log->stats()));
    EXPECT_EQ(v, outline);
    // 60-byte inline values fill 500's leaf; the fourth splits it.
    for (uint64_t n = 501; n <= 504; n++) {
      log->Next(n == 504 ? "insertvar.split" : "insertvar.new");
      co_await log->Run(
          c->InsertVar(Slice(PinKey(n)), Slice(inline60), log->stats()));
    }
    log->Next("deletevar.plain");
    co_await log->Run(c->DeleteVar(Slice(PinKey(1000)), log->stats()));
    // The second delete leaves 1500's leaf under a quarter of its byte
    // budget and merges it into its left neighbour.
    log->Next("deletevar.plain");
    co_await log->Run(c->DeleteVar(Slice(PinKey(1500)), log->stats()));
    log->Next("deletevar.merge");
    co_await log->Run(c->DeleteVar(Slice(PinKey(1510)), log->stats()));
    std::vector<std::pair<std::string, std::string>> scan;
    log->Next("scanvar");
    co_await log->Run(c->ScanVar(Slice(PinKey(300)), 10, &scan, log->stats()));
    EXPECT_EQ(scan.size(), 10u);
    std::vector<VarGetResult> got;
    std::vector<std::string> get_keys = {PinKey(100), PinKey(505),
                                         PinKey(12345), PinKey(200)};
    log->Next("multigetvar");
    co_await log->Run(c->MultiGetVar(get_keys, &got, log->stats()));
    std::vector<std::pair<std::string, std::string>> put_kvs = {
        {PinKey(111), inline8}, {PinKey(112), outline}, {PinKey(113), inline8}};
    log->Next("multiinsertvar");
    co_await log->Run(c->MultiInsertVar(put_kvs, log->stats()));
    // Two of the segment's out-of-line records die, so it passes the GC
    // threshold. The first pass only seals it (a segment sealed under a
    // live pin is not yet a victim); the second relocates its live records.
    for (uint64_t n = 2001; n <= 2004; n++) {
      log->Next("insertvar.outline");
      co_await log->Run(
          c->InsertVar(Slice(PinKey(n)), Slice(outline), log->stats()));
    }
    log->Next("insertvar.inline");
    co_await log->Run(
        c->InsertVar(Slice(PinKey(2001)), Slice(inline8), log->stats()));
    log->Next("deletevar.outline");
    co_await log->Run(c->DeleteVar(Slice(PinKey(2002)), log->stats()));
    log->Next("vlog.gc.seal");
    co_await log->Run(c->VlogGcOnce(relocated, log->stats()));
    log->Next("vlog.gc");
    co_await log->Run(c->VlogGcOnce(relocated, log->stats()));
    log->Next("lookupvar.relocated");
    co_await log->Run(c->LookupVar(Slice(PinKey(2003)), &v, log->stats()));
    EXPECT_EQ(v, outline);
    *flag = true;
  }(&system.client(0), &log, &relocated, &done));
  system.simulator().Run();
  EXPECT_TRUE(done);
  EXPECT_GT(relocated, 0u);
  EXPECT_EQ(system.registry().Snapshot().counter("reclaim.leaf_merges"), 1u);
  EXPECT_EQ(system.DebugCountLeaves(), leaves);  // one split, one merge
  system.DebugCheckInvariants();
  return log.costs;
}

// Expected costs, in OpCost field order. Any change to an op's round
// trips, retries, written bytes or simulated latency shows up here.
// A split row ends at the split's commit: the parent link runs after the
// ack (TreeClient::LinkLeafSplit), so the row after it absorbs the
// linker's traffic. A cross-MS split's sibling WRITE rides beside its
// intent WRITE and counts no round trip of its own. A merge posts its
// leaf's free and does not wait for it. Without command combination a
// delete's two write-back ranges (header, shifted suffix) share one
// doorbell batch, and the release follows. A put or delete that
// supersedes an out-of-line value posts its retire without waiting;
// vlog.gc.seal queues behind the last such retire at the memory thread.
// An out-of-line put's value WRITE rides beside its lock CAS and leaf
// READ and still counts a round trip. It costs 258 ns over an inline
// put: the CAS response queues behind the WRITE's ack on the MS's TX
// engine. The first one also pays its segment's register RPC before the
// lock. The splitting put's cached parent learns the split at its commit,
// so multigetvar reads 505 from the split's sibling without a chase, and a
// range collects each leaf as its own READ lands.
const std::vector<OpCost> kShermanFixedCosts = {
    {"lookup.cold", 5, 0, 0, 0, 0, 1, 9678},
    {"lookup.cached", 1, 0, 0, 0, 1, 0, 2383},
    {"insert.update", 3, 0, 0, 18, 1, 0, 5394},
    {"insert.new", 3, 0, 0, 18, 1, 0, 5394},
    {"insert.new", 3, 0, 0, 18, 1, 0, 5394},
    {"insert.new", 3, 0, 0, 18, 1, 0, 5394},
    {"insert.new", 3, 0, 0, 18, 1, 0, 5394},
    {"insert.new", 3, 0, 0, 18, 1, 0, 5394},
    {"insert.new", 3, 0, 0, 18, 1, 0, 5394},
    {"insert.split", 4, 0, 0, 512, 1, 0, 16768},
    {"delete.plain", 4, 0, 0, 18, 0, 1, 7614},
    {"delete.plain", 4, 0, 0, 18, 0, 1, 7227},
    {"delete.plain", 3, 0, 0, 18, 1, 0, 5394},
    {"delete.merge", 12, 0, 0, 768, 1, 0, 21440},
    {"range", 6, 0, 0, 0, 0, 1, 7249},
    {"multiget", 1, 0, 0, 0, 5, 0, 3649},
    {"multiinsert", 7, 0, 0, 54, 2, 1, 7928},
    {"multidelete", 6, 0, 0, 36, 3, 0, 5716},
};

const std::vector<OpCost> kFgFixedCosts = {
    {"lookup.cold", 5, 0, 0, 0, 0, 1, 9578},
    {"lookup.cached", 1, 0, 0, 0, 1, 0, 2283},
    {"insert.update", 4, 0, 0, 256, 1, 0, 7908},
    {"insert.new", 4, 0, 0, 256, 1, 0, 7908},
    {"insert.new", 4, 0, 0, 256, 1, 0, 7908},
    {"insert.new", 4, 0, 0, 256, 1, 0, 7908},
    {"insert.new", 4, 0, 0, 256, 1, 0, 7908},
    {"insert.new", 4, 0, 0, 256, 1, 0, 7908},
    {"insert.new", 4, 0, 0, 256, 1, 0, 7908},
    {"insert.split", 5, 0, 0, 512, 1, 0, 19246},
    {"delete.plain", 5, 0, 0, 66, 0, 1, 10495},
    {"delete.plain", 5, 0, 0, 138, 0, 1, 10112},
    {"delete.plain", 4, 0, 0, 120, 1, 0, 8278},
    {"delete.merge", 14, 0, 0, 768, 1, 0, 27387},
    {"range", 6, 0, 0, 0, 0, 1, 6749},
    {"multiget", 1, 0, 0, 0, 5, 0, 3149},
    {"multiinsert", 9, 0, 0, 512, 2, 1, 9941},
    {"multidelete", 8, 0, 0, 204, 3, 0, 8497},
};

const std::vector<OpCost> kVarCosts = {
    {"lookupvar.cold", 5, 0, 0, 0, 0, 1, 9802},
    {"lookupvar.cached", 1, 0, 0, 0, 1, 0, 2339},
    {"insertvar.update", 3, 0, 0, 512, 1, 0, 5442},
    {"insertvar.outline", 5, 0, 0, 624, 1, 0, 18591},
    {"lookupvar.swizzled", 1, 0, 0, 0, 1, 0, 2349},
    {"insertvar.new", 3, 0, 0, 512, 1, 0, 5442},
    {"insertvar.new", 3, 0, 0, 512, 1, 0, 5442},
    {"insertvar.new", 3, 0, 0, 512, 1, 0, 5442},
    {"insertvar.split", 4, 0, 0, 1024, 1, 0, 8574},
    {"deletevar.plain", 4, 0, 0, 512, 0, 1, 7774},
    {"deletevar.plain", 4, 0, 0, 512, 0, 1, 7331},
    {"deletevar.merge", 12, 0, 0, 1536, 1, 0, 21729},
    {"scanvar", 3, 0, 0, 0, 0, 0, 4478},
    {"multigetvar", 4, 0, 0, 0, 3, 1, 6757},
    {"multiinsertvar", 4, 0, 0, 624, 3, 0, 6103},
    {"insertvar.outline", 4, 0, 0, 624, 1, 0, 5700},
    {"insertvar.outline", 4, 0, 0, 624, 1, 0, 5700},
    {"insertvar.outline", 4, 0, 0, 624, 1, 0, 5700},
    {"insertvar.outline", 4, 0, 0, 624, 1, 0, 5700},
    {"insertvar.inline", 3, 0, 0, 512, 1, 0, 5442},
    {"deletevar.outline", 3, 0, 0, 512, 1, 0, 5442},
    {"vlog.gc.seal", 3, 0, 0, 0, 0, 0, 15888},
    {"vlog.gc", 28, 0, 0, 2496, 4, 0, 68972},
    {"lookupvar.relocated", 1, 0, 0, 0, 1, 0, 2349},
};

TEST(OpCostTest, ShermanFixedRecords) {
  EXPECT_EQ(CostTable(FixedOpCosts(ShermanOptions())),
            CostTable(kShermanFixedCosts));
}

TEST(OpCostTest, FgFixedRecords) {
  EXPECT_EQ(CostTable(FixedOpCosts(FgPlusOptions())),
            CostTable(kFgFixedCosts));
}

TEST(OpCostTest, VarRecords) {
  EXPECT_EQ(CostTable(VarOpCosts()), CostTable(kVarCosts));
}

// A value-log segment opens its successor ahead. With 8 KB segments a
// 112-byte record takes a 128-byte extent, so 64 fit in one segment. Out-
// of-line updates of the loaded keys (no split, cached parent) run past
// a segment boundary. The first put in the next segment costs what a
// warm out-of-line put does (OpCostTest's insertvar.outline): its spare
// was registered in the background and the full segment's seal is posted,
// not awaited. SealOpen, run by a GC pass, seals the open segment and
// keeps the spare it finds, which the next put opens at the same warm
// cost. No registered segment is left unsealed but the one kept.
TEST(VlogTest, FullSegmentSwitchesToItsSpareWithoutWaiting) {
  constexpr sim::SimTime kWarmOutlineNs = 5700;
  TreeOptions topt = VarOptions();
  topt.vlog_segment_bytes = 8 << 10;
  ShermanSystem system(SmallFabric(), topt);
  std::vector<std::pair<std::string, std::string>> kvs;
  for (uint64_t n = 10; n <= 2000; n += 10) {
    kvs.emplace_back(PinKey(n), std::string(40, 'a' + n % 26));
  }
  system.BulkLoadVar(kvs, 0.5);
  const auto unsealed = [](ShermanSystem* sys) {
    uint64_t n = 0;
    for (int ms = 0; ms < sys->fabric().num_memory_servers(); ms++) {
      n += sys->chunk_manager(ms).vlog_unsealed_segments();
    }
    return n;
  };
  CostLog log(&system.simulator());
  bool done = false;
  sim::Spawn([](ShermanSystem* sys, CostLog* log, auto unsealed,
                bool* flag) -> sim::Task<void> {
    TreeClient* c = &sys->client(0);
    const std::string outline(100, 'o');
    // 125 puts: the second segment holds 61 records, and the spare that
    // will be the third was registered at its 56th.
    for (uint64_t n = 10; n <= 1250; n += 10) {
      log->Next("insertvar.outline");
      co_await log->Run(
          c->InsertVar(Slice(PinKey(n)), Slice(outline), log->stats()));
    }
    co_await c->VlogGcOnce();
    co_await sys->simulator().Delay(100'000);
    EXPECT_EQ(unsealed(sys), 1u) << "the kept spare";
    log->Next("insertvar.outline");
    co_await log->Run(
        c->InsertVar(Slice(PinKey(1260)), Slice(outline), log->stats()));
    co_await c->VlogGcOnce();
    *flag = true;
  }(&system, &log, unsealed, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
  ASSERT_EQ(log.costs.size(), 126u);
  for (const size_t first_in_segment : {64u, 125u}) {
    const OpCost& c = log.costs[first_in_segment];
    EXPECT_EQ(c.round_trips, 4u) << "put " << first_in_segment;
    EXPECT_LE(c.latency_ns * 100, kWarmOutlineNs * 105)
        << "put " << first_in_segment << " waited for its segment";
  }
  EXPECT_EQ(system.registry().Snapshot().counter("vlog.segments_opened"), 3u);
  EXPECT_EQ(unsealed(&system), 0u);
  system.DebugCheckInvariants();
}

// The value of lock lane `node` maps to (0 = free).
uint16_t LaneOf(ShermanSystem* system, rdma::GlobalAddress node) {
  const GlobalLockRef ref = LockFor(node, system->options().lock.onchip);
  const rdma::GlobalAddress lane = ref.lane_address();
  rdma::MemoryServer& ms = system->fabric().ms(ref.ms);
  const uint8_t* p = ref.space == rdma::MemorySpace::kDevice
                         ? ms.device().raw(lane.offset)
                         : ms.host().raw(lane.offset);
  uint16_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// A locked chase releases the leaf it locked in vain without waiting. CS 0
// caches leaf L's parent; CS 1 then splits L and links the sibling. CS 0's
// insert of a key the sibling now covers locks and reads L, posts L's
// release, and goes on to the sibling: 5 round trips, not 6. The posted
// release still lands.
TEST(LockChaseTest, ChasedLeafReleaseIsPosted) {
  TreeOptions topt = ShermanOptions();
  topt.shape.node_size = 256;
  ShermanSystem system(SmallFabric(2, 2), topt);
  std::vector<std::pair<Key, uint64_t>> kvs;
  for (Key k = 10; k <= 2000; k += 10) kvs.emplace_back(k, k + 1);
  system.BulkLoad(kvs, 0.5);

  OpStats stats;
  bool done = false;
  sim::Spawn([](ShermanSystem* sys, OpStats* stats,
                bool* flag) -> sim::Task<void> {
    TreeClient& c0 = sys->client(0);
    TreeClient& c1 = sys->client(1);
    uint64_t v = 0;
    EXPECT_TRUE((co_await c0.Lookup(500, &v)).ok());  // caches L's parent
    const size_t leaves = sys->DebugCountLeaves();
    // Seven new keys split L = [460, 510); the upper half starts at 502.
    for (Key k = 501; k <= 507; k++) {
      EXPECT_TRUE((co_await c1.Insert(k, k)).ok());
    }
    EXPECT_EQ(sys->DebugCountLeaves(), leaves + 1);
    co_await sys->simulator().Delay(100'000);  // the link lands
    EXPECT_TRUE((co_await c0.Insert(508, 1, stats)).ok());
    EXPECT_TRUE((co_await c0.Lookup(508, &v)).ok());
    EXPECT_EQ(v, 1u);
    *flag = true;
  }(&system, &stats, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.round_trips, 5u);
  // Every lane reads free once the simulator drains, L's included.
  const TreeShape& shape = system.options().shape;
  rdma::GlobalAddress addr = system.DebugRootAddr();
  while (!NodeView(system.fabric().HostRaw(addr), &shape).is_leaf()) {
    addr = NodeView(system.fabric().HostRaw(addr), &shape).leftmost_child();
  }
  for (; !addr.is_null();
       addr = NodeView(system.fabric().HostRaw(addr), &shape).sibling()) {
    EXPECT_EQ(LaneOf(&system, addr), 0u) << addr.ToString();
  }
  system.DebugCheckInvariants();
}

// --- learned splits ----------------------------------------------------------
// A leaf that validates teaches the cached level-1 node its split, and a
// splitter teaches its own, so an op the split would have sent on a chase
// goes straight to the sibling, and the node stays cached.

// The LockChaseTest tree: 256-byte nodes, keys 10, 20, ..., 2000 loaded
// five to a leaf, on two CSs.
std::unique_ptr<ShermanSystem> ChaseTree() {
  TreeOptions topt = ShermanOptions();
  topt.shape.node_size = 256;
  auto system = std::make_unique<ShermanSystem>(SmallFabric(2, 2), topt);
  std::vector<std::pair<Key, uint64_t>> kvs;
  for (Key k = 10; k <= 2000; k += 10) kvs.emplace_back(k, k + 1);
  system->BulkLoad(kvs, 0.5);
  return system;
}

// CS 0 caches leaf L's parent; CS 1 splits L = [460, 510) at 502 and the
// link lands. CS 0's lookup of 470, left of the separator, reads L and
// learns its new hi fence and sibling. Its lookup of 505 then goes straight
// to the sibling, and a later lookup under the parent still hits. Dropping
// the parent instead cost 505 a chase and 480 a miss.
TEST(LearnSplitTest, LeafReadTeachesTheCachedParent) {
  std::unique_ptr<ShermanSystem> system = ChaseTree();
  std::vector<OpStats> stats(3);
  bool done = false;
  sim::Spawn([](ShermanSystem* sys, std::vector<OpStats>* stats,
                bool* flag) -> sim::Task<void> {
    TreeClient& c0 = sys->client(0);
    TreeClient& c1 = sys->client(1);
    uint64_t v = 0;
    EXPECT_TRUE((co_await c0.Lookup(500, &v)).ok());  // caches L's parent
    for (Key k = 501; k <= 507; k++) {
      EXPECT_TRUE((co_await c1.Insert(k, k)).ok());
    }
    co_await sys->simulator().Delay(100'000);  // the link lands
    EXPECT_TRUE((co_await c0.Lookup(470, &v, &(*stats)[0])).ok());
    EXPECT_TRUE((co_await c0.Lookup(505, &v, &(*stats)[1])).ok());
    EXPECT_EQ(v, 505u);
    EXPECT_TRUE((co_await c0.Lookup(480, &v, &(*stats)[2])).ok());
    EXPECT_EQ(v, 481u);
    *flag = true;
  }(system.get(), &stats, &done));
  system->simulator().Run();
  ASSERT_TRUE(done);
  for (size_t i = 0; i < stats.size(); i++) {
    EXPECT_EQ(stats[i].round_trips, 1u) << "lookup " << i;
    EXPECT_EQ(stats[i].cache_hits, 1u) << "lookup " << i;
    EXPECT_EQ(stats[i].cache_misses, 0u) << "lookup " << i;
  }
  const obs::MetricsSnapshot snap = system->registry().Snapshot();
  EXPECT_GE(snap.counter("cache.splits_learned"), 1u);
  EXPECT_EQ(snap.counter("cache.invalidations"), 0u);
  system->DebugCheckInvariants();
}

// Right after its splitting insert returns, before the link lands, CS 1
// looks up a key of the new sibling: its cached parent learned the split
// at the commit, so the READ goes straight to the sibling.
TEST(LearnSplitTest, SplitterTeachesItsOwnCachedParent) {
  std::unique_ptr<ShermanSystem> system = ChaseTree();
  OpStats stats;
  bool done = false;
  sim::Spawn([](ShermanSystem* sys, OpStats* stats,
                bool* flag) -> sim::Task<void> {
    TreeClient& c1 = sys->client(1);
    const size_t leaves = sys->DebugCountLeaves();
    for (Key k = 501; k <= 507; k++) {
      EXPECT_TRUE((co_await c1.Insert(k, k)).ok());
    }
    EXPECT_EQ(sys->DebugCountLeaves(), leaves + 1);
    uint64_t v = 0;
    EXPECT_TRUE((co_await c1.Lookup(505, &v, stats)).ok());
    EXPECT_EQ(v, 505u);
    *flag = true;
  }(system.get(), &stats, &done));
  system->simulator().Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(stats.round_trips, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  system->DebugCheckInvariants();
}

// The hi fence of node `addr`, read in MS memory.
Key HiFence(ShermanSystem* sys, rdma::GlobalAddress addr) {
  return NodeView(sys->fabric().HostRaw(addr), &sys->options().shape)
      .hi_fence();
}

// A linker's lock above the leaf level drops no cached level-1 node. CS 0
// caches the root and level-1 node P; CS 1 then splits P. CS 0 splits P's
// last leaf, and its linker, steered by the stale root to P, chases to P's
// new sibling to insert the separator. CS 0's image of P, which still
// routes every key it covers correctly, stays cached.
TEST(LearnSplitTest, LinkerChaseAboveTheLeavesDropsNoLevel1Node) {
  std::unique_ptr<ShermanSystem> system = ChaseTree();
  const TreeShape& shape = system->options().shape;
  const NodeView root(system->fabric().HostRaw(system->DebugRootAddr()),
                      &shape);
  ASSERT_EQ(root.level(), 2);
  const rdma::GlobalAddress p_addr = root.InternalChildFor(1000);
  const NodeView p(system->fabric().HostRaw(p_addr), &shape);
  const Key p_lo = p.lo_fence();
  const Key p_hi = p.hi_fence();
  const rdma::GlobalAddress last = p.InternalChild(p.count() - 1);
  const Key last_lo = NodeView(system->fabric().HostRaw(last), &shape)
                          .lo_fence();

  uint64_t invalidations_before = 0;
  bool done = false;
  sim::Spawn([](ShermanSystem* sys, Key p_lo, Key p_hi, Key last_lo,
                rdma::GlobalAddress p_addr, rdma::GlobalAddress last,
                uint64_t* before, bool* flag) -> sim::Task<void> {
    TreeClient& c0 = sys->client(0);
    TreeClient& c1 = sys->client(1);
    uint64_t v = 0;
    EXPECT_TRUE((co_await c0.Lookup(last_lo, &v)).ok());  // root and P
    // CS 1 fills P's first leaves until P splits.
    for (Key k = p_lo + 1; HiFence(sys, p_addr) == p_hi && k < p_lo + 2000;
         k++) {
      if (k % 10 != 0) {
        EXPECT_TRUE((co_await c1.Insert(k, k)).ok());
      }
    }
    EXPECT_LT(HiFence(sys, p_addr), last_lo) << "P split past its last leaf";
    co_await sys->simulator().Delay(100'000);  // P's link lands
    *before = sys->registry().Snapshot().counter("cache.invalidations");
    // CS 0 splits P's last leaf, then its linker runs.
    for (Key k = last_lo + 1; HiFence(sys, last) == p_hi && k < p_hi; k++) {
      if (k % 10 != 0) {
        EXPECT_TRUE((co_await c0.Insert(k, k)).ok());
      }
    }
    EXPECT_LT(HiFence(sys, last), p_hi) << "the last leaf did not split";
    co_await sys->simulator().Delay(100'000);  // the link lands
    const ParsedInternal* cached = c0.cache().LookupLevel1(last_lo);
    EXPECT_NE(cached, nullptr);
    if (cached != nullptr) {
      EXPECT_EQ(cached->self, p_addr);
      EXPECT_EQ(cached->hi, p_hi);
    }
    *flag = true;
  }(system.get(), p_lo, p_hi, last_lo, p_addr, last, &invalidations_before,
    &done));
  system->simulator().Run();
  ASSERT_TRUE(done);
  const obs::MetricsSnapshot snap = system->registry().Snapshot();
  EXPECT_EQ(snap.counter("cache.invalidations"), invalidations_before);
  EXPECT_EQ(snap.counter("tree.link_failures"), 0u);
  system->DebugCheckInvariants();
}

// A scan collects each leaf of a READ batch as its own READ lands. CS 0
// caches the parent of leaf [1510, 1560); CS 1's deletes then merge that
// leaf into its left neighbour. CS 0's range from 1540 plans a batch
// starting at the tombstone: the scan restarts on the first READ to land,
// with the batch's later READs still in flight, and must let them land
// before it reuses or frees their buffers (the sanitizer build checks it).
TEST(ScanRestartTest, RestartWaitsForTheBatchInFlight) {
  std::unique_ptr<ShermanSystem> system = ChaseTree();
  std::vector<std::pair<Key, uint64_t>> out;
  OpStats stats;
  bool done = false;
  sim::Spawn([](ShermanSystem* sys, std::vector<std::pair<Key, uint64_t>>* o,
                OpStats* stats, bool* flag) -> sim::Task<void> {
    TreeClient& c0 = sys->client(0);
    TreeClient& c1 = sys->client(1);
    uint64_t v = 0;
    EXPECT_TRUE((co_await c0.Lookup(1540, &v)).ok());  // caches the parent
    for (Key k : {1510, 1520, 1530}) {
      EXPECT_TRUE((co_await c1.Delete(k)).ok());
    }
    EXPECT_EQ(sys->registry().Snapshot().counter("reclaim.leaf_merges"), 1u);
    EXPECT_TRUE((co_await c0.RangeQuery(1540, 20, o, stats)).ok());
    *flag = true;
  }(system.get(), &out, &stats, &done));
  system->simulator().Run();
  ASSERT_TRUE(done);
  std::vector<std::pair<Key, uint64_t>> want;
  for (Key k = 1540; want.size() < 20; k += 10) want.emplace_back(k, k + 1);
  EXPECT_EQ(out, want);
  EXPECT_EQ(stats.cache_misses, 1u) << "the restart's resolve";
  EXPECT_GT(stats.round_trips, 6u) << "a multi-leaf batch, then a restart";
  system->DebugCheckInvariants();
}

}  // namespace
}  // namespace sherman
