// Concurrency property tests: many client coroutines across multiple
// compute servers hammer the tree; we verify mutual-exclusion effects,
// lost-update freedom on distinct keys, read coherence (every lookup
// returns a value some client actually wrote), per-key linearizability
// across split storms, structural invariants after split storms, and
// root-growth races — across presets.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench/runner.h"
#include "core/btree.h"
#include "core/presets.h"
#include "recover/intent.h"
#include "test_oracle.h"
#include "util/random.h"

namespace sherman {
namespace {

rdma::FabricConfig Fabric4x4() {
  rdma::FabricConfig f;
  f.num_memory_servers = 4;
  f.num_compute_servers = 4;
  f.ms_memory_bytes = 32ull << 20;
  return f;
}

class PresetConcurrencyTest : public ::testing::TestWithParam<std::string> {
 protected:
  TreeOptions Options() {
    TreeOptions t;
    EXPECT_TRUE(PresetByName(GetParam(), &t));
    return t;
  }
};

// Distinct key ranges per thread: every inserted key must survive exactly
// with its last written value (no lost updates across threads).
TEST_P(PresetConcurrencyTest, DisjointWritersNeverLoseUpdates) {
  TreeOptions topt = Options();
  topt.shape.node_size = 512;  // force splits under load
  ShermanSystem system(Fabric4x4(), topt);
  system.BulkLoad({}, 0.8);

  constexpr int kThreads = 16;
  constexpr int kKeysPerThread = 120;
  int done = 0;
  for (int t = 0; t < kThreads; t++) {
    sim::Spawn([](ShermanSystem* sys, int tid, int* done_count)
                   -> sim::Task<void> {
      TreeClient& client = sys->client(tid % sys->num_clients());
      const Key base = 1 + static_cast<Key>(tid) * 10'000;
      for (int i = 0; i < kKeysPerThread; i++) {
        Status st = co_await client.Insert(base + i, tid * 1'000'000 + i);
        EXPECT_TRUE(st.ok()) << st.ToString();
      }
      // Second pass: overwrite with final values.
      for (int i = 0; i < kKeysPerThread; i++) {
        Status st =
            co_await client.Insert(base + i, tid * 1'000'000 + i + 500);
        EXPECT_TRUE(st.ok()) << st.ToString();
      }
      (*done_count)++;
    }(&system, t, &done));
  }
  system.simulator().Run();
  ASSERT_EQ(done, kThreads);

  system.DebugCheckInvariants();
  const auto scan = system.DebugScanLeaves();
  ASSERT_EQ(scan.size(), static_cast<size_t>(kThreads) * kKeysPerThread);
  std::map<Key, uint64_t> got(scan.begin(), scan.end());
  for (int t = 0; t < kThreads; t++) {
    const Key base = 1 + static_cast<Key>(t) * 10'000;
    for (int i = 0; i < kKeysPerThread; i++) {
      auto it = got.find(base + i);
      ASSERT_NE(it, got.end()) << "lost key " << base + i;
      EXPECT_EQ(it->second, static_cast<uint64_t>(t) * 1'000'000 + i + 500);
    }
  }
}

// All threads hammer ONE key. The final value must be one that somebody
// wrote, and concurrent lookups must only ever observe written values
// (torn entries must never escape the version checks).
TEST_P(PresetConcurrencyTest, SingleKeyHammerReadCoherence) {
  ShermanSystem system(Fabric4x4(), Options());
  system.BulkLoad(bench::MakeLoadKvs(1'000), 0.8);
  const Key hot = 500;  // even: bulkloaded

  std::set<uint64_t> written;
  written.insert(hot * 31 + 7);  // bulkload value... (hot=500 -> loaded)
  // Note: key 500 is even and loaded by MakeLoadKvs(1000).
  constexpr int kWriters = 12;
  constexpr int kReaders = 12;
  constexpr int kOpsEach = 40;
  int done = 0;

  for (int w = 0; w < kWriters; w++) {
    sim::Spawn([](ShermanSystem* sys, int id, Key key,
                  std::set<uint64_t>* wrote, int* d) -> sim::Task<void> {
      TreeClient& client = sys->client(id % sys->num_clients());
      for (int i = 0; i < kOpsEach; i++) {
        const uint64_t value =
            static_cast<uint64_t>(id) * 1'000'000 + i + 1;
        wrote->insert(value);  // record before issuing
        Status st = co_await client.Insert(key, value);
        EXPECT_TRUE(st.ok()) << st.ToString();
      }
      (*d)++;
    }(&system, w, hot, &written, &done));
  }
  for (int r = 0; r < kReaders; r++) {
    sim::Spawn([](ShermanSystem* sys, int id, Key key,
                  const std::set<uint64_t>* wrote, int* d) -> sim::Task<void> {
      TreeClient& client = sys->client(id % sys->num_clients());
      for (int i = 0; i < kOpsEach; i++) {
        uint64_t value = 0;
        Status st = co_await client.Lookup(key, &value);
        EXPECT_TRUE(st.ok()) << st.ToString();
        EXPECT_TRUE(wrote->count(value))
            << "lookup returned a value nobody wrote: " << value
            << " (torn read escaped version checks?)";
      }
      (*d)++;
    }(&system, r, hot, &written, &done));
  }
  system.simulator().Run();
  ASSERT_EQ(done, kWriters + kReaders);

  const auto scan = system.DebugScanLeaves();
  std::map<Key, uint64_t> got(scan.begin(), scan.end());
  ASSERT_TRUE(got.count(hot));
  EXPECT_TRUE(written.count(got[hot]));
  system.DebugCheckInvariants();
}

// Concurrent sequential inserts into an initially tiny tree: maximal split
// and root-growth contention.
TEST_P(PresetConcurrencyTest, SplitStormGrowsTreeCorrectly) {
  TreeOptions topt = Options();
  topt.shape.node_size = 256;
  ShermanSystem system(Fabric4x4(), topt);
  system.BulkLoad({}, 0.8);

  constexpr int kThreads = 20;
  constexpr int kKeysPerThread = 100;
  int done = 0;
  for (int t = 0; t < kThreads; t++) {
    sim::Spawn([](ShermanSystem* sys, int tid, int* d) -> sim::Task<void> {
      TreeClient& client = sys->client(tid % sys->num_clients());
      // Interleaved key stripes: thread t inserts t, t+T, t+2T, ...
      for (int i = 0; i < kKeysPerThread; i++) {
        const Key k = 1 + static_cast<Key>(tid) + static_cast<Key>(i) * kThreads;
        Status st = co_await client.Insert(k, k * 7);
        EXPECT_TRUE(st.ok()) << st.ToString();
      }
      (*d)++;
    }(&system, t, &done));
  }
  system.simulator().Run();
  ASSERT_EQ(done, kThreads);

  system.DebugCheckInvariants();
  EXPECT_GE(system.DebugHeight(), 3u);
  const auto scan = system.DebugScanLeaves();
  ASSERT_EQ(scan.size(), static_cast<size_t>(kThreads) * kKeysPerThread);
  for (size_t i = 0; i < scan.size(); i++) {
    EXPECT_EQ(scan[i].first, i + 1);
    EXPECT_EQ(scan[i].second, (i + 1) * 7);
  }
}

// Deletes racing inserts on adjacent keys.
TEST_P(PresetConcurrencyTest, InsertDeleteRaces) {
  ShermanSystem system(Fabric4x4(), Options());
  system.BulkLoad(bench::MakeLoadKvs(2'000), 0.8);

  int done = 0;
  constexpr int kThreads = 10;
  for (int t = 0; t < kThreads; t++) {
    sim::Spawn([](ShermanSystem* sys, int tid, int* d) -> sim::Task<void> {
      TreeClient& client = sys->client(tid % sys->num_clients());
      Random rng(static_cast<uint64_t>(tid) + 1);
      for (int i = 0; i < 60; i++) {
        const Key k = 2 * (1 + rng.Uniform(2'000));  // loaded even keys
        if (rng.Bernoulli(0.5)) {
          Status st = co_await client.Delete(k);
          EXPECT_TRUE(st.ok() || st.IsNotFound()) << st.ToString();
        } else {
          Status st = co_await client.Insert(k, tid + 100);
          EXPECT_TRUE(st.ok()) << st.ToString();
        }
      }
      (*d)++;
    }(&system, t, &done));
  }
  system.simulator().Run();
  ASSERT_EQ(done, kThreads);
  system.DebugCheckInvariants();
  // Scan is sorted unique and a subset of the loaded keys.
  const auto scan = system.DebugScanLeaves();
  for (size_t i = 1; i < scan.size(); i++) {
    ASSERT_LT(scan[i - 1].first, scan[i].first);
  }
  for (const auto& [k, v] : scan) {
    EXPECT_EQ(k % 2, 0u);
    EXPECT_LE(k, 4'000u);
  }
}

// Range queries concurrent with a split storm must return sorted, unique,
// plausible entries (not atomic, per §4.4 — but never garbage).
TEST_P(PresetConcurrencyTest, RangeQueriesDuringSplits) {
  TreeOptions topt = Options();
  topt.shape.node_size = 512;
  ShermanSystem system(Fabric4x4(), topt);
  system.BulkLoad(bench::MakeLoadKvs(3'000), 0.8);

  int done = 0;
  for (int t = 0; t < 6; t++) {
    sim::Spawn([](ShermanSystem* sys, int tid, int* d) -> sim::Task<void> {
      TreeClient& client = sys->client(tid % sys->num_clients());
      for (int i = 0; i < 80; i++) {
        const Key k = 1 + 2 * (static_cast<Key>(tid) * 500 + i);  // odd keys
        Status st = co_await client.Insert(k, k);
        EXPECT_TRUE(st.ok()) << st.ToString();
      }
      (*d)++;
    }(&system, t, &done));
  }
  for (int t = 0; t < 6; t++) {
    sim::Spawn([](ShermanSystem* sys, int tid, int* d) -> sim::Task<void> {
      TreeClient& client = sys->client(tid % sys->num_clients());
      Random rng(static_cast<uint64_t>(tid) + 77);
      std::vector<std::pair<Key, uint64_t>> out;
      for (int i = 0; i < 30; i++) {
        const Key from = 1 + rng.Uniform(6'000);
        Status st = co_await client.RangeQuery(from, 50, &out);
        EXPECT_TRUE(st.ok()) << st.ToString();
        for (size_t j = 0; j < out.size(); j++) {
          EXPECT_GE(out[j].first, from);
          if (j > 0) {
            EXPECT_LT(out[j - 1].first, out[j].first);
          }
          // Value is either a bulkloaded (k*31+7) or writer value (k).
          EXPECT_TRUE(out[j].second == out[j].first * 31 + 7 ||
                      out[j].second == out[j].first)
              << "garbage value " << out[j].second << " for key "
              << out[j].first;
        }
      }
      (*d)++;
    }(&system, t, &done));
  }
  system.simulator().Run();
  ASSERT_EQ(done, 12);
  system.DebugCheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(AllPresets, PresetConcurrencyTest,
                         ::testing::Values("fg", "fg+", "+combine", "+on-chip",
                                           "+hierarchical", "sherman"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (!isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return n;
                         });

// Zipfian mixed workload via the runner at higher scale, Sherman preset:
// the closest thing to the paper's operating point, checked for structural
// integrity and monotone scan.
TEST(ConcurrencyStressTest, SkewedMixedWorkloadIntegrity) {
  ShermanSystem system(Fabric4x4(), ShermanOptions());
  const uint64_t n = 100'000;
  system.BulkLoad(bench::MakeLoadKvs(n), 0.8);

  bench::RunnerOptions ropt;
  ropt.threads_per_cs = 16;
  ropt.workload.loaded_keys = n;
  ropt.workload.zipf_theta = 0.99;
  ropt.workload.mix = WorkloadMix::WriteIntensive();
  ropt.warmup_ns = 500'000;
  ropt.measure_ns = 5'000'000;
  const bench::RunResult r = bench::RunWorkload(&system, ropt);
  EXPECT_GT(r.stats.ops, 1'000u);
  EXPECT_GT(r.metrics.counter("lock.handovers"), 0u)
      << "skew should trigger HOCL handovers";
  system.DebugCheckInvariants();
}

// Per-key linearizability across a split storm. Writers on 4 CSs insert
// unique values into a tree of 512-byte nodes while readers look the same
// keys up, so lookups race splits whose parent links land after the
// inserts were acknowledged. Every op goes into a per-key register
// history. The history drops NotFound reads, so those are checked apart:
// with no deletes, no lookup invoked after a key's first acknowledged
// insert may miss it.
sim::Task<void> SplitStormWriter(ShermanSystem* sys, int cs, uint64_t seed,
                                 uint64_t keys, testutil::RegisterHistory* h,
                                 std::map<Key, sim::SimTime>* first_ack,
                                 int* done) {
  TreeClient& c = sys->client(cs);
  sim::Simulator& sim = sys->simulator();
  Random rng(seed);
  for (uint64_t i = 1; i <= 250; i++) {
    const Key k = 1 + rng.Uniform(keys);
    const uint64_t value = (seed << 32) | i;  // unique
    const size_t op = h->BeginWrite(k, value, sim.now());
    const Status st = co_await c.Insert(k, value);
    EXPECT_TRUE(st.ok()) << st.ToString();
    h->EndWrite(k, op, sim.now());
    first_ack->try_emplace(k, sim.now());
  }
  (*done)++;
}

sim::Task<void> SplitStormReader(
    ShermanSystem* sys, int cs, uint64_t seed, uint64_t keys,
    testutil::RegisterHistory* h,
    std::vector<std::pair<Key, sim::SimTime>>* misses, int* done) {
  TreeClient& c = sys->client(cs);
  sim::Simulator& sim = sys->simulator();
  Random rng(seed);
  for (int i = 0; i < 250; i++) {
    const Key k = 1 + rng.Uniform(keys);
    const sim::SimTime invoke = sim.now();
    uint64_t v = 0;
    const Status st = co_await c.Lookup(k, &v);
    if (st.ok()) {
      h->Read(k, invoke, sim.now(), v);
    } else {
      EXPECT_TRUE(st.IsNotFound()) << st.ToString();
      misses->emplace_back(k, invoke);
    }
  }
  (*done)++;
}

TEST(LinearizabilityTest, SplitStormPointOpsAreLinearizable) {
  for (uint64_t seed = 1; seed <= 3; seed++) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TreeOptions topt = ShermanOptions();
    topt.shape.node_size = 512;  // ~25 entries a leaf: frequent splits
    ShermanSystem system(Fabric4x4(), topt);
    system.BulkLoad({}, 0.8);
    const size_t leaves_before = system.DebugCountLeaves();
    constexpr uint64_t kKeys = 1'500;
    testutil::RegisterHistory hist;
    std::map<Key, sim::SimTime> first_ack;
    std::vector<std::pair<Key, sim::SimTime>> misses;
    int done = 0;
    for (int cs = 0; cs < 4; cs++) {
      for (int t = 0; t < 2; t++) {
        const uint64_t s = seed * 100 + static_cast<uint64_t>(cs * 10 + t);
        sim::Spawn(SplitStormWriter(&system, cs, s, kKeys, &hist, &first_ack,
                                    &done));
        sim::Spawn(SplitStormReader(&system, cs, s + 50, kKeys, &hist,
                                    &misses, &done));
      }
    }
    system.simulator().Run();
    ASSERT_EQ(done, 16);
    EXPECT_GT(system.DebugCountLeaves(), leaves_before + 40)
        << "the storm should split leaves";
    for (const std::string& v : hist.Check()) ADD_FAILURE() << v;
    for (const auto& [k, invoke] : misses) {
      const auto it = first_ack.find(k);
      EXPECT_TRUE(it == first_ack.end() || invoke < it->second)
          << "lookup of key " << k << " invoked at " << invoke
          << " missed an insert acknowledged at " << it->second;
    }
    system.DebugCheckInvariants();
  }
}

// 64 coroutines on one CS split leaves under one parent, which splits in
// turn: linkers hold intent slots until their separators land, and an
// internal split or root install must never wait for a slot while holding
// a lock above the leaf level (recover/intent.h). The storm completes,
// every key survives, and every slot is clear afterwards.
TEST(ConcurrencyStressTest, SixtyFourCoroutinesSplitUnderOneParent) {
  rdma::FabricConfig f = Fabric4x4();
  f.num_compute_servers = 1;
  TreeOptions topt = ShermanOptions();
  topt.shape.node_size = 256;  // 11 entries a leaf
  ShermanSystem system(f, topt);
  system.BulkLoad(bench::MakeLoadKvs(40), 0.9);  // 4 leaves, one parent
  ASSERT_EQ(system.DebugHeight(), 2u);

  constexpr int kCoroutines = 64;
  constexpr int kKeysEach = 24;
  int done = 0;
  for (int t = 0; t < kCoroutines; t++) {
    sim::Spawn([](TreeClient* c, int tid, int* done) -> sim::Task<void> {
      // Interleaved odd keys: every coroutine inserts into every leaf.
      for (int i = 0; i < kKeysEach; i++) {
        const Key k = 1 + 2 * static_cast<Key>(i * kCoroutines + tid);
        const Status st = co_await c->Insert(k, k + 7);
        EXPECT_TRUE(st.ok()) << st.ToString();
      }
      (*done)++;
    }(&system.client(0), t, &done));
  }
  system.simulator().Run();
  ASSERT_EQ(done, kCoroutines);
  EXPECT_GE(system.DebugHeight(), 3u) << "the parent should have split";
  system.DebugCheckInvariants();
  const auto scan = system.DebugScanLeaves();
  const std::map<Key, uint64_t> got(scan.begin(), scan.end());
  for (Key k = 1; k < 2 * kCoroutines * kKeysEach; k += 2) {
    const auto it = got.find(k);
    ASSERT_NE(it, got.end()) << "lost key " << k;
    EXPECT_EQ(it->second, k + 7);
  }
  EXPECT_EQ(system.registry().Snapshot().counter("tree.link_failures"), 0u);
  for (uint32_t slot = 0; slot < kIntentSlotsPerClient; slot++) {
    EXPECT_EQ(system.fabric().HostRaw(recover::IntentSlotAddress(0, slot))[0],
              0u)
        << "live intent in slot " << slot;
  }
}

// Determinism: identical seeds must give bit-identical results.
TEST(ConcurrencyStressTest, SimulationIsDeterministic) {
  auto run = [] {
    ShermanSystem system(Fabric4x4(), ShermanOptions());
    system.BulkLoad(bench::MakeLoadKvs(10'000), 0.8);
    bench::RunnerOptions ropt;
    ropt.threads_per_cs = 8;
    ropt.workload.loaded_keys = 10'000;
    ropt.workload.zipf_theta = 0.99;
    ropt.warmup_ns = 200'000;
    ropt.measure_ns = 2'000'000;
    const bench::RunResult r = bench::RunWorkload(&system, ropt);
    return std::make_tuple(r.stats.ops, r.stats.latency_ns.P99(),
                           system.DebugScanLeaves());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(std::get<0>(a), std::get<0>(b));
  EXPECT_EQ(std::get<1>(a), std::get<1>(b));
  EXPECT_EQ(std::get<2>(a), std::get<2>(b));
}

}  // namespace
}  // namespace sherman
