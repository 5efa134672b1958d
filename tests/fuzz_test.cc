// Differential fuzzing: seeded random concurrent workloads over random
// fabric/tree geometries, checked against per-key write-set oracles.
//
// Oracle rules (concurrent setting):
//  - every key present in the final scan was bulkloaded or inserted;
//  - a key whose writes all happened-before the check holds one of the
//    values written to it;
//  - keys written by exactly one thread and never deleted hold that
//    thread's last value (no lost updates);
//  - structural invariants (fence tiling, sorted internals, version
//    coherence) hold at quiescence.
//
// The op mix interleaves every mutating path the index exposes: singleton
// Insert/Lookup/Delete/RangeQuery plus the doorbell-batched MultiGet /
// MultiInsert / MultiDelete. Elastic cases additionally run a mid-fuzz
// AddMemoryServer + live migration of half the key space concurrently
// with the op streams. Delete-heavy churn cases weight half the dice onto
// the delete paths so leaf merging and epoch-protected reclamation run
// constantly under every other op (including, in the combined cases,
// under live migration).
//
// Nightly soak: SHERMAN_LONG_FUZZ=1 widens the seed sweep and lengthens
// each run (see .github/workflows/nightly.yml); the PR gate stays small.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench/runner.h"
#include "combine/rdwc.h"
#include "core/btree.h"
#include "core/hybrid_system.h"
#include "core/presets.h"
#include "fault/crash_point.h"
#include "migrate/migrator.h"
#include "recover/recoverer.h"
#include "test_oracle.h"
#include "util/random.h"

namespace sherman {
namespace {

using testutil::Oracle;

struct FuzzCase {
  uint64_t seed;
  const char* preset;
  bool elastic = false;       // mid-run AddMemoryServer + migration
  bool delete_heavy = false;  // churn mix: deletes + MultiDelete dominate
  bool kill = false;          // a seeded client dies at a random crash point
};

class FuzzTest : public ::testing::TestWithParam<FuzzCase> {};

// One client thread's op stream: singleton ops plus batched MultiGet /
// MultiInsert, all recorded against the shared oracle before issue (so a
// torn-read check is sound). Works against ShermanSystem (TreeClient) and
// HybridSystem (HybridClient) alike. `hot_span` > 0 skews the stream:
// 90% of key draws land in [1, hot_span] — the extreme-skew mix that
// keeps RDWC write windows constantly open in the hybrid cases. With
// `hist`, every op on a hot key also goes into the per-key register
// history (each batch and range counts as one op per key it touched).
template <typename System>
sim::Task<void> FuzzWorker(System* sys, int tid, uint64_t seed, int n_ops,
                           uint64_t space, bool delete_heavy, Oracle* orc,
                           std::map<Key, uint64_t>* my_last, int* d,
                           uint64_t hot_span = 0,
                           testutil::RegisterHistory* hist = nullptr) {
  auto& client = sys->client(tid % sys->num_clients());
  sim::Simulator& sim = sys->simulator();
  Random rng(seed);
  const auto tracked = [hist, hot_span](Key key) {
    return hist != nullptr && key <= hot_span;
  };
  const auto record_get = [&](Key key, sim::SimTime invoke, const Status& st,
                              uint64_t v) {
    if (tracked(key) && st.ok()) hist->Read(key, invoke, sim.now(), v);
  };
  const auto pick_key = [&rng, hot_span, space]() -> Key {
    if (hot_span > 0 && rng.Bernoulli(0.9)) return 1 + rng.Uniform(hot_span);
    return 1 + rng.Uniform(space);
  };
  const auto check_read = [orc](Key key, const Status& st, uint64_t v) {
    testutil::CheckRead(*orc, key, st, v);
  };
  const auto record_write = [&](Key key, uint64_t value) {
    (*orc)[key].written_values.insert(value);
    (*orc)[key].writers.insert(tid);
    (*my_last)[key] = value;
  };
  const auto exempt = [&](Key key) {
    // Tiny fabrics can legitimately run out of chunks mid-fuzz; exempt the
    // key from the lost-update oracle and carry on.
    (*orc)[key].deleted = true;
    my_last->erase(key);
  };

  // Standard mix: inserts and reads dominate. Delete-heavy churn: half
  // the dice land on singleton Delete / batched MultiDelete, so leaf
  // merging, tombstoning, and epoch-protected recycling run constantly
  // under every other op (and under migration, in the elastic cases).
  const uint64_t d_ins = delete_heavy ? 2 : 3;
  const uint64_t d_mins = delete_heavy ? 3 : 5;
  const uint64_t d_look = delete_heavy ? 4 : 7;
  const uint64_t d_mget = delete_heavy ? 5 : 9;
  const uint64_t d_del = delete_heavy ? 8 : 10;
  const uint64_t d_mdel = 11;  // both mixes: dice 11 is the range query
  for (int i = 0; i < n_ops; i++) {
    const Key key = pick_key();
    const uint64_t dice = rng.Uniform(12);
    const sim::SimTime invoke = sim.now();
    if (dice < d_ins) {  // singleton insert
      const uint64_t value = (static_cast<uint64_t>(tid + 1) << 32) | (i + 1);
      record_write(key, value);
      const size_t op = tracked(key) ? hist->BeginWrite(key, value, invoke) : 0;
      Status st = co_await client.Insert(key, value);
      if (st.IsOutOfMemory()) {
        exempt(key);
        if (tracked(key)) hist->Exclude(key);
        continue;
      }
      EXPECT_TRUE(st.ok()) << st.ToString();
      if (tracked(key)) hist->EndWrite(key, op, sim.now());
    } else if (dice < d_mins) {  // batched MultiInsert
      std::vector<std::pair<Key, uint64_t>> kvs;
      const int batch = 2 + static_cast<int>(rng.Uniform(5));
      for (int b = 0; b < batch; b++) {
        const Key k = pick_key();
        // Bit 31 keeps batch values apart from singleton ones.
        const uint64_t value = (static_cast<uint64_t>(tid + 1) << 32) |
                               (1ull << 31) |
                               (static_cast<uint64_t>(i + 1) << 8) |
                               static_cast<uint64_t>(b);
        record_write(k, value);
        kvs.emplace_back(k, value);
      }
      // A batch writes each key's LAST instance (last writer wins).
      std::map<Key, std::pair<uint64_t, size_t>> writes;
      for (const auto& [k, v] : kvs) {
        if (tracked(k)) writes[k] = {v, 0};
      }
      for (auto& [k, w] : writes) w.second = hist->BeginWrite(k, w.first, invoke);
      std::vector<std::pair<Key, uint64_t>> issued = kvs;
      Status st = co_await client.MultiInsert(std::move(issued));
      if (st.IsOutOfMemory()) {
        // Partial application possible; exempt every key of the batch.
        for (const auto& [k, v] : kvs) {
          exempt(k);
          if (tracked(k)) hist->Exclude(k);
        }
        continue;
      }
      EXPECT_TRUE(st.ok()) << st.ToString();
      for (const auto& [k, w] : writes) hist->EndWrite(k, w.second, sim.now());
    } else if (dice < d_look) {  // singleton lookup
      uint64_t v = 0;
      Status st = co_await client.Lookup(key, &v);
      check_read(key, st, v);
      record_get(key, invoke, st, v);
    } else if (dice < d_mget) {  // batched MultiGet
      std::vector<Key> keys;
      const int batch = 2 + static_cast<int>(rng.Uniform(7));
      for (int b = 0; b < batch; b++) keys.push_back(pick_key());
      std::vector<MultiGetResult> got;
      Status st = co_await client.MultiGet(keys, &got);
      EXPECT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(got.size(), keys.size());
      for (size_t b = 0; b < got.size() && b < keys.size(); b++) {
        check_read(keys[b], got[b].status, got[b].value);
        record_get(keys[b], invoke, got[b].status, got[b].value);
      }
    } else if (dice < d_del) {  // delete
      // Mark unconditionally — creating the oracle entry if the key does
      // not exist yet: a concurrent insert may create the key while this
      // delete is in flight, and the delete then legally linearizes after
      // it, so no last-value guarantee survives for this key.
      (*orc)[key].deleted = true;
      my_last->erase(key);
      const size_t op = tracked(key) ? hist->BeginDelete(key, invoke) : 0;
      Status st = co_await client.Delete(key);
      EXPECT_TRUE(st.ok() || st.IsNotFound()) << st.ToString();
      if (tracked(key)) hist->EndWrite(key, op, sim.now());
    } else if (dice < d_mdel) {  // batched MultiDelete
      std::vector<Key> keys;
      const int batch = 2 + static_cast<int>(rng.Uniform(6));
      std::map<Key, size_t> deletes;
      for (int b = 0; b < batch; b++) {
        const Key k = pick_key();
        (*orc)[k].deleted = true;  // unconditional: see singleton delete
        my_last->erase(k);
        keys.push_back(k);
        if (tracked(k) && deletes.count(k) == 0) {
          deletes[k] = hist->BeginDelete(k, invoke);
        }
      }
      std::vector<Status> res;
      Status st = co_await client.MultiDelete(keys, &res);
      EXPECT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(res.size(), keys.size());
      for (const Status& s : res) {
        EXPECT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
      }
      for (const auto& [k, op] : deletes) hist->EndWrite(k, op, sim.now());
    } else {  // range query
      std::vector<std::pair<Key, uint64_t>> out;
      Status st = co_await client.RangeQuery(
          key, 1 + static_cast<uint32_t>(rng.Uniform(60)), &out);
      EXPECT_TRUE(st.ok()) << st.ToString();
      for (size_t j = 1; j < out.size(); j++) {
        EXPECT_LT(out[j - 1].first, out[j].first);
      }
      for (const auto& [k2, v2] : out) {
        check_read(k2, Status::OK(), v2);
        record_get(k2, invoke, Status::OK(), v2);
      }
    }
  }
  (*d)++;
}

sim::Task<void> ElasticEvent(migrate::Migrator* mig, Key hi, uint16_t target,
                             Status* st, bool* done) {
  *st = co_await mig->MigrateRange(1, hi, target);
  *done = true;
}

TEST_P(FuzzTest, ConcurrentMixedOpsAgainstOracle) {
  const FuzzCase& fc = GetParam();
  Random meta_rng(fc.seed);
  const bool long_fuzz = std::getenv("SHERMAN_LONG_FUZZ") != nullptr;
  fault::Injector().Reset();

  TreeOptions topt;
  ASSERT_TRUE(PresetByName(fc.preset, &topt));
  // Random geometry.
  const uint32_t node_sizes[] = {256, 512, 1024};
  topt.shape.node_size = node_sizes[meta_rng.Uniform(3)];
  topt.cache_bytes = (64 << 10) << meta_rng.Uniform(4);
  // Nightly hint arm (SHERMAN_FUZZ_HINTS=1): the leaf-hint sidecar rides
  // every geometry, so hinted lookups race splits, merges, migration,
  // random kills, and recovery replay — the oracle must still hold.
  topt.enable_leaf_hints = std::getenv("SHERMAN_FUZZ_HINTS") != nullptr;
  if (fc.kill) {
    // Tighten the lease clock so the seeded crash is detected, stolen,
    // and recovered well inside the run.
    topt.lock.lease_period_ns = 20'000;
    topt.lock.lease_expiry_periods = 4;
  }

  rdma::FabricConfig fcfg;
  fcfg.num_memory_servers = 1 + static_cast<int>(meta_rng.Uniform(4));
  fcfg.num_compute_servers = fc.kill
                                 ? 2 + static_cast<int>(meta_rng.Uniform(3))
                                 : 1 + static_cast<int>(meta_rng.Uniform(4));
  fcfg.ms_memory_bytes = 32ull << 20;

  ShermanSystem system(fcfg, topt);
  const uint64_t loaded = 200 + meta_rng.Uniform(3'000);
  system.BulkLoad(bench::MakeLoadKvs(loaded), 0.7 + meta_rng.NextDouble() * 0.3);

  const int threads = 2 + static_cast<int>(meta_rng.Uniform(14));
  const int ops_per_thread =
      (100 + static_cast<int>(meta_rng.Uniform(200))) * (long_fuzz ? 4 : 1);
  const uint64_t key_space = 2 * loaded + 100;

  Oracle oracle;
  std::map<Key, uint64_t> last_value_by_thread[16];
  testutil::SeedOracle(&oracle, bench::MakeLoadKvs(loaded));

  // Seeded random kill: arm a random crash site with a random hit ordinal
  // against a random victim client (never client 0 — it drives the final
  // recovery). The victim dies mid-mix while the surviving clients keep
  // operating through the torn window (lease steals, probes, recovery).
  int victim_cs = -1;
  if (fc.kill) {
    victim_cs = 1 + static_cast<int>(
                        meta_rng.Uniform(fcfg.num_compute_servers - 1));
    std::vector<std::string> sites;
    for (const std::string& s : fault::CrashSiteNames()) {
      if (s.rfind("flip.", 0) == 0) continue;  // no migration in kill mixes
      // rdwc windows only open behind HybridClient; in these ShermanSystem
      // runs an armed rdwc site would never fire (RdwcFuzzTest covers them).
      if (s.rfind("rdwc.", 0) == 0) continue;
      sites.push_back(s);
    }
    const std::string site = sites[meta_rng.Uniform(sites.size())];
    fault::Injector().Arm(site, 1 + static_cast<uint32_t>(meta_rng.Uniform(4)),
                          victim_cs);
  }

  int done = 0;
  for (int t = 0; t < threads; t++) {
    sim::Spawn(FuzzWorker(&system, t, fc.seed * 97 + t, ops_per_thread,
                          key_space, fc.delete_heavy, &oracle,
                          &last_value_by_thread[t], &done));
  }

  // Elastic cases: a memory server joins MID-fuzz — the AddMemoryServer
  // (QP wiring, chunk manager bring-up) and the migration of the lower
  // half of the key space both happen at a seeded simulated instant while
  // every op stream has work in flight.
  migrate::Migrator migrator(&system, {});
  Status mig_st = Status::OK();
  bool mig_done = true;
  if (fc.elastic && system.DebugHeight() >= 2) {
    mig_done = false;
    const sim::SimTime grow_at = 50'000 + meta_rng.Uniform(500'000);
    system.simulator().At(grow_at, [&system, &migrator, key_space, &mig_st,
                                    &mig_done] {
      const int target = system.AddMemoryServer();
      sim::Spawn(ElasticEvent(&migrator, key_space / 2,
                              static_cast<uint16_t>(target), &mig_st,
                              &mig_done));
    });
  }

  system.simulator().Run();
  if (fc.kill && fault::Injector().fired()) {
    // The victim's workers died with it. Finish recovery from a survivor
    // (the failure-detector role; organic steals may already have run it),
    // then exempt the victim's writes from the lost-update rule — its
    // in-flight op at death is legitimately either-state.
    bool recovered = false;
    sim::Spawn([](ShermanSystem* sys, int victim,
                  bool* flag) -> sim::Task<void> {
      co_await sys->simulator().Delay(10 * 20'000);
      co_await sys->client(0).recoverer().RecoverDeadOwner(
          static_cast<uint16_t>(victim) + 1);
      *flag = true;
    }(&system, victim_cs, &recovered));
    system.simulator().Run();
    ASSERT_TRUE(recovered);

    int survivor_workers = 0;
    for (int t = 0; t < threads; t++) {
      if (t % fcfg.num_compute_servers == victim_cs) {
        for (const auto& [k, v] : last_value_by_thread[t]) {
          oracle[k].deleted = true;  // exempt from the lost-update rule
        }
        last_value_by_thread[t].clear();
      } else {
        survivor_workers++;
      }
    }
    EXPECT_GE(done, survivor_workers) << "a survivor worker wedged";
    // Every dead pin was released by recovery; survivors all retired.
    EXPECT_EQ(system.reclaim_epoch().pinned_ops(), 0u);
  } else {
    ASSERT_EQ(done, threads);
  }
  ASSERT_TRUE(mig_done);
  EXPECT_TRUE(mig_st.ok()) << mig_st.ToString();

  testutil::CheckOracleAtQuiescence(&system, oracle, last_value_by_thread,
                                    threads);
  fault::Injector().Reset();
}

// Extreme-skew fuzz over the hybrid system with RDWC delegation +
// combining on: 90% of every op stream lands in a tiny hot span, so
// write windows are constantly open while deletes, batches, and range
// queries (which always bypass the table) interleave. The kill seeds arm a
// random rdwc.* crash site — the delegate dies mid-window, its followers
// are served or re-run, and the oracle must still hold at quiescence. The
// hot keys' histories must be linearizable, kills included.
TEST(RdwcFuzzTest, ExtremeSkewWithDelegationAgainstOracle) {
  const bool long_fuzz = std::getenv("SHERMAN_LONG_FUZZ") != nullptr;
  const uint64_t seeds = long_fuzz ? 12 : 4;
  const char* rdwc_sites[] = {"rdwc.open", "rdwc.bound", "rdwc.written"};
  for (uint64_t seed = 1; seed <= seeds; seed++) {
    Random meta_rng(7000 + seed);
    fault::Injector().Reset();
    const bool kill = (seed % 2 == 0);  // alternate plain / delegate-death

    HybridOptions opt;
    opt.tree = ShermanOptions();
    opt.tree.shape.node_size = 256;
    opt.router.num_shards = 4 + static_cast<int>(meta_rng.Uniform(8));
    opt.rdwc.enable_delegation = true;
    opt.rdwc.enable_combining = true;
    opt.rdwc.sample_shift = 0;
    opt.rdwc.promote_threshold = 2;
    opt.rdwc.hot_window_ns = 50'000'000;
    opt.rdwc.follower_timeout_ns = 30'000;
    if (kill) {
      opt.tree.lock.lease_period_ns = 20'000;
      opt.tree.lock.lease_expiry_periods = 4;
    }

    rdma::FabricConfig fcfg;
    fcfg.num_memory_servers = 1 + static_cast<int>(meta_rng.Uniform(3));
    fcfg.num_compute_servers = 2 + static_cast<int>(meta_rng.Uniform(3));
    fcfg.ms_memory_bytes = 32ull << 20;

    HybridSystem system(fcfg, opt);
    const uint64_t loaded = 300 + meta_rng.Uniform(1'000);
    system.BulkLoad(bench::MakeLoadKvs(loaded),
                    0.7 + meta_rng.NextDouble() * 0.3);

    const int threads = 4 + static_cast<int>(meta_rng.Uniform(10));
    const int ops_per_thread =
        (100 + static_cast<int>(meta_rng.Uniform(150))) * (long_fuzz ? 4 : 1);
    const uint64_t key_space = 2 * loaded + 100;
    const uint64_t hot_span = 1 + meta_rng.Uniform(12);  // the hot keys

    Oracle oracle;
    std::map<Key, uint64_t> last_value_by_thread[16];
    testutil::SeedOracle(&oracle, bench::MakeLoadKvs(loaded));
    testutil::RegisterHistory hist;
    for (const auto& [k, v] : bench::MakeLoadKvs(loaded)) {
      if (k <= hot_span) hist.Initial(k, v);
    }

    int victim_cs = -1;
    if (kill) {
      victim_cs = 1 + static_cast<int>(
                          meta_rng.Uniform(fcfg.num_compute_servers - 1));
      fault::Injector().Arm(rdwc_sites[meta_rng.Uniform(3)],
                            1 + static_cast<uint32_t>(meta_rng.Uniform(4)),
                            victim_cs);
    }

    int done = 0;
    for (int t = 0; t < threads; t++) {
      sim::Spawn(FuzzWorker(&system, t, seed * 131 + t, ops_per_thread,
                            key_space, /*delete_heavy=*/false, &oracle,
                            &last_value_by_thread[t], &done, hot_span,
                            &hist));
    }
    system.simulator().Run();

    if (kill && fault::Injector().fired()) {
      bool recovered = false;
      sim::Spawn([](HybridSystem* sys, int victim,
                    bool* flag) -> sim::Task<void> {
        co_await sys->simulator().Delay(10 * 20'000);
        co_await sys->sherman().client(0).recoverer().RecoverDeadOwner(
            static_cast<uint16_t>(victim) + 1);
        *flag = true;
      }(&system, victim_cs, &recovered));
      system.simulator().Run();
      ASSERT_TRUE(recovered) << "seed " << seed;

      int survivor_workers = 0;
      for (int t = 0; t < threads; t++) {
        if (t % fcfg.num_compute_servers == victim_cs) {
          for (const auto& [k, v] : last_value_by_thread[t]) {
            oracle[k].deleted = true;  // exempt from the lost-update rule
          }
          last_value_by_thread[t].clear();
        } else {
          survivor_workers++;
        }
      }
      EXPECT_GE(done, survivor_workers)
          << "seed " << seed << ": a survivor worker wedged";
      EXPECT_EQ(system.sherman().reclaim_epoch().pinned_ops(), 0u);
    } else {
      ASSERT_EQ(done, threads) << "seed " << seed;
      // Skew + eager promotion must actually exercise the windows.
      EXPECT_GT(system.sherman().registry().Snapshot().counter(
                    "rdwc.windows_opened"),
                0u)
          << "seed " << seed;
    }
    EXPECT_EQ(system.rdwc()->open_windows(), 0u) << "seed " << seed;
    const std::vector<std::string> bad = hist.Check();
    EXPECT_TRUE(bad.empty()) << "seed " << seed << ": " << bad.size()
                             << " linearizability violations, first: "
                             << bad.front();

    testutil::CheckOracleAtQuiescence(&system.sherman(), oracle,
                                      last_value_by_thread, threads);
    fault::Injector().Reset();
  }
}

// ---------------------------------------------------------------------------
// Variable-length fuzz: string keys (16-40 bytes, the ycsb-string mapping)
// and values whose length is redrawn on every update — empty, inline
// (< 64 B), exactly at the threshold, and out-of-line — so updates cross
// the inline threshold in both directions constantly. Tiny vlog segments
// keep sealing + GC running mid-mix, and a dice slot calls VlogGcOnce
// concurrently with the op streams, so copy-then-flip relocation races
// every reader and writer. Checked against the string-key oracle, and
// the hot keys' histories for per-key linearizability.

// A unique, deterministic value of exactly `len` bytes (len 0 = empty).
std::string VarFuzzValue(int tid, int i, int b, uint32_t len) {
  if (len == 0) return std::string();
  std::string v = "t";
  v += std::to_string(tid);
  v += '.';
  v += std::to_string(i);
  v += '.';
  v += std::to_string(b);
  v += ':';
  v.resize(len, 'a' + static_cast<char>((tid + i + b) % 23));
  return v;
}

// The bulk-loaded value of `key`.
std::string VarLoadValue(const std::string& key) { return "load:" + key; }

// A hot key's value as a register-history value: (tid + 1) << 32 | i << 8
// | b, decoded from the "t<tid>.<i>.<b>:" tag (at most 9 bytes, so every
// hot value is at least 16 B); 0 for the key's bulk-loaded value. A value
// that is neither (a torn one) maps to a value no write has.
constexpr uint64_t kLoadValueId = 0;
constexpr uint64_t kTornValueId = ~0ull;
uint64_t VarValueId(const std::string& key, const std::string& v) {
  if (v == VarLoadValue(key)) return kLoadValueId;
  int tid = 0;
  int i = 0;
  int b = 0;
  int tag = 0;
  if (std::sscanf(v.c_str(), "t%d.%d.%d:%n", &tid, &i, &b, &tag) != 3 ||
      tag == 0 ||
      v != VarFuzzValue(tid, i, b, static_cast<uint32_t>(v.size()))) {
    return kTornValueId;
  }
  return (static_cast<uint64_t>(tid + 1) << 32) |
         (static_cast<uint64_t>(i) << 8) | static_cast<uint64_t>(b);
}

// FuzzWorker's string-key twin. `hot_span` > 0 lands 90% of key draws on
// ranks [1, hot_span]; with `hist`, every put, delete, lookup and
// multi-get of a hot key goes into its register history (keyed by rank).
sim::Task<void> VarFuzzWorker(ShermanSystem* sys, int tid, uint64_t seed,
                              int n_ops, uint64_t space, bool delete_heavy,
                              testutil::VarOracle* orc,
                              std::map<std::string, std::string>* my_last,
                              int* d, uint64_t hot_span = 0,
                              testutil::RegisterHistory* hist = nullptr) {
  auto& client = sys->client(tid % sys->num_clients());
  sim::Simulator& sim = sys->simulator();
  Random rng(seed);
  const auto tracked = [hist, hot_span](uint64_t rank) {
    return hist != nullptr && rank <= hot_span;
  };
  const auto key_of = [](uint64_t rank) {
    return WorkloadGenerator::StringKeyFor(rank, 16, 40);
  };
  const auto pick_rank = [&rng, hot_span, space]() -> uint64_t {
    if (hot_span > 0 && rng.Bernoulli(0.9)) return 1 + rng.Uniform(hot_span);
    return 1 + rng.Uniform(space);
  };
  const auto pick_key = [&]() { return key_of(pick_rank()); };
  // Redraw a length on every write: empty, inline, the exact threshold
  // boundary, or out-of-line — successive updates to one key cross the
  // inline threshold both ways.
  const auto draw_len = [&rng]() -> uint32_t {
    const uint64_t d2 = rng.Uniform(8);
    if (d2 == 0) return 0;
    if (d2 < 4) return 8 + static_cast<uint32_t>(rng.Uniform(56));   // inline
    if (d2 == 4) return 64;                        // exactly at the threshold
    return 65 + static_cast<uint32_t>(rng.Uniform(160));       // out-of-line
  };
  // A tracked key's value keeps its whole tag.
  const auto value_len = [&](uint64_t rank) {
    const uint32_t len = draw_len();
    return tracked(rank) ? std::max<uint32_t>(len, 16) : len;
  };
  const auto record_get = [&](uint64_t rank, sim::SimTime invoke,
                              const Status& st, const std::string& v) {
    if (tracked(rank) && st.ok()) {
      hist->Read(rank, invoke, sim.now(), VarValueId(key_of(rank), v));
    }
  };
  const auto record_write = [&](const std::string& key,
                                const std::string& value) {
    (*orc)[key].written_values.insert(value);
    (*orc)[key].writers.insert(tid);
    (*my_last)[key] = value;
  };
  const auto exempt = [&](const std::string& key) {
    (*orc)[key].deleted = true;
    my_last->erase(key);
  };

  const uint64_t d_ins = delete_heavy ? 2 : 3;
  const uint64_t d_mins = delete_heavy ? 3 : 5;
  const uint64_t d_look = delete_heavy ? 4 : 8;
  const uint64_t d_mget = delete_heavy ? 5 : 9;
  const uint64_t d_del = 10;  // churn mix gets 5 delete slots, plain gets 1
  for (int i = 0; i < n_ops; i++) {
    const uint64_t dice = rng.Uniform(13);
    const sim::SimTime invoke = sim.now();
    if (dice < d_ins) {  // singleton insert/update
      const uint64_t rank = pick_rank();
      const std::string key = key_of(rank);
      const std::string value = VarFuzzValue(tid, i, 0, value_len(rank));
      record_write(key, value);
      const size_t op =
          tracked(rank)
              ? hist->BeginWrite(rank, VarValueId(key, value), invoke)
              : 0;
      Status st = co_await client.InsertVar(Slice(key), Slice(value));
      if (st.IsOutOfMemory()) {
        exempt(key);
        if (tracked(rank)) hist->Exclude(rank);
        continue;
      }
      EXPECT_TRUE(st.ok()) << st.ToString();
      if (tracked(rank)) hist->EndWrite(rank, op, sim.now());
    } else if (dice < d_mins) {  // batched MultiInsertVar
      std::vector<std::pair<std::string, std::string>> kvs;
      // Every instance of a hot key is a write: a batch applies one key's
      // instances in order, and an instance that falls back to the
      // singleton path is visible until the next one lands.
      std::vector<std::pair<uint64_t, size_t>> writes;  // (rank, op)
      const int batch = 2 + static_cast<int>(rng.Uniform(4));
      for (int b = 0; b < batch; b++) {
        const uint64_t rank = pick_rank();
        const std::string k = key_of(rank);
        const std::string value =
            VarFuzzValue(tid, i, 1 + b, value_len(rank));
        record_write(k, value);
        kvs.emplace_back(k, value);
        if (tracked(rank)) {
          writes.emplace_back(
              rank, hist->BeginWrite(rank, VarValueId(k, value), invoke));
        }
      }
      std::vector<std::pair<std::string, std::string>> issued = kvs;
      Status st = co_await client.MultiInsertVar(std::move(issued));
      if (st.IsOutOfMemory()) {
        for (const auto& [k, v] : kvs) exempt(k);
        for (const auto& [rank, op] : writes) hist->Exclude(rank);
        continue;
      }
      EXPECT_TRUE(st.ok()) << st.ToString();
      for (const auto& [rank, op] : writes) hist->EndWrite(rank, op, sim.now());
    } else if (dice < d_look) {  // singleton lookup
      const uint64_t rank = pick_rank();
      const std::string key = key_of(rank);
      std::string v;
      Status st = co_await client.LookupVar(Slice(key), &v);
      testutil::CheckVarRead(*orc, key, st, v);
      record_get(rank, invoke, st, v);
    } else if (dice < d_mget) {  // batched MultiGetVar
      std::vector<uint64_t> ranks;
      std::vector<std::string> keys;
      const int batch = 2 + static_cast<int>(rng.Uniform(6));
      for (int b = 0; b < batch; b++) {
        ranks.push_back(pick_rank());
        keys.push_back(key_of(ranks.back()));
      }
      std::vector<VarGetResult> got;
      Status st = co_await client.MultiGetVar(keys, &got);
      EXPECT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(got.size(), keys.size());
      for (size_t b = 0; b < got.size() && b < keys.size(); b++) {
        testutil::CheckVarRead(*orc, keys[b], got[b].status, got[b].value);
        record_get(ranks[b], invoke, got[b].status, got[b].value);
      }
    } else if (dice < d_del) {  // delete (unconditional mark: see FuzzWorker)
      const uint64_t rank = pick_rank();
      const std::string key = key_of(rank);
      (*orc)[key].deleted = true;
      my_last->erase(key);
      const size_t op = tracked(rank) ? hist->BeginDelete(rank, invoke) : 0;
      Status st = co_await client.DeleteVar(Slice(key));
      EXPECT_TRUE(st.ok() || st.IsNotFound()) << st.ToString();
      if (tracked(rank)) hist->EndWrite(rank, op, sim.now());
    } else if (dice < 12) {  // ordered scan
      const std::string from = pick_key();
      std::vector<std::pair<std::string, std::string>> out;
      Status st = co_await client.ScanVar(
          Slice(from), 1 + static_cast<uint32_t>(rng.Uniform(30)), &out);
      EXPECT_TRUE(st.ok()) << st.ToString();
      for (size_t j = 1; j < out.size(); j++) {
        EXPECT_LT(out[j - 1].first, out[j].first) << "unsorted scan";
      }
      for (const auto& [k2, v2] : out) {
        testutil::CheckVarRead(*orc, k2, Status::OK(), v2);
      }
    } else {  // concurrent segment GC: copy-then-flip races every other op
      Status st = co_await client.VlogGcOnce();
      // Tiny fabrics can run out of chunks mid-relocation; the pass aborts
      // cleanly (victim stays claimed) and that's fine.
      EXPECT_TRUE(st.ok() || st.IsOutOfMemory()) << st.ToString();
    }
  }
  (*d)++;
}

TEST(VarFuzzTest, StringKeysVariableValuesAgainstOracle) {
  const bool long_fuzz = std::getenv("SHERMAN_LONG_FUZZ") != nullptr;
  const uint64_t seeds = long_fuzz ? 16 : 6;
  for (uint64_t seed = 1; seed <= seeds; seed++) {
    Random meta_rng(9000 + seed);
    const bool delete_heavy = (seed % 2 == 0);

    TreeOptions topt = ShermanOptions();
    topt.two_level_versions = false;  // varlen requires sorted leaves
    topt.shape.varlen = true;
    const uint32_t node_sizes[] = {512, 1024};
    topt.shape.node_size = node_sizes[meta_rng.Uniform(2)];
    topt.cache_bytes = (64 << 10) << meta_rng.Uniform(3);
    topt.enable_leaf_hints = std::getenv("SHERMAN_FUZZ_HINTS") != nullptr;
    // Tiny segments (the 8 KB floor): constant sealing, rotation, and
    // GC-victim pressure.
    topt.vlog_segment_bytes = 8 << 10;

    rdma::FabricConfig fcfg;
    fcfg.num_memory_servers = 1 + static_cast<int>(meta_rng.Uniform(3));
    fcfg.num_compute_servers = 1 + static_cast<int>(meta_rng.Uniform(3));
    fcfg.ms_memory_bytes = 32ull << 20;

    ShermanSystem system(fcfg, topt);
    const uint64_t loaded = 100 + meta_rng.Uniform(700);
    std::vector<std::pair<std::string, std::string>> load;
    for (uint64_t r = 1; r <= loaded; r++) {
      const std::string k = WorkloadGenerator::StringKeyFor(r, 16, 40);
      load.emplace_back(k, VarLoadValue(k));  // inline-sized, unique per key
    }
    std::sort(load.begin(), load.end());
    load.erase(std::unique(load.begin(), load.end(),
                           [](const auto& a, const auto& b) {
                             return a.first == b.first;
                           }),
               load.end());
    system.BulkLoadVar(load, 0.7 + meta_rng.NextDouble() * 0.3);

    testutil::VarOracle oracle;
    testutil::SeedVarOracle(&oracle, load);
    std::map<std::string, std::string> last_value_by_thread[16];

    const int threads = 2 + static_cast<int>(meta_rng.Uniform(8));
    const int ops_per_thread =
        (80 + static_cast<int>(meta_rng.Uniform(140))) * (long_fuzz ? 4 : 1);
    const uint64_t key_space = 2 * loaded + 100;
    const uint64_t hot_span = 1 + meta_rng.Uniform(12);  // the hot ranks
    testutil::RegisterHistory hist;
    for (uint64_t r = 1; r <= hot_span; r++) hist.Initial(r, kLoadValueId);

    int done = 0;
    for (int t = 0; t < threads; t++) {
      sim::Spawn(VarFuzzWorker(&system, t, seed * 211 + t, ops_per_thread,
                               key_space, delete_heavy, &oracle,
                               &last_value_by_thread[t], &done, hot_span,
                               &hist));
    }
    system.simulator().Run();
    ASSERT_EQ(done, threads) << "seed " << seed;
    const std::vector<std::string> bad = hist.Check();
    EXPECT_TRUE(bad.empty()) << "seed " << seed << ": " << bad.size()
                             << " linearizability violations, first: "
                             << bad.front();

    testutil::CheckVarOracleAtQuiescence(&system, oracle,
                                         last_value_by_thread, threads);

    // GC to a fixpoint at quiescence: relocation (copy fresh extent, flip
    // the leaf pointer, retire the old extent) must not change one byte of
    // tree content.
    const auto before = system.DebugScanLeavesVar();
    bool gc_done = false;
    sim::Spawn([](ShermanSystem* sys, bool* flag) -> sim::Task<void> {
      for (int pass = 0; pass < 8; pass++) {
        uint64_t moved = 0;
        for (int cs = 0; cs < sys->num_clients(); cs++) {
          uint64_t m = 0;
          Status st = co_await sys->client(cs).VlogGcOnce(&m);
          EXPECT_TRUE(st.ok() || st.IsOutOfMemory()) << st.ToString();
          moved += m;
        }
        if (moved == 0) break;
      }
      *flag = true;
    }(&system, &gc_done));
    system.simulator().Run();
    ASSERT_TRUE(gc_done) << "seed " << seed;
    EXPECT_EQ(before, system.DebugScanLeavesVar())
        << "seed " << seed << ": GC changed tree content";
    system.DebugCheckInvariants();
  }
}

std::vector<FuzzCase> MakeCases() {
  std::vector<FuzzCase> cases;
  const char* presets[] = {"sherman", "fg+", "+on-chip"};
  const bool long_fuzz = std::getenv("SHERMAN_LONG_FUZZ") != nullptr;
  const uint64_t plain_seeds = long_fuzz ? 36 : 12;
  const uint64_t elastic_seeds = long_fuzz ? 12 : 4;
  const uint64_t churn_seeds = long_fuzz ? 12 : 4;
  const uint64_t churn_elastic_seeds = long_fuzz ? 12 : 4;
  for (uint64_t seed = 1; seed <= plain_seeds; seed++) {
    cases.push_back(FuzzCase{seed, presets[seed % 3], false, false});
  }
  for (uint64_t seed = 1; seed <= elastic_seeds; seed++) {
    cases.push_back(FuzzCase{1000 + seed, presets[seed % 3], true, false});
  }
  // Delete-heavy churn: merging + reclamation under every preset, alone
  // and racing AddMemoryServer + live migration.
  for (uint64_t seed = 1; seed <= churn_seeds; seed++) {
    cases.push_back(FuzzCase{2000 + seed, presets[seed % 3], false, true});
  }
  for (uint64_t seed = 1; seed <= churn_elastic_seeds; seed++) {
    cases.push_back(FuzzCase{3000 + seed, presets[seed % 3], true, true});
  }
  // Random-kill: a client dies at a seeded crash point mid-mix while the
  // survivors keep operating; lease steal + recovery must leave an
  // oracle-consistent tree. Plain and delete-heavy mixes (the churn mixes
  // hit the merge sites; the insert-heavy ones hit the split sites).
  const uint64_t kill_seeds = long_fuzz ? 12 : 4;
  const uint64_t churn_kill_seeds = long_fuzz ? 8 : 3;
  for (uint64_t seed = 1; seed <= kill_seeds; seed++) {
    cases.push_back(FuzzCase{4000 + seed, presets[seed % 3], false, false,
                             /*kill=*/true});
  }
  for (uint64_t seed = 1; seed <= churn_kill_seeds; seed++) {
    cases.push_back(FuzzCase{5000 + seed, presets[seed % 3], false, true,
                             /*kill=*/true});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::ValuesIn(MakeCases()),
                         [](const auto& info) {
                           std::string p = info.param.preset;
                           for (char& c : p) {
                             if (!isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return "seed" + std::to_string(info.param.seed) +
                                  "_" + p +
                                  (info.param.elastic ? "_elastic" : "") +
                                  (info.param.delete_heavy ? "_churn" : "") +
                                  (info.param.kill ? "_kill" : "");
                         });

}  // namespace
}  // namespace sherman
