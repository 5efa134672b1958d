// Tests for the doorbell-batched multi-op path: TreeClient MultiGet /
// MultiInsert correctness (including under concurrent inserts and splits),
// HybridClient batches straddling shard and path boundaries with MS-side
// declines falling back one-sided, and the bench runner's pipeline depth.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "bench/runner.h"
#include "core/hybrid_system.h"
#include "core/node_layout.h"
#include "core/presets.h"
#include "util/random.h"

namespace sherman {
namespace {

using route::Path;

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

// --- TreeClient::MultiGet --------------------------------------------------

TEST(MultiGetTest, MatchesSingletonLookups) {
  ShermanSystem system(SmallFabric(), ShermanOptions());
  const uint64_t n = 10'000;
  system.BulkLoad(bench::MakeLoadKvs(n), 0.8);

  bool done = false;
  sim::Spawn([](TreeClient* c, uint64_t n_keys, bool* flag) -> sim::Task<void> {
    Random rng(17);
    // Batches mixing present (even), absent (odd), and duplicate keys.
    for (int round = 0; round < 20; round++) {
      std::vector<Key> keys;
      for (int i = 0; i < 24; i++) {
        const Key even = 2 * (1 + rng.Uniform(n_keys));
        keys.push_back(rng.Bernoulli(0.3) ? even + 1 : even);
      }
      keys.push_back(keys.front());  // duplicate within the batch
      std::vector<MultiGetResult> got;
      Status st = co_await c->MultiGet(keys, &got);
      EXPECT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(got.size(), keys.size());
      for (size_t i = 0; i < keys.size(); i++) {
        uint64_t want = 0;
        Status single = co_await c->Lookup(keys[i], &want);
        EXPECT_EQ(got[i].status, single)
            << "key " << keys[i] << ": " << got[i].status.ToString();
        if (single.ok()) {
          EXPECT_EQ(got[i].value, want) << "key " << keys[i];
        }
      }
    }
    *flag = true;
  }(&system.client(0), n, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
}

TEST(MultiGetTest, ColdCacheBatchesLeafReadsPerMs) {
  TreeOptions topt = ShermanOptions();
  topt.enable_cache = false;  // every key plans via traversal
  ShermanSystem system(SmallFabric(/*ms=*/4), topt);
  const uint64_t n = 20'000;
  system.BulkLoad(bench::MakeLoadKvs(n), 0.8);

  bool done = false;
  sim::Spawn([](TreeClient* c, uint64_t n_keys, bool* flag) -> sim::Task<void> {
    // Warm the root pointer so the batch measures steady-state planning
    // (a fresh client pays LoadRoot once, in any path).
    uint64_t warm = 0;
    EXPECT_TRUE((co_await c->Lookup(2, &warm)).ok());
    std::vector<Key> keys;
    Random rng(5);
    for (int i = 0; i < 16; i++) keys.push_back(2 * (1 + rng.Uniform(n_keys)));
    OpStats stats;
    std::vector<MultiGetResult> got;
    Status st = co_await c->MultiGet(keys, &got, &stats);
    EXPECT_TRUE(st.ok());
    for (size_t i = 0; i < keys.size(); i++) {
      EXPECT_TRUE(got[i].status.ok()) << got[i].status.ToString();
      EXPECT_EQ(got[i].value, keys[i] * 31 + 7);
    }
    // 16 distinct leaves over 4 MSs: the leaf fetch phase is at most one
    // doorbell ring per MS, far fewer round trips than 16 singleton
    // lookups' leaf reads (planning descents dominate the rest).
    EXPECT_LT(stats.round_trips, 16u * 3u);
    *flag = true;
  }(&system.client(0), n, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
}

TEST(MultiGetTest, CorrectUnderConcurrentInsertsAndSplits) {
  TreeOptions topt = ShermanOptions();
  topt.shape.node_size = 256;  // small nodes: splits come fast
  ShermanSystem system(SmallFabric(), topt);
  const uint64_t n = 2'000;
  system.BulkLoad(bench::MakeLoadKvs(n), 1.0);  // full leaves

  // A writer inserts fresh odd keys (forcing splits) while a reader runs
  // MultiGet batches over the stable even keys; stale cached plans and
  // mid-split leaves must be retried, never returning wrong data.
  bool writer_done = false, reader_done = false;
  sim::Spawn([](TreeClient* c, uint64_t n_keys, bool* flag) -> sim::Task<void> {
    Random rng(31);
    for (int i = 0; i < 600; i++) {
      const Key odd = 2 * (1 + rng.Uniform(n_keys)) + 1;
      Status st = co_await c->Insert(odd, odd * 3);
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
    *flag = true;
  }(&system.client(0), n, &writer_done));
  sim::Spawn([](TreeClient* c, uint64_t n_keys, bool* flag) -> sim::Task<void> {
    Random rng(32);
    for (int round = 0; round < 60; round++) {
      std::vector<Key> keys;
      for (int i = 0; i < 16; i++) {
        keys.push_back(2 * (1 + rng.Uniform(n_keys)));
      }
      std::vector<MultiGetResult> got;
      Status st = co_await c->MultiGet(keys, &got);
      EXPECT_TRUE(st.ok()) << st.ToString();
      for (size_t i = 0; i < keys.size(); i++) {
        EXPECT_TRUE(got[i].status.ok())
            << "key " << keys[i] << ": " << got[i].status.ToString();
        EXPECT_EQ(got[i].value, keys[i] * 31 + 7) << "key " << keys[i];
      }
    }
    *flag = true;
  }(&system.client(1), n, &reader_done));
  system.simulator().Run();
  ASSERT_TRUE(writer_done);
  ASSERT_TRUE(reader_done);
  system.DebugCheckInvariants();
}

// --- TreeClient::MultiInsert -----------------------------------------------

TEST(MultiInsertTest, AppliesUpdatesFreshKeysAndSplits) {
  TreeOptions topt = ShermanOptions();
  topt.shape.node_size = 256;
  ShermanSystem system(SmallFabric(), topt);
  const uint64_t n = 1'000;
  system.BulkLoad(bench::MakeLoadKvs(n), 1.0);  // full: fresh keys split

  bool done = false;
  sim::Spawn([](TreeClient* c, uint64_t n_keys, bool* flag) -> sim::Task<void> {
    Random rng(7);
    std::set<Key> odd_inserted;
    for (int round = 0; round < 40; round++) {
      std::vector<std::pair<Key, uint64_t>> kvs;
      for (int i = 0; i < 12; i++) {
        const Key even = 2 * (1 + rng.Uniform(n_keys));
        if (rng.Bernoulli(0.5)) {
          kvs.emplace_back(even, even * 100 + static_cast<uint64_t>(round));
        } else {
          kvs.emplace_back(even + 1, even * 200 + static_cast<uint64_t>(round));
          odd_inserted.insert(even + 1);
        }
      }
      Status st = co_await c->MultiInsert(kvs, nullptr);
      EXPECT_TRUE(st.ok()) << st.ToString();
      // Every key in the batch must read back with the batch's value
      // (later duplicates win, so scan from the back).
      std::set<Key> checked;
      for (auto it = kvs.rbegin(); it != kvs.rend(); ++it) {
        if (!checked.insert(it->first).second) continue;
        uint64_t v = 0;
        Status look = co_await c->Lookup(it->first, &v);
        EXPECT_TRUE(look.ok()) << "key " << it->first;
        EXPECT_EQ(v, it->second) << "key " << it->first;
      }
    }
    *flag = true;
  }(&system.client(0), n, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
  system.DebugCheckInvariants();
  // The fill-1.0 bulkload guarantees fresh odd keys forced splits.
  EXPECT_GT(system.DebugHeight(), 1u);
}

TEST(MultiInsertTest, DuplicateKeysInOneBatchLastWins) {
  ShermanSystem system(SmallFabric(), ShermanOptions());
  system.BulkLoad(bench::MakeLoadKvs(100), 0.8);

  bool done = false;
  sim::Spawn([](TreeClient* c, bool* flag) -> sim::Task<void> {
    std::vector<std::pair<Key, uint64_t>> kvs = {
        {10, 111}, {12, 222}, {10, 333}, {10, 444}, {12, 555}};
    EXPECT_TRUE((co_await c->MultiInsert(kvs, nullptr)).ok());
    uint64_t v = 0;
    EXPECT_TRUE((co_await c->Lookup(10, &v)).ok());
    EXPECT_EQ(v, 444u);
    EXPECT_TRUE((co_await c->Lookup(12, &v)).ok());
    EXPECT_EQ(v, 555u);
    *flag = true;
  }(&system.client(0), &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
}

// An out-of-line batch reserves its extents up front and posts all their
// WRITEs at once, beside its plan and lock: it costs about what the same
// batch costs inline, not one value-log round trip per record on top.
TEST(MultiInsertTest, OutOfLineValueWritesOverlap) {
  TreeOptions topt = ShermanOptions();
  topt.two_level_versions = false;  // varlen requires sorted leaves
  topt.shape.varlen = true;
  topt.shape.node_size = 1024;
  ShermanSystem system(SmallFabric(), topt);
  system.BulkLoadVar({}, 0.8);  // one leaf takes every key below

  sim::SimTime inline_ns = 0;
  sim::SimTime outline_ns = 0;
  bool done = false;
  sim::Spawn([](ShermanSystem* s, sim::SimTime* inline_ns,
                sim::SimTime* outline_ns, bool* flag) -> sim::Task<void> {
    TreeClient& c = s->client(0);
    sim::Simulator& sim = s->simulator();
    // The warm-up put opens the value-log segment the batch appends to.
    const std::string warm_key = "warm-up";
    const std::string warm_value(100, 'w');
    EXPECT_TRUE(
        (co_await c.InsertVar(Slice(warm_key), Slice(warm_value))).ok());
    const auto batch = [](uint32_t vlen) {
      std::vector<std::pair<std::string, std::string>> kvs;
      for (char k = 'a'; k < 'a' + 8; k++) {
        kvs.emplace_back(std::string("key-") + k, std::string(vlen, k));
      }
      return kvs;
    };
    sim::SimTime start = sim.now();
    EXPECT_TRUE((co_await c.MultiInsertVar(batch(40))).ok());
    *inline_ns = sim.now() - start;
    start = sim.now();
    EXPECT_TRUE((co_await c.MultiInsertVar(batch(100))).ok());
    *outline_ns = sim.now() - start;
    std::string got;
    EXPECT_TRUE((co_await c.LookupVar(Slice("key-h"), &got)).ok());
    EXPECT_EQ(got, std::string(100, 'h'));
    *flag = true;
  }(&system, &inline_ns, &outline_ns, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(system.DebugCountLeaves(), 1u);
  EXPECT_EQ(system.registry().Snapshot().counter("vlog.appends"), 9u);
  EXPECT_LE(outline_ns * 10, inline_ns * 11)
      << "out-of-line batch " << outline_ns << " ns, inline " << inline_ns
      << " ns";
}

// A varlen batch keeps "the later write wins" when its leaf refuses an
// earlier instance of a key but could take a later, smaller one: a 60-byte
// inline value needs 60 leaf bytes, a 100-byte out-of-line one only its
// 8-byte pointer. Every later instance of a deferred key is deferred too,
// so the singleton fallback applies them in batch order.
TEST(MultiInsertTest, VarDuplicateKeyAfterADeferredInstanceStaysLast) {
  TreeOptions topt = ShermanOptions();
  topt.two_level_versions = false;  // varlen requires sorted leaves
  topt.shape.varlen = true;
  topt.shape.node_size = 512;
  ShermanSystem system(SmallFabric(), topt);
  // One root leaf filled to 67 free bytes: 7 entries of 8-byte keys with
  // distinct first bytes (no shared prefix) and 40- or 44-byte values,
  // each with its 8-byte slot.
  std::vector<std::pair<std::string, std::string>> kvs;
  for (char c = 'a'; c < 'a' + 7; c++) {
    kvs.emplace_back(std::string(1, c) + "-filler",
                     std::string(c == 'a' ? 44 : 40, c));
  }
  system.BulkLoadVar(kvs, 1.0);
  ASSERT_EQ(system.DebugCountLeaves(), 1u);
  const NodeView root(system.fabric().HostRaw(system.DebugRootAddr()),
                      &system.options().shape);
  ASSERT_EQ(root.VarFreeBytes(), 67u);

  bool done = false;
  sim::Spawn([](TreeClient* c, bool* flag) -> sim::Task<void> {
    const std::string key = "z-dupkey";
    std::vector<std::pair<std::string, std::string>> batch = {
        {key, std::string(60, 'A')}, {key, std::string(100, 'B')}};
    EXPECT_TRUE((co_await c->MultiInsertVar(batch)).ok());
    std::string got;
    EXPECT_TRUE((co_await c->LookupVar(Slice(key), &got)).ok());
    EXPECT_EQ(got, std::string(100, 'B'));
    *flag = true;
  }(&system.client(0), &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
  system.DebugCheckInvariants();
}

// --- TreeClient::MultiDelete -----------------------------------------------

TEST(MultiDeleteTest, MatchesSingletonDeletes) {
  ShermanSystem system(SmallFabric(), ShermanOptions());
  const uint64_t n = 5'000;
  system.BulkLoad(bench::MakeLoadKvs(n), 0.8);

  bool done = false;
  sim::Spawn([](TreeClient* c, uint64_t n_keys, bool* flag) -> sim::Task<void> {
    Random rng(19);
    std::set<Key> deleted;
    for (int round = 0; round < 20; round++) {
      // Batches mixing present (even), absent (odd), already-deleted, and
      // duplicate keys.
      std::vector<Key> keys;
      for (int i = 0; i < 16; i++) {
        const Key even = 2 * (1 + rng.Uniform(n_keys));
        keys.push_back(rng.Bernoulli(0.3) ? even + 1 : even);
      }
      keys.push_back(keys.front());  // duplicate within the batch
      std::vector<Key> expect_found;
      std::set<Key> in_batch;
      for (Key k : keys) {
        if (k % 2 == 0 && !deleted.count(k) && in_batch.insert(k).second) {
          expect_found.push_back(k);
        }
      }
      std::vector<Status> res;
      Status st = co_await c->MultiDelete(keys, &res);
      EXPECT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(res.size(), keys.size());
      // Exactly one OK per first-occurrence live key; everything else
      // NotFound.
      size_t ok_count = 0;
      for (size_t i = 0; i < keys.size(); i++) {
        EXPECT_TRUE(res[i].ok() || res[i].IsNotFound()) << res[i].ToString();
        if (res[i].ok()) ok_count++;
        if (keys[i] % 2 == 0) deleted.insert(keys[i]);
      }
      EXPECT_EQ(ok_count, expect_found.size());
      // Deleted keys must be gone through the read path.
      std::vector<MultiGetResult> got;
      EXPECT_TRUE((co_await c->MultiGet(keys, &got)).ok());
      for (size_t i = 0; i < keys.size(); i++) {
        EXPECT_TRUE(got[i].status.IsNotFound()) << "key " << keys[i];
      }
    }
    *flag = true;
  }(&system.client(0), n, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
  system.DebugCheckInvariants();
}

TEST(MultiDeleteTest, SameLeafGroupSharesOneDoorbell) {
  ShermanSystem system(SmallFabric(), ShermanOptions());
  const uint64_t n = 10'000;
  system.BulkLoad(bench::MakeLoadKvs(n), 0.8);

  bool done = false;
  sim::Spawn([](TreeClient* c, bool* flag) -> sim::Task<void> {
    // Warm the level-1 cache so planning is local for both measurements.
    uint64_t v = 0;
    EXPECT_TRUE((co_await c->Lookup(2, &v)).ok());
    // Six adjacent keys share the first leaf: one lock acquisition, one
    // read, and the entry clears + release in ONE doorbell — 3 round
    // trips, where six singleton deletes pay 3 each.
    std::vector<Key> keys;
    for (uint64_t r = 1; r <= 6; r++) {
      keys.push_back(WorkloadGenerator::LoadedKeyFor(r));
    }
    OpStats batch;
    std::vector<Status> res;
    Status st = co_await c->MultiDelete(keys, &res, &batch);
    EXPECT_TRUE(st.ok()) << st.ToString();
    for (const Status& s : res) EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_LE(batch.round_trips, 4u);

    OpStats singles;
    for (uint64_t r = 7; r <= 12; r++) {
      EXPECT_TRUE(
          (co_await c->Delete(WorkloadGenerator::LoadedKeyFor(r), &singles))
              .ok());
    }
    EXPECT_GE(singles.round_trips, 3u * 6u);
    EXPECT_LT(batch.round_trips, singles.round_trips / 3);
    *flag = true;
  }(&system.client(0), &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
}

// --- HybridClient batches across shards ------------------------------------

HybridOptions SmallHybrid(int shards = 8) {
  HybridOptions o;
  o.tree = ShermanOptions();
  o.router.num_shards = shards;
  return o;
}

TEST(HybridMultiOpTest, BatchStraddlesShardAndPathBoundaries) {
  HybridSystem system(SmallFabric(), SmallHybrid(8));
  const uint64_t n = 8'000;
  system.BulkLoad(bench::MakeLoadKvs(n), 0.8);

  // Alternate paths across shards so every wide batch splits into RPC
  // sub-batches (one coalesced request per shard) plus a one-sided pool.
  std::vector<Path> mixed(8);
  for (int s = 0; s < 8; s++) {
    mixed[s] = (s % 2 == 0) ? Path::kRpc : Path::kOneSided;
  }
  system.router().ForceAssignment(mixed);

  bool done = false;
  sim::Spawn([](HybridSystem* sys, uint64_t n_keys,
                bool* flag) -> sim::Task<void> {
    // Keys spread over the whole universe -> all shards touched.
    std::vector<Key> keys;
    for (int i = 0; i < 32; i++) {
      keys.push_back(2 * (1 + (n_keys / 32) * static_cast<uint64_t>(i)));
    }
    std::vector<MultiGetResult> got;
    OpStats stats;
    Status st = co_await sys->client(0).MultiGet(keys, &got, &stats);
    EXPECT_TRUE(st.ok()) << st.ToString();
    for (size_t i = 0; i < keys.size(); i++) {
      EXPECT_TRUE(got[i].status.ok())
          << "key " << keys[i] << ": " << got[i].status.ToString();
      EXPECT_EQ(got[i].value, keys[i] * 31 + 7);
    }
    // Writes across the same span, then read back through the other CS.
    std::vector<std::pair<Key, uint64_t>> kvs;
    for (Key k : keys) kvs.emplace_back(k, k * 9);
    EXPECT_TRUE((co_await sys->client(0).MultiInsert(kvs, nullptr)).ok());
    std::vector<MultiGetResult> after;
    EXPECT_TRUE(
        (co_await sys->client(1).MultiGet(keys, &after, nullptr)).ok());
    for (size_t i = 0; i < keys.size(); i++) {
      EXPECT_TRUE(after[i].status.ok()) << "key " << keys[i];
      EXPECT_EQ(after[i].value, keys[i] * 9);
    }
    *flag = true;
  }(&system, n, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
  // Both paths actually served traffic.
  EXPECT_GT(Count(&system, "route.ops_rpc"), 0u);
  EXPECT_GT(Count(&system, "route.ops_one_sided"), 0u);
  system.sherman().DebugCheckInvariants();
}

TEST(HybridMultiOpTest, DuplicateKeysAcrossShardAndPathBoundaries) {
  HybridSystem system(SmallFabric(), SmallHybrid(8));
  const uint64_t n = 8'000;
  system.BulkLoad(bench::MakeLoadKvs(n), 0.8);

  // Mixed paths: the batch splits into per-shard RPC groups plus a
  // one-sided pool, and the duplicate-key contract must hold across that
  // scatter (each duplicate's instances can land in DIFFERENT sub-batches
  // without plan-time dedupe).
  std::vector<Path> mixed(8);
  for (int s = 0; s < 8; s++) {
    mixed[s] = (s % 2 == 0) ? Path::kRpc : Path::kOneSided;
  }
  system.router().ForceAssignment(mixed);

  bool done = false;
  sim::Spawn([](HybridSystem* sys, uint64_t n_keys,
                bool* flag) -> sim::Task<void> {
    // Eight distinct keys, one per universe eighth (-> one per shard, so
    // both paths serve instances), each appearing three times in the batch.
    std::vector<Key> base;
    for (int i = 0; i < 8; i++) {
      base.push_back(2 * (1 + (n_keys / 8) * static_cast<uint64_t>(i)));
    }
    std::vector<std::pair<Key, uint64_t>> kvs;
    for (int rep = 0; rep < 3; rep++) {
      for (size_t b = 0; b < base.size(); b++) {
        kvs.emplace_back(base[b], 1000 * (rep + 1) + b);
      }
    }
    EXPECT_TRUE((co_await sys->client(0).MultiInsert(kvs, nullptr)).ok());
    // Last instance wins for every key, observed through the other CS.
    for (size_t b = 0; b < base.size(); b++) {
      uint64_t v = 0;
      EXPECT_TRUE((co_await sys->client(1).Lookup(base[b], &v)).ok());
      EXPECT_EQ(v, 3000 + b) << "key " << base[b];
    }

    // MultiGet: every instance of a duplicate reports the same result.
    std::vector<Key> gets;
    for (int rep = 0; rep < 3; rep++) {
      gets.insert(gets.end(), base.begin(), base.end());
    }
    gets.push_back(base.front() + 1);  // absent key rides along
    std::vector<MultiGetResult> got;
    EXPECT_TRUE((co_await sys->client(0).MultiGet(gets, &got)).ok());
    for (size_t b = 0; b < base.size(); b++) {
      for (int rep = 0; rep < 3; rep++) {
        const MultiGetResult& r = got[rep * base.size() + b];
        EXPECT_TRUE(r.status.ok()) << "key " << base[b];
        EXPECT_EQ(r.value, 3000 + b) << "key " << base[b];
      }
    }
    EXPECT_TRUE(got.back().status.IsNotFound());

    // MultiDelete: the FIRST instance of each key deletes it, every later
    // instance reports NotFound — exactly one OK per distinct key.
    std::vector<Status> res;
    EXPECT_TRUE((co_await sys->client(1).MultiDelete(gets, &res)).ok());
    for (size_t b = 0; b < base.size(); b++) {
      EXPECT_TRUE(res[b].ok()) << "key " << base[b] << ": "
                               << res[b].ToString();
      for (int rep = 1; rep < 3; rep++) {
        EXPECT_TRUE(res[rep * base.size() + b].IsNotFound())
            << "key " << base[b] << " instance " << rep;
      }
    }
    EXPECT_TRUE(res.back().IsNotFound());
    for (Key k : base) {
      uint64_t v = 0;
      EXPECT_TRUE((co_await sys->client(0).Lookup(k, &v)).IsNotFound());
    }
    *flag = true;
  }(&system, n, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
  EXPECT_GT(Count(&system, "route.ops_rpc"), 0u);
  EXPECT_GT(Count(&system, "route.ops_one_sided"), 0u);
  system.sherman().DebugCheckInvariants();
}

TEST(HybridMultiOpTest, DuplicateKeysSurviveDeclineFallbackReorder) {
  // The bug this pins down: without plan-time dedupe, duplicate instances
  // of a key are applied in sub-batch order, not batch order. If the MS
  // declines the EARLIER instance (full leaf -> split needed) it re-runs
  // in the one-sided fallback batch AFTER the later instance already
  // landed via RPC, and the earlier value wins — a reorder the caller can
  // observe. Dedupe pins last-writer-wins before the fan-out.
  HybridOptions opt = SmallHybrid(4);
  opt.tree.shape.node_size = 256;
  HybridSystem system(SmallFabric(), opt);
  system.BulkLoad(bench::MakeLoadKvs(400), 1.0);  // full leaves

  system.router().ForceAssignment(
      std::vector<Path>(system.router().num_shards(), Path::kRpc));
  bool done = false;
  sim::Spawn([](HybridSystem* sys, bool* flag) -> sim::Task<void> {
    // Fresh odd keys into full leaves: every instance would be declined
    // MS-side and complete through the one-sided fallback.
    std::vector<std::pair<Key, uint64_t>> kvs = {
        {3, 111}, {5, 222}, {3, 333}, {7, 444}, {3, 555}, {5, 666}};
    EXPECT_TRUE((co_await sys->client(0).MultiInsert(kvs, nullptr)).ok());
    uint64_t v = 0;
    EXPECT_TRUE((co_await sys->client(1).Lookup(3, &v)).ok());
    EXPECT_EQ(v, 555u);
    EXPECT_TRUE((co_await sys->client(1).Lookup(5, &v)).ok());
    EXPECT_EQ(v, 666u);
    EXPECT_TRUE((co_await sys->client(1).Lookup(7, &v)).ok());
    EXPECT_EQ(v, 444u);
    *flag = true;
  }(&system, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
  EXPECT_GT(Count(&system, "route.rpc_fallbacks"), 0u);
  system.sherman().DebugCheckInvariants();
}

TEST(HybridMultiOpTest, MsDeclinedBatchKeysFallBackOneSided) {
  HybridOptions opt = SmallHybrid(4);
  opt.tree.shape.node_size = 256;
  HybridSystem system(SmallFabric(), opt);
  const uint64_t n = 400;
  system.BulkLoad(bench::MakeLoadKvs(n), 1.0);  // full leaves

  system.router().ForceAssignment(
      std::vector<Path>(system.router().num_shards(), Path::kRpc));
  bool done = false;
  sim::Spawn([](HybridSystem* sys, uint64_t n_keys,
                bool* flag) -> sim::Task<void> {
    // Fresh odd keys into full leaves: the MS-side executor declines each
    // (split needed) and the batch must complete them one-sided.
    std::vector<std::pair<Key, uint64_t>> kvs;
    for (Key k = 3; k <= 41; k += 2) kvs.emplace_back(k, k * 7);
    EXPECT_TRUE((co_await sys->client(0).MultiInsert(kvs, nullptr)).ok());
    std::vector<Key> keys;
    for (const auto& [k, v] : kvs) keys.push_back(k);
    std::vector<MultiGetResult> got;
    EXPECT_TRUE((co_await sys->client(1).MultiGet(keys, &got, nullptr)).ok());
    for (size_t i = 0; i < keys.size(); i++) {
      EXPECT_TRUE(got[i].status.ok()) << "key " << keys[i];
      EXPECT_EQ(got[i].value, keys[i] * 7);
    }
    (void)n_keys;
    *flag = true;
  }(&system, n, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
  EXPECT_GT(Count(&system, "route.rpc_fallbacks"), 0u);
  system.sherman().DebugCheckInvariants();
}

TEST(HybridMultiOpTest, MultiDeleteStraddlesShardAndPathBoundaries) {
  HybridSystem system(SmallFabric(), SmallHybrid(8));
  const uint64_t n = 8'000;
  system.BulkLoad(bench::MakeLoadKvs(n), 0.8);

  // Alternate paths so every batch splits into per-shard coalesced
  // multi-remove RPCs (TreeRpcService::kOpMultiRemove) plus one
  // doorbell-batched one-sided TreeClient::MultiDelete.
  std::vector<Path> mixed(8);
  for (int s = 0; s < 8; s++) {
    mixed[s] = (s % 2 == 0) ? Path::kRpc : Path::kOneSided;
  }
  system.router().ForceAssignment(mixed);

  bool done = false;
  sim::Spawn([](HybridSystem* sys, uint64_t n_keys,
                bool* flag) -> sim::Task<void> {
    std::vector<Key> keys;
    for (int i = 0; i < 32; i++) {
      keys.push_back(2 * (1 + (n_keys / 32) * static_cast<uint64_t>(i)));
    }
    std::vector<Status> res;
    OpStats stats;
    Status st = co_await sys->client(0).MultiDelete(keys, &res, &stats);
    EXPECT_TRUE(st.ok()) << st.ToString();
    for (const Status& s : res) EXPECT_TRUE(s.ok()) << s.ToString();
    // Gone through the other CS, both read paths.
    std::vector<MultiGetResult> got;
    EXPECT_TRUE((co_await sys->client(1).MultiGet(keys, &got)).ok());
    for (size_t i = 0; i < keys.size(); i++) {
      EXPECT_TRUE(got[i].status.IsNotFound()) << "key " << keys[i];
    }
    // Second round: everything already gone.
    std::vector<Status> again;
    EXPECT_TRUE((co_await sys->client(1).MultiDelete(keys, &again)).ok());
    for (const Status& s : again) EXPECT_TRUE(s.IsNotFound());
    *flag = true;
  }(&system, n, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
  EXPECT_GT(Count(&system, "route.ops_rpc"), 0u);
  EXPECT_GT(Count(&system, "route.ops_one_sided"), 0u);
  system.sherman().DebugCheckInvariants();
}

// A hybrid range query whose span crosses both shard boundaries (the scan
// is routed by its FROM key's shard, then walks into neighboring shards)
// and memory-server boundaries (leaves round-robin over MSs): the RPC-path
// MS-side scan and the one-sided scan must return the identical exact
// result.
TEST(HybridMultiOpTest, RangeQueryCrossesShardAndMsBoundaries) {
  HybridSystem system(SmallFabric(/*ms=*/4), SmallHybrid(8));
  const uint64_t n = 8'000;
  system.BulkLoad(bench::MakeLoadKvs(n), 0.8);

  bool done = false;
  sim::Spawn([](HybridSystem* sys, uint64_t n_keys,
                bool* flag) -> sim::Task<void> {
    route::AdaptiveRouter& router = sys->router();
    const int shards = router.num_shards();
    for (int round = 0; round < 6; round++) {
      // Start just below a shard boundary so the walk crosses it.
      const auto bounds = router.ShardBounds(round % (shards - 1));
      const Key from = bounds.second - (bounds.second - bounds.first) / 8;
      EXPECT_TRUE(from != kNullKey && from != kMaxKey);
      const uint32_t count = 300;

      router.ForceAssignment(std::vector<Path>(shards, Path::kOneSided));
      std::vector<std::pair<Key, uint64_t>> one_sided;
      Status st = co_await sys->client(0).RangeQuery(from, count, &one_sided);
      EXPECT_TRUE(st.ok()) << st.ToString();

      router.ForceAssignment(std::vector<Path>(shards, Path::kRpc));
      std::vector<std::pair<Key, uint64_t>> rpc;
      st = co_await sys->client(1).RangeQuery(from, count, &rpc);
      EXPECT_TRUE(st.ok()) << st.ToString();

      EXPECT_EQ(one_sided.size(), count);
      EXPECT_EQ(one_sided, rpc) << "paths disagree for from=" << from;
      EXPECT_GT(router.ShardFor(one_sided.back().first),
                router.ShardFor(from))
          << "scan did not cross a shard boundary";
    }
    (void)n_keys;
    *flag = true;
  }(&system, n, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
}

// --- runner pipeline depth --------------------------------------------------

TEST(PipelineRunnerTest, DepthBatchesAndStillMeasures) {
  rdma::FabricConfig f = SmallFabric();
  ShermanSystem system(f, ShermanOptions());
  system.BulkLoad(bench::MakeLoadKvs(10'000), 0.8);

  bench::RunnerOptions ropt;
  ropt.threads_per_cs = 2;
  ropt.workload.loaded_keys = 10'000;
  ropt.warmup_ns = 500'000;
  ropt.measure_ns = 2'000'000;
  ropt.pipeline_depth = 8;
  const bench::RunResult r = bench::RunWorkload(&system, ropt);
  EXPECT_GT(r.stats.ops, 0u);
  EXPECT_GT(r.stats.latency_ns.P50(), 0u);
  system.DebugCheckInvariants();
}

TEST(PipelineRunnerTest, HybridSystemTakesDepthToo) {
  HybridSystem system(SmallFabric(), SmallHybrid(8));
  system.BulkLoad(bench::MakeLoadKvs(10'000), 0.8);

  bench::RunnerOptions ropt;
  ropt.threads_per_cs = 2;
  ropt.workload.loaded_keys = 10'000;
  ropt.warmup_ns = 500'000;
  ropt.measure_ns = 2'000'000;
  ropt.pipeline_depth = 8;
  const bench::RunResult r = bench::RunWorkload(&system, ropt);
  EXPECT_GT(r.stats.ops, 0u);
  EXPECT_GT(r.metrics.counter("route.ops_one_sided") +
                r.metrics.counter("route.ops_rpc"),
            0u);
  system.sherman().DebugCheckInvariants();
}

}  // namespace
}  // namespace sherman
