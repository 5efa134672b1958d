// Space reclamation under delete churn: leaf merging correctness, the
// epoch grace period (no node recycled while an older-epoch reader still
// holds its address), allocator recycling, and the MS-side executor's
// merge path.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "alloc/reclaim.h"
#include "bench/runner.h"
#include "core/btree.h"
#include "core/hybrid_system.h"
#include "core/presets.h"
#include "fault/crash_point.h"
#include "migrate/migrator.h"
#include "recover/recoverer.h"
#include "util/random.h"

namespace sherman {
namespace {

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

// --- epoch machinery (unit) -------------------------------------------------

TEST(ReclaimEpochTest, BlocksRecycleWhileOlderReaderPinned) {
  rdma::Fabric fabric(SmallFabric(1, 1));
  ReclaimEpoch epoch;
  ChunkManager mgr(&fabric.ms(0), &fabric.registry(), &epoch);
  const obs::Counter* recycled =
      fabric.registry().GetCounter("alloc.nodes_recycled");

  // A reader pins the current epoch, then a node is freed.
  const uint64_t reader = epoch.Enter();
  const uint64_t chunk = mgr.AllocChunk();
  ASSERT_NE(chunk, 0u);
  mgr.FreeNode(chunk, 1024);
  EXPECT_EQ(mgr.grace_pending(), 1u);

  // While the reader is pinned, the node must NOT be recycled.
  EXPECT_EQ(mgr.AllocNode(1024), 0u);
  EXPECT_EQ(recycled->value(), 0u);

  // Another op entering and exiting at the CURRENT epoch does not unblock
  // it either — only the old reader's exit can.
  const uint64_t late = epoch.Enter();
  epoch.Exit(late);
  EXPECT_EQ(mgr.AllocNode(1024), 0u);

  epoch.Exit(reader);
  EXPECT_EQ(mgr.AllocNode(1024), chunk);
  EXPECT_EQ(recycled->value(), 1u);
  EXPECT_EQ(mgr.grace_pending(), 0u);
}

TEST(ReclaimEpochTest, EpochAdvancesAsCohortsDrain) {
  ReclaimEpoch epoch;
  const uint64_t e1 = epoch.Enter();
  const uint64_t e2 = epoch.Enter();
  EXPECT_EQ(e1, e2);  // same cohort
  EXPECT_FALSE(epoch.SafeToRecycle(e1));
  epoch.Exit(e1);
  EXPECT_FALSE(epoch.SafeToRecycle(e1));  // e2 still pinned
  epoch.Exit(e2);
  EXPECT_TRUE(epoch.SafeToRecycle(e1));  // cohort drained, epoch advanced
  EXPECT_GT(epoch.current(), e1);
}

TEST(ReclaimEpochTest, NoGraceDomainMeansImmediateRecycle) {
  rdma::Fabric fabric(SmallFabric(1, 1));
  // No grace domain (unit-test config).
  ChunkManager mgr(&fabric.ms(0), &fabric.registry());
  const uint64_t chunk = mgr.AllocChunk();
  mgr.FreeNode(chunk, 512);
  EXPECT_EQ(mgr.AllocNode(512), chunk);
  EXPECT_EQ(mgr.AllocNode(512), 0u);  // pool drained
}

// --- leaf merging (end to end) ---------------------------------------------

class MergePresetTest : public ::testing::TestWithParam<std::string> {};

// Delete-heavy random ops against std::map with small nodes: merges fire
// constantly and the final tree must still match the model exactly.
TEST_P(MergePresetTest, DeleteHeavyOpsMatchStdMap) {
  TreeOptions topt;
  ASSERT_TRUE(PresetByName(GetParam(), &topt));
  topt.shape.node_size = 256;
  ShermanSystem system(SmallFabric(), topt);
  system.BulkLoad(bench::MakeLoadKvs(1'500), 1.0);

  std::map<Key, uint64_t> model;
  for (const auto& kv : bench::MakeLoadKvs(1'500)) model.insert(kv);
  bool done = false;
  sim::Spawn([](TreeClient* c, std::map<Key, uint64_t>* m,
                bool* flag) -> sim::Task<void> {
    Random rng(1234);
    for (int i = 0; i < 6'000; i++) {
      const Key key = 1 + rng.Uniform(3'200);
      const uint64_t dice = rng.Uniform(10);
      if (dice < 6) {  // delete-heavy
        Status st = co_await c->Delete(key);
        if (m->erase(key) > 0) {
          EXPECT_TRUE(st.ok()) << st.ToString();
        } else {
          EXPECT_TRUE(st.IsNotFound()) << st.ToString();
        }
      } else if (dice < 8) {
        const uint64_t value = rng.Next();
        EXPECT_TRUE((co_await c->Insert(key, value)).ok());
        (*m)[key] = value;
      } else {
        uint64_t v = 0;
        Status st = co_await c->Lookup(key, &v);
        auto it = m->find(key);
        if (it == m->end()) {
          EXPECT_TRUE(st.IsNotFound()) << "key " << key;
        } else {
          EXPECT_TRUE(st.ok()) << "key " << key << ": " << st.ToString();
          EXPECT_EQ(v, it->second) << "key " << key;
        }
      }
    }
    *flag = true;
  }(&system.client(0), &model, &done));
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
  EXPECT_GT(Count(&system, "reclaim.leaf_merges"), 0u)
      << "delete-heavy churn never merged a leaf";
}

INSTANTIATE_TEST_SUITE_P(Presets, MergePresetTest,
                         ::testing::Values("sherman", "fg+", "fg"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (!isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return n;
                         });

// Deleting most of a bulkloaded tree must shrink the leaf chain (merges
// unlink leaves) and park the freed nodes on the grace lists.
TEST(LeafMergeTest, MassDeleteShrinksLeafChain) {
  TreeOptions topt = ShermanOptions();
  topt.shape.node_size = 256;
  ShermanSystem system(SmallFabric(), topt);
  const uint64_t n = 2'000;
  system.BulkLoad(bench::MakeLoadKvs(n), 1.0);
  const size_t leaves_before = system.DebugCountLeaves();

  bool done = false;
  sim::Spawn([](TreeClient* c, uint64_t keys, bool* flag) -> sim::Task<void> {
    // Delete 15 of every 16 keys.
    for (uint64_t r = 0; r < keys; r++) {
      if (r % 16 == 0) continue;
      const Key k = WorkloadGenerator::LoadedKeyFor(r);
      EXPECT_TRUE((co_await c->Delete(k)).ok()) << "key " << k;
    }
    *flag = true;
  }(&system.client(0), n, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);

  system.DebugCheckInvariants();
  const auto scan = system.DebugScanLeaves();
  EXPECT_EQ(scan.size(), (n + 15) / 16);
  const size_t leaves_after = system.DebugCountLeaves();
  EXPECT_LT(leaves_after, leaves_before / 4)
      << "merges should have collapsed the mostly-empty chain";
  const obs::MetricsSnapshot m = system.registry().Snapshot();
  EXPECT_GT(m.counter("reclaim.leaf_merges"), 0u);
  EXPECT_EQ(m.counter("reclaim.leaf_merges"), m.counter("reclaim.nodes_freed"));
  EXPECT_EQ(m.counter("alloc.nodes_freed"), m.counter("reclaim.nodes_freed"));
  // Survivors must still be found through the simulated path.
  bool verified = false;
  sim::Spawn([](TreeClient* c, uint64_t keys, bool* flag) -> sim::Task<void> {
    for (uint64_t r = 0; r < keys; r += 16) {
      const Key k = WorkloadGenerator::LoadedKeyFor(r);
      uint64_t v = 0;
      EXPECT_TRUE((co_await c->Lookup(k, &v)).ok()) << "key " << k;
      EXPECT_EQ(v, k * 31 + 7);
    }
    *flag = true;
  }(&system.client(1), n, &verified));
  system.simulator().Run();
  ASSERT_TRUE(verified);
}

// Merges racing concurrent readers: scans and lookups across the merged
// range never fail and never surface deleted keys.
TEST(LeafMergeTest, ReadersSurviveConcurrentMerges) {
  TreeOptions topt = ShermanOptions();
  topt.shape.node_size = 256;
  ShermanSystem system(SmallFabric(2, 2), topt);
  const uint64_t n = 2'000;
  system.BulkLoad(bench::MakeLoadKvs(n), 1.0);

  int done = 0;
  // Deleter: sweeps ranks 500..1500, deleting 7 of every 8 keys.
  sim::Spawn([](TreeClient* c, int* d) -> sim::Task<void> {
    for (uint64_t r = 500; r < 1'500; r++) {
      if (r % 8 == 0) continue;
      EXPECT_TRUE((co_await c->Delete(WorkloadGenerator::LoadedKeyFor(r))).ok());
    }
    (*d)++;
  }(&system.client(0), &done));
  // Reader: keys that are never deleted must always be found; scans must
  // stay sorted and only contain live-or-recently-deleted keys.
  sim::Spawn([](TreeClient* c, int* d) -> sim::Task<void> {
    Random rng(77);
    for (int i = 0; i < 400; i++) {
      const uint64_t r = (rng.Uniform(1'000) + 500) & ~7ull;  // survivor rank
      const Key k = WorkloadGenerator::LoadedKeyFor(r);
      uint64_t v = 0;
      Status st = co_await c->Lookup(k, &v);
      EXPECT_TRUE(st.ok()) << "survivor key " << k << ": " << st.ToString();
      if (st.ok()) {
        EXPECT_EQ(v, k * 31 + 7);
      }
      if (i % 8 == 0) {
        std::vector<std::pair<Key, uint64_t>> out;
        st = co_await c->RangeQuery(k, 40, &out);
        EXPECT_TRUE(st.ok()) << st.ToString();
        for (size_t j = 1; j < out.size(); j++) {
          EXPECT_LT(out[j - 1].first, out[j].first);
        }
      }
    }
    (*d)++;
  }(&system.client(1), &done));
  system.simulator().Run();
  ASSERT_EQ(done, 2);
  system.DebugCheckInvariants();
  EXPECT_GT(Count(&system, "reclaim.leaf_merges"), 0u);
}

// Freed leaves must be recycled into later splits: sliding-window churn
// (insert a fresh key, delete the oldest — fixed live count) keeps the
// chunk footprint bounded instead of growing with every generation of
// splits.
TEST(ReclaimTest, ChurnFootprintPlateaus) {
  TreeOptions topt = ShermanOptions();
  topt.shape.node_size = 256;
  ShermanSystem system(SmallFabric(2, 1), topt);
  system.BulkLoad({}, 0.9);

  bool done = false;
  sim::Spawn([](TreeClient* c, bool* flag) -> sim::Task<void> {
    std::deque<Key> fifo;
    Random rng(5);
    std::map<Key, uint64_t> model;
    for (int i = 0; i < 12'000; i++) {
      if (fifo.size() >= 400) {
        const Key k = fifo.front();
        fifo.pop_front();
        Status st = co_await c->Delete(k);
        if (model.erase(k) > 0) {
          EXPECT_TRUE(st.ok()) << st.ToString();
        } else {
          EXPECT_TRUE(st.IsNotFound()) << st.ToString();
        }
      } else {
        const Key k = 1 + 2 * rng.Uniform(500'000);  // fresh odd key
        EXPECT_TRUE((co_await c->Insert(k, k)).ok());
        model[k] = k;
        fifo.push_back(k);
      }
    }
    // Drain the FIFO completely so the final scan is deterministic.
    while (!fifo.empty()) {
      const Key k = fifo.front();
      fifo.pop_front();
      Status st = co_await c->Delete(k);
      if (model.erase(k) > 0) {
        EXPECT_TRUE(st.ok()) << st.ToString();
      } else {
        EXPECT_TRUE(st.IsNotFound()) << st.ToString();
      }
    }
    EXPECT_TRUE(model.empty());
    *flag = true;
  }(&system.client(0), &done));
  system.simulator().Run();
  ASSERT_TRUE(done);

  system.DebugCheckInvariants();
  EXPECT_TRUE(system.DebugScanLeaves().empty());
  EXPECT_GT(Count(&system, "alloc.nodes_freed"), 0u)
      << "churn never freed a node";
  EXPECT_GT(Count(&system, "alloc.nodes_recycled"), 0u)
      << "churn never recycled a freed node";
  // ~30 generations of 400 live keys each must not take a generation's
  // worth of chunks each: the steady-state footprint is one client chunk
  // plus recycling.
  EXPECT_LE(system.TotalAllocatedBytes(), 4 * kChunkSize)
      << "footprint grew monotonically across the churn";
}

// The MS-side RPC delete executor runs the same merge logic.
TEST(ReclaimTest, RpcDeletePathMergesToo) {
  HybridOptions opt;
  opt.tree = ShermanOptions();
  opt.tree.shape.node_size = 256;
  opt.router.num_shards = 4;
  HybridSystem system(SmallFabric(), opt);
  const uint64_t n = 1'500;
  system.BulkLoad(bench::MakeLoadKvs(n), 1.0);
  system.router().ForceAssignment(
      std::vector<route::Path>(system.router().num_shards(),
                               route::Path::kRpc));

  bool done = false;
  sim::Spawn([](HybridSystem* sys, uint64_t keys, bool* flag)
                 -> sim::Task<void> {
    for (uint64_t r = 0; r < keys; r++) {
      if (r % 16 == 0) continue;
      const Key k = WorkloadGenerator::LoadedKeyFor(r);
      Status st = co_await sys->client(0).Delete(k);
      EXPECT_TRUE(st.ok()) << "key " << k << ": " << st.ToString();
    }
    *flag = true;
  }(&system, n, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);

  system.sherman().DebugCheckInvariants();
  EXPECT_EQ(system.sherman().DebugScanLeaves().size(), (n + 15) / 16);
  EXPECT_GT(Count(&system.sherman(), "rpc.leaf_merges"), 0u)
      << "MS-side executor never merged an underflowed leaf";
}

// ... and merges underflowed slotted (varlen) leaves by their byte budget.
TEST(ReclaimTest, RpcDeleteVarPathMergesSlottedLeaves) {
  HybridOptions opt;
  opt.tree = ShermanOptions();
  opt.tree.two_level_versions = false;  // varlen requires sorted leaves
  opt.tree.shape.varlen = true;
  opt.tree.shape.node_size = 512;
  opt.router.num_shards = 4;
  HybridSystem system(SmallFabric(), opt);
  const uint64_t n = 600;
  auto key = [](uint64_t r) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%08llu",
                  static_cast<unsigned long long>(r + 1));
    return std::string(buf);
  };
  std::vector<std::pair<std::string, std::string>> kvs;
  for (uint64_t r = 0; r < n; r++) {
    kvs.emplace_back(key(r), std::string(24, 'v'));
  }
  system.BulkLoadVar(kvs, 1.0);
  system.router().ForceAssignment(
      std::vector<route::Path>(system.router().num_shards(),
                               route::Path::kRpc));

  bool done = false;
  sim::Spawn([](HybridSystem* sys, const std::vector<std::pair<std::string,
                                                          std::string>>* kvs,
                bool* flag) -> sim::Task<void> {
    for (size_t r = 0; r < kvs->size(); r++) {
      if (r % 16 == 0) continue;
      Status st = co_await sys->client(0).DeleteVar(Slice((*kvs)[r].first));
      EXPECT_TRUE(st.ok()) << (*kvs)[r].first << ": " << st.ToString();
    }
    *flag = true;
  }(&system, &kvs, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);

  system.sherman().DebugCheckInvariants();
  const auto left = system.sherman().DebugScanLeavesVar();
  ASSERT_EQ(left.size(), (n + 15) / 16);
  for (size_t i = 0; i < left.size(); i++) {
    EXPECT_EQ(left[i].first, key(16 * i));
  }
  EXPECT_GT(Count(&system.sherman(), "rpc.leaf_merges"), 0u)
      << "MS-side executor never merged an underflowed slotted leaf";
}

// MultiDelete under churn racing migration: deletes + merges while a live
// shard migration rehomes the same range.
TEST(ReclaimTest, MergesSurviveConcurrentMigration) {
  TreeOptions topt = ShermanOptions();
  topt.shape.node_size = 256;
  ShermanSystem system(SmallFabric(2, 2), topt);
  const uint64_t n = 3'000;
  system.BulkLoad(bench::MakeLoadKvs(n), 1.0);

  int done = 0;
  sim::Spawn([](TreeClient* c, uint64_t keys, int* d) -> sim::Task<void> {
    Random rng(9);
    for (int i = 0; i < 120; i++) {
      std::vector<Key> batch;
      for (int b = 0; b < 8; b++) {
        batch.push_back(WorkloadGenerator::LoadedKeyFor(rng.Uniform(keys)));
      }
      std::vector<Status> res;
      Status st = co_await c->MultiDelete(batch, &res);
      EXPECT_TRUE(st.ok()) << st.ToString();
      for (const Status& s : res) {
        EXPECT_TRUE(s.ok() || s.IsNotFound()) << s.ToString();
      }
    }
    (*d)++;
  }(&system.client(0), n, &done));

  migrate::Migrator migrator(&system, {});
  Status mig_st = Status::OK();
  bool mig_done = false;
  system.simulator().At(40'000, [&] {
    const int target = system.AddMemoryServer();
    sim::Spawn([](migrate::Migrator* mig, Key hi, uint16_t t, Status* st,
                  bool* d) -> sim::Task<void> {
      *st = co_await mig->MigrateRange(1, hi, t);
      *d = true;
    }(&migrator, 2 * n, static_cast<uint16_t>(target), &mig_st, &mig_done));
  });

  system.simulator().Run();
  ASSERT_EQ(done, 1);
  ASSERT_TRUE(mig_done);
  EXPECT_TRUE(mig_st.ok()) << mig_st.ToString();
  system.DebugCheckInvariants();
  EXPECT_GT(Count(&system, "migrate.source_nodes_freed"), 0u)
      << "migration stopped retiring tombstoned sources";
}

// --- lease-expiry races against epoch-protected reclamation -----------------

TreeOptions LeaseRaceOptions() {
  TreeOptions t = ShermanOptions();
  t.shape.node_size = 256;
  t.merge_threshold = 0.4;
  t.lock.lease_period_ns = 20'000;
  t.lock.lease_expiry_periods = 4;
  return t;
}

// A client dies mid-merge AFTER handing the leaf to the grace list but
// before clearing its intent. The survivor's lease steal re-frees the
// node during recovery; the grace list must take it exactly once (the
// duplicate is a counted no-op), and it must stay unrecyclable until the
// dead client's pins are released — then recycle normally.
TEST(LeaseRaceTest, StolenLockRacingEpochProtectedFree) {
  fault::Injector().Reset();
  ShermanSystem system(SmallFabric(2, 2), LeaseRaceOptions());
  const uint64_t n = 120;
  system.BulkLoad(bench::MakeLoadKvs(n), 0.9);
  fault::Injector().Arm("merge.freed", 1, /*victim_cs=*/1);

  bool victim_spawned_done = false;
  sim::Spawn([](TreeClient* c, uint64_t keys, bool* d) -> sim::Task<void> {
    for (uint64_t r = 0; r < keys; r++) {
      Status st = co_await c->Delete(WorkloadGenerator::LoadedKeyFor(r));
      EXPECT_TRUE(st.ok() || st.IsNotFound()) << st.ToString();
    }
    *d = true;
  }(&system.client(1), n, &victim_spawned_done));

  bool done = false;
  sim::Spawn([](ShermanSystem* sys, bool* flag) -> sim::Task<void> {
    sim::Simulator& sim = sys->simulator();
    for (int i = 0; i < 4096 && !fault::Injector().fired(); i++) {
      co_await sim.Delay(50'000);
    }
    EXPECT_TRUE(fault::Injector().fired());
    if (!fault::Injector().fired()) co_return;
    co_await sim.Delay(8 * 20'000);
    // While the dead pins are held, nothing may recycle even though the
    // leaf was already freed.
    EXPECT_GT(sys->reclaim_epoch().pinned_ops(), 0u);
    co_await sys->client(0).recoverer().RecoverDeadOwner(/*tag=*/2);
    // Keep deleting from the survivor so merges/frees continue against
    // the recovered state.
    for (uint64_t r = 0; r < 60; r++) {
      Status st = co_await sys->client(0).Delete(
          WorkloadGenerator::LoadedKeyFor(119 - r));
      EXPECT_TRUE(st.ok() || st.IsNotFound()) << st.ToString();
    }
    *flag = true;
  }(&system, &done));
  system.simulator().Run();

  ASSERT_TRUE(done);
  system.DebugCheckInvariants();
  EXPECT_GT(Count(&system, "alloc.nodes_freed"), 0u);
  // Recovery re-issued the free for the in-doubt leaf; the grace list
  // absorbed the duplicate exactly once.
  EXPECT_GE(Count(&system, "alloc.duplicate_frees"), 1u)
      << "the crash-window double-free was never exercised";
  // Dead pins released: nothing blocks the epoch from advancing.
  EXPECT_EQ(system.reclaim_epoch().pinned_ops(), 0u);
  fault::Injector().Reset();
}

// A lease steal racing a survivor's OWN delete/merge stream on the same
// neighborhood: the stolen lanes and the replayed merge must not break the
// survivor's merges or leak the reclaimed leaf.
TEST(LeaseRaceTest, RecoveryReplayRacesSurvivorMerges) {
  fault::Injector().Reset();
  ShermanSystem system(SmallFabric(2, 2), LeaseRaceOptions());
  const uint64_t n = 240;
  system.BulkLoad(bench::MakeLoadKvs(n), 0.9);
  fault::Injector().Arm("merge.tombstone", 1, /*victim_cs=*/1);

  // Victim drains the lower half (dies mid-merge); survivor concurrently
  // drains the upper half and then sweeps into the victim's range, so its
  // merges collide with the torn neighborhood and the recovery writes.
  bool victim_done = false;
  sim::Spawn([](TreeClient* c, uint64_t keys, bool* d) -> sim::Task<void> {
    for (uint64_t r = 0; r < keys / 2; r++) {
      Status st = co_await c->Delete(WorkloadGenerator::LoadedKeyFor(r));
      EXPECT_TRUE(st.ok() || st.IsNotFound()) << st.ToString();
    }
    *d = true;
  }(&system.client(1), n, &victim_done));

  bool done = false;
  sim::Spawn([](ShermanSystem* sys, uint64_t keys, bool* flag)
                 -> sim::Task<void> {
    TreeClient& c = sys->client(0);
    for (uint64_t r = keys - 1; r >= keys / 2; r--) {
      Status st = co_await c.Delete(WorkloadGenerator::LoadedKeyFor(r));
      EXPECT_TRUE(st.ok() || st.IsNotFound()) << st.ToString();
    }
    // Sweep into the victim's (torn) half: these deletes contend the dead
    // lanes, steal the lease organically, and run merges against the
    // recovered neighborhood.
    for (uint64_t r = keys / 2 - 1; r + 1 >= 1; r--) {
      Status st = co_await c.Delete(WorkloadGenerator::LoadedKeyFor(r));
      EXPECT_TRUE(st.ok() || st.IsNotFound()) << st.ToString();
      if (r == 0) break;
    }
    *flag = true;
  }(&system, n, &done));
  system.simulator().Run();

  ASSERT_TRUE(done);
  if (fault::Injector().fired()) {
    // Client 0 is the only survivor, so the only recoverer.
    EXPECT_GE(Count(&system, "recover.recoveries") +
                  Count(&system, "recover.partial_recoveries"),
              1u);
  }
  system.DebugCheckInvariants();
  // Everything was deleted by one side or the other.
  EXPECT_TRUE(system.DebugScanLeaves().empty() ||
              system.DebugScanLeaves().size() < 8)
      << "torn-merge recovery lost track of deletions";
  fault::Injector().Reset();
}

// A merge posts its last two RPCs (the hint invalidate and the free) and
// releases its leaf without waiting for them. A third CS backs up the
// leaf's MS memory thread with 200 RPCs (600 us of service, past the
// 80 us lease) just before the merge, and a second CS waits on the leaf's
// lock meanwhile. The waiter gets the lock when the merge lets it go: no
// lease steal, no recovery. The free still parks the leaf once the memory
// thread reaches it.
TEST(LeaseRaceTest, MergeReleasesItsLeafAheadOfABackedUpMemoryThread) {
  fault::Injector().Reset();
  TreeOptions topt = ShermanOptions();
  topt.shape.node_size = 256;
  topt.lock.lease_period_ns = 20'000;
  topt.lock.lease_expiry_periods = 4;
  ShermanSystem system(SmallFabric(2, 3), topt);
  std::vector<std::pair<Key, uint64_t>> kvs;
  for (Key k = 10; k <= 2000; k += 10) kvs.emplace_back(k, k + 1);
  system.BulkLoad(kvs, 0.5);
  // Leaf L = [1510, 1560) holds five keys; its third delete merges it.
  const TreeShape& shape = system.options().shape;
  rdma::GlobalAddress leaf = system.DebugRootAddr();
  while (!NodeView(system.fabric().HostRaw(leaf), &shape).is_leaf()) {
    leaf = NodeView(system.fabric().HostRaw(leaf), &shape).leftmost_child();
  }
  while (NodeView(system.fabric().HostRaw(leaf), &shape).lo_fence() != 1510) {
    leaf = NodeView(system.fabric().HostRaw(leaf), &shape).sibling();
    ASSERT_FALSE(leaf.is_null());
  }

  bool done = false;
  sim::Spawn([](ShermanSystem* sys, rdma::GlobalAddress leaf,
                bool* flag) -> sim::Task<void> {
    TreeClient& merger = sys->client(0);
    EXPECT_TRUE((co_await merger.Delete(1510)).ok());
    EXPECT_TRUE((co_await merger.Delete(1520)).ok());
    // 200 RPCs that change nothing (no 7-byte node is ever pooled).
    rdma::Qp& flood = sys->fabric().qp(2, leaf.node);
    for (int i = 0; i < 200; i++) flood.PostRpc(kRpcAllocNode, 7);
    // The waiter's lock CAS lands while the merger holds L.
    sim::Spawn([](ShermanSystem* sys) -> sim::Task<void> {
      co_await sys->simulator().Delay(3'000);
      EXPECT_TRUE((co_await sys->client(1).Insert(1535, 7)).ok());
    }(sys));
    EXPECT_TRUE((co_await merger.Delete(1530)).ok());
    *flag = true;
  }(&system, leaf, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);

  EXPECT_EQ(Count(&system, "reclaim.leaf_merges"), 1u);
  EXPECT_EQ(Count(&system, "lock.lease_steals"), 0u);
  EXPECT_EQ(Count(&system, "recover.recoveries"), 0u);
  EXPECT_EQ(Count(&system, "alloc.nodes_freed"), 1u);
  EXPECT_TRUE(NodeView(system.fabric().HostRaw(leaf), &shape).is_free());
  system.DebugCheckInvariants();
  const auto scan = system.DebugScanLeaves();
  const std::map<Key, uint64_t> final_map(scan.begin(), scan.end());
  EXPECT_EQ(final_map.count(1530), 0u);
  ASSERT_EQ(final_map.count(1535), 1u);
  EXPECT_EQ(final_map.at(1535), 7u);
}

}  // namespace
}  // namespace sherman
