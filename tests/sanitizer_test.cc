// DMSan detection tests: each rule class V1..V6 is triggered deliberately
// with a hand-built work request and must surface as a recorded finding
// with the right rule id, actor, and fault address — and a clean mixed
// workload must surface NOTHING (with hard-abort left on, so any false
// positive kills the test). The raw WorkRequest constructions below are
// the whole point of the file; each carries a `protocol-ok` annotation
// for scripts/check_protocol.py.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <vector>

#include "alloc/layout.h"
#include "cache/leaf_hints.h"
#include "combine/rdwc.h"
#include "core/btree.h"
#include "core/hybrid_system.h"
#include "core/presets.h"
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

// Forces the sanitizer on for the system constructed inside each test
// (DefaultEnabled() reads the environment at construction time).
class DmsanTest : public ::testing::Test {
 protected:
  void SetUp() override { setenv("SHERMAN_DMSAN", "1", 1); }
  void TearDown() override { unsetenv("SHERMAN_DMSAN"); }

  static std::vector<std::pair<Key, uint64_t>> SeedKvs(int n) {
    std::vector<std::pair<Key, uint64_t>> kvs;
    for (int i = 1; i <= n; i++) kvs.emplace_back(i * 10, i);
    return kvs;
  }
};

// The checker must actually be attached and observing — a silently inert
// sanitizer would make every other test in this file vacuous.
TEST_F(DmsanTest, CheckerAttachesAndObservesTraffic) {
  ShermanSystem system(SmallFabric(), ShermanOptions());
  system.BulkLoad(SeedKvs(64), 0.8);
  dmsan::Checker* checker = system.dmsan_checker();
  ASSERT_NE(checker, nullptr);
  EXPECT_TRUE(dmsan::Active());
  EXPECT_GT(checker->tracked_nodes(), 0u);  // bulk load published the tree

  bool done = false;
  sim::Spawn([](TreeClient* c, bool* flag) -> sim::Task<void> {
    for (Key k = 1; k <= 50; k++) {
      EXPECT_TRUE((co_await c->Insert(k * 3, k)).ok());
    }
    uint64_t v = 0;
    EXPECT_TRUE((co_await c->Lookup(30, &v)).ok());
    *flag = true;
  }(&system.client(0), &done));
  system.simulator().Run();
  ASSERT_TRUE(done);

  EXPECT_GT(checker->checked_wrs(), 0u);
  EXPECT_TRUE(checker->findings().empty());  // abort-on-violation was on
}

TEST_F(DmsanTest, V1_UnlockedWriteToLiveNode) {
  ShermanSystem system(SmallFabric(), ShermanOptions());
  system.BulkLoad(SeedKvs(64), 0.8);
  dmsan::Checker* checker = system.dmsan_checker();
  ASSERT_NE(checker, nullptr);
  checker->set_abort_on_violation(false);

  const rdma::GlobalAddress root = system.DebugRootAddr();
  bool done = false;
  sim::Spawn([](ShermanSystem* s, rdma::GlobalAddress node,
                bool* flag) -> sim::Task<void> {
    uint64_t junk = 0xdeadbeef;
    // protocol-ok: deliberate V1 violation under test
    auto wr = rdma::WorkRequest::Write(node.Plus(64), &junk, sizeof(junk));
    co_await s->fabric().qp(0, node.node).Post(wr);
    *flag = true;
  }(&system, root, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);

  ASSERT_EQ(checker->findings().size(), 1u);
  const dmsan::Violation& v = checker->findings()[0];
  EXPECT_EQ(v.rule, 1);
  EXPECT_EQ(v.actor_cs, 0);
  EXPECT_EQ(v.addr, root.Plus(64));
  EXPECT_NE(v.message.find("without holding"), std::string::npos) << v.message;
}

TEST_F(DmsanTest, V1_WriteUnderExpiredLease) {
  TreeOptions topt = ShermanOptions();
  ASSERT_FALSE(topt.lock.release_with_faa);
  ShermanSystem system(SmallFabric(), topt);
  system.BulkLoad(SeedKvs(64), 0.8);
  dmsan::Checker* checker = system.dmsan_checker();
  ASSERT_NE(checker, nullptr);
  checker->set_abort_on_violation(false);

  const rdma::GlobalAddress root = system.DebugRootAddr();
  const sim::SimTime past_expiry =
      static_cast<sim::SimTime>(topt.lock.lease_period_ns) *
      (topt.lock.lease_expiry_periods + 2);
  bool done = false;
  sim::Spawn([](ShermanSystem* s, rdma::GlobalAddress node,
                sim::SimTime delay, bool* flag) -> sim::Task<void> {
    OpStats stats;
    LockGuard guard = co_await s->client(0).hocl().Lock(node, &stats);
    co_await s->simulator().Delay(delay);  // sit on the lane past expiry
    uint64_t junk = 0x5151;
    // protocol-ok: deliberate write-after-lease-expiry under test
    auto wr = rdma::WorkRequest::Write(node.Plus(64), &junk, sizeof(junk));
    co_await s->fabric().qp(0, node.node).Post(wr);
    co_await s->client(0).hocl().Unlock(std::move(guard), {}, false, &stats);
    *flag = true;
  }(&system, root, past_expiry, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);

  ASSERT_EQ(checker->findings().size(), 1u);
  const dmsan::Violation& v = checker->findings()[0];
  EXPECT_EQ(v.rule, 1);
  EXPECT_EQ(v.actor_cs, 0);
  EXPECT_NE(v.message.find("EXPIRED"), std::string::npos) << v.message;
}

TEST_F(DmsanTest, V2_WriteAndReadAfterFree) {
  ShermanSystem system(SmallFabric(), ShermanOptions());
  system.BulkLoad(SeedKvs(64), 0.8);
  dmsan::Checker* checker = system.dmsan_checker();
  ASSERT_NE(checker, nullptr);
  checker->set_abort_on_violation(false);

  // Park the root on the grace list, exactly as kRpcFreeNode would.
  const rdma::GlobalAddress root = system.DebugRootAddr();
  const uint32_t node_size = system.options().shape.node_size;
  system.chunk_manager(root.node).FreeNode(root.offset, node_size);

  bool done = false;
  sim::Spawn([](ShermanSystem* s, rdma::GlobalAddress node,
                bool* flag) -> sim::Task<void> {
    uint64_t junk = 7;
    // protocol-ok: deliberate use-after-free under test
    auto wr = rdma::WorkRequest::Write(node.Plus(8), &junk, sizeof(junk));
    co_await s->fabric().qp(0, node.node).Post(wr);
    *flag = true;
  }(&system, root, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);

  ASSERT_EQ(checker->findings().size(), 1u);
  EXPECT_EQ(checker->findings()[0].rule, 2);
  EXPECT_EQ(checker->findings()[0].actor_cs, 0);
  checker->ClearFindings();

  // Reads of a grace-parked tombstone are legal... until the grace window
  // closes. Drain the epoch, then read without a pin.
  const uint64_t e = system.reclaim_epoch().Enter();
  system.reclaim_epoch().Exit(e);
  done = false;
  sim::Spawn([](ShermanSystem* s, rdma::GlobalAddress node,
                bool* flag) -> sim::Task<void> {
    uint64_t out = 0;
    auto rd = rdma::WorkRequest::Read(node.Plus(8), &out, sizeof(out));
    co_await s->fabric().qp(0, node.node).Post(rd);
    *flag = true;
  }(&system, root, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);

  ASSERT_EQ(checker->findings().size(), 1u);
  EXPECT_EQ(checker->findings()[0].rule, 2);
  EXPECT_NE(checker->findings()[0].message.find("grace window"),
            std::string::npos)
      << checker->findings()[0].message;
}

TEST_F(DmsanTest, V3_WriteTaggedWithUnpublishedIntentSlot) {
  ShermanSystem system(SmallFabric(), ShermanOptions());
  system.BulkLoad(SeedKvs(64), 0.8);
  dmsan::Checker* checker = system.dmsan_checker();
  ASSERT_NE(checker, nullptr);
  checker->set_abort_on_violation(false);

  const rdma::GlobalAddress root = system.DebugRootAddr();
  bool done = false;
  sim::Spawn([](ShermanSystem* s, rdma::GlobalAddress node,
                bool* flag) -> sim::Task<void> {
    OpStats stats;
    LockGuard guard = co_await s->client(0).hocl().Lock(node, &stats);
    uint64_t junk = 9;
    // protocol-ok: deliberate intent-discipline violation under test
    auto wr = rdma::WorkRequest::Write(node.Plus(64), &junk, sizeof(junk));
    wr.intent_slot = 5;  // never published
    co_await s->fabric().qp(0, node.node).Post(wr);
    co_await s->client(0).hocl().Unlock(std::move(guard), {}, false, &stats);
    *flag = true;
  }(&system, root, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);

  ASSERT_EQ(checker->findings().size(), 1u);
  const dmsan::Violation& v = checker->findings()[0];
  EXPECT_EQ(v.rule, 3);
  EXPECT_EQ(v.actor_cs, 0);
  EXPECT_NE(v.message.find("intent slot 5"), std::string::npos) << v.message;
}

TEST_F(DmsanTest, V4_TornReadConsumedWithoutValidation) {
  ShermanSystem system(SmallFabric(), ShermanOptions());
  system.BulkLoad(SeedKvs(64), 0.8);
  dmsan::Checker* checker = system.dmsan_checker();
  ASSERT_NE(checker, nullptr);
  checker->set_abort_on_violation(false);

  const rdma::GlobalAddress root = system.DebugRootAddr();
  const uint32_t node_size = system.options().shape.node_size;
  bool done = false;
  sim::Spawn([](ShermanSystem* s, rdma::GlobalAddress node, uint32_t nsz,
                bool* flag) -> sim::Task<void> {
    std::vector<uint8_t> buf(nsz);
    // A full-node lock-free read taints its buffer...
    auto rd = rdma::WorkRequest::Read(node, buf.data(), nsz);
    co_await s->fabric().qp(0, node.node).Post(rd);
    // ...and writing those bytes back without validating them is V4, even
    // under a properly held lock.
    OpStats stats;
    LockGuard guard = co_await s->client(0).hocl().Lock(node, &stats);
    // protocol-ok: deliberate unvalidated write-back under test
    auto wr = rdma::WorkRequest::Write(node, buf.data(), nsz);
    co_await s->fabric().qp(0, node.node).Post(wr);
    co_await s->client(0).hocl().Unlock(std::move(guard), {}, false, &stats);
    *flag = true;
  }(&system, root, node_size, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);

  ASSERT_EQ(checker->findings().size(), 1u);
  const dmsan::Violation& v = checker->findings()[0];
  EXPECT_EQ(v.rule, 4);
  EXPECT_EQ(v.actor_cs, 0);
  EXPECT_NE(v.message.find("never version-validated"), std::string::npos)
      << v.message;
  checker->ClearFindings();

  // Same sequence with validation in between is clean.
  done = false;
  sim::Spawn([](ShermanSystem* s, dmsan::Checker* c, rdma::GlobalAddress node,
                uint32_t nsz, bool* flag) -> sim::Task<void> {
    std::vector<uint8_t> buf(nsz);
    auto rd = rdma::WorkRequest::Read(node, buf.data(), nsz);
    co_await s->fabric().qp(0, node.node).Post(rd);
    c->NoteValidated(buf.data(), nsz);  // version check passed
    OpStats stats;
    LockGuard guard = co_await s->client(0).hocl().Lock(node, &stats);
    // protocol-ok: validated write-back, must NOT fire
    auto wr = rdma::WorkRequest::Write(node, buf.data(), nsz);
    co_await s->fabric().qp(0, node.node).Post(wr);
    co_await s->client(0).hocl().Unlock(std::move(guard), {}, false, &stats);
    *flag = true;
  }(&system, checker, root, node_size, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
  EXPECT_TRUE(checker->findings().empty());
}

TEST_F(DmsanTest, V5_LockTableAndRootPointerBypass) {
  ShermanSystem system(SmallFabric(), ShermanOptions());
  system.BulkLoad(SeedKvs(64), 0.8);
  dmsan::Checker* checker = system.dmsan_checker();
  ASSERT_NE(checker, nullptr);
  checker->set_abort_on_violation(false);

  bool done = false;
  sim::Spawn([](ShermanSystem* s, bool* flag) -> sim::Task<void> {
    // Untagged CAS on the root pointer word (bypasses the root-swap API).
    uint64_t fetched = 0;
    // protocol-ok: deliberate root-pointer bypass under test
    auto cas = rdma::WorkRequest::Cas(rdma::GlobalAddress(0, kRootPointerOffset),
                                      0, 0, &fetched);
    co_await s->fabric().qp(0, 0).Post(cas);
    // Untagged 2-byte write into the on-chip lock table (bypasses HOCL).
    uint16_t lane = 0x0101;
    // protocol-ok: deliberate lock-table bypass under test
    auto wr = rdma::WorkRequest::Write(rdma::GlobalAddress(0, 0), &lane,
                                       sizeof(lane),
                                       rdma::MemorySpace::kDevice);
    co_await s->fabric().qp(0, 0).Post(wr);
    *flag = true;
  }(&system, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);

  ASSERT_EQ(checker->findings().size(), 2u);
  EXPECT_EQ(checker->findings()[0].rule, 5);
  EXPECT_EQ(checker->findings()[0].actor_cs, 0);
  EXPECT_NE(checker->findings()[0].message.find("root pointer"),
            std::string::npos)
      << checker->findings()[0].message;
  EXPECT_EQ(checker->findings()[1].rule, 5);
  EXPECT_NE(checker->findings()[1].message.find("lock table"),
            std::string::npos)
      << checker->findings()[1].message;
}

TEST_F(DmsanTest, V6_NodeFreedWhileHinted) {
  TreeOptions topt = ShermanOptions();
  topt.enable_leaf_hints = true;
  ShermanSystem system(SmallFabric(), topt);
  system.BulkLoad(SeedKvs(64), 0.8);
  dmsan::Checker* checker = system.dmsan_checker();
  ASSERT_NE(checker, nullptr);
  checker->set_abort_on_violation(false);
  LeafHintDirectory* dir = system.hint_directory(0);
  ASSERT_NE(dir, nullptr);

  const uint32_t node_size = system.options().shape.node_size;

  // Correct ordering first: invalidate, THEN free — must stay silent.
  const rdma::GlobalAddress a(0, kChunkAreaOffset);
  dir->Publish(/*lo=*/100, a.ToU64());
  dir->Invalidate(a.ToU64());
  system.chunk_manager(0).FreeNode(a.offset, node_size);
  EXPECT_TRUE(checker->findings().empty());

  // Broken ordering: the hint entry still maps to the node at free time.
  const rdma::GlobalAddress b(0, kChunkAreaOffset + node_size);
  dir->Publish(/*lo=*/200, b.ToU64());
  system.chunk_manager(0).FreeNode(b.offset, node_size);

  ASSERT_EQ(checker->findings().size(), 1u);
  const dmsan::Violation& v = checker->findings()[0];
  EXPECT_EQ(v.rule, 6);
  EXPECT_EQ(v.addr, b);
  EXPECT_NE(v.message.find("leaf-hint entry"), std::string::npos) << v.message;
}

// Negative: a multi-client churn workload (splits, merges, reclamation)
// with hard-abort LEFT ON — one false positive anywhere aborts the test.
TEST_F(DmsanTest, NegativeMixedChurnIsClean) {
  TreeOptions topt = ShermanOptions();
  topt.shape.node_size = 256;  // force splits and merges
  ShermanSystem system(SmallFabric(2, 2), topt);
  system.BulkLoad(SeedKvs(128), 0.8);
  dmsan::Checker* checker = system.dmsan_checker();
  ASSERT_NE(checker, nullptr);

  int done = 0;
  for (int cs = 0; cs < 2; cs++) {
    sim::Spawn([](TreeClient* c, uint64_t seed, int* n) -> sim::Task<void> {
      Random rng(seed);
      for (int i = 0; i < 1200; i++) {
        const Key k = 1 + rng.Uniform(400);
        const int action = static_cast<int>(rng.Uniform(3));
        if (action == 0) {
          EXPECT_TRUE((co_await c->Insert(k, rng.Next())).ok());
        } else if (action == 1) {
          uint64_t v = 0;
          Status st = co_await c->Lookup(k, &v);
          EXPECT_TRUE(st.ok() || st.IsNotFound()) << st.ToString();
        } else {
          Status st = co_await c->Delete(k);
          EXPECT_TRUE(st.ok() || st.IsNotFound()) << st.ToString();
        }
      }
      (*n)++;
    }(&system.client(cs), 1000 + cs, &done));
  }
  system.simulator().Run();
  ASSERT_EQ(done, 2);

  EXPECT_TRUE(checker->findings().empty());
  EXPECT_GT(checker->checked_wrs(), 1000u);
  system.DebugCheckInvariants();
}

// Negative: hot-key churn through RDWC delegation + combining, hard-abort
// LEFT ON. The combined write is an ordinary locked tree insert issued by
// whichever client is the current delegate, so every protocol rule the
// sanitizer enforces (lock-before-write, tagged CAS, intent coverage)
// must hold for writes the delegate issues on other clients' behalf.
TEST_F(DmsanTest, NegativeRdwcCombiningChurnIsClean) {
  HybridOptions opt;
  opt.tree = ShermanOptions();
  opt.tree.shape.node_size = 256;  // force splits and merges
  opt.router.num_shards = 4;
  opt.rdwc.enable_delegation = true;
  opt.rdwc.enable_combining = true;
  opt.rdwc.sample_shift = 0;
  opt.rdwc.promote_threshold = 2;
  HybridSystem system(SmallFabric(2, 2), opt);
  system.BulkLoad(SeedKvs(128), 0.8);
  dmsan::Checker* checker = system.sherman().dmsan_checker();
  ASSERT_NE(checker, nullptr);

  int done = 0;
  for (int cs = 0; cs < 2; cs++) {
    for (int t = 0; t < 3; t++) {
      sim::Spawn([](route::HybridClient* c, uint64_t seed,
                    int* n) -> sim::Task<void> {
        Random rng(seed);
        for (int i = 0; i < 600; i++) {
          // 80% of traffic on 8 hot keys: windows open constantly and the
          // delegate's combined writes dominate the write traffic.
          const Key k = rng.Bernoulli(0.8) ? 10 * (1 + rng.Uniform(8))
                                           : 1 + rng.Uniform(400);
          const int action = static_cast<int>(rng.Uniform(4));
          if (action <= 1) {
            EXPECT_TRUE((co_await c->Insert(k, rng.Next())).ok());
          } else if (action == 2) {
            uint64_t v = 0;
            Status st = co_await c->Lookup(k, &v);
            EXPECT_TRUE(st.ok() || st.IsNotFound()) << st.ToString();
          } else {
            Status st = co_await c->Delete(k);
            EXPECT_TRUE(st.ok() || st.IsNotFound()) << st.ToString();
          }
        }
        (*n)++;
      }(&system.client(cs), 2000 + cs * 3 + t, &done));
    }
  }
  system.simulator().Run();
  ASSERT_EQ(done, 6);

  EXPECT_TRUE(checker->findings().empty());
  EXPECT_GT(checker->checked_wrs(), 1000u);
  // The skew actually drove the combining machinery.
  EXPECT_GT(system.sherman().registry().Snapshot().counter(
                "rdwc.combined_writes"),
            0u);
  EXPECT_EQ(system.rdwc()->open_windows(), 0u);
  system.sherman().DebugCheckInvariants();
}

}  // namespace
}  // namespace sherman
