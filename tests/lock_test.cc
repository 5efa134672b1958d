// Unit and property tests for the hierarchical on-chip lock (HOCL, §4.3).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lock/hocl.h"
#include "lock/lock_table.h"
#include "rdma/fabric.h"
#include "sim/task.h"

namespace sherman {
namespace {

rdma::FabricConfig SmallConfig(int ms = 1, int cs = 2) {
  rdma::FabricConfig f;
  f.num_memory_servers = ms;
  f.num_compute_servers = cs;
  f.ms_memory_bytes = 16ull << 20;
  return f;
}

// A lock.* count summed over every HoclClient on `fabric`.
uint64_t Count(rdma::Fabric* fabric, const char* name) {
  return fabric->registry().Snapshot().counter(name);
}

// --- lock table addressing ---

TEST(LockTableTest, IndexIsDeterministicAndInRange) {
  const rdma::GlobalAddress a(0, 123456);
  EXPECT_EQ(LockIndexFor(a), LockIndexFor(a));
  for (uint64_t off = 64; off < 64 + 100 * 1024; off += 1024) {
    EXPECT_LT(LockIndexFor(rdma::GlobalAddress(0, off)), kLocksPerMs);
  }
}

TEST(LockTableTest, IndexSpreadsAcrossTable) {
  // 10k distinct node offsets should hit thousands of distinct locks.
  std::set<uint32_t> seen;
  for (uint64_t i = 0; i < 10'000; i++) {
    seen.insert(LockIndexFor(rdma::GlobalAddress(0, 4096 + i * 1024)));
  }
  EXPECT_GT(seen.size(), 9'000u);
}

TEST(LockTableTest, LaneGeometry) {
  for (uint32_t idx : {0u, 1u, 2u, 3u, 4u, 131071u}) {
    GlobalLockRef ref;
    ref.ms = 0;
    ref.index = idx;
    ref.space = rdma::MemorySpace::kDevice;
    EXPECT_EQ(ref.lane_offset(), idx * 2u);
    EXPECT_EQ(ref.word_offset() % 8, 0u);
    EXPECT_EQ(ref.lane_shift(), static_cast<int>((idx * 2 % 8) * 8));
    EXPECT_EQ(ref.lane_mask(), 0xffffull << ref.lane_shift());
    EXPECT_LE(ref.word_offset() + 8, kHostGltBytes);
  }
}

TEST(LockTableTest, HostSpaceOffsetsShifted) {
  const GlobalLockRef dev = LockFor(rdma::GlobalAddress(0, 777 * 1024), true);
  const GlobalLockRef host = LockFor(rdma::GlobalAddress(0, 777 * 1024), false);
  EXPECT_EQ(dev.index, host.index);
  EXPECT_EQ(dev.space, rdma::MemorySpace::kDevice);
  EXPECT_EQ(host.space, rdma::MemorySpace::kHost);
  EXPECT_EQ(host.lane_offset(), dev.lane_offset() + kHostGltOffset);
}

TEST(LockTableTest, LockColocatedWithNode) {
  const rdma::GlobalAddress node(5, 999 * 1024);
  EXPECT_EQ(LockFor(node, true).ms, 5);
}

// --- HOCL behaviour, parameterized over configurations ---

struct LockConfig {
  std::string name;
  HoclOptions options;
};

std::vector<LockConfig> AllLockConfigs() {
  HoclOptions fg;  // host memory, flat, CAS+retry
  fg.onchip = false;
  fg.hierarchical = false;
  fg.wait_queue = false;
  fg.handover = false;

  HoclOptions onchip = fg;
  onchip.onchip = true;

  HoclOptions hier = onchip;
  hier.hierarchical = true;

  HoclOptions wq = hier;
  wq.wait_queue = true;

  HoclOptions full = wq;
  full.handover = true;

  HoclOptions faa = fg;
  faa.release_with_faa = true;

  return {{"flat_host", fg},     {"flat_onchip", onchip},
          {"hier_spin", hier},   {"hier_waitqueue", wq},
          {"hier_handover", full}, {"flat_host_faa", faa}};
}

class HoclConfigTest : public ::testing::TestWithParam<LockConfig> {};

// The fundamental property: mutual exclusion of the critical section, for
// every configuration, with contenders on multiple compute servers.
TEST_P(HoclConfigTest, MutualExclusion) {
  rdma::Fabric fabric(SmallConfig(1, 2));
  HoclClient hocl0(&fabric, 0, GetParam().options);
  HoclClient hocl1(&fabric, 1, GetParam().options);
  HoclClient* hocls[2] = {&hocl0, &hocl1};

  const rdma::GlobalAddress node(0, 2 << 20);
  struct Shared {
    int in_critical = 0;
    int max_in_critical = 0;
    int completed = 0;
  } shared;

  for (int t = 0; t < 8; t++) {
    sim::Spawn([](rdma::Fabric* f, HoclClient* hocl, rdma::GlobalAddress addr,
                  Shared* s, bool combine) -> sim::Task<void> {
      for (int i = 0; i < 5; i++) {
        OpStats stats;
        LockGuard g = co_await hocl->Lock(addr, &stats);
        s->in_critical++;
        s->max_in_critical = std::max(s->max_in_critical, s->in_critical);
        co_await f->simulator().Delay(500);  // critical section work
        s->in_critical--;
        co_await hocl->Unlock(g, {}, combine, &stats);
      }
      s->completed++;
    }(&fabric, hocls[t % 2], node, &shared, true));
  }
  fabric.simulator().Run();
  EXPECT_EQ(shared.completed, 8);
  EXPECT_EQ(shared.max_in_critical, 1) << "mutual exclusion violated";
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, HoclConfigTest,
                         ::testing::ValuesIn(AllLockConfigs()),
                         [](const auto& info) { return info.param.name; });

// The CS-local lock table models the paper's flat per-CS array sparsely:
// an entry lives only while its lane is held or waited on. Touching many
// nodes one at a time must not grow it, and after contention it drains.
TEST(HoclTest, LocalTableHoldsOnlyLiveLanes) {
  for (const LockConfig& config : AllLockConfigs()) {
    if (!config.options.hierarchical) continue;
    SCOPED_TRACE(config.name);
    rdma::Fabric fabric(SmallConfig(1, 2));
    HoclClient hocl0(&fabric, 0, config.options);
    HoclClient hocl1(&fabric, 1, config.options);
    HoclClient* hocls[2] = {&hocl0, &hocl1};

    // 1,000 distinct nodes, one lock held at a time.
    bool done = false;
    sim::Spawn([](HoclClient* h, bool* flag) -> sim::Task<void> {
      for (uint64_t i = 0; i < 1'000; i++) {
        const rdma::GlobalAddress node(0, (2 << 20) + i * 1024);
        LockGuard g = co_await h->Lock(node, nullptr);
        EXPECT_EQ(h->live_local_lanes(), 1u);
        co_await h->Unlock(g, {}, true, nullptr);
        EXPECT_EQ(h->live_local_lanes(), 0u);
      }
      *flag = true;
    }(&hocl0, &done));
    fabric.simulator().Run();
    ASSERT_TRUE(done);
    EXPECT_EQ(hocl0.live_local_lanes(), 0u);

    // 16 contenders on 4 nodes across two CSs. A CS with k acquisitions
    // in flight (from Lock's call to Unlock's return) has at most k live
    // lanes.
    int in_flight[2] = {0, 0};
    int completed = 0;
    for (int t = 0; t < 16; t++) {
      const int cs = t % 2;
      const rdma::GlobalAddress node(0, (8 << 20) + (t / 2 % 4) * 1024);
      sim::Spawn([](rdma::Fabric* f, HoclClient* h, rdma::GlobalAddress addr,
                    int* active, int* finished) -> sim::Task<void> {
        for (int i = 0; i < 5; i++) {
          (*active)++;
          LockGuard g = co_await h->Lock(addr, nullptr);
          EXPECT_GE(h->live_local_lanes(), 1u);
          EXPECT_LE(h->live_local_lanes(), static_cast<size_t>(*active));
          co_await f->simulator().Delay(300);
          co_await h->Unlock(g, {}, true, nullptr);
          (*active)--;
          EXPECT_LE(h->live_local_lanes(), static_cast<size_t>(*active));
        }
        (*finished)++;
      }(&fabric, hocls[cs], node, &in_flight[cs], &completed));
    }
    fabric.simulator().Run();
    EXPECT_EQ(completed, 16);
    EXPECT_EQ(hocl0.live_local_lanes(), 0u);
    EXPECT_EQ(hocl1.live_local_lanes(), 0u);
  }
}

TEST(HoclTest, ReleaseClearsLaneInDeviceMemory) {
  rdma::Fabric fabric(SmallConfig());
  HoclOptions opt;  // full Sherman config
  HoclClient hocl(&fabric, 0, opt);
  const rdma::GlobalAddress node(0, 3 << 20);
  const GlobalLockRef ref = LockFor(node, true);

  sim::Spawn([](rdma::Fabric* f, HoclClient* h, rdma::GlobalAddress addr,
                GlobalLockRef r) -> sim::Task<void> {
    LockGuard g = co_await h->Lock(addr, nullptr);
    // Lock word holds the owner tag (low byte) + lease stamp (high byte)
    // while held.
    const uint64_t word = f->ms(0).device().Read64(r.word_offset());
    const uint16_t lane =
        static_cast<uint16_t>((word & r.lane_mask()) >> r.lane_shift());
    EXPECT_EQ(LockLaneOwner(lane), 1u);  // cs_id 0 -> tag 1
    EXPECT_NE(LockLaneStamp(lane), 0u);  // lease stamp present
    co_await h->Unlock(g, {}, true, nullptr);
  }(&fabric, &hocl, node, ref));
  fabric.simulator().Run();
  const uint64_t word = fabric.ms(0).device().Read64(ref.word_offset());
  EXPECT_EQ(word & ref.lane_mask(), 0u);
}

TEST(HoclTest, FaaReleaseRestoresZero) {
  rdma::Fabric fabric(SmallConfig());
  HoclOptions opt;
  opt.onchip = false;
  opt.hierarchical = false;
  opt.wait_queue = false;
  opt.handover = false;
  opt.release_with_faa = true;
  HoclClient hocl(&fabric, 0, opt);
  const rdma::GlobalAddress node(0, 4 << 20);
  const GlobalLockRef ref = LockFor(node, false);

  sim::Spawn([](HoclClient* h, rdma::GlobalAddress addr) -> sim::Task<void> {
    LockGuard g = co_await h->Lock(addr, nullptr);
    co_await h->Unlock(g, {}, false, nullptr);
    // Acquire again: must succeed (lane back to zero).
    LockGuard g2 = co_await h->Lock(addr, nullptr);
    co_await h->Unlock(g2, {}, false, nullptr);
  }(&hocl, node));
  fabric.simulator().Run();
  EXPECT_EQ(fabric.ms(0).host().Read64(ref.word_offset()) & ref.lane_mask(),
            0u);
}

TEST(HoclTest, HandoverBoundedByMaxDepth) {
  rdma::Fabric fabric(SmallConfig(1, 1));
  HoclOptions opt;  // full hierarchy with handover, depth 4
  HoclClient hocl(&fabric, 0, opt);
  const rdma::GlobalAddress node(0, 5 << 20);

  int completed = 0;
  // 16 same-CS contenders: handovers happen but must break every 4.
  for (int t = 0; t < 16; t++) {
    sim::Spawn([](rdma::Fabric* f, HoclClient* h, rdma::GlobalAddress addr,
                  int* done) -> sim::Task<void> {
      OpStats stats;
      LockGuard g = co_await h->Lock(addr, &stats);
      co_await f->simulator().Delay(200);
      co_await h->Unlock(g, {}, true, &stats);
      (*done)++;
    }(&fabric, &hocl, node, &completed));
  }
  fabric.simulator().Run();
  EXPECT_EQ(completed, 16);
  const uint64_t handovers = Count(&fabric, "lock.handovers");
  EXPECT_GT(handovers, 0u);
  // With MAX_DEPTH=4, at most 4 of every 5 acquisitions can be handovers.
  EXPECT_LE(handovers, 16u * 4 / 5 + 1);
}

TEST(HoclTest, HandoverDisabledMeansNoHandovers) {
  rdma::Fabric fabric(SmallConfig(1, 1));
  HoclOptions opt;
  opt.handover = false;
  HoclClient hocl(&fabric, 0, opt);
  const rdma::GlobalAddress node(0, 5 << 20);
  for (int t = 0; t < 8; t++) {
    sim::Spawn([](HoclClient* h, rdma::GlobalAddress addr) -> sim::Task<void> {
      LockGuard g = co_await h->Lock(addr, nullptr);
      co_await h->Unlock(g, {}, true, nullptr);
    }(&hocl, node));
  }
  fabric.simulator().Run();
  EXPECT_EQ(Count(&fabric, "lock.handovers"), 0u);
}

TEST(HoclTest, WaitQueueIsFifoWithinCs) {
  rdma::Fabric fabric(SmallConfig(1, 1));
  HoclOptions opt;
  opt.handover = false;  // isolate queue ordering
  HoclClient hocl(&fabric, 0, opt);
  const rdma::GlobalAddress node(0, 6 << 20);

  std::vector<int> order;
  for (int t = 0; t < 6; t++) {
    sim::Spawn([](rdma::Fabric* f, HoclClient* h, rdma::GlobalAddress addr,
                  std::vector<int>* ord, int id) -> sim::Task<void> {
      // Stagger arrival so the queue order is well-defined.
      co_await f->simulator().Delay(static_cast<sim::SimTime>(id) * 10);
      LockGuard g = co_await h->Lock(addr, nullptr);
      ord->push_back(id);
      co_await f->simulator().Delay(3000);
      co_await h->Unlock(g, {}, true, nullptr);
    }(&fabric, &hocl, node, &order, t));
  }
  fabric.simulator().Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(HoclTest, HierarchicalReducesRemoteCasUnderLocalContention) {
  const rdma::GlobalAddress node(0, 7 << 20);
  auto run = [&](HoclOptions opt) -> uint64_t {
    rdma::Fabric fabric(SmallConfig(1, 1));
    auto hocl = std::make_unique<HoclClient>(&fabric, 0, opt);
    for (int t = 0; t < 20; t++) {
      sim::Spawn([](rdma::Fabric* f, HoclClient* h,
                    rdma::GlobalAddress addr) -> sim::Task<void> {
        for (int i = 0; i < 5; i++) {
          LockGuard g = co_await h->Lock(addr, nullptr);
          co_await f->simulator().Delay(1000);
          co_await h->Unlock(g, {}, true, nullptr);
        }
      }(&fabric, hocl.get(), node));
    }
    fabric.simulator().Run();
    return Count(&fabric, "lock.cas_attempts");
  };
  HoclOptions flat;
  flat.hierarchical = false;
  flat.wait_queue = false;
  flat.handover = false;
  HoclOptions hier;  // defaults: full hierarchy
  const uint64_t flat_cas = run(flat);
  const uint64_t hier_cas = run(hier);
  EXPECT_LT(hier_cas, flat_cas / 2)
      << "local queueing should eliminate most remote CAS retries";
}

// --- lock leases (crash-fault tolerance) ---

TEST(LockLeaseTest, LaneEncodingRoundTrips) {
  for (uint16_t owner : {1u, 7u, 254u}) {
    for (uint16_t stamp : {0u, 1u, 200u, 255u}) {
      const uint16_t lane = MakeLockLane(owner, stamp);
      EXPECT_EQ(LockLaneOwner(lane), owner);
      EXPECT_EQ(LockLaneStamp(lane), stamp);
    }
  }
}

TEST(LockLeaseTest, ExpiryDetectedAfterPeriodsElapse) {
  rdma::Fabric fabric(SmallConfig(1, 2));
  HoclOptions opt;
  opt.lease_period_ns = 10'000;
  opt.lease_expiry_periods = 4;
  HoclClient hocl(&fabric, 0, opt);

  const uint16_t stamp0 = hocl.LeaseStampNow();
  EXPECT_NE(stamp0, 0u);
  const uint16_t lane = MakeLockLane(/*owner=*/2, stamp0);
  EXPECT_FALSE(hocl.LaneExpired(lane)) << "fresh lease must not read expired";
  EXPECT_FALSE(hocl.LaneExpired(0)) << "a free lane never expires";
  EXPECT_FALSE(hocl.LaneExpired(MakeLockLane(2, 0)))
      << "stamp 0 is the lease-free encoding";

  bool done = false;
  sim::Spawn([](rdma::Fabric* f, HoclClient* h, uint16_t l,
                bool* flag) -> sim::Task<void> {
    co_await f->simulator().Delay(3 * 10'000);
    EXPECT_FALSE(h->LaneExpired(l)) << "age 3 < expiry 4";
    co_await f->simulator().Delay(2 * 10'000);
    EXPECT_TRUE(h->LaneExpired(l)) << "age 5 >= expiry 4";
    *flag = true;
  }(&fabric, &hocl, lane, &done));
  fabric.simulator().Run();
  EXPECT_TRUE(done);
}

TEST(LockLeaseTest, RenewLeaseRefreshesStamp) {
  rdma::Fabric fabric(SmallConfig(1, 2));
  HoclOptions opt;
  opt.lease_period_ns = 10'000;
  HoclClient hocl(&fabric, 0, opt);
  const rdma::GlobalAddress node(0, 9 << 20);
  const GlobalLockRef ref = LockFor(node, true);

  bool done = false;
  sim::Spawn([](rdma::Fabric* f, HoclClient* h, rdma::GlobalAddress addr,
                GlobalLockRef r, bool* flag) -> sim::Task<void> {
    LockGuard g = co_await h->Lock(addr, nullptr);
    const auto lane_now = [f, &r] {
      const uint64_t word = f->ms(0).device().Read64(r.word_offset());
      return static_cast<uint16_t>((word & r.lane_mask()) >> r.lane_shift());
    };
    const uint16_t before = LockLaneStamp(lane_now());
    co_await f->simulator().Delay(5 * 10'000);  // stamp ages while held
    co_await h->RenewLease(g, nullptr);
    const uint16_t after = LockLaneStamp(lane_now());
    EXPECT_NE(before, after) << "renewal must advance the stamp";
    EXPECT_FALSE(h->LaneExpired(lane_now()));
    co_await h->Unlock(g, {}, true, nullptr);
    *flag = true;
  }(&fabric, &hocl, node, ref, &done));
  fabric.simulator().Run();
  EXPECT_TRUE(done);
}

TEST(LockLeaseTest, TryLockSurfacesLeaseStealOnDeadHolder) {
  // CS 1 acquires and never releases (simulating a crash without the full
  // fault machinery); CS 0's bounded TryLock must surface LeaseSteal once
  // the lease expires instead of burning attempts forever.
  rdma::Fabric fabric(SmallConfig(1, 2));
  HoclOptions opt;
  opt.lease_period_ns = 10'000;
  opt.lease_expiry_periods = 4;
  HoclClient h0(&fabric, 0, opt);
  HoclClient h1(&fabric, 1, opt);
  const rdma::GlobalAddress node(0, 10 << 20);

  bool done = false;
  sim::Spawn([](rdma::Fabric* f, HoclClient* dead, HoclClient* alive,
                rdma::GlobalAddress addr, bool* flag) -> sim::Task<void> {
    LockGuard g = co_await dead->Lock(addr, nullptr);
    (void)g;  // never released: the holder is dead

    // Before expiry: plain bounded contention.
    LockGuard mine;
    Status st = co_await alive->TryLock(addr, 4, &mine, nullptr);
    EXPECT_TRUE(st.IsRetry()) << st.ToString();

    co_await f->simulator().Delay(6 * 10'000);
    // TryLock surfaces the dead holder but does NOT recover inline (its
    // callers hold other locks; the waiting-Lock path drives recovery)
    // and counts no steal — nothing was stolen.
    st = co_await alive->TryLock(addr, 4, &mine, nullptr);
    EXPECT_TRUE(st.IsLeaseSteal()) << st.ToString();
    *flag = true;
  }(&fabric, &h1, &h0, node, &done));
  fabric.simulator().Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(Count(&fabric, "lock.lease_steals"), 0u);
}

TEST(LockLeaseTest, LockStealsDeadHoldersLaneViaRecoveryHook) {
  // The unbounded Lock path: a waiter parked on a dead holder's lane must
  // observe the expiry, run the recovery hook (with no local lane held),
  // and then acquire the freed lane.
  rdma::Fabric fabric(SmallConfig(1, 2));
  HoclOptions opt;
  opt.lease_period_ns = 10'000;
  opt.lease_expiry_periods = 4;
  HoclClient h0(&fabric, 0, opt);
  HoclClient h1(&fabric, 1, opt);
  const rdma::GlobalAddress node(0, 11 << 20);
  const GlobalLockRef ref = LockFor(node, true);

  int hook_calls = 0;
  h0.set_recovery_hook([&fabric, &hook_calls,
                        ref](uint16_t dead_tag) -> sim::Task<void> {
    EXPECT_EQ(dead_tag, 2u);  // cs 1 -> tag 2
    hook_calls++;
    // Stand-in for the Recoverer's lane sweep: release the dead lane.
    static const uint16_t kZero = 0;
    co_await fabric.qp(0, 0).Post(rdma::WorkRequest::Write(  // protocol-ok: test models the recoverer's sweep
        ref.lane_address(), &kZero, sizeof(kZero), ref.space));
  });

  bool done = false;
  sim::Spawn([](rdma::Fabric* f, HoclClient* dead, HoclClient* alive,
                rdma::GlobalAddress addr, bool* flag) -> sim::Task<void> {
    LockGuard g = co_await dead->Lock(addr, nullptr);
    (void)g;  // never released: the holder crashed
    co_await f->simulator().Delay(6 * 10'000);
    LockGuard mine = co_await alive->Lock(addr, nullptr);  // steals
    co_await alive->Unlock(mine, {}, true, nullptr);
    *flag = true;
  }(&fabric, &h1, &h0, node, &done));
  fabric.simulator().Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(hook_calls, 1);
  EXPECT_GE(Count(&fabric, "lock.lease_steals"), 1u);  // only h0 waits
}

TEST(HoclTest, CombinedUnlockOrdersWriteBeforeRelease) {
  // A successor that acquires the lock after a combined [write, release]
  // batch must observe the write.
  rdma::Fabric fabric(SmallConfig(1, 2));
  HoclOptions opt;
  opt.hierarchical = false;  // force both CSs through the global lock
  opt.wait_queue = false;
  opt.handover = false;
  HoclClient h0(&fabric, 0, opt);
  HoclClient h1(&fabric, 1, opt);
  const rdma::GlobalAddress node(0, 8 << 20);

  uint64_t observed = 0;
  sim::Spawn([](HoclClient* h, rdma::GlobalAddress addr) -> sim::Task<void> {
    LockGuard g = co_await h->Lock(addr, nullptr);
    static const uint64_t kPayload = 0xfeedface;
    std::vector<rdma::WorkRequest> wrs;
    wrs.push_back(  // protocol-ok: write-back riding the Unlock under test
        rdma::WorkRequest::Write(addr, &kPayload, 8));
    co_await h->Unlock(g, std::move(wrs), /*combine=*/true, nullptr);
  }(&h0, node));
  sim::Spawn([](rdma::Fabric* f, HoclClient* h, rdma::GlobalAddress addr,
                uint64_t* out) -> sim::Task<void> {
    co_await f->simulator().Delay(100);  // let the other thread win the lock
    LockGuard g = co_await h->Lock(addr, nullptr);
    uint64_t v = 0;
    co_await f->qp(1, 0).Post(rdma::WorkRequest::Read(addr, &v, 8));
    *out = v;
    co_await h->Unlock(g, {}, true, nullptr);
  }(&fabric, &h1, node, &observed));
  fabric.simulator().Run();
  EXPECT_EQ(observed, 0xfeedfaceull);
}

}  // namespace
}  // namespace sherman
