// Unit tests for the simulated RDMA fabric: addressing, DMA-faithful
// memory regions, the NIC timing model, verbs, batching, ordering, and RPC.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "rdma/fabric.h"
#include "sim/task.h"

namespace sherman::rdma {
namespace {

// --- GlobalAddress ---

TEST(GlobalAddressTest, PackUnpackRoundTrip) {
  GlobalAddress a(7, 0x123456789abcull);
  const GlobalAddress b = GlobalAddress::FromU64(a.ToU64());
  EXPECT_EQ(a, b);
  EXPECT_EQ(b.node, 7);
  EXPECT_EQ(b.offset, 0x123456789abcull);
}

TEST(GlobalAddressTest, NullSemantics) {
  EXPECT_TRUE(kNullAddress.is_null());
  EXPECT_FALSE(GlobalAddress(0, 64).is_null());
  EXPECT_FALSE(GlobalAddress(1, 0).is_null());
}

TEST(GlobalAddressTest, Plus) {
  EXPECT_EQ(GlobalAddress(3, 100).Plus(28), GlobalAddress(3, 128));
}

// --- MemoryRegion in-flight read modeling ---

TEST(MemoryRegionTest, PlainReadWrite) {
  MemoryRegion r(4096);
  const uint8_t data[4] = {1, 2, 3, 4};
  r.Write(0, 100, data, 4);
  EXPECT_EQ(std::memcmp(r.raw(100), data, 4), 0);
  r.Write64(0, 200, 0xdeadbeef);
  EXPECT_EQ(r.Read64(200), 0xdeadbeefull);
}

// A region is lazily zeroed: pages are backed only once touched, yet
// every byte of a fresh region reads 0 through every accessor.
TEST(MemoryRegionTest, FreshRegionReadsZero) {
  constexpr uint64_t kSize = 256ull << 20;
  MemoryRegion r(kSize);
  ASSERT_EQ(r.size(), kSize);
  for (const uint64_t off : {uint64_t{0}, kSize / 2, kSize - 64}) {
    SCOPED_TRACE(off);
    const uint8_t* p = r.raw(off);
    for (int i = 0; i < 64; i++) EXPECT_EQ(p[i], 0);
    EXPECT_EQ(r.Read64(off), 0u);
    EXPECT_EQ(r.Read64(off + 56), 0u);
    uint8_t dst[64];
    std::memset(dst, 0xab, sizeof(dst));
    const uint64_t h = r.BeginRead(off, sizeof(dst), dst, 0, 100);
    r.EndRead(h);
    for (uint8_t b : dst) EXPECT_EQ(b, 0);

    const uint8_t data[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    r.Write(0, off + 8, data, sizeof(data));
    EXPECT_EQ(std::memcmp(r.raw(off + 8), data, sizeof(data)), 0);
    EXPECT_EQ(r.Read64(off), 0u);  // neighbours stay zero
    EXPECT_EQ(r.Read64(off + 16), 0u);
  }
}

TEST(MemoryRegionTest, WriteAfterDmaPassedKeepsOldData) {
  MemoryRegion r(4096);
  const uint8_t before[8] = {1, 1, 1, 1, 1, 1, 1, 1};
  r.Write(0, 0, before, 8);
  uint8_t dst[8];
  // DMA covers [0,8) over time [100, 200).
  const uint64_t h = r.BeginRead(0, 8, dst, 100, 200);
  // At t=200 the DMA has passed everything: the write is invisible.
  const uint8_t after[8] = {2, 2, 2, 2, 2, 2, 2, 2};
  r.Write(200, 0, after, 8);
  r.EndRead(h);
  for (int i = 0; i < 8; i++) EXPECT_EQ(dst[i], 1);
  // Memory itself holds the new data.
  EXPECT_EQ(r.raw(0)[0], 2);
}

TEST(MemoryRegionTest, WriteBeforeDmaStartIsFullyVisible) {
  MemoryRegion r(4096);
  uint8_t dst[8] = {0};
  const uint64_t h = r.BeginRead(0, 8, dst, 100, 200);
  const uint8_t after[8] = {9, 9, 9, 9, 9, 9, 9, 9};
  r.Write(100, 0, after, 8);  // progress == 0: nothing transferred yet
  r.EndRead(h);
  for (int i = 0; i < 8; i++) EXPECT_EQ(dst[i], 9);
}

TEST(MemoryRegionTest, MidDmaWriteTearsAtProgressPoint) {
  MemoryRegion r(4096);
  uint8_t dst[100] = {0};
  const uint64_t h = r.BeginRead(0, 100, dst, 0, 100);  // 1 byte per ns
  std::vector<uint8_t> after(100, 7);
  r.Write(50, 0, after.data(), 100);  // halfway through the DMA
  r.EndRead(h);
  // First half already transferred (old zeros), second half patched.
  for (int i = 0; i < 50; i++) EXPECT_EQ(dst[i], 0) << i;
  for (int i = 50; i < 100; i++) EXPECT_EQ(dst[i], 7) << i;
}

TEST(MemoryRegionTest, DisjointWriteDoesNotPatch) {
  MemoryRegion r(4096);
  uint8_t dst[8] = {0};
  const uint64_t h = r.BeginRead(0, 8, dst, 0, 100);
  const uint8_t x[8] = {5, 5, 5, 5, 5, 5, 5, 5};
  r.Write(50, 512, x, 8);  // elsewhere
  r.EndRead(h);
  for (int i = 0; i < 8; i++) EXPECT_EQ(dst[i], 0);
}

TEST(MemoryRegionTest, InflightBookkeeping) {
  MemoryRegion r(4096);
  uint8_t dst[8];
  const uint64_t h1 = r.BeginRead(0, 8, dst, 0, 10);
  const uint64_t h2 = r.BeginRead(8, 8, dst, 0, 10);
  EXPECT_EQ(r.inflight_reads(), 2u);
  r.EndRead(h1);
  r.EndRead(h2);
  EXPECT_EQ(r.inflight_reads(), 0u);
}

// --- NIC timing ---

TEST(NicTest, MessageCostKnee) {
  FabricConfig cfg;
  obs::Registry reg;
  Nic nic(&cfg, &reg, "ms");
  // Small messages: per-message bound; large: bandwidth bound (Figure 3).
  const auto small = nic.MessageCost(16, cfg.nic_rx_ns);
  const auto medium = nic.MessageCost(128, cfg.nic_rx_ns);
  const auto large = nic.MessageCost(4096, cfg.nic_rx_ns);
  EXPECT_EQ(small, cfg.nic_rx_ns);
  EXPECT_LE(medium, 2 * cfg.nic_rx_ns);
  EXPECT_GT(large, 300u);  // ~330 ns at 12.5 B/ns
}

TEST(NicTest, EnginesAreFifoServers) {
  FabricConfig cfg;
  obs::Registry reg;
  Nic nic(&cfg, &reg, "ms");
  const auto t1 = nic.ReserveRx(100, 16);
  const auto t2 = nic.ReserveRx(100, 16);  // queues behind t1
  EXPECT_EQ(t1, 100 + cfg.nic_rx_ns);
  EXPECT_EQ(t2, t1 + cfg.nic_rx_ns);
  // A later idle period: starts at arrival.
  const auto t3 = nic.ReserveRx(10'000, 16);
  EXPECT_EQ(t3, 10'000 + cfg.nic_rx_ns);
}

TEST(NicTest, AtomicBucketsSerializeSameAddress) {
  FabricConfig cfg;
  obs::Registry reg;
  Nic nic(&cfg, &reg, "ms");
  const auto s1 = nic.ReserveAtomicBucket(64, 100, 900);
  const auto s2 = nic.ReserveAtomicBucket(64, 100, 900);
  EXPECT_EQ(s1, 100u);
  EXPECT_EQ(s2, 1000u);  // waited for the bucket
  EXPECT_EQ(reg.Snapshot().counter("nic.ms.atomic_stall_ns"), 900u);
}

TEST(NicTest, AtomicBucketsIndependentAcrossAddresses) {
  FabricConfig cfg;
  obs::Registry reg;
  Nic nic(&cfg, &reg, "ms");
  const auto s1 = nic.ReserveAtomicBucket(64, 100, 900);
  const auto s2 = nic.ReserveAtomicBucket(128, 100, 900);  // different bucket
  EXPECT_EQ(s1, 100u);
  EXPECT_EQ(s2, 100u);
}

TEST(NicTest, BucketCollisionAt4KStride) {
  FabricConfig cfg;  // 12 LSBs select the bucket
  obs::Registry reg;
  Nic nic(&cfg, &reg, "ms");
  const auto s1 = nic.ReserveAtomicBucket(64, 0, 900);
  const auto s2 = nic.ReserveAtomicBucket(64 + 4096, 0, 900);
  EXPECT_EQ(s1, 0u);
  EXPECT_EQ(s2, 900u);  // same 12 LSBs -> same bucket
}

// --- Verbs over the fabric ---

class FabricTest : public ::testing::Test {
 protected:
  FabricTest() : fabric_(MakeConfig()) {}

  static FabricConfig MakeConfig() {
    FabricConfig f;
    f.num_memory_servers = 2;
    f.num_compute_servers = 2;
    f.ms_memory_bytes = 16 << 20;
    return f;
  }

  // Runs `task` to completion on the simulator.
  void RunTask(sim::Task<void> task) {
    sim::Spawn(std::move(task));
    fabric_.simulator().Run();
  }

  Fabric fabric_;
};

TEST_F(FabricTest, WriteThenReadRoundTrip) {
  bool done = false;
  RunTask([](Fabric* f, bool* flag) -> sim::Task<void> {
    Qp& qp = f->qp(0, 1);
    const GlobalAddress addr(1, 1 << 20);
    uint64_t payload = 0x1122334455667788ull;
    RdmaResult w = co_await qp.Post(WorkRequest::Write(addr, &payload, 8));
    EXPECT_TRUE(w.status.ok());
    uint64_t readback = 0;
    RdmaResult r = co_await qp.Post(WorkRequest::Read(addr, &readback, 8));
    EXPECT_TRUE(r.status.ok());
    EXPECT_EQ(readback, payload);
    *flag = true;
  }(&fabric_, &done));
  EXPECT_TRUE(done);
}

TEST_F(FabricTest, SmallReadLatencyAboutTwoMicroseconds) {
  sim::SimTime latency = 0;
  RunTask([](Fabric* f, sim::SimTime* out) -> sim::Task<void> {
    uint64_t v;
    const sim::SimTime t0 = f->simulator().now();
    co_await f->qp(0, 0).Post(
        WorkRequest::Read(GlobalAddress(0, 1 << 20), &v, 8));
    *out = f->simulator().now() - t0;
  }(&fabric_, &latency));
  // Paper: <= 2 us for small messages on an idle fabric.
  EXPECT_GT(latency, 1500u);
  EXPECT_LT(latency, 2500u);
}

TEST_F(FabricTest, CasSucceedsAndFails) {
  RunTask([](Fabric* f) -> sim::Task<void> {
    Qp& qp = f->qp(0, 0);
    const GlobalAddress addr(0, 2 << 20);
    uint64_t fetched = 0;
    RdmaResult r1 =
        co_await qp.Post(WorkRequest::Cas(addr, 0, 111, &fetched));
    EXPECT_TRUE(r1.cas_success);
    EXPECT_EQ(fetched, 0u);
    RdmaResult r2 =
        co_await qp.Post(WorkRequest::Cas(addr, 0, 222, &fetched));
    EXPECT_FALSE(r2.cas_success);  // now holds 111
    EXPECT_EQ(fetched, 111u);
    RdmaResult r3 =
        co_await qp.Post(WorkRequest::Cas(addr, 111, 222, &fetched));
    EXPECT_TRUE(r3.cas_success);
  }(&fabric_));
}

TEST_F(FabricTest, MaskedCasTouchesOnlyLane) {
  RunTask([](Fabric* f) -> sim::Task<void> {
    Qp& qp = f->qp(0, 0);
    const GlobalAddress addr(0, 3 << 20);
    uint64_t init = 0xAAAA'0000'0000'BBBBull;  // lane [16,32) is zero
    co_await qp.Post(WorkRequest::Write(addr, &init, 8));
    // CAS the 16-bit lane at bits [16,32): expect 0, swap 0x7777.
    uint64_t fetched = 0;
    const uint64_t mask = 0xffff'0000ull;
    RdmaResult r = co_await qp.Post(
        WorkRequest::MaskedCas(addr, 0, 0x7777'0000ull, mask, &fetched));
    EXPECT_TRUE(r.cas_success);
    uint64_t readback = 0;
    co_await qp.Post(WorkRequest::Read(addr, &readback, 8));
    EXPECT_EQ(readback, 0xAAAA'0000'0000'BBBBull | 0x7777'0000ull);
    // Mismatched lane: fails, value unchanged.
    RdmaResult r2 = co_await qp.Post(
        WorkRequest::MaskedCas(addr, 0, 0x1111'0000ull, mask, &fetched));
    EXPECT_FALSE(r2.cas_success);
  }(&fabric_));
}

TEST_F(FabricTest, FaaAddsAndFetches) {
  RunTask([](Fabric* f) -> sim::Task<void> {
    Qp& qp = f->qp(1, 1);
    const GlobalAddress addr(1, 4 << 20);
    uint64_t fetched = 0;
    co_await qp.Post(WorkRequest::Faa(addr, 5, &fetched));
    EXPECT_EQ(fetched, 0u);
    co_await qp.Post(WorkRequest::Faa(addr, 7, &fetched));
    EXPECT_EQ(fetched, 5u);
    uint64_t v = 0;
    co_await qp.Post(WorkRequest::Read(addr, &v, 8));
    EXPECT_EQ(v, 12u);
  }(&fabric_));
}

TEST_F(FabricTest, DeviceMemorySpaceIsSeparate) {
  RunTask([](Fabric* f) -> sim::Task<void> {
    Qp& qp = f->qp(0, 0);
    const GlobalAddress addr(0, 64);
    uint64_t host_val = 111, dev_val = 222;
    co_await qp.Post(
        WorkRequest::Write(addr, &host_val, 8, MemorySpace::kHost));
    co_await qp.Post(
        WorkRequest::Write(addr, &dev_val, 8, MemorySpace::kDevice));
    uint64_t h = 0, d = 0;
    co_await qp.Post(WorkRequest::Read(addr, &h, 8, MemorySpace::kHost));
    co_await qp.Post(WorkRequest::Read(addr, &d, 8, MemorySpace::kDevice));
    EXPECT_EQ(h, 111u);
    EXPECT_EQ(d, 222u);
  }(&fabric_));
}

TEST_F(FabricTest, OnChipAtomicsMuchFasterUnderContention) {
  // Hammer one address with CAS from many coroutines, host vs device.
  auto hammer = [](Fabric* f, MemorySpace space, sim::SimTime* elapsed)
      -> sim::Task<void> {
    const GlobalAddress addr(0, 2048);
    const sim::SimTime t0 = f->simulator().now();
    for (int i = 0; i < 50; i++) {
      uint64_t fetched;
      co_await f->qp(0, 0).Post(
          WorkRequest::Cas(addr, 1, 1, &fetched, space));
    }
    *elapsed = f->simulator().now() - t0;
  };
  sim::SimTime host_ns = 0;
  {
    Fabric fab(MakeConfig());
    // 8 concurrent hammerers to build bucket queueing.
    std::vector<sim::SimTime> ts(8, 0);
    for (int i = 0; i < 8; i++) sim::Spawn(hammer(&fab, MemorySpace::kHost, &ts[i]));
    fab.simulator().Run();
    for (auto t : ts) host_ns = std::max(host_ns, t);
  }
  sim::SimTime dev_ns = 0;
  {
    Fabric fab(MakeConfig());
    std::vector<sim::SimTime> ts(8, 0);
    for (int i = 0; i < 8; i++) sim::Spawn(hammer(&fab, MemorySpace::kDevice, &ts[i]));
    fab.simulator().Run();
    for (auto t : ts) dev_ns = std::max(dev_ns, t);
  }
  EXPECT_LT(dev_ns, host_ns);  // on-chip avoids PCIe in the bucket hold
}

TEST_F(FabricTest, BatchAppliesWritesInOrderWithOneCompletion) {
  RunTask([](Fabric* f) -> sim::Task<void> {
    Qp& qp = f->qp(0, 0);
    const GlobalAddress a(0, 5 << 20);
    uint64_t v1 = 1, v2 = 2;
    std::vector<WorkRequest> batch;
    batch.push_back(WorkRequest::Write(a, &v1, 8));
    batch.push_back(WorkRequest::Write(a, &v2, 8));  // same address: last wins
    const obs::Counter* batches = f->registry().GetCounter("rdma.batches");
    const uint64_t batches_before = batches->value();
    co_await qp.PostBatch(std::move(batch));
    EXPECT_EQ(batches->value(), batches_before + 1);
    uint64_t v = 0;
    co_await qp.Post(WorkRequest::Read(a, &v, 8));
    EXPECT_EQ(v, 2u);  // in-order execution: v2 landed last
  }(&fabric_));
}

TEST_F(FabricTest, BatchCheaperThanSequentialRoundTrips) {
  auto measure = [](Fabric* f, bool combine, sim::SimTime* out)
      -> sim::Task<void> {
    Qp& qp = f->qp(0, 0);
    uint64_t x = 7;
    const sim::SimTime t0 = f->simulator().now();
    if (combine) {
      std::vector<WorkRequest> batch;
      batch.push_back(WorkRequest::Write(GlobalAddress(0, 6 << 20), &x, 8));
      batch.push_back(WorkRequest::Write(GlobalAddress(0, 7 << 20), &x, 8));
      co_await qp.PostBatch(std::move(batch));
    } else {
      co_await qp.Post(WorkRequest::Write(GlobalAddress(0, 6 << 20), &x, 8));
      co_await qp.Post(WorkRequest::Write(GlobalAddress(0, 7 << 20), &x, 8));
    }
    *out = f->simulator().now() - t0;
  };
  sim::SimTime combined = 0, sequential = 0;
  {
    Fabric fab(MakeConfig());
    sim::Spawn(measure(&fab, true, &combined));
    fab.simulator().Run();
  }
  {
    Fabric fab(MakeConfig());
    sim::Spawn(measure(&fab, false, &sequential));
    fab.simulator().Run();
  }
  EXPECT_LT(combined, sequential);
  EXPECT_GT(sequential, combined * 3 / 2);  // saves ~a full round trip
}

TEST_F(FabricTest, ReadAfterPostedWriteSeesData) {
  // A read posted right after a write (different "threads") must observe
  // it: PCIe read-after-write ordering at the MS NIC.
  RunTask([](Fabric* f) -> sim::Task<void> {
    const GlobalAddress addr(0, 8 << 20);
    uint64_t payload = 42;
    // Post the write but do NOT await it yet: fire-and-forget coroutine.
    bool write_done = false;
    sim::Spawn([](Fabric* f2, GlobalAddress a, uint64_t* p,
                  bool* flag) -> sim::Task<void> {
      co_await f2->qp(0, 0).Post(WorkRequest::Write(a, p, 8));
      *flag = true;
    }(f, addr, &payload, &write_done));
    // Read from another CS immediately; it must not see stale zeros IF its
    // DMA starts after the write applied. Wait one wire latency to ensure
    // the read arrives after the write.
    co_await f->simulator().Delay(f->config().wire_latency_ns + 100);
    uint64_t v = 0;
    co_await f->qp(1, 0).Post(WorkRequest::Read(addr, &v, 8));
    EXPECT_EQ(v, 42u);
  }(&fabric_));
}

TEST_F(FabricTest, RpcInvokesHandlerFifo) {
  fabric_.ms(1).set_rpc_handler(
      [](uint64_t opcode, uint64_t arg, uint64_t arg2,
         uint16_t from) -> uint64_t {
        return opcode * 1000 + arg * 10 + arg2 * 100 + from;
      });
  RunTask([](Fabric* f) -> sim::Task<void> {
    const uint64_t r = co_await f->qp(0, 1).Rpc(3, 4, 5);
    EXPECT_EQ(r, 3 * 1000 + 4 * 10 + 5 * 100 + 0u);
  }(&fabric_));
  EXPECT_EQ(fabric_.ms(1).rpcs_served(), 1u);
}

TEST_F(FabricTest, RpcSerializedByMemoryThread) {
  fabric_.ms(0).set_rpc_handler(
      [](uint64_t, uint64_t, uint64_t, uint16_t) -> uint64_t { return 1; });
  std::vector<sim::SimTime> completions(4);
  for (int i = 0; i < 4; i++) {
    sim::Spawn([](Fabric* f, sim::SimTime* out) -> sim::Task<void> {
      co_await f->qp(0, 0).Rpc(1, 0);
      *out = f->simulator().now();
    }(&fabric_, &completions[i]));
  }
  fabric_.simulator().Run();
  std::sort(completions.begin(), completions.end());
  // FIFO service: completions spaced by at least the service time.
  for (int i = 1; i < 4; i++) {
    EXPECT_GE(completions[i] - completions[i - 1],
              fabric_.config().rpc_service_ns);
  }
}

TEST_F(FabricTest, CountersTrackTraffic) {
  RunTask([](Fabric* f) -> sim::Task<void> {
    uint64_t v = 9;
    co_await f->qp(0, 1).Post(
        WorkRequest::Write(GlobalAddress(1, 9 << 20), &v, 8));
    uint64_t r;
    co_await f->qp(0, 1).Post(
        WorkRequest::Read(GlobalAddress(1, 9 << 20), &r, 8));
  }(&fabric_));
  // The fabric's only traffic, so the fabric-wide rdma.* sums are qp(0, 1)'s.
  const obs::MetricsSnapshot c = fabric_.registry().Snapshot();
  EXPECT_EQ(c.counter("rdma.writes"), 1u);
  EXPECT_EQ(c.counter("rdma.reads"), 1u);
  EXPECT_EQ(c.counter("rdma.write_bytes"), 8u);
  EXPECT_EQ(c.counter("rdma.read_bytes"), 8u);
  EXPECT_EQ(c.counter("rdma.batches"), 2u);
}

}  // namespace
}  // namespace sherman::rdma
