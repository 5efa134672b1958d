// Fault-injection and boundary tests: corrupted nodes, freed nodes, stale
// caches, exhausted memory, extreme keys, and degenerate range queries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "bench/runner.h"
#include "core/btree.h"
#include "core/presets.h"

namespace sherman {
namespace {

rdma::FabricConfig SmallFabric(int ms = 2, int cs = 1,
                               uint64_t bytes = 32ull << 20) {
  rdma::FabricConfig f;
  f.num_memory_servers = ms;
  f.num_compute_servers = cs;
  f.ms_memory_bytes = bytes;
  return f;
}

// Find the leaf holding `key` by direct (non-simulated) traversal.
rdma::GlobalAddress FindLeafDirect(ShermanSystem* system, Key key) {
  const TreeShape& shape = system->options().shape;
  rdma::GlobalAddress addr = system->DebugRootAddr();
  while (true) {
    NodeView view(system->fabric().HostRaw(addr), &shape);
    if (view.is_leaf()) return addr;
    addr = view.InternalChildFor(key);
  }
}

TEST(FaultTest, TornNodeVersionsForceRereadUntilConsistent) {
  ShermanSystem system(SmallFabric(), ShermanOptions());
  system.BulkLoad(bench::MakeLoadKvs(1'000), 0.8);
  const rdma::GlobalAddress leaf = FindLeafDirect(&system, 100);
  uint8_t* raw = system.fabric().HostRaw(leaf);
  const TreeShape& shape = system.options().shape;

  // Tear the node: bump only the front version.
  raw[kOffFnv] = (raw[kOffFnv] + 1) & 0xf;
  // Schedule the repair to land mid-run (a writer would normally do this).
  system.simulator().After(20'000, [raw, &shape] {
    raw[shape.node_size - 1] = raw[kOffFnv];
  });

  bool done = false;
  sim::Spawn([](TreeClient* c, bool* flag) -> sim::Task<void> {
    uint64_t v = 0;
    OpStats stats;
    Status st = co_await c->Lookup(100, &v, &stats);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_GT(stats.read_retries, 0u) << "should have retried the torn node";
    *flag = true;
  }(&system.client(0), &done));
  system.simulator().Run();
  EXPECT_TRUE(done);
}

TEST(FaultTest, ChecksumModeDetectsBitrot) {
  ShermanSystem system(SmallFabric(), FgPlusOptions());
  system.BulkLoad(bench::MakeLoadKvs(1'000), 0.8);
  const rdma::GlobalAddress leaf = FindLeafDirect(&system, 100);
  uint8_t* raw = system.fabric().HostRaw(leaf);

  raw[300] ^= 0x40;  // silent corruption
  system.simulator().After(20'000, [raw] { raw[300] ^= 0x40; });  // repair

  bool done = false;
  sim::Spawn([](TreeClient* c, bool* flag) -> sim::Task<void> {
    uint64_t v = 0;
    OpStats stats;
    Status st = co_await c->Lookup(100, &v, &stats);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_GT(stats.read_retries, 0u);
    *flag = true;
  }(&system.client(0), &done));
  system.simulator().Run();
  EXPECT_TRUE(done);
}

TEST(FaultTest, PermanentlyTornNodeTimesOutCleanly) {
  ShermanSystem system(SmallFabric(), ShermanOptions());
  system.BulkLoad(bench::MakeLoadKvs(1'000), 0.8);
  const rdma::GlobalAddress leaf = FindLeafDirect(&system, 100);
  uint8_t* raw = system.fabric().HostRaw(leaf);
  raw[kOffFnv] = (raw[kOffFnv] + 1) & 0xf;  // torn forever

  bool done = false;
  sim::Spawn([](TreeClient* c, bool* flag) -> sim::Task<void> {
    uint64_t v = 0;
    Status st = co_await c->Lookup(100, &v);
    EXPECT_TRUE(st.IsTimedOut()) << st.ToString();
    *flag = true;
  }(&system.client(0), &done));
  system.simulator().Run();
  EXPECT_TRUE(done);
}

TEST(FaultTest, StaleCachePointerHealsViaSiblingChase) {
  ShermanSystem system(SmallFabric(), ShermanOptions());
  system.BulkLoad(bench::MakeLoadKvs(10'000), 0.8);

  bool done = false;
  sim::Spawn([](ShermanSystem* sys, bool* flag) -> sim::Task<void> {
    TreeClient& c = sys->client(0);
    uint64_t v = 0;
    // Warm the cache for this region.
    Status st = co_await c.Lookup(10'000, &v);
    EXPECT_TRUE(st.ok());

    // Behind the client's back, split the leaf holding 10'000 by filling
    // it: insert odd keys until a split happens (height/fences change).
    for (Key k = 10'001; k < 10'101; k += 2) {
      st = co_await c.Insert(k, k);
      EXPECT_TRUE(st.ok());
    }
    // All keys still reachable (possibly via chases/invalidations).
    for (Key k = 10'000; k < 10'100; k++) {
      st = co_await c.Lookup(k, &v);
      if (k % 2 == 0) {
        EXPECT_TRUE(st.ok()) << "key " << k;
      } else {
        EXPECT_TRUE(st.ok() || st.IsNotFound());
      }
    }
    *flag = true;
  }(&system, &done));
  system.simulator().Run();
  EXPECT_TRUE(done);
  system.DebugCheckInvariants();
}

TEST(FaultTest, OutOfMemorySurfacesFromSplit) {
  // One MS with barely more than the chunk area: bulkload takes the only
  // chunk; the first split cannot allocate.
  ShermanSystem* sys = nullptr;
  TreeOptions topt = ShermanOptions();
  topt.shape.node_size = 256;
  ShermanSystem system(
      SmallFabric(1, 1, kChunkAreaOffset + kChunkSize + kChunkSize / 2),
      topt);
  sys = &system;
  system.BulkLoad({}, 0.8);

  bool done = false;
  sim::Spawn([](ShermanSystem* s, bool* flag) -> sim::Task<void> {
    TreeClient& c = s->client(0);
    Status st;
    bool saw_oom = false;
    for (Key k = 1; k <= 100'000; k++) {
      st = co_await c.Insert(k, k);
      if (!st.ok()) {
        saw_oom = st.IsOutOfMemory();
        break;
      }
    }
    EXPECT_TRUE(saw_oom) << "expected OutOfMemory, got " << st.ToString();
    *flag = true;
  }(sys, &done));
  system.simulator().Run();
  EXPECT_TRUE(done);
}

// 24-byte keys: "kkk...k<n>".
std::string LongKey(int n) {
  return std::string(23, 'k') + static_cast<char>('0' + n);
}

TEST(FaultTest, FailedVarBatchRetiresItsReservedExtents) {
  // One MS whose chunk area leaves the client a single 8 MB chunk: four
  // 2 MB value-log segments.
  TreeOptions topt = ShermanOptions();
  topt.two_level_versions = false;  // varlen requires sorted leaves
  topt.shape.varlen = true;
  topt.vlog_segment_bytes = 2 << 20;
  ShermanSystem system(
      SmallFabric(1, 1, kChunkAreaOffset + 2 * kChunkSize + kChunkSize / 2),
      topt);
  system.BulkLoadVar({}, 0.8);
  const uint32_t node_size = topt.shape.node_size;
  std::vector<uint8_t> leaf;
  obs::MetricsSnapshot before;

  bool done = false;
  sim::Spawn([](ShermanSystem* s, uint32_t node_size,
                std::vector<uint8_t>* leaf, obs::MetricsSnapshot* before,
                bool* flag) -> sim::Task<void> {
    TreeClient& c = s->client(0);
    // With 24-byte keys, 100, 200, 400 and 800 B values take size classes
    // 1 to 4: one segment each, and the chunk is full.
    const uint32_t sizes[] = {100, 200, 400, 800};
    for (int n = 0; n < 4; n++) {
      const std::string k = LongKey(n);
      const std::string v(sizes[n], 'v');
      const Status st = co_await c.InsertVar(Slice(k), Slice(v));
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
    const uint8_t* raw = s->fabric().HostRaw(s->DebugRootAddr());
    leaf->assign(raw, raw + node_size);
    *before = s->registry().Snapshot();
    // The 100 B value reserves an extent in its open segment; the 1000 B
    // one needs a fifth segment, which no chunk can hold.
    std::vector<std::pair<std::string, std::string>> kvs = {
        {LongKey(4), std::string(100, 'a')},
        {LongKey(5), std::string(1000, 'b')}};
    const Status st = co_await c.MultiInsertVar(std::move(kvs));
    EXPECT_TRUE(st.IsOutOfMemory()) << st.ToString();
    *flag = true;
  }(&system, node_size, &leaf, &before, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);

  const obs::MetricsSnapshot after = system.registry().Snapshot();
  const uint64_t reserved =
      after.counter("vlog.appends") - before.counter("vlog.appends");
  EXPECT_EQ(reserved, 1u);
  EXPECT_EQ(after.counter("vlog.retires") - before.counter("vlog.retires"),
            reserved)
      << "the failed batch leaked an extent it had reserved";
  ASSERT_EQ(system.DebugCountLeaves(), 1u);
  const uint8_t* raw = system.fabric().HostRaw(system.DebugRootAddr());
  EXPECT_TRUE(std::equal(leaf.begin(), leaf.end(), raw))
      << "the failed batch wrote its leaf";
}

// A spare segment that found no memory is not asked for again before its
// class's next segment. One MS leaves the client a single 8 MB chunk:
// four 2 MB segments, three of them taken by classes 1 to 3. 8,000 B
// values take 8 KB extents (class 7, 256 to a segment), and the class-7
// segment opens its spare at its 224th extent, which finds no memory.
// The segment's last extents then cost no alloc RPC, and the put after
// the last one fails in its reservation.
TEST(FaultTest, FailedOpenAheadIsNotRetriedWithinItsSegment) {
  TreeOptions topt = ShermanOptions();
  topt.two_level_versions = false;  // varlen requires sorted leaves
  topt.shape.varlen = true;
  topt.vlog_segment_bytes = 2 << 20;
  ShermanSystem system(
      SmallFabric(1, 1, kChunkAreaOffset + 2 * kChunkSize + kChunkSize / 2),
      topt);
  system.BulkLoadVar({}, 0.8);
  obs::MetricsSnapshot before, after;

  bool done = false;
  sim::Spawn([](ShermanSystem* s, obs::MetricsSnapshot* before,
                obs::MetricsSnapshot* after, bool* flag) -> sim::Task<void> {
    TreeClient& c = s->client(0);
    const uint32_t sizes[] = {100, 200, 400};
    for (int n = 0; n < 3; n++) {
      const std::string k = LongKey(n);
      const std::string v(sizes[n], 'v');
      const Status st = co_await c.InsertVar(Slice(k), Slice(v));
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
    // Updates of one key: each reserves an extent and retires the last.
    const std::string k = LongKey(3);
    const auto put = [&c, &k](int i) -> sim::Task<Status> {
      const std::string v(8000, static_cast<char>('a' + i % 26));
      co_return co_await c.InsertVar(Slice(k), Slice(v));
    };
    int i = 0;
    for (; i < 230; i++) {
      const Status st = co_await put(i);
      EXPECT_TRUE(st.ok()) << i << ": " << st.ToString();
    }
    co_await s->simulator().Delay(100'000);  // the spare failed by now
    *before = s->registry().Snapshot();
    for (; i < 256; i++) {
      const Status st = co_await put(i);
      EXPECT_TRUE(st.ok()) << i << ": " << st.ToString();
    }
    co_await s->simulator().Delay(100'000);
    *after = s->registry().Snapshot();
    const Status st = co_await put(i);
    EXPECT_TRUE(st.IsOutOfMemory()) << st.ToString();
    *flag = true;
  }(&system, &before, &after, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);

  EXPECT_EQ(after.counter("vlog.segments_opened"), 4u);
  const uint64_t rpcs =
      after.counter("rdma.rpcs") - before.counter("rdma.rpcs");
  const uint64_t retires =
      after.counter("vlog.retires") - before.counter("vlog.retires");
  EXPECT_EQ(retires, 26u);
  EXPECT_EQ(rpcs, retires) << "a full class asked for its spare again";
}

TEST(EdgeCaseTest, MinimalAndHugeKeys) {
  ShermanSystem system(SmallFabric(), ShermanOptions());
  system.BulkLoad({}, 0.8);
  bool done = false;
  sim::Spawn([](TreeClient* c, bool* flag) -> sim::Task<void> {
    // Smallest legal key is 1 (0 is the null marker); largest is
    // kMaxKey - 1 (kMaxKey is +infinity).
    Status st = co_await c->Insert(1, 111);
    EXPECT_TRUE(st.ok());
    st = co_await c->Insert(kMaxKey - 1, 999);
    EXPECT_TRUE(st.ok());
    uint64_t v = 0;
    EXPECT_TRUE((co_await c->Lookup(1, &v)).ok());
    EXPECT_EQ(v, 111u);
    EXPECT_TRUE((co_await c->Lookup(kMaxKey - 1, &v)).ok());
    EXPECT_EQ(v, 999u);
    *flag = true;
  }(&system.client(0), &done));
  system.simulator().Run();
  EXPECT_TRUE(done);
}

TEST(EdgeCaseTest, RangeQueryBeyondAllKeysAndZeroCount) {
  ShermanSystem system(SmallFabric(), ShermanOptions());
  system.BulkLoad(bench::MakeLoadKvs(100), 0.8);  // keys 2..200
  bool done = false;
  sim::Spawn([](TreeClient* c, bool* flag) -> sim::Task<void> {
    std::vector<std::pair<Key, uint64_t>> out;
    Status st = co_await c->RangeQuery(10'000, 50, &out);
    EXPECT_TRUE(st.ok());
    EXPECT_TRUE(out.empty());
    st = co_await c->RangeQuery(2, 0, &out);
    EXPECT_TRUE(st.ok());
    EXPECT_TRUE(out.empty());
    // Count larger than the whole tree: returns everything.
    st = co_await c->RangeQuery(1, 10'000, &out);
    EXPECT_TRUE(st.ok());
    EXPECT_EQ(out.size(), 100u);
    *flag = true;
  }(&system.client(0), &done));
  system.simulator().Run();
  EXPECT_TRUE(done);
}

TEST(EdgeCaseTest, EmptyTreeOperations) {
  ShermanSystem system(SmallFabric(), ShermanOptions());
  system.BulkLoad({}, 0.8);
  bool done = false;
  sim::Spawn([](TreeClient* c, bool* flag) -> sim::Task<void> {
    uint64_t v = 0;
    EXPECT_TRUE((co_await c->Lookup(5, &v)).IsNotFound());
    EXPECT_TRUE((co_await c->Delete(5)).IsNotFound());
    std::vector<std::pair<Key, uint64_t>> out;
    Status st = co_await c->RangeQuery(1, 10, &out);
    EXPECT_TRUE(st.ok());
    EXPECT_TRUE(out.empty());
    *flag = true;
  }(&system.client(0), &done));
  system.simulator().Run();
  EXPECT_TRUE(done);
}

TEST(EdgeCaseTest, RootLeafSplitGrowsHeight) {
  TreeOptions topt = ShermanOptions();
  topt.shape.node_size = 256;
  ShermanSystem system(SmallFabric(), topt);
  system.BulkLoad({}, 0.8);
  EXPECT_EQ(system.DebugHeight(), 1u);
  bool done = false;
  sim::Spawn([](TreeClient* c, bool* flag) -> sim::Task<void> {
    for (Key k = 1; k <= 40; k++) {
      Status st = co_await c->Insert(k, k);
      EXPECT_TRUE(st.ok());
    }
    *flag = true;
  }(&system.client(0), &done));
  system.simulator().Run();
  EXPECT_TRUE(done);
  EXPECT_GE(system.DebugHeight(), 2u);
  system.DebugCheckInvariants();
  EXPECT_EQ(system.DebugScanLeaves().size(), 40u);
}

TEST(EdgeCaseTest, ValuesWithAllBitPatterns) {
  ShermanSystem system(SmallFabric(), ShermanOptions());
  system.BulkLoad({}, 0.8);
  bool done = false;
  sim::Spawn([](TreeClient* c, bool* flag) -> sim::Task<void> {
    const uint64_t values[] = {0, ~0ull, 0x8000000000000000ull, 1};
    Key k = 10;
    for (uint64_t val : values) {
      EXPECT_TRUE((co_await c->Insert(k, val)).ok());
      uint64_t got = ~val;
      EXPECT_TRUE((co_await c->Lookup(k, &got)).ok());
      EXPECT_EQ(got, val);
      k++;
    }
    *flag = true;
  }(&system.client(0), &done));
  system.simulator().Run();
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace sherman
