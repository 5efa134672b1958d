// Tests for the RPC-based index baseline (§3.1 motivation): correctness,
// and the defining property — throughput bounded by the memory threads'
// service rate regardless of client parallelism.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "ext/rpc_index.h"
#include "util/random.h"

namespace sherman::ext {
namespace {

rdma::FabricConfig SmallFabric(int ms = 2, int cs = 2) {
  rdma::FabricConfig f;
  f.num_memory_servers = ms;
  f.num_compute_servers = cs;
  f.ms_memory_bytes = 32ull << 20;
  return f;
}

TEST(RpcIndexTest, PutGetDelete) {
  rdma::Fabric fabric(SmallFabric());
  RpcIndex index(&fabric);
  RpcIndexClient client(&index, 0);
  bool done = false;
  sim::Spawn([](RpcIndexClient* c, bool* flag) -> sim::Task<void> {
    EXPECT_TRUE((co_await c->Put(10, 100)).ok());
    uint64_t v = 0;
    EXPECT_TRUE((co_await c->Get(10, &v)).ok());
    EXPECT_EQ(v, 100u);
    EXPECT_TRUE((co_await c->Get(11, &v)).IsNotFound());
    EXPECT_TRUE((co_await c->Delete(10)).ok());
    EXPECT_TRUE((co_await c->Get(10, &v)).IsNotFound());
    EXPECT_TRUE((co_await c->Delete(10)).IsNotFound());
    *flag = true;
  }(&client, &done));
  fabric.simulator().Run();
  EXPECT_TRUE(done);
}

TEST(RpcIndexTest, ScanMergesEveryShardInKeyOrder) {
  // Keys hash-shard across both MSs; a scan must ask every shard and
  // return one key-ordered prefix, skipping deleted keys.
  rdma::Fabric fabric(SmallFabric());
  RpcIndex index(&fabric);
  RpcIndexClient client(&index, 0);
  bool done = false;
  sim::Spawn([](RpcIndexClient* c, bool* flag) -> sim::Task<void> {
    for (uint64_t k = 10; k < 30; k += 2) {
      EXPECT_TRUE((co_await c->Put(k, k * 10)).ok());
    }
    EXPECT_TRUE((co_await c->Delete(14)).ok());
    std::vector<std::pair<uint64_t, uint64_t>> out;
    EXPECT_TRUE((co_await c->Scan(11, 4, &out)).ok());
    const std::vector<std::pair<uint64_t, uint64_t>> want = {
        {12, 120}, {16, 160}, {18, 180}, {20, 200}};
    EXPECT_EQ(out, want);
    // A scan past the last key returns what is left.
    EXPECT_TRUE((co_await c->Scan(26, 10, &out)).ok());
    EXPECT_EQ(out.size(), 2u);
    *flag = true;
  }(&client, &done));
  fabric.simulator().Run();
  EXPECT_TRUE(done);
}

TEST(RpcIndexTest, BulkLoadAndRandomOps) {
  rdma::Fabric fabric(SmallFabric());
  RpcIndex index(&fabric);
  std::vector<std::pair<uint64_t, uint64_t>> kvs;
  for (uint64_t i = 1; i <= 1000; i++) kvs.emplace_back(i, i * 2);
  index.BulkLoad(kvs);
  EXPECT_EQ(index.DebugCount(), 1000u);

  RpcIndexClient client(&index, 1);
  bool done = false;
  sim::Spawn([](RpcIndexClient* c, bool* flag) -> sim::Task<void> {
    Random rng(5);
    std::map<uint64_t, uint64_t> model;
    for (uint64_t i = 1; i <= 1000; i++) model[i] = i * 2;
    for (int i = 0; i < 800; i++) {
      const uint64_t key = 1 + rng.Uniform(1500);
      switch (rng.Uniform(3)) {
        case 0: {
          const uint64_t val = 1 + rng.Uniform(1 << 20);
          EXPECT_TRUE((co_await c->Put(key, val)).ok());
          model[key] = val;
          break;
        }
        case 1: {
          uint64_t v = 0;
          Status st = co_await c->Get(key, &v);
          auto it = model.find(key);
          if (it == model.end()) {
            EXPECT_TRUE(st.IsNotFound());
          } else {
            EXPECT_TRUE(st.ok());
            EXPECT_EQ(v, it->second);
          }
          break;
        }
        default:
          EXPECT_EQ((co_await c->Delete(key)).ok(), model.erase(key) > 0);
      }
    }
    *flag = true;
  }(&client, &done));
  fabric.simulator().Run();
  EXPECT_TRUE(done);
}

// The motivation experiment in miniature: doubling the client count does
// NOT double RPC-index throughput — the wimpy memory threads are the
// bottleneck (§3.1: near-zero computation power at MS-side).
TEST(RpcIndexTest, ThroughputCappedByMemoryThreads) {
  auto run = [](int threads) {
    rdma::Fabric fabric(SmallFabric(2, 2));
    RpcIndex index(&fabric);
    std::vector<std::unique_ptr<RpcIndexClient>> clients;
    for (int cs = 0; cs < 2; cs++) {
      clients.push_back(std::make_unique<RpcIndexClient>(&index, cs));
    }
    struct Ctx {
      bool stop = false;
      uint64_t ops = 0;
    } ctx;
    for (int t = 0; t < threads; t++) {
      sim::Spawn([](RpcIndexClient* c, Ctx* x, uint64_t seed)
                     -> sim::Task<void> {
        Random rng(seed);
        while (!x->stop) {
          Status st = co_await c->Put(1 + rng.Uniform(10'000), 7);
          EXPECT_TRUE(st.ok());
          x->ops++;
        }
      }(clients[t % 2].get(), &ctx, t + 1));
    }
    constexpr sim::SimTime kWindow = 3'000'000;
    fabric.simulator().At(kWindow, [&ctx] { ctx.stop = true; });
    fabric.simulator().Run();
    return static_cast<double>(ctx.ops) * 1000.0 / kWindow;  // Mops
  };
  const double mops_8 = run(8);
  const double mops_64 = run(64);
  // 2 MSs * (1 / 3 us) ~= 0.67 Mops hard ceiling.
  EXPECT_LT(mops_64, 0.75);
  EXPECT_LT(mops_64, mops_8 * 2.0) << "should saturate, not scale";
  EXPECT_GT(mops_64, mops_8 * 0.8);
}

}  // namespace
}  // namespace sherman::ext
