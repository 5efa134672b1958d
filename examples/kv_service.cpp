// kv_service: a multi-tenant key-value service on disaggregated memory,
// running on the adaptive hybrid system (core/hybrid_system.h).
//
// Three tenants share one Sherman tree over disjoint key ranges, each with
// its own workload profile (the scenarios from the paper's introduction):
//   - "session"  : write-heavy session store (graph/param-server style),
//   - "catalog"  : read-heavy product catalog,
//   - "feed"     : skewed mixed traffic with a hot working set.
// Each tenant runs client threads on its own compute servers. Because the
// tenants map to disjoint logical shards, the router steers them
// independently: the write-heavy and hot tenants stay on Sherman's
// one-sided path while cold catalog shards offload to the memory servers.
// The demo prints per-tenant throughput/tails plus the routing summary.
#include <cstdio>
#include <memory>
#include <vector>

#include "core/hybrid_system.h"
#include "core/presets.h"
#include "util/histogram.h"
#include "util/random.h"

using namespace sherman;

namespace {

struct Tenant {
  const char* name;
  uint64_t key_base;      // tenant key space: [key_base, key_base + keys)
  uint64_t keys;
  double insert_ratio;
  double zipf_theta;
  int cs_first, cs_count;  // compute servers running this tenant
  // results
  uint64_t ops = 0;
  Histogram latency{};
};

struct Control {
  bool stop = false;
};

sim::Task<void> TenantWorker(HybridSystem* system, Tenant* tenant, int cs,
                             uint64_t seed, Control* control) {
  route::HybridClient& client = system->client(cs);
  Random rng(seed);
  std::unique_ptr<ScrambledZipfianGenerator> zipf;
  if (tenant->zipf_theta > 0) {
    zipf = std::make_unique<ScrambledZipfianGenerator>(tenant->keys,
                                                       tenant->zipf_theta);
  }
  while (!control->stop) {
    const uint64_t rank = zipf ? zipf->Next(rng) : rng.Uniform(tenant->keys);
    const Key key = tenant->key_base + rank;
    const sim::SimTime t0 = system->simulator().now();
    if (rng.NextDouble() < tenant->insert_ratio) {
      Status st = co_await client.Insert(key, rng.Next());
      SHERMAN_CHECK(st.ok());
    } else {
      uint64_t value = 0;
      Status st = co_await client.Lookup(key, &value);
      SHERMAN_CHECK(st.ok() || st.IsNotFound());
    }
    tenant->ops++;
    tenant->latency.Add(system->simulator().now() - t0);
  }
}

}  // namespace

int main() {
  rdma::FabricConfig fabric;
  fabric.num_memory_servers = 4;
  fabric.num_compute_servers = 6;
  fabric.ms_memory_bytes = 128ull << 20;

  HybridOptions options;
  options.tree = ShermanOptions();
  // Memory-constrained compute servers: no index cache at all (FlexKV's
  // motivating regime). Every one-sided lookup walks the full descent, so
  // the router compensates by offloading cold shards to the memory
  // servers, while hot/write-heavy shards stay one-sided.
  options.tree.enable_cache = false;
  options.router.num_shards = 96;
  options.router.epoch_ns = 1'000'000;
  HybridSystem system(fabric, options);

  Tenant tenants[] = {
      {"session(write-heavy)", 1ull << 32, 200'000, 0.9, 0.0, 0, 2},
      {"catalog(read-heavy)", 2ull << 32, 400'000, 0.05, 0.0, 2, 2},
      {"feed(skewed-mixed)", 3ull << 32, 200'000, 0.5, 0.99, 4, 2},
  };

  // Bulkload all tenants' keys in one sorted pass.
  std::vector<std::pair<Key, uint64_t>> kvs;
  for (const Tenant& t : tenants) {
    for (uint64_t i = 0; i < t.keys; i++) {
      kvs.emplace_back(t.key_base + i, i);
    }
  }
  system.BulkLoad(kvs, 0.8);
  std::printf("bulkloaded %zu keys across %d tenants; tree height %u\n",
              kvs.size(), 3, system.sherman().DebugHeight());

  Control control;
  constexpr int kThreadsPerCs = 8;
  for (Tenant& t : tenants) {
    for (int cs = t.cs_first; cs < t.cs_first + t.cs_count; cs++) {
      for (int i = 0; i < kThreadsPerCs; i++) {
        sim::Spawn(TenantWorker(&system, &t, cs,
                                static_cast<uint64_t>(cs) * 100 + i,
                                &control));
      }
    }
  }

  constexpr sim::SimTime kRunNs = 20'000'000;  // 20 ms simulated
  system.router().Start();
  system.simulator().At(kRunNs, [&control, &system] {
    control.stop = true;
    system.router().Stop();
  });
  system.simulator().Run();

  std::printf("\n%-22s %10s %10s %10s %10s\n", "tenant", "Mops", "p50(us)",
              "p99(us)", "ops");
  for (const Tenant& t : tenants) {
    std::printf("%-22s %10.2f %10.1f %10.1f %10llu\n", t.name,
                static_cast<double>(t.ops) * 1000.0 / kRunNs,
                t.latency.P50() / 1000.0, t.latency.P99() / 1000.0,
                static_cast<unsigned long long>(t.ops));
  }

  const obs::MetricsSnapshot m = system.sherman().registry().Snapshot();
  const auto count = [&m](const char* name) {
    return static_cast<double>(m.counter(name));
  };
  const double os = count("route.ops_one_sided");
  const double rpc = count("route.ops_rpc");
  int shards_rpc = 0;
  for (route::Path p : system.router().assignment()) {
    if (p == route::Path::kRpc) shards_rpc++;
  }
  std::printf(
      "\nrouting: %.1f%% of ops offloaded to MS-side RPC "
      "(avg %.1f us vs %.1f us one-sided), %d/%d shards on RPC at end, "
      "%llu epochs, %llu shard flips, %llu fallbacks\n",
      os + rpc > 0 ? 100.0 * (rpc / (os + rpc)) : 0.0,
      rpc > 0 ? count("route.lat_rpc_ns") / rpc / 1000.0 : 0.0,
      os > 0 ? count("route.lat_one_sided_ns") / os / 1000.0 : 0.0,
      shards_rpc, system.router().num_shards(),
      static_cast<unsigned long long>(m.counter("route.epochs")),
      static_cast<unsigned long long>(m.counter("route.shard_flips")),
      static_cast<unsigned long long>(m.counter("route.rpc_fallbacks")));
  return 0;
}
