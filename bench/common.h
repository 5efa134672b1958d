// Shared setup for the per-table/figure bench binaries.
//
// Every binary accepts:
//   --quick            smaller dataset + shorter windows (CI-friendly)
//   --keys=N           loaded keys (default 4,000,000; paper: 1 billion)
//   --threads=N        client threads per CS (default 22; 176 total)
//   --measure-ms=N     measurement window in simulated ms
//   --seed=N
// Benches print the paper's reported values alongside measured ones.
#ifndef SHERMAN_BENCH_COMMON_H_
#define SHERMAN_BENCH_COMMON_H_

#include <cstdio>
#include <memory>
#include <string>

#include "bench/report.h"
#include "bench/runner.h"
#include "core/btree.h"
#include "core/presets.h"
#include "workload/workload.h"

namespace sherman::bench {

// Key-count note: Zipfian contention concentrates as the key space shrinks
// (the top key draws ~4.3% of accesses at the paper's 1 billion keys, ~8%
// at 100 k). 4 M keys reproduces the paper's contention regime faithfully;
// --quick trades some of that fidelity for speed.
struct BenchEnv {
  uint64_t keys = 4'000'000;
  int threads_per_cs = 22;
  int num_ms = 8;
  int num_cs = 8;
  sim::SimTime warmup_ns = 2'000'000;
  sim::SimTime measure_ns = 10'000'000;
  uint64_t seed = 42;
  bool quick = false;
  uint64_t cache_bytes = 4ull << 20;

  static BenchEnv FromArgs(const Args& args) {
    BenchEnv env;
    env.quick = args.Has("quick");
    if (env.quick) {
      env.keys = 200'000;
      env.measure_ns = 5'000'000;
      env.warmup_ns = 1'000'000;
    }
    env.keys = static_cast<uint64_t>(args.GetInt("keys", env.keys));
    env.threads_per_cs =
        static_cast<int>(args.GetInt("threads", env.threads_per_cs));
    env.measure_ns = static_cast<sim::SimTime>(
        args.GetInt("measure-ms", static_cast<int64_t>(env.measure_ns / 1'000'000)) *
        1'000'000);
    env.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
    return env;
  }

  rdma::FabricConfig FabricCfg() const {
    rdma::FabricConfig f;
    f.num_memory_servers = num_ms;
    f.num_compute_servers = num_cs;
    f.ms_memory_bytes = 256ull << 20;
    return f;
  }

  // Builds a fresh system with the given tree options and bulkloads it.
  std::unique_ptr<ShermanSystem> MakeSystem(TreeOptions topt) const {
    topt.cache_bytes = cache_bytes;
    auto system = std::make_unique<ShermanSystem>(FabricCfg(), topt);
    system->BulkLoad(MakeLoadKvs(keys), 0.8);
    return system;
  }

  RunnerOptions Runner(WorkloadMix mix, double theta) const {
    RunnerOptions r;
    r.threads_per_cs = threads_per_cs;
    r.workload.mix = mix;
    r.workload.loaded_keys = keys;
    r.workload.zipf_theta = theta;
    r.warmup_ns = warmup_ns;
    r.measure_ns = measure_ns;
    r.seed = seed;
    return r;
  }
};

// a / b as a double, 0 when b is 0: ratios of window counters.
inline double Ratio(uint64_t a, uint64_t b) {
  return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

// Records the shared environment knobs into the telemetry config block.
inline void AddEnvConfig(BenchTelemetry* t, const BenchEnv& env) {
  t->Config("keys", env.keys);
  t->Config("threads_per_cs", env.threads_per_cs);
  t->Config("num_ms", env.num_ms);
  t->Config("num_cs", env.num_cs);
  t->Config("warmup_ns", static_cast<uint64_t>(env.warmup_ns));
  t->Config("measure_ns", static_cast<uint64_t>(env.measure_ns));
  t->Config("seed", env.seed);
  t->Config("quick", env.quick);
}

}  // namespace sherman::bench

#endif  // SHERMAN_BENCH_COMMON_H_
