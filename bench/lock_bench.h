// Shared driver for the lock microbenchmarks (Figures 2 and 16): client
// threads acquire/release locks guarding synthetic node addresses on one
// memory server, with Zipfian lock popularity.
#ifndef SHERMAN_BENCH_LOCK_BENCH_H_
#define SHERMAN_BENCH_LOCK_BENCH_H_

#include <memory>
#include <vector>

#include "alloc/layout.h"
#include "bench/report.h"
#include "core/stats.h"
#include "lock/hocl.h"
#include "rdma/fabric.h"
#include "util/histogram.h"
#include "util/random.h"
#include "workload/workload.h"

namespace sherman::bench {

struct LockBenchOptions {
  int num_cs = 8;
  int threads_per_cs = 22;
  int num_locks = 10240;  // all on MS 0, as in §3.2.2
  double zipf_theta = 0.99;
  HoclOptions lock;
  sim::SimTime warmup_ns = 1'000'000;
  sim::SimTime measure_ns = 10'000'000;
  uint64_t seed = 42;
};

struct LockBenchResult {
  double mops = 0;
  Histogram latency_ns;  // per acquire+release pair
  uint64_t handovers = 0;     // inside the measurement window, like mops
  uint64_t cas_failures = 0;
};

namespace lock_bench_internal {

struct Ctx {
  bool measuring = false;
  bool stop = false;
  sim::SimTime t_start = 0, t_end = 0;
  uint64_t ops = 0;
  Histogram latency;
  obs::MetricsSnapshot metrics_before, metrics_after;
};

inline rdma::GlobalAddress LockTarget(int lock_id) {
  // Distinct synthetic node addresses; LockFor() hashes them into the GLT.
  return rdma::GlobalAddress(0, kChunkAreaOffset +
                                    static_cast<uint64_t>(lock_id) * 1024);
}

inline sim::Task<void> Worker(rdma::Fabric* fabric, HoclClient* hocl,
                              const LockBenchOptions* opt, uint64_t seed,
                              Ctx* ctx) {
  Random rng(seed);
  std::unique_ptr<ZipfianGenerator> zipf;
  if (opt->zipf_theta > 0) {
    zipf = std::make_unique<ZipfianGenerator>(opt->num_locks, opt->zipf_theta);
  }
  while (!ctx->stop) {
    const int lock_id = static_cast<int>(
        zipf ? zipf->Next(rng) : rng.Uniform(opt->num_locks));
    const rdma::GlobalAddress addr = LockTarget(lock_id);
    const sim::SimTime t0 = fabric->simulator().now();
    OpStats stats;
    LockGuard guard = co_await hocl->Lock(addr, &stats);
    co_await hocl->Unlock(guard, {}, /*combine=*/true, &stats);
    if (ctx->measuring) {
      ctx->ops++;
      ctx->latency.Add(fabric->simulator().now() - t0);
    }
  }
}

}  // namespace lock_bench_internal

inline LockBenchResult RunLockBench(const LockBenchOptions& opt) {
  using lock_bench_internal::Ctx;
  rdma::FabricConfig fcfg;
  fcfg.num_memory_servers = 1;
  fcfg.num_compute_servers = opt.num_cs;
  fcfg.ms_memory_bytes = 64ull << 20;
  rdma::Fabric fabric(fcfg);

  std::vector<std::unique_ptr<HoclClient>> hocls;
  for (int cs = 0; cs < opt.num_cs; cs++) {
    hocls.push_back(std::make_unique<HoclClient>(&fabric, cs, opt.lock));
  }

  auto ctx = std::make_unique<Ctx>();
  for (int cs = 0; cs < opt.num_cs; cs++) {
    for (int t = 0; t < opt.threads_per_cs; t++) {
      sim::Spawn(lock_bench_internal::Worker(
          &fabric, hocls[cs].get(), &opt,
          opt.seed + static_cast<uint64_t>(cs) * 1000 + t, ctx.get()));
    }
  }
  sim::Simulator& sim = fabric.simulator();
  sim.At(opt.warmup_ns, [&] {
    ctx->measuring = true;
    ctx->t_start = sim.now();
    ctx->metrics_before = fabric.registry().Snapshot();
  });
  sim.At(opt.warmup_ns + opt.measure_ns, [&] {
    ctx->measuring = false;
    ctx->t_end = sim.now();
    ctx->metrics_after = fabric.registry().Snapshot();
    ctx->stop = true;
  });
  sim.Run();

  LockBenchResult result;
  const sim::SimTime window = ctx->t_end - ctx->t_start;
  result.mops = window == 0 ? 0
                            : static_cast<double>(ctx->ops) * 1000.0 /
                                  static_cast<double>(window);
  result.latency_ns = ctx->latency;
  const obs::MetricsSnapshot counts =
      ctx->metrics_after.Since(ctx->metrics_before);
  result.handovers = counts.counter("lock.handovers");
  result.cas_failures = counts.counter("lock.cas_failures");
  return result;
}

}  // namespace sherman::bench

#endif  // SHERMAN_BENCH_LOCK_BENCH_H_
