// Bench runner: spawns client coroutines across compute servers, runs a
// warmup window then a measurement window in *simulated* time, and reports
// throughput, latency percentiles, and the paper's internal metrics.
#ifndef SHERMAN_BENCH_RUNNER_H_
#define SHERMAN_BENCH_RUNNER_H_

#include <cstdint>
#include <vector>

#include "core/btree.h"
#include "core/stats.h"
#include "workload/workload.h"

namespace sherman {
class HybridSystem;
}

namespace sherman::bench {

struct RunnerOptions {
  // Client threads (coroutines) per compute server; the paper's default
  // cluster runs 22 per CS, 176 total (§5.1.3).
  int threads_per_cs = 22;
  WorkloadOptions workload;
  sim::SimTime warmup_ns = 2'000'000;    // 2 ms simulated warmup
  sim::SimTime measure_ns = 20'000'000;  // 20 ms simulated measurement
  uint64_t seed = 42;
  // Ops each client keeps in flight per wave: 1 = op-at-a-time (the
  // original closed loop); > 1 draws `pipeline_depth` ops, batches the
  // lookups into one MultiGet and the inserts into one MultiInsert
  // (range/delete ops stay singleton), and issues the batches
  // doorbell-pipelined. Per-op latency is recorded as the wave elapsed
  // time — what a caller of the batch API actually observes.
  int pipeline_depth = 1;
};

// One point of the intra-window throughput time series.
struct SeriesPoint {
  sim::SimTime t_ns = 0;   // offset from measurement start
  uint64_t ops = 0;        // cumulative measured ops at t_ns
};

struct RunResult {
  double mops = 0;                // measured throughput, Mops
  sim::SimTime measured_ns = 0;   // actual window length
  RunStats stats;                 // latency + op-attributed internals
  // Registry delta over the measurement window: every component counter
  // (rdma.*, nic.*, lock.*, cache.*, route.* in hybrid runs, ...) scoped
  // to the same window as the throughput.
  obs::MetricsSnapshot metrics;
  // Intra-window cumulative-ops samples, 24 evenly spaced.
  std::vector<SeriesPoint> series;

  double P50Us() const { return stats.latency_ns.P50() / 1000.0; }
  double P90Us() const { return stats.latency_ns.P90() / 1000.0; }
  double P99Us() const { return stats.latency_ns.P99() / 1000.0; }
};

// Runs the workload on an already-bulkloaded system. Drains the simulator
// before returning; the system can be reused for further runs (state
// persists, counters are reset per run).
RunResult RunWorkload(ShermanSystem* system, const RunnerOptions& options);

// Same measurement harness over a hybrid system: ops go through each CS's
// HybridClient, and the adaptive router's epoch timer runs for the
// duration of the workload.
RunResult RunWorkload(HybridSystem* system, const RunnerOptions& options);

// Convenience: the bulkload key/value vector for `n` loaded keys (the even
// keys the workload generator targets), values derived from keys.
std::vector<std::pair<Key, uint64_t>> MakeLoadKvs(uint64_t n);

// Per-client workload seed: a SplitMix64 chain over (seed, cs, t). The
// previous `seed * 0x9e3779b9u + cs * 1000 + t` truncated the multiplier
// to 32 bits and collided whenever threads_per_cs >= 1000 (cs*1000 + t is
// not injective), silently running duplicate workload streams at scale.
uint64_t ClientSeed(uint64_t seed, int cs, int t);

}  // namespace sherman::bench

#endif  // SHERMAN_BENCH_RUNNER_H_
