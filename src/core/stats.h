// Per-operation and per-run internal metrics, matching the quantities the
// paper analyzes in §5.5 (retry counts, round trips, write sizes).
#ifndef SHERMAN_CORE_STATS_H_
#define SHERMAN_CORE_STATS_H_

#include <cstdint>

#include "util/histogram.h"
#include "util/status.h"

namespace sherman {

namespace obs {
struct TraceCtx;
}  // namespace obs

// Per-key outcome of a batched MultiGet: OK (value filled), NotFound, or —
// transiently, inside the batch machinery — Retry for keys that must be
// re-served elsewhere (stale plan, torn leaf, MS-side decline). Public APIs
// resolve every Retry before returning.
struct MultiGetResult {
  Status status = Status::NotFound();
  uint64_t value = 0;
};

// Reset at the start of each index operation; filled in by the tree, the
// lock client, and the cache as the operation executes.
struct OpStats {
  uint32_t round_trips = 0;   // completed network round trips (batches+RPCs)
  uint32_t read_retries = 0;  // re-reads due to version/checksum mismatch
  uint32_t lock_retries = 0;  // failed global lock CAS attempts
  uint64_t bytes_written = 0; // payload bytes written back by this op
  bool used_handover = false; // lock obtained via HOCL handover
  uint32_t cache_hits = 0;
  uint32_t cache_misses = 0;

  // Trace context of the operation this OpStats belongs to (obs/trace.h),
  // or null when the op is untraced. This is how span causality survives
  // coroutine interleaving: the context rides with the op through every
  // layer instead of living in per-CS state.
  obs::TraceCtx* trace = nullptr;

  void Reset() {
    obs::TraceCtx* t = trace;
    *this = OpStats();
    trace = t;  // the trace ctx outlives individual op resets
  }
};

// Aggregated over a measurement window by the bench runner. Op-attributed,
// not a copy of the registry: a field sums what the ops completed inside
// the window reported through their OpStats (an op straddling the window
// start brings its earlier retries along), while a registry counter such
// as lock.cas_failures counts every event inside the window, whoever
// caused it.
struct RunStats {
  uint64_t ops = 0;
  Histogram latency_ns;       // per-op simulated latency
  Histogram round_trips;      // per *write* op (Figure 14b)
  Histogram read_retries;     // per *read* op (Figure 14a)
  Histogram write_bytes;      // per write op (Figure 14c)
  uint64_t lock_retries = 0;
  uint64_t handovers = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

// Folds one finished operation into a run aggregate. Round trips and write
// sizes are recorded for write ops (Figure 14b/c); read retries for read
// ops (Figure 14a).
void AccumulateOp(RunStats* run, const OpStats& op, uint64_t latency_ns,
                  bool is_write, bool is_read);

}  // namespace sherman

#endif  // SHERMAN_CORE_STATS_H_
