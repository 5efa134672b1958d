// Unified metrics registry: named counters / gauges / histograms behind
// one registration / snapshot / merge API.
//
// Every reported count has exactly one home, a registry-owned Counter. A
// component fetches its handles once at construction
// (GetCounter("lock.handovers")), keeps the pointers (stable for the
// registry's lifetime), and bumps them where the work happens: one
// pointered add, no lookup. Every instance of a component fetches the
// same names, so the registry holds the deployment-wide sum and nothing
// re-sums per-instance fields. A deployment has one registry, owned by
// rdma::Fabric; a unit test that builds a bare component hands it a local
// Registry. A counter family exists exactly when its component does
// (hint.* only with leaf hints, vlog.* only with a value log, route.* and
// rpc.* only in a HybridSystem, rdwc.* only with delegation, migrate.*
// once a Migrator exists), so a snapshot's keys say what the deployment
// runs.
//
// Collectors publish levels only: a component that keeps a level anyway
// (cache bytes, grace-list length, live segments) registers a callback
// that sets a gauge at Snapshot() time. Counts never go through one.
//
// Snapshots are plain value types that merge (cross-run aggregation) and
// diff (per-window deltas), and serialize deterministically to JSON —
// they are what the bench telemetry (BENCH_*.json) embeds.
//
// Naming scheme: dot-separated "<component>.<metric>" (see the README's
// Observability section): rdma.*, nic.*, lock.*, cache.*, hint.*, vlog.*,
// route.*, rpc.*, rdwc.*, migrate.*, recover.*, reclaim.*, alloc.*, run.*.
#ifndef SHERMAN_OBS_METRICS_H_
#define SHERMAN_OBS_METRICS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "util/histogram.h"

namespace sherman::obs {

class JsonWriter;

// Monotone event count. Merging sums; diffing subtracts.
class Counter {
 public:
  void Inc(uint64_t n = 1) { v_ += n; }
  uint64_t value() const { return v_; }
  void Reset() { v_ = 0; }

 private:
  uint64_t v_ = 0;
};

// Instantaneous level (queue depth, bytes outstanding). Merging sums
// (per-component levels add up across instances); diffing keeps the newer
// value — a level has no meaningful delta.
class Gauge {
 public:
  void Set(double v) { v_ = v; }
  void Add(double d) { v_ += d; }
  double value() const { return v_; }

 private:
  double v_ = 0;
};

// One consistent view of every registered metric. Also the unit of
// cross-run aggregation: benches merge per-run window snapshots.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram> histograms;

  // Cross-instance aggregation: counters and gauges sum, histograms merge.
  void Merge(const MetricsSnapshot& other);

  // Per-window delta against an earlier snapshot of the SAME registry:
  // counters subtract (missing-in-baseline counts as 0), gauges and
  // histograms keep this snapshot's value (levels and cumulative
  // distributions have no subtraction).
  MetricsSnapshot Since(const MetricsSnapshot& baseline) const;

  uint64_t counter(const std::string& name, uint64_t def = 0) const {
    auto it = counters.find(name);
    return it == counters.end() ? def : it->second;
  }
  double gauge(const std::string& name, double def = 0) const {
    auto it = gauges.find(name);
    return it == gauges.end() ? def : it->second;
  }

  void AddCounter(const std::string& name, uint64_t v) { counters[name] += v; }
  void SetGauge(const std::string& name, double v) { gauges[name] = v; }

  // {"counters": {...}, "gauges": {...}, "histograms": {name: {count,
  // mean, min, max, p50, p90, p99, p999}}} — keys sorted (std::map), so
  // the output is deterministic.
  void WriteJson(JsonWriter* w) const;
  std::string ToJson() const;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Find-or-create. Returned pointers stay valid for the registry's
  // lifetime (node-based map storage).
  Counter* GetCounter(const std::string& name) { return &counters_[name]; }
  Gauge* GetGauge(const std::string& name) { return &gauges_[name]; }
  Histogram* GetHistogram(const std::string& name) { return &histograms_[name]; }

  // Registers a read-side collector of levels (gauges), invoked on every
  // Snapshot(). The callback must only write into the snapshot it is
  // handed.
  using Collector = std::function<void(MetricsSnapshot*)>;
  void AddCollector(Collector fn) { collectors_.push_back(std::move(fn)); }

  // Owned metrics + every collector's view, in one consistent snapshot.
  MetricsSnapshot Snapshot() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::vector<Collector> collectors_;
};

// Serializes `h` as the standard histogram summary object.
void WriteHistogramJson(JsonWriter* w, const Histogram& h);

}  // namespace sherman::obs

#endif  // SHERMAN_OBS_METRICS_H_
