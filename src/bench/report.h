// Reporting for the bench binaries: plain-text tables, a tiny argv
// parser, and the machine-readable telemetry exporter (BENCH_*.json).
#ifndef SHERMAN_BENCH_REPORT_H_
#define SHERMAN_BENCH_REPORT_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace sherman::obs {
class Tracer;
}

namespace sherman::bench {

struct RunResult;  // bench/runner.h

// Aligned-column table, printed like the paper's tables. Every Print()
// also records the table into the active BenchTelemetry (if any), so the
// JSON artifact carries exactly what the console showed.
class Table {
 public:
  explicit Table(std::string title) : title_(std::move(title)) {}

  void SetColumns(std::vector<std::string> columns) {
    columns_ = std::move(columns);
  }
  void AddRow(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }
  void Print(FILE* out = stdout) const;

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

std::string Fmt(double v, int precision = 2);
std::string FmtUs(uint64_t ns, int precision = 1);  // ns -> "x.y"

// Minimal flag parser: --name=value or --name value or bare --flag.
class Args {
 public:
  Args(int argc, char** argv);

  bool Has(const std::string& name) const;
  int64_t GetInt(const std::string& name, int64_t def) const;
  double GetDouble(const std::string& name, double def) const;
  std::string GetString(const std::string& name, const std::string& def) const;

 private:
  const std::string* FindValue(const std::string& name) const;

  std::vector<std::pair<std::string, std::string>> kv_;
};

// Machine-readable bench telemetry. Each bench main constructs ONE
// instance up front; on destruction (or an explicit Write()) it emits a
// versioned BENCH_<name>.json next to the binary's cwd:
//
//   {
//     "schema_version": 1,
//     "bench": "<name>",
//     "config": { flag/env values the run was configured with },
//     "metrics": { "counters": {...}, "gauges": {...},
//                  "histograms": {name: summary} },
//     "percentiles": { "<run label>": {mops, ops, measured_ns,
//                                      p50_us, p90_us, p99_us} },
//     "series": { "<run label>": [{"t_ns": .., "ops": ..}, ...] },
//     "tables": [ {"title": .., "columns": [..], "rows": [[..], ..]} ],
//     "gates": { "<gate>": {"passed": bool, "value": number} }
//   }
//
// Flags (parsed from the bench's own Args):
//   --json-out=PATH   explicit artifact path (default BENCH_<name>.json)
//   --json-dir=DIR    directory for the default filename
//   --no-json         disable the artifact
//   --trace-out=PATH  additionally dump the tracer's chrome://tracing JSON
//                     (requires SetTracer; warns and skips on benches
//                     that don't export one)
//
// Determinism: all content is simulated-time derived and every container
// is sorted, so identical seeded runs emit byte-identical files.
class BenchTelemetry {
 public:
  BenchTelemetry(std::string bench_name, const Args& args);
  ~BenchTelemetry();

  BenchTelemetry(const BenchTelemetry&) = delete;
  BenchTelemetry& operator=(const BenchTelemetry&) = delete;

  // The instance Table::Print feeds (the most recently constructed live
  // one; benches only ever construct one).
  static BenchTelemetry* Active();

  bool enabled() const { return enabled_; }

  // Config key/values ("keys": 4000000, "mix": "write-intensive", ...).
  void Config(const std::string& key, const std::string& value);
  void Config(const std::string& key, const char* value);
  void Config(const std::string& key, uint64_t value);
  void Config(const std::string& key, int64_t value);
  void Config(const std::string& key, int value);
  void Config(const std::string& key, double value);
  void Config(const std::string& key, bool value);

  // Folds one measured run in: merges its registry delta and its run.*
  // aggregate (op-attributed counters and histograms) into the metrics,
  // records its throughput + latency percentiles under `label`, and keeps
  // its intra-window ops series.
  void AddRun(const std::string& label, const RunResult& r);

  // A bench-specific time series ((t_ns, value) points) outside any
  // RunResult — e.g. a footprint or survivor-throughput series.
  void AddSeries(const std::string& label,
                 std::vector<std::pair<uint64_t, uint64_t>> points);

  // Merges an arbitrary snapshot (benches that aggregate by hand).
  void MergeMetrics(const obs::MetricsSnapshot& s);
  // Scalar results outside any RunResult.
  void Metric(const std::string& name, double value);
  void CounterMetric(const std::string& name, uint64_t value);

  // Pass/fail gate outcome (also what CI asserts on).
  void Gate(const std::string& name, bool passed, double value = 0);

  // Called by Table::Print on the active instance.
  void RecordTable(const std::string& title,
                   const std::vector<std::string>& columns,
                   const std::vector<std::vector<std::string>>& rows);

  // Source for --trace-out.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }

  // Writes the artifact (and the optional trace dump). Idempotent; the
  // destructor calls it if the bench didn't — but only when at least one
  // result was recorded, so aborted runs (bad flags, failed setup) don't
  // leave a content-free artifact behind. Returns false on I/O error or
  // when disabled.
  bool Write();

 private:
  struct ConfigValue {
    enum class Kind { kString, kUint, kInt, kDouble, kBool } kind;
    std::string s;
    uint64_t u = 0;
    int64_t i = 0;
    double d = 0;
    bool b = false;
  };
  struct RunSummary {
    double mops = 0;
    uint64_t ops = 0;
    uint64_t measured_ns = 0;
    double p50_us = 0;
    double p90_us = 0;
    double p99_us = 0;
  };
  struct TableDump {
    std::string title;
    std::vector<std::string> columns;
    std::vector<std::vector<std::string>> rows;
  };
  struct GateResult {
    bool passed = false;
    double value = 0;
  };

  std::string JsonBody() const;

  std::string name_;
  std::string path_;
  std::string trace_path_;
  bool enabled_ = true;
  bool written_ = false;
  bool recorded_ = false;
  obs::Tracer* tracer_ = nullptr;

  std::map<std::string, ConfigValue> config_;
  obs::MetricsSnapshot metrics_;
  std::map<std::string, RunSummary> runs_;
  std::map<std::string, std::vector<std::pair<uint64_t, uint64_t>>> series_;
  std::vector<TableDump> tables_;
  std::map<std::string, GateResult> gates_;
};

}  // namespace sherman::bench

#endif  // SHERMAN_BENCH_REPORT_H_
