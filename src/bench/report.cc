#include "bench/report.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstring>

#include "bench/runner.h"
#include "obs/json.h"
#include "obs/trace.h"

namespace sherman::bench {

namespace {
BenchTelemetry* g_active = nullptr;

// Creates every missing directory on the way to `path`'s parent (the
// default artifact location telemetry/ need not pre-exist in a fresh
// checkout or build directory).
void EnsureParentDirs(const std::string& path) {
  for (size_t i = 1; i < path.size(); i++) {
    if (path[i] != '/') continue;
    ::mkdir(path.substr(0, i).c_str(), 0777);  // EEXIST is fine
  }
}

bool WriteFile(const std::string& path, const std::string& body) {
  EnsureParentDirs(path);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "telemetry: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  const size_t n = std::fwrite(body.data(), 1, body.size(), f);
  const bool ok = n == body.size() && std::fclose(f) == 0;
  if (!ok) std::fprintf(stderr, "telemetry: short write to %s\n", path.c_str());
  return ok;
}
}  // namespace

void Table::Print(FILE* out) const {
  if (BenchTelemetry::Active() != nullptr) {
    BenchTelemetry::Active()->RecordTable(title_, columns_, rows_);
  }
  std::vector<size_t> widths(columns_.size(), 0);
  for (size_t c = 0; c < columns_.size(); c++) {
    widths[c] = columns_[c].size();
  }
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); c++) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  size_t total = 0;
  for (size_t w : widths) total += w + 3;

  std::fprintf(out, "\n=== %s ===\n", title_.c_str());
  for (size_t c = 0; c < columns_.size(); c++) {
    std::fprintf(out, "%-*s ", static_cast<int>(widths[c] + 2),
                 columns_[c].c_str());
  }
  std::fprintf(out, "\n");
  for (size_t i = 0; i < total; i++) std::fputc('-', out);
  std::fputc('\n', out);
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); c++) {
      const int w = c < widths.size() ? static_cast<int>(widths[c] + 2) : 10;
      std::fprintf(out, "%-*s ", w, row[c].c_str());
    }
    std::fprintf(out, "\n");
  }
  std::fflush(out);
}

std::string Fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string FmtUs(uint64_t ns, int precision) {
  return Fmt(static_cast<double>(ns) / 1000.0, precision);
}

Args::Args(int argc, char** argv) {
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      kv_.emplace_back(arg.substr(0, eq), arg.substr(eq + 1));
    } else if (i + 1 < argc && argv[i + 1][0] != '-') {
      kv_.emplace_back(arg, argv[i + 1]);
      i++;
    } else {
      kv_.emplace_back(arg, "");
    }
  }
}

const std::string* Args::FindValue(const std::string& name) const {
  for (const auto& [k, v] : kv_) {
    if (k == name) return &v;
  }
  return nullptr;
}

bool Args::Has(const std::string& name) const {
  return FindValue(name) != nullptr;
}

int64_t Args::GetInt(const std::string& name, int64_t def) const {
  const std::string* v = FindValue(name);
  return (v == nullptr || v->empty()) ? def : std::stoll(*v);
}

double Args::GetDouble(const std::string& name, double def) const {
  const std::string* v = FindValue(name);
  return (v == nullptr || v->empty()) ? def : std::stod(*v);
}

std::string Args::GetString(const std::string& name,
                            const std::string& def) const {
  const std::string* v = FindValue(name);
  return (v == nullptr || v->empty()) ? def : *v;
}

// --- BenchTelemetry ---------------------------------------------------------

BenchTelemetry::BenchTelemetry(std::string bench_name, const Args& args)
    : name_(std::move(bench_name)) {
  enabled_ = !args.Has("no-json");
  path_ = args.GetString("json-out", "");
  if (path_.empty()) {
    // Every artifact lands under ONE directory by default (telemetry/,
    // where the committed reference artifacts live); --json-dir redirects
    // the whole set, --json-out a single file.
    std::string dir = args.GetString("json-dir", "telemetry");
    if (!dir.empty() && dir.back() != '/') dir += '/';
    path_ = dir + "BENCH_" + name_ + ".json";
  }
  trace_path_ = args.GetString("trace-out", "");
  if (g_active == nullptr) g_active = this;
}

BenchTelemetry::~BenchTelemetry() {
  if (!written_ && recorded_) Write();
  if (g_active == this) g_active = nullptr;
}

BenchTelemetry* BenchTelemetry::Active() { return g_active; }

void BenchTelemetry::Config(const std::string& key, const std::string& value) {
  ConfigValue v;
  v.kind = ConfigValue::Kind::kString;
  v.s = value;
  config_[key] = std::move(v);
}
void BenchTelemetry::Config(const std::string& key, const char* value) {
  Config(key, std::string(value));
}
void BenchTelemetry::Config(const std::string& key, uint64_t value) {
  ConfigValue v;
  v.kind = ConfigValue::Kind::kUint;
  v.u = value;
  config_[key] = v;
}
void BenchTelemetry::Config(const std::string& key, int64_t value) {
  ConfigValue v;
  v.kind = ConfigValue::Kind::kInt;
  v.i = value;
  config_[key] = v;
}
void BenchTelemetry::Config(const std::string& key, int value) {
  Config(key, static_cast<int64_t>(value));
}
void BenchTelemetry::Config(const std::string& key, double value) {
  ConfigValue v;
  v.kind = ConfigValue::Kind::kDouble;
  v.d = value;
  config_[key] = v;
}
void BenchTelemetry::Config(const std::string& key, bool value) {
  ConfigValue v;
  v.kind = ConfigValue::Kind::kBool;
  v.b = value;
  config_[key] = v;
}

void BenchTelemetry::AddRun(const std::string& label, const RunResult& r) {
  recorded_ = true;
  metrics_.Merge(r.metrics);
  // run.*: the window's op-attributed aggregate (core/stats.h).
  const RunStats& run = r.stats;
  metrics_.AddCounter("run.ops", run.ops);
  metrics_.AddCounter("run.lock_retries", run.lock_retries);
  metrics_.AddCounter("run.handovers", run.handovers);
  metrics_.AddCounter("run.cache_hits", run.cache_hits);
  metrics_.AddCounter("run.cache_misses", run.cache_misses);
  metrics_.histograms["run.latency_ns"].Merge(run.latency_ns);
  metrics_.histograms["run.round_trips"].Merge(run.round_trips);
  metrics_.histograms["run.read_retries"].Merge(run.read_retries);
  metrics_.histograms["run.write_bytes"].Merge(run.write_bytes);
  RunSummary s;
  s.mops = r.mops;
  s.ops = r.stats.ops;
  s.measured_ns = static_cast<uint64_t>(r.measured_ns);
  s.p50_us = r.P50Us();
  s.p90_us = r.P90Us();
  s.p99_us = r.P99Us();
  runs_[label] = s;
  if (!r.series.empty()) {
    std::vector<std::pair<uint64_t, uint64_t>>& pts = series_[label];
    pts.clear();
    for (const SeriesPoint& p : r.series) {
      pts.emplace_back(static_cast<uint64_t>(p.t_ns), p.ops);
    }
  }
}

void BenchTelemetry::AddSeries(
    const std::string& label,
    std::vector<std::pair<uint64_t, uint64_t>> points) {
  recorded_ = true;
  series_[label] = std::move(points);
}

void BenchTelemetry::MergeMetrics(const obs::MetricsSnapshot& s) {
  recorded_ = true;
  metrics_.Merge(s);
}

void BenchTelemetry::Metric(const std::string& name, double value) {
  recorded_ = true;
  metrics_.SetGauge(name, value);
}

void BenchTelemetry::CounterMetric(const std::string& name, uint64_t value) {
  recorded_ = true;
  metrics_.AddCounter(name, value);
}

void BenchTelemetry::Gate(const std::string& name, bool passed, double value) {
  recorded_ = true;
  gates_[name] = GateResult{passed, value};
}

void BenchTelemetry::RecordTable(
    const std::string& title, const std::vector<std::string>& columns,
    const std::vector<std::vector<std::string>>& rows) {
  // A re-Print of the same table replaces the earlier capture.
  recorded_ = true;
  for (TableDump& t : tables_) {
    if (t.title == title) {
      t.columns = columns;
      t.rows = rows;
      return;
    }
  }
  tables_.push_back(TableDump{title, columns, rows});
}

std::string BenchTelemetry::JsonBody() const {
  obs::JsonWriter w;
  w.BeginObject();
  w.Field("schema_version", static_cast<int64_t>(1));
  w.Field("bench", name_);

  w.Key("config").BeginObject();
  for (const auto& [k, v] : config_) {
    w.Key(k);
    switch (v.kind) {
      case ConfigValue::Kind::kString:
        w.String(v.s);
        break;
      case ConfigValue::Kind::kUint:
        w.Uint(v.u);
        break;
      case ConfigValue::Kind::kInt:
        w.Int(v.i);
        break;
      case ConfigValue::Kind::kDouble:
        w.Double(v.d);
        break;
      case ConfigValue::Kind::kBool:
        w.Bool(v.b);
        break;
    }
  }
  w.EndObject();

  w.Key("metrics");
  metrics_.WriteJson(&w);

  w.Key("percentiles").BeginObject();
  for (const auto& [label, s] : runs_) {
    w.Key(label).BeginObject();
    w.Field("mops", s.mops);
    w.Field("ops", s.ops);
    w.Field("measured_ns", s.measured_ns);
    w.Field("p50_us", s.p50_us);
    w.Field("p90_us", s.p90_us);
    w.Field("p99_us", s.p99_us);
    w.EndObject();
  }
  w.EndObject();

  w.Key("series").BeginObject();
  for (const auto& [label, pts] : series_) {
    w.Key(label).BeginArray();
    for (const auto& [t_ns, ops] : pts) {
      w.BeginObject();
      w.Field("t_ns", t_ns);
      w.Field("ops", ops);
      w.EndObject();
    }
    w.EndArray();
  }
  w.EndObject();

  w.Key("tables").BeginArray();
  for (const TableDump& t : tables_) {
    w.BeginObject();
    w.Field("title", t.title);
    w.Key("columns").BeginArray();
    for (const std::string& c : t.columns) w.String(c);
    w.EndArray();
    w.Key("rows").BeginArray();
    for (const auto& row : t.rows) {
      w.BeginArray();
      for (const std::string& cell : row) w.String(cell);
      w.EndArray();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();

  w.Key("gates").BeginObject();
  for (const auto& [name, g] : gates_) {
    w.Key(name).BeginObject();
    w.Field("passed", g.passed);
    w.Field("value", g.value);
    w.EndObject();
  }
  w.EndObject();

  w.EndObject();
  std::string body = w.Take();
  body += '\n';
  return body;
}

bool BenchTelemetry::Write() {
  written_ = true;
  if (!enabled_) return false;
  bool ok = WriteFile(path_, JsonBody());
  if (ok) std::fprintf(stderr, "telemetry: wrote %s\n", path_.c_str());
  if (!trace_path_.empty()) {
    if (tracer_ == nullptr) {
      std::fprintf(stderr,
                   "telemetry: --trace-out ignored (this bench does not "
                   "export a tracer)\n");
    } else {
      ok = WriteFile(trace_path_, tracer_->ChromeTraceJson()) && ok;
      if (ok) {
        std::fprintf(stderr, "telemetry: wrote %s\n", trace_path_.c_str());
      }
    }
  }
  return ok;
}

}  // namespace sherman::bench
