// bench_e2e: the repository's end-to-end benchmark. One process runs one
// workload on a full-size deployment and prints every end-to-end and
// per-layer metric; bench_e2e.py builds it, runs each workload in its own
// process and applies the checks.
//
// Deployment, pinned here and nowhere else: 8 memory servers (256 MB each)
// x 8 compute servers, the ShermanOptions() preset plus the per-workload
// changes below. Load model: a closed loop (paper §5.1.3) of 22 client
// coroutines per CS, 176 in total, on one host thread; each client issues
// its next op when the previous one returns. The ops come from ONE
// WorkloadGenerator seeded by --seed and shared by all clients, so the
// Zipfian zeta sum is computed once per run instead of once per client.
//
// Workloads and why each is here:
//   ycsb-a-zipf     50/50 insert/lookup, Zipf 0.99, 4M keys, 4 MB cache.
//                   The paper's headline (Fig. 10/11): HOCL lock waits,
//                   command combining and two-level versions.
//   read-cold-hints 95/5 lookup/insert, uniform, 4M keys, index cache off,
//                   leaf hints on, no warm-up. Cold clients on the 1-RTT
//                   hint path and the NIC read path, locks idle; the
//                   mirror-fill stall is part of what is timed.
//   scan-write      50/50 range(100)/insert, uniform, 4M keys, 4 MB cache.
//                   Bandwidth-bound multi-leaf READs beside uncontended
//                   writes.
//   hotspot-hybrid  HybridSystem, adaptive router (64 shards), RDWC
//                   delegation + combining; 99% of ops on 64 hot keys,
//                   50/50, 4M keys. The only workload where combining and
//                   routing do the work.
//   ycsb-string     HybridSystem defaults (RDWC off), varlen leaves, the
//                   ycsb-string preset (16-40 B keys) with values capped at
//                   256 B (16 B-256 B), uniform, 1M keys, per-CS VlogGcOnce
//                   every 1/8 window.
//                   The varlen op family, the value log and its GC.
//
// Timing: every metric except setup_s, host_us_per_op, peak_rss_mb and
// sim.events_per_host_s is SIMULATED, so a fixed seed repeats it exactly.
// Those four are host costs; their times are process CPU time. --seconds
// sets the measured window through a per-workload constant (simulated ns
// per host second on a 4-core x86 host), so a run measures about that
// many host seconds while its simulated metrics stay a pure function of
// (workload, seed, seconds).
//
// End-to-end metrics (the read class is lookup, or range on scan-write):
//   throughput_mops            completed ops in the window / window
//   {insert,read}_p50_us, _p99_us   simulated latency; p999 printed only
//   setup_s                    median CPU s of system construction +
//                              bulk load over --setups builds (input
//                              generation excluded)
//   peak_rss_mb                process peak RSS up to the end of the
//                              window: the deployment, plus a harness share
//                              that does not grow with the op count (the
//                              bulk-load input during set-up, the oracle's
//                              bitmap of N bits)
//   space_amp                  (leaves x node size + live value-log
//                              segments x segment size) / live user bytes,
//                              at end
//
// Per-layer metrics and the end-to-end metric each should move:
//   lock    lock.cas_failures_per_insert, lock.handovers_per_insert,
//           layer.insert.lock_*  -> insert_p99_us, throughput on
//           ycsb-a-zipf and hotspot-hybrid; no change predicted on
//           read-cold-hints and scan-write
//   rdma    rdma.round_trips_per_op, rdma.reads_per_op,
//           rdma.read_bytes_per_op, rdma.write_bytes_per_insert,
//           rdma.atomics_per_insert, nic.ms.tx_stall_ns_per_op,
//           nic.cs.rx_stall_ns_per_op, nic.ms.atomic_stall_ns_per_insert
//           -> read_p99_us and throughput on scan-write, read-cold-hints;
//           insert_p50_us on ycsb-a-zipf (write bytes, Fig. 14c)
//   cache   cache.hit_ratio, cache.evictions_per_op, hint.served_ratio,
//           hint.stale_ratio, hint.refreshes, layer.read.descend_*
//           -> hints: throughput and read_p50_us on read-cold-hints only;
//           index cache: read_p50_us on ycsb-a-zipf, scan-write
//   core    core.read_retries_per_read, core.splits_per_kinsert,
//           layer.<op>.{lock_read,read,split,release,unattributed}_*
//           -> insert_p99_us on ycsb-string (the only workload whose
//           window splits leaves), read_p99_us on scan-write
//   combine rdwc.absorbed_share, rdwc.bypass_overflow_per_kop
//           -> throughput, insert_p99_us on hotspot-hybrid only
//   route   route.rpc_share, route.rpc_fallbacks_per_kop, route.shard_flips
//           -> throughput on hotspot-hybrid, ycsb-string
//   vlog    vlog.reads_per_read, vlog.append_bytes_per_insert,
//           vlog.gc_relocated, vlog.live_segments
//           -> insert_p50_us, space_amp on ycsb-string only
//   alloc   alloc.allocated_mb, alloc.nodes_recycled -> space_amp,
//           peak_rss_mb on all
//   sim     host_us_per_op: CPU us of simulation per completed op, the
//           10th percentile over 32 equal slices of the window. Not gated:
//           contention from other processes on a shared host moves it by
//           up to ~30% between runs. sim.events_per_op and
//           sim.events_per_host_s explain it.
//
// Traced run (--trace 1): the benchmark owns an obs::Tracer with one ring
// per client coroutine, opens each op's root span here and passes its
// TraceCtx down through OpStats::trace; the index already emits
// tree.descend, tree.lock_read, lock.acquire/try/release, rdma.read,
// rdma.read_batch and tree.split_leaf under it. After every op the spans
// are harvested and each instant of the op is charged to the innermost
// open span, giving per-op-class self time layer.<op>.<part>_ns (and its
// share of the op's latency, _pct); time under no harvested span is
// unattributed. Spans overwritten before harvest count as
// trace.lost_spans, which must be 0. HybridClient does not forward the
// trace context, so on the two hybrid workloads all time is unattributed.
// The traced run changes no simulated metric; end-to-end numbers always
// come from the untraced run.
//
// Correctness oracle, counted into `failed` instead of aborting: non-OK
// statuses; a lookup returning NotFound for a loaded key or for a fresh
// key whose insert was acknowledged before the lookup began; a lookup or
// range returning a value never submitted for that key; a range that is
// unsorted, starts below `from` or is too long. After the run:
// DebugCheckInvariants(), and every loaded key present with a valid value.
// The generator draws each op's key and value length; the value itself is
// written by the benchmark and names its key and submission (TaggedValue),
// so checking a value needs no per-op state.
//
// Usage: bench_e2e --workload=NAME [--seed=42] [--seconds=10] [--scale=1]
//                  [--setups=3] [--trace=0|1]
// Output: `workload metric value unit [n=samples]` lines, then one JSON
// line with every metric.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "core/btree.h"
#include "core/hybrid_system.h"
#include "core/presets.h"
#include "obs/trace.h"
#include "sim/task.h"
#include "util/logging.h"
#include "util/random.h"
#include "workload/workload.h"

using namespace sherman;

namespace {

constexpr int kNumMs = 8;
constexpr int kNumCs = 8;
constexpr int kClientsPerCs = 22;
constexpr double kLoadFill = 0.8;
constexpr int kHostSlices = 32;

struct Workload {
  std::string name;
  bool hybrid = false;
  bool rdwc = false;
  bool vlog_gc = false;
  TreeOptions tree = ShermanOptions();
  WorkloadOptions ops;
  sim::SimTime warmup_ns = 2'000'000;
  // Simulated ns measured per requested host second (see file comment).
  double sim_ns_per_host_s = 0;
};

bool MakeWorkload(const std::string& name, Workload* w) {
  w->name = name;
  w->ops.loaded_keys = 4'000'000;
  if (name == "ycsb-a-zipf") {
    w->ops.mix = WorkloadMix::WriteIntensive();
    w->ops.zipf_theta = 0.99;
    w->sim_ns_per_host_s = 24'000'000;
  } else if (name == "read-cold-hints") {
    w->ops.mix = WorkloadMix::ReadIntensive();
    w->tree.enable_cache = false;
    w->tree.cache_bytes = 0;
    w->tree.enable_leaf_hints = true;
    w->warmup_ns = 0;
    w->sim_ns_per_host_s = 5'000'000;
  } else if (name == "scan-write") {
    w->ops.mix = WorkloadMix::RangeWrite();
    w->ops.range_size = 100;
    w->sim_ns_per_host_s = 2'800'000;
  } else if (name == "hotspot-hybrid") {
    w->hybrid = true;
    w->rdwc = true;
    SHERMAN_CHECK(ParseMix("hotspot", &w->ops));
    w->ops.hotspot_share = 0.99;
    w->ops.hotspot_keys = 64;
    w->sim_ns_per_host_s = 15'000'000;
  } else if (name == "ycsb-string") {
    w->hybrid = true;
    w->vlog_gc = true;
    SHERMAN_CHECK(ParseMix("ycsb-string", &w->ops));
    w->ops.loaded_keys = 1'000'000;
    // The preset's 4 KB cap fills half of the 2 GB of simulated memory in
    // one window, and the run turns chaotic (15-20 Mops, insert p99
    // 45-164 us, lease steals over seeds). With a 1 KB cap insert p99
    // still moves by 9-11% (quartile spread) across seeds; with 256 B it
    // moves by 1.3-1.4%, and the values (16, 32, 64 | 128, 256 B) still
    // cross the 64 B inline threshold both ways. The window at --seconds=8
    // (31 ms) also stays short of the point, near 45 ms, where GC
    // relocations jump six-fold as sealed segments cross the dead
    // threshold and the tail turns erratic again.
    w->ops.string_value_max = 256;
    w->tree.shape.varlen = true;
    w->tree.two_level_versions = false;  // varlen needs sorted leaves
    w->sim_ns_per_host_s = 3'900'000;
  } else {
    return false;
  }
  return true;
}

// Host time is the process's CPU time: on a shared host, time spent
// waiting for a core is not work the benchmark did.
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Every value the benchmark writes names its key and its submission: the
// low 32 bits are a tag of the key, the high 32 bits the submission's
// sequence number (0 for bulk-loaded values). The oracle therefore keeps no
// per-op state, and its memory does not grow with the number of ops.
uint64_t KeyTag(Key k) { return (SplitMix64(k) & 0xffffffffULL) | 1; }
uint64_t TaggedValue(Key k, uint64_t seq) { return seq << 32 | KeyTag(k); }

// A string value: the tagged value in hex, then filler that is a function
// of it, up to `len` bytes. A bulk-loaded value (sequence number 0) is the
// tag's 8 digits alone; a submitted one has 16 digits (the generator's
// value lengths start at 16).
std::string VarValue(uint64_t tagged, size_t len) {
  static const char kHex[] = "0123456789abcdef";
  const int digits = tagged >> 32 == 0 ? 8 : 16;
  std::string s(len, '0');
  for (int i = 0; i < digits; i++) {
    s[i] = kHex[(tagged >> (4 * (digits - 1 - i))) & 0xf];
  }
  uint64_t x = SplitMix64(tagged);
  for (size_t i = digits; i < len; i++) {
    s[i] = static_cast<char>('a' + (x >> ((i & 7) * 8)) % 26);
    if ((i & 7) == 7) x = SplitMix64(x);
  }
  return s;
}

// The tagged value a string value was made from, or 0 if it is not one.
uint64_t ParseVarValue(const std::string& s) {
  if (s.size() < 8) return 0;
  const int digits = s.size() < 16 ? 8 : 16;
  uint64_t tagged = 0;
  for (int i = 0; i < digits; i++) {
    const char c = s[i];
    const int d = c >= '0' && c <= '9'   ? c - '0'
                  : c >= 'a' && c <= 'f' ? c - 'a' + 10
                                         : -1;
    if (d < 0) return 0;
    tagged = tagged << 4 | static_cast<uint64_t>(d);
  }
  return s == VarValue(tagged, s.size()) ? tagged : 0;
}

// The bulk-load input: the generator's loaded ranks (even keys 2..2N).
struct LoadSet {
  std::vector<std::pair<Key, uint64_t>> fixed;
  std::vector<std::pair<std::string, std::string>> var;
};

LoadSet MakeLoadSet(const Workload& w) {
  LoadSet s;
  const uint64_t n = w.ops.loaded_keys;
  if (!w.tree.shape.varlen) {
    s.fixed.reserve(n);
    for (uint64_t r = 0; r < n; r++) {
      const Key k = WorkloadGenerator::LoadedKeyFor(r);
      s.fixed.emplace_back(k, TaggedValue(k, 0));
    }
    return s;
  }
  s.var.reserve(n);
  for (uint64_t r = 0; r < n; r++) {
    const Key k = WorkloadGenerator::LoadedKeyFor(r);
    s.var.emplace_back(WorkloadGenerator::StringKeyFor(
                           k, w.ops.string_key_min, w.ops.string_key_max),
                       VarValue(TaggedValue(k, 0), 8));
  }
  std::sort(s.var.begin(), s.var.end());
  // Distinct u64 keys never share a string key at these sizes; a collision
  // would make the oracle's per-key bookkeeping ambiguous.
  for (size_t i = 1; i < s.var.size(); i++) {
    SHERMAN_CHECK(s.var[i].first != s.var[i - 1].first);
  }
  return s;
}

// One deployment: a plain ShermanSystem or a HybridSystem over one.
struct Deployment {
  std::unique_ptr<ShermanSystem> plain;
  std::unique_ptr<HybridSystem> hybrid;

  ShermanSystem& sherman() { return hybrid ? hybrid->sherman() : *plain; }
};

std::unique_ptr<Deployment> Build(const Workload& w, const LoadSet& load) {
  rdma::FabricConfig f;
  f.num_memory_servers = kNumMs;
  f.num_compute_servers = kNumCs;
  f.ms_memory_bytes = 256ull << 20;
  auto d = std::make_unique<Deployment>();
  if (w.hybrid) {
    HybridOptions o;
    o.tree = w.tree;
    o.rdwc.enable_delegation = w.rdwc;
    d->hybrid = std::make_unique<HybridSystem>(f, o);
    if (w.tree.shape.varlen) {
      d->hybrid->BulkLoadVar(load.var, kLoadFill);
    } else {
      d->hybrid->BulkLoad(load.fixed, kLoadFill);
    }
  } else {
    d->plain = std::make_unique<ShermanSystem>(f, w.tree);
    d->plain->BulkLoad(load.fixed, kLoadFill);  // varlen runs on hybrid
  }
  return d;
}

// Correctness oracle over the op stream (see file comment). Keys are the
// generator's u64 keys: loaded keys are the even keys 2..2N, fresh keys
// the odd keys 3..2N+1.
class Oracle {
 public:
  explicit Oracle(uint64_t loaded_keys)
      : loaded_keys_(loaded_keys), acked_(loaded_keys) {}

  bool IsLoaded(Key k) const {
    return k % 2 == 0 && k >= 2 && k / 2 <= loaded_keys_;
  }
  bool MustExist(Key k) const {
    return IsLoaded(k) || (IsFresh(k) && acked_[(k - 3) / 2]);
  }

  // The value to write for the next insert of `k`.
  uint64_t Submit(Key k) {
    SHERMAN_CHECK(issued_ < 0xffffffffULL);
    return TaggedValue(k, ++issued_);
  }
  void Ack(Key k) {
    if (IsFresh(k)) acked_[(k - 3) / 2] = true;
  }
  bool ValueOk(Key k, uint64_t v) const {
    const uint64_t seq = v >> 32;
    return (v & 0xffffffffULL) == KeyTag(k) && seq <= issued_ &&
           (seq > 0 || IsLoaded(k));
  }
  bool VarValueOk(Key k, const std::string& v) const {
    return ValueOk(k, ParseVarValue(v));
  }
  bool RangeOk(Key from, uint32_t count,
               const std::vector<std::pair<Key, uint64_t>>& out) const {
    if (out.size() > count) return false;
    for (size_t i = 0; i < out.size(); i++) {
      if (out[i].first < from) return false;
      if (i > 0 && out[i].first <= out[i - 1].first) return false;
      if (!ValueOk(out[i].first, out[i].second)) return false;
    }
    return true;
  }

 private:
  bool IsFresh(Key k) const {
    return k % 2 == 1 && k >= 3 && (k - 3) / 2 < loaded_keys_;
  }

  uint64_t loaded_keys_;
  uint64_t issued_ = 0;      // sequence number of the last submitted insert
  std::vector<bool> acked_;  // fresh keys with an acknowledged insert
};

// No workload mixes lookups with ranges, so a workload's read class is
// whichever of the two it issues.
enum OpClass { kInsertOp, kReadOp, kNumOpClasses };
const char* const kClassName[kNumOpClasses] = {"insert", "read"};

// Layer parts of an op's latency, keyed by the spans the index emits.
enum Part {
  kDescend, kLockRead, kLock, kRead, kSplit, kRelease, kUnattributed,
  kNumParts
};
const char* const kPartName[kNumParts] = {
    "descend", "lock_read", "lock", "read", "split", "release",
    "unattributed"};

int PartOf(const char* span) {
  static const std::pair<const char*, Part> kMap[] = {
      {"tree.descend", kDescend},       {"tree.load_root", kDescend},
      {"tree.lock_read", kLockRead},    {"lock.acquire", kLock},
      {"lock.try", kLock},              {"rdma.read", kRead},
      {"rdma.read_batch", kRead},       {"tree.split_leaf", kSplit},
      {"lock.release", kRelease}};
  for (const auto& [name, part] : kMap) {
    if (std::strcmp(span, name) == 0) return part;
  }
  return -1;  // not harvested: its time stays with the enclosing span
}

// Simulated latencies, kept exactly: one counter per ns below kExactNs, a
// map above. A percentile treats each ns value as spread evenly over
// [v, v + 1), so it still moves with the share of ops below it when it
// falls among many ops of equal latency (uncontended ops often take the
// same number of ns, e.g. ycsb-a-zipf lookups at p50).
class Latencies {
 public:
  Latencies() : exact_(kExactNs, 0) {}

  void Add(uint64_t ns) {
    count_++;
    if (ns < kExactNs) {
      exact_[ns]++;
    } else {
      above_[ns]++;
    }
  }

  double Percentile(double p) const {
    const double target = p / 100.0 * static_cast<double>(count_);
    double seen = 0;
    for (uint64_t v = 0; v < kExactNs; v++) {
      if (exact_[v] > 0 && Reaches(v, exact_[v], target, &seen)) return seen;
    }
    for (const auto& [v, n] : above_) {
      if (Reaches(v, n, target, &seen)) return seen;
    }
    return 0;  // no samples
  }

 private:
  static constexpr uint64_t kExactNs = 1 << 20;

  // Advances *seen past n ops of latency v, or, when the target rank falls
  // among them, sets *seen to the interpolated latency and returns true.
  static bool Reaches(uint64_t v, uint64_t n, double target, double* seen) {
    const double dn = static_cast<double>(n);
    if (*seen + dn < target) {
      *seen += dn;
      return false;
    }
    *seen = static_cast<double>(v) + (target - *seen) / dn;
    return true;
  }

  uint64_t count_ = 0;
  std::vector<uint32_t> exact_;
  std::map<uint64_t, uint64_t> above_;
};

struct ClassStats {
  uint64_t ops = 0;
  Latencies latency_ns;
  uint64_t latency_sum_ns = 0;
  uint64_t round_trips = 0;
  uint64_t read_retries = 0;
  uint64_t part_ns[kNumParts] = {};
};

// Charges every instant of the op [root.start, root.end) to the innermost
// harvested span covering it (latest start, then latest id), or to
// unattributed. The parts therefore sum to the op's latency exactly.
void AttributeSpans(const obs::SpanRecord& root,
                    const std::vector<obs::SpanRecord>& spans,
                    uint64_t part_ns[kNumParts]) {
  struct Ev {
    uint64_t t;
    size_t idx;
  };
  std::vector<Ev> starts;
  std::vector<uint64_t> bounds = {root.start_ns, root.end_ns};
  for (size_t i = 0; i < spans.size(); i++) {
    starts.push_back({spans[i].start_ns, i});
    bounds.push_back(spans[i].start_ns);
    bounds.push_back(spans[i].end_ns);
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  std::sort(starts.begin(), starts.end(),
            [](const Ev& a, const Ev& b) { return a.t < b.t; });
  // Max-heap of open spans by (start, id); ended spans are dropped lazily.
  auto deeper = [&spans](size_t a, size_t b) {
    if (spans[a].start_ns != spans[b].start_ns) {
      return spans[a].start_ns < spans[b].start_ns;
    }
    return spans[a].id < spans[b].id;
  };
  std::priority_queue<size_t, std::vector<size_t>, decltype(deeper)> open(
      deeper);
  size_t next = 0;
  for (size_t b = 0; b + 1 < bounds.size(); b++) {
    const uint64_t t = bounds[b];
    const uint64_t len = bounds[b + 1] - t;
    while (next < starts.size() && starts[next].t <= t) {
      open.push(starts[next++].idx);
    }
    while (!open.empty() && spans[open.top()].end_ns <= t) open.pop();
    if (t < root.start_ns || t >= root.end_ns) continue;
    const int part = open.empty() ? kUnattributed
                                  : PartOf(spans[open.top()].name);
    part_ns[part] += len;
  }
}

struct Run {
  Run(const Workload& w, uint64_t seed)
      : workload(w),
        varlen(w.tree.shape.varlen),
        gen(w.ops, SplitMix64(seed)),
        oracle(w.ops.loaded_keys) {}

  const Workload& workload;
  const bool varlen;
  WorkloadGenerator gen;
  Oracle oracle;
  sim::Simulator* sim = nullptr;
  std::unique_ptr<obs::Tracer> tracer;  // traced run only

  bool measuring = false;
  bool stop = false;
  int live_clients = 0;

  uint64_t attempted = 0;
  uint64_t nonok = 0;
  uint64_t wrong = 0;
  uint64_t inserts_total = 0;
  uint64_t lost_spans = 0;
  ClassStats cls[kNumOpClasses];

  void Harvest(int c, const obs::TraceCtx& trace, uint64_t root_id) {
    const obs::TraceRing* ring = trace.ring;
    const uint64_t newest = ring->spans_started();
    if (newest - root_id + 1 > ring->capacity()) {
      lost_spans += newest - root_id + 1 - ring->capacity();
      return;
    }
    const obs::SpanRecord* root = ring->Find(root_id);
    std::vector<obs::SpanRecord> spans;
    for (uint64_t id = root_id + 1; id <= newest; id++) {
      const obs::SpanRecord* r = ring->Find(id);
      if (r == nullptr || r->end_ns < r->start_ns) {
        lost_spans++;  // overwritten, or still open (end 0) after its op
        continue;
      }
      if (r->end_ns > r->start_ns && PartOf(r->name) >= 0) spans.push_back(*r);
    }
    if (measuring) AttributeSpans(*root, spans, cls[c].part_ns);
  }

  void Finish(int c, const Status& st, bool bad, const OpStats& stats,
              sim::SimTime start, const obs::TraceCtx& trace,
              uint64_t root_id) {
    attempted++;
    if (!st.ok()) {
      if (++nonok <= 5) {
        std::fprintf(stderr, "%s: %s failed: %s\n", workload.name.c_str(),
                     kClassName[c], st.ToString().c_str());
      }
    } else if (bad) {
      if (++wrong <= 5) {
        std::fprintf(stderr, "%s: %s returned a wrong result\n",
                     workload.name.c_str(), kClassName[c]);
      }
    }
    if (c == kInsertOp) inserts_total++;
    if (root_id != 0) Harvest(c, trace, root_id);
    if (!measuring) return;
    ClassStats& s = cls[c];
    const uint64_t lat = static_cast<uint64_t>(sim->now() - start);
    s.ops++;
    s.latency_ns.Add(lat);
    s.latency_sum_ns += lat;
    s.round_trips += stats.round_trips;
    s.read_retries += stats.read_retries;
  }
};

template <typename Client>
sim::Task<void> ClientLoop(Client* client, Run* run, uint32_t ring_id) {
  obs::TraceCtx trace = obs::TraceCtx::For(run->tracer.get(), ring_id);
  std::vector<std::pair<Key, uint64_t>> range;
  while (!run->stop) {
    const Op op = run->gen.Next();
    SHERMAN_CHECK_MSG(op.type != OpType::kDelete, "no workload deletes");
    const int c = op.type == OpType::kInsert ? kInsertOp : kReadOp;
    const bool must_exist = run->oracle.MustExist(op.key);
    uint64_t value = 0;
    std::string svalue;
    if (c == kInsertOp) {
      // The generator draws the key and (for strings) the value's length;
      // the bytes are the oracle's self-checking value.
      value = run->oracle.Submit(op.key);
      if (run->varlen) svalue = VarValue(value, op.svalue.size());
    }
    OpStats stats;
    stats.trace = trace.active() ? &trace : nullptr;
    const sim::SimTime start = run->sim->now();
    obs::SpanScope root(stats.trace,
                        c == kInsertOp                      ? "op.insert"
                        : op.type == OpType::kRangeQuery ? "op.range"
                                                           : "op.lookup",
                        op.key);
    Status st;
    bool bad = false;
    if (c == kInsertOp) {
      if (run->varlen) {
        st = co_await client->InsertVar(Slice(op.skey), Slice(svalue),
                                        &stats);
      } else {
        st = co_await client->Insert(op.key, value, &stats);
      }
      if (st.ok()) run->oracle.Ack(op.key);
    } else if (op.type == OpType::kLookup) {
      if (run->varlen) {
        std::string v;
        st = co_await client->LookupVar(Slice(op.skey), &v, &stats);
        if (st.ok()) bad = !run->oracle.VarValueOk(op.key, v);
      } else {
        uint64_t v = 0;
        st = co_await client->Lookup(op.key, &v, &stats);
        if (st.ok()) bad = !run->oracle.ValueOk(op.key, v);
      }
      if (st.IsNotFound()) {
        bad = must_exist;
        st = Status::OK();
      }
    } else {
      st = co_await client->RangeQuery(op.key, op.range_size, &range, &stats);
      if (st.ok()) bad = !run->oracle.RangeOk(op.key, op.range_size, range);
    }
    root.End();
    run->Finish(c, st, bad, stats, start, trace, root.id());
  }
  run->live_clients--;
}

sim::Task<void> GcLoop(TreeClient* client, Run* run, sim::SimTime interval,
                       sim::SimTime offset) {
  co_await run->sim->Delay(offset);
  while (!run->stop) {
    Status st = co_await client->VlogGcOnce();
    if (!st.ok()) {
      run->nonok++;
      std::fprintf(stderr, "%s: VlogGcOnce failed: %s\n",
                   run->workload.name.c_str(), st.ToString().c_str());
    }
    co_await run->sim->Delay(interval);
  }
}

// End-of-run audit: tree invariants, then every loaded key present with a
// value the oracle accepts. Returns the number of bad keys; fills the
// live user bytes for space_amp.
uint64_t AuditFinalState(ShermanSystem& sys, const Workload& w,
                         const Oracle& oracle, uint64_t* live_bytes) {
  sys.DebugCheckInvariants();
  uint64_t bad = 0;
  uint64_t loaded_seen = 0;
  *live_bytes = 0;
  if (!w.tree.shape.varlen) {
    for (const auto& [k, v] : sys.DebugScanLeaves()) {
      *live_bytes += sizeof(Key) + sizeof(uint64_t);
      if (oracle.IsLoaded(k)) loaded_seen++;
      if (!oracle.ValueOk(k, v)) bad++;
    }
  } else {
    std::map<std::string, std::string> live;
    for (auto& [k, v] : sys.DebugScanLeavesVar()) {
      *live_bytes += k.size() + v.size();
      live.emplace(std::move(k), std::move(v));
    }
    for (uint64_t r = 0; r < w.ops.loaded_keys; r++) {
      const Key k = WorkloadGenerator::LoadedKeyFor(r);
      auto it = live.find(WorkloadGenerator::StringKeyFor(
          k, w.ops.string_key_min, w.ops.string_key_max));
      if (it == live.end()) continue;
      loaded_seen++;
      if (!oracle.VarValueOk(k, it->second)) bad++;
    }
  }
  return bad + (w.ops.loaded_keys - loaded_seen);
}

struct Args {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10;
  double scale = 1;
  int setups = 3;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2);
    const std::string val = arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "workload") {
      a->workload = val;
      continue;
    }
    const double num = std::strtod(val.c_str(), &end);
    if (end == val.c_str() || *end != '\0') return false;
    if (key == "seed") {
      a->seed = static_cast<uint64_t>(num);
    } else if (key == "seconds") {
      a->seconds = num;
    } else if (key == "scale") {
      a->scale = num;
    } else if (key == "setups") {
      a->setups = static_cast<int>(num);
    } else if (key == "trace") {
      a->trace = num != 0;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0 && a->scale > 0 &&
         a->scale <= 1 && a->setups >= 1;
}

// Metric output: human lines as they are added, one JSON object at the end.
class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  void Add(const std::string& name, double value, const char* unit,
           bool simulated, uint64_t samples = 0) {
    if (samples > 0) {
      std::printf("%s %s %.6g %s n=%llu\n", workload_.c_str(), name.c_str(),
                  value, unit, static_cast<unsigned long long>(samples));
    } else {
      std::printf("%s %s %.6g %s\n", workload_.c_str(), name.c_str(), value,
                  unit);
    }
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                  "\"simulated\": %s}",
                  json_.empty() ? "" : ", ", name.c_str(), value, unit,
                  simulated ? "true" : "false");
    json_ += buf;
  }

  void PrintJson(bool correct, uint64_t attempted, uint64_t failed) const {
    std::printf(
        "{\"workload\": \"%s\", \"correct\": %s, \"attempted\": %llu, "
        "\"failed\": %llu, \"metrics\": {%s}}\n",
        workload_.c_str(), correct ? "true" : "false",
        static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed), json_.c_str());
  }

 private:
  std::string workload_;
  std::string json_;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

int main(int argc, char** argv) {
  Args args;
  Workload w;
  if (!ParseArgs(argc, argv, &args) || !MakeWorkload(args.workload, &w)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload=NAME [--seed=N] [--seconds=S] "
                 "[--scale=F] [--setups=N] [--trace=0|1]\n"
                 "workloads: ycsb-a-zipf read-cold-hints scan-write "
                 "hotspot-hybrid ycsb-string\n");
    return 2;
  }
  // --scale shrinks the key count and both windows together (smoke runs).
  w.ops.loaded_keys = std::max<uint64_t>(
      1000, static_cast<uint64_t>(static_cast<double>(w.ops.loaded_keys) *
                                  args.scale));
  w.warmup_ns = static_cast<sim::SimTime>(static_cast<double>(w.warmup_ns) *
                                          args.scale);
  const sim::SimTime measure_ns = std::max<sim::SimTime>(
      100'000, static_cast<sim::SimTime>(w.sim_ns_per_host_s * args.seconds *
                                         args.scale));

  std::vector<double> setup_s;
  std::unique_ptr<Deployment> dep;
  {
    const LoadSet load = MakeLoadSet(w);  // freed once the tree holds it
    for (int i = 0; i < args.setups; i++) {
      dep.reset();
      const double t0 = CpuSeconds();
      dep = Build(w, load);
      setup_s.push_back(CpuSeconds() - t0);
    }
  }
  std::sort(setup_s.begin(), setup_s.end());
  ShermanSystem& sys = dep->sherman();
  sim::Simulator& sim = sys.simulator();

  Run run(w, args.seed);
  run.sim = &sim;
  if (args.trace) {
    obs::TraceOptions topt;
    topt.enabled = true;
    topt.ring_entries = 4096;
    run.tracer = std::make_unique<obs::Tracer>(&sim, topt);
    SHERMAN_CHECK_MSG(run.tracer->enabled(),
                      "--trace=1 needs tracing enabled (unset SHERMAN_TRACE)");
  }
  const size_t leaves_before = sys.DebugCountLeaves();

  uint32_t ring = 0;
  for (int cs = 0; cs < kNumCs; cs++) {
    for (int t = 0; t < kClientsPerCs; t++) {
      run.live_clients++;
      if (dep->hybrid) {
        sim::Spawn(ClientLoop(&dep->hybrid->client(cs), &run, ring++));
      } else {
        sim::Spawn(ClientLoop(&dep->plain->client(cs), &run, ring++));
      }
    }
    if (w.vlog_gc) {
      // Every CS collects once per 1/8 window, the CSs evenly out of phase:
      // eight simultaneous passes made insert p99 vary twice as much
      // across seeds.
      const sim::SimTime interval = measure_ns / 8;
      sim::Spawn(GcLoop(&sys.client(cs), &run, interval,
                        interval * cs / kNumCs));
    }
  }
  if (dep->hybrid) dep->hybrid->router().Start();

  obs::MetricsSnapshot before, after;
  const sim::SimTime t0 = sim.now();
  sim.At(t0 + w.warmup_ns, [&] {
    run.measuring = true;
    before = sys.registry().Snapshot();
  });
  // CPU time and completed ops at kHostSlices + 1 evenly spaced instants
  // of the window. Interference from other processes only ever adds host
  // time, so host_us_per_op is the 10th-percentile slice: it follows the
  // simulator's own cost and ignores the slices a burst of load hits.
  std::vector<std::pair<double, uint64_t>> marks;
  const double host0 = CpuSeconds();
  for (int i = 0; i <= kHostSlices; i++) {
    sim.At(t0 + w.warmup_ns + measure_ns * i / kHostSlices, [&] {
      marks.emplace_back(CpuSeconds(), run.attempted);
    });
  }
  sim.At(t0 + w.warmup_ns + measure_ns, [&] {
    run.measuring = false;
    run.stop = true;
    after = sys.registry().Snapshot();
    if (dep->hybrid) dep->hybrid->router().Stop();
  });
  const uint64_t steps_before = sim.steps();
  sim.Run();  // drains: clients exit after their in-flight op
  const double host_s = CpuSeconds() - host0;
  std::vector<double> slice_us_per_op;
  for (size_t i = 1; i < marks.size(); i++) {
    const uint64_t n = marks[i].second - marks[i - 1].second;
    if (n > 0) {
      slice_us_per_op.push_back((marks[i].first - marks[i - 1].first) * 1e6 /
                                static_cast<double>(n));
    }
  }
  std::sort(slice_us_per_op.begin(), slice_us_per_op.end());
  const uint64_t events = sim.steps() - steps_before;
  SHERMAN_CHECK(run.live_clients == 0);
  // Peak RSS before the audit's own scans of the tree.
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);

  uint64_t live_bytes = 0;
  const uint64_t bad_keys = AuditFinalState(sys, w, run.oracle, &live_bytes);
  const size_t leaves_after = sys.DebugCountLeaves();
  const obs::MetricsSnapshot m = after.Since(before);
  const obs::MetricsSnapshot end = sys.registry().Snapshot();
  // Bytes in use at node and segment granularity; chunk-granular
  // allocation (alloc.allocated_mb) swings with which client grabbed the
  // next 8 MB chunk when.
  const double stored_bytes =
      static_cast<double>(leaves_after) * w.tree.shape.node_size +
      end.gauge("vlog.live_segments") * w.tree.vlog_segment_bytes;

  const ClassStats& ins = run.cls[kInsertOp];
  const ClassStats& rd = run.cls[kReadOp];
  uint64_t window_ops = 0, round_trips = 0;
  for (const ClassStats& c : run.cls) {
    window_ops += c.ops;
    round_trips += c.round_trips;
  }
  const double ops = static_cast<double>(window_ops);
  const double inserts = static_cast<double>(ins.ops);
  const double reads = static_cast<double>(rd.ops);
  const auto delta = [&m](const char* name) {
    return static_cast<double>(m.counter(name));
  };
  const uint64_t failed = run.nonok + run.wrong + bad_keys;
  const uint64_t lease_steals = m.counter("lock.lease_steals");

  Report r(w.name);
  // --- end to end ---
  r.Add("throughput_mops", ops * 1000.0 / static_cast<double>(measure_ns),
        "Mops", true);
  r.Add("insert_p50_us", ins.latency_ns.Percentile(50) / 1000.0, "us", true,
        ins.ops);
  r.Add("insert_p99_us", ins.latency_ns.Percentile(99) / 1000.0, "us", true,
        ins.ops);
  r.Add("insert_p999_us", ins.latency_ns.Percentile(99.9) / 1000.0, "us",
        true, ins.ops);
  r.Add("read_p50_us", rd.latency_ns.Percentile(50) / 1000.0, "us", true,
        rd.ops);
  r.Add("read_p99_us", rd.latency_ns.Percentile(99) / 1000.0, "us", true,
        rd.ops);
  r.Add("read_p999_us", rd.latency_ns.Percentile(99.9) / 1000.0, "us", true,
        rd.ops);
  r.Add("failed_op_ratio",
        Ratio(static_cast<double>(failed), static_cast<double>(run.attempted)),
        "ratio", true);
  r.Add("setup_s", setup_s[setup_s.size() / 2], "s", false);
  r.Add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB",
        false);
  r.Add("space_amp", Ratio(stored_bytes, static_cast<double>(live_bytes)),
        "x", true);
  // --- lock ---
  r.Add("lock.cas_failures_per_insert", Ratio(delta("lock.cas_failures"),
                                              inserts), "count", true);
  r.Add("lock.handovers_per_insert", Ratio(delta("lock.handovers"), inserts),
        "count", true);
  r.Add("lock.lease_steals", static_cast<double>(lease_steals), "count", true);
  // --- rdma / nic ---
  r.Add("rdma.round_trips_per_op", Ratio(static_cast<double>(round_trips),
                                         ops), "count", true);
  r.Add("rdma.reads_per_op", Ratio(delta("rdma.reads"), ops), "count", true);
  r.Add("rdma.read_bytes_per_op", Ratio(delta("rdma.read_bytes"), ops), "B",
        true);
  r.Add("rdma.write_bytes_per_insert", Ratio(delta("rdma.write_bytes"),
                                             inserts), "B", true);
  r.Add("rdma.atomics_per_insert", Ratio(delta("rdma.atomics"), inserts),
        "count", true);
  r.Add("nic.ms.tx_stall_ns_per_op", Ratio(delta("nic.ms.tx_stall_ns"), ops),
        "ns", true);
  r.Add("nic.cs.rx_stall_ns_per_op", Ratio(delta("nic.cs.rx_stall_ns"), ops),
        "ns", true);
  r.Add("nic.ms.atomic_stall_ns_per_insert",
        Ratio(delta("nic.ms.atomic_stall_ns"), inserts), "ns", true);
  // --- cache / hints ---
  r.Add("cache.hit_ratio",
        Ratio(delta("cache.l1_hits"),
              delta("cache.l1_hits") + delta("cache.l1_misses")),
        "ratio", true);
  r.Add("cache.evictions_per_op", Ratio(delta("cache.evictions"), ops),
        "count", true);
  r.Add("hint.served_ratio", Ratio(delta("hint.served"),
                                   delta("hint.consults")), "ratio", true);
  r.Add("hint.stale_ratio", Ratio(delta("hint.stale"), delta("hint.served")),
        "ratio", true);
  r.Add("hint.refreshes", delta("hint.refreshes"), "count", true);
  // --- core ---
  r.Add("core.read_retries_per_read",
        Ratio(static_cast<double>(rd.read_retries), reads), "count", true);
  r.Add("core.splits_per_kinsert",
        Ratio(static_cast<double>(leaves_after - leaves_before) * 1000.0,
              static_cast<double>(run.inserts_total)),
        "count", true);
  // --- combine / route ---
  r.Add("rdwc.absorbed_share",
        Ratio(delta("rdwc.gets_shared") + delta("rdwc.puts_combined"), ops),
        "ratio", true);
  r.Add("rdwc.bypass_overflow_per_kop",
        Ratio(delta("rdwc.bypass_overflow") * 1000.0, ops), "count", true);
  r.Add("route.rpc_share",
        Ratio(delta("route.ops_rpc"),
              delta("route.ops_rpc") + delta("route.ops_one_sided")),
        "ratio", true);
  r.Add("route.rpc_fallbacks_per_kop",
        Ratio(delta("route.rpc_fallbacks") * 1000.0, ops), "count", true);
  r.Add("route.shard_flips", delta("route.shard_flips"), "count", true);
  // --- vlog ---
  r.Add("vlog.reads_per_read", Ratio(delta("vlog.reads"), reads), "count",
        true);
  r.Add("vlog.append_bytes_per_insert", Ratio(delta("vlog.append_bytes"),
                                              inserts), "B", true);
  r.Add("vlog.gc_relocated",
        static_cast<double>(end.counter("vlog.gc_relocated")),
        "count", true);
  r.Add("vlog.live_segments", end.gauge("vlog.live_segments"), "count", true);
  // --- alloc / sim ---
  r.Add("alloc.allocated_mb", end.gauge("alloc.allocated_bytes") / 1048576.0,
        "MB", true);
  r.Add("alloc.nodes_recycled", delta("alloc.nodes_recycled"), "count", true);
  r.Add("host_us_per_op",
        slice_us_per_op.empty()
            ? 0
            : slice_us_per_op[slice_us_per_op.size() / 10],
        "us", false);
  r.Add("sim.events_per_op",
        Ratio(static_cast<double>(events), static_cast<double>(run.attempted)),
        "count", true);
  r.Add("sim.events_per_host_s", Ratio(static_cast<double>(events), host_s),
        "1/s", false);
  // --- traced run: per-op-class self time by layer ---
  if (run.tracer) {
    r.Add("trace.lost_spans", static_cast<double>(run.lost_spans), "count",
          true);
    for (int c = 0; c < kNumOpClasses; c++) {
      const ClassStats& s = run.cls[c];
      for (int p = 0; p < kNumParts; p++) {
        const std::string base =
            std::string("layer.") + kClassName[c] + "." + kPartName[p];
        r.Add(base + "_ns",
              Ratio(static_cast<double>(s.part_ns[p]),
                    static_cast<double>(s.ops)),
              "ns", true, s.ops);
        r.Add(base + "_pct",
              Ratio(static_cast<double>(s.part_ns[p]) * 100.0,
                    static_cast<double>(s.latency_sum_ns)),
              "%", true, s.ops);
      }
    }
  }

  const bool correct = failed == 0 && lease_steals == 0 &&
                       run.lost_spans == 0 && window_ops > 0;
  r.PrintJson(correct, run.attempted, failed);
  return 0;
}
