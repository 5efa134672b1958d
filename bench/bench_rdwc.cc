// bench_rdwc: hot-key delegation + read/write combining on extreme skew.
//
// The workload is the 99/1 hotspot mix ("hotspot" preset): 99% of ops hit
// a hot set of --hot-keys loaded keys (default 4 — small and ABSOLUTE on
// purpose, so many clients collide on each hot key and write windows
// actually collect followers). Three arms run on identical fresh systems:
//
//   adaptive      the adaptive router alone (rdwc off) — baseline
//   +delegation   hot keys promoted, ops that join a PUT's window QUEUE
//                 behind it (serialized CS-side, no remote CAS storm), but
//                 every op still issues its own remote work
//   +combining    write windows: each window is ONE locked write, and the
//                 PUTs and GETs that join it before its value is bound
//                 ride it (last writer wins)
//
// Table columns: windows = write windows opened (one per delegate PUT);
// followers = ops that joined one; gets-shared = GETs served by a write
// window; puts-combined = PUTs folded into a window's write; combined-wr =
// writes that folded at least one joined PUT; overflow = ops that found
// the window full and went direct.
//
// The runner CHECK-fails on any non-OK op, so a completing run is itself
// the zero-failed-ops gate. The combining_speedup gate enforces the
// headline claim: +combining >= 1.5x adaptive-only throughput (relaxed to
// >= 1.05x under --quick, whose tiny key count and short window leave the
// ratio noisy).
//
// A fourth segment re-runs the hotspot shape through the STRING API on a
// varlen tree (slotted leaves) with delegation + combining on: varlen
// windows pin the full byte key, and the gate asserts combining actually
// engages there (combined writes > 0) with zero failed ops.
//
// Flags (beyond bench/common.h): --shards=N --epoch-us=N --theta=F
//   --hot-keys=N --hot-share=F --promote=N --window-max=N
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "core/hybrid_system.h"
#include "util/random.h"

using namespace sherman;
using namespace sherman::bench;

namespace {

struct Arm {
  std::string name;
  bool delegation = false;
  bool combining = false;
};

struct VarCtx {
  bool stop = false;
  bool measuring = false;
  uint64_t ops = 0;
  uint64_t failed = 0;
};

// 7-digit decimal keys: every rank gets a DISTINCT routing key (first 8
// bytes), so each hot key promotes its own delegation entry and windows
// collect same-full-key followers instead of mismatch-bypassing.
std::string VarKeyFor(uint64_t rank) {
  char kb[24];  // room for any 64-bit rank
  std::snprintf(kb, sizeof(kb), "k%07llu",
                static_cast<unsigned long long>(rank));
  return std::string(kb);
}

sim::Task<void> VarHotLoop(route::HybridClient* c, uint64_t seed,
                           uint64_t keys, uint64_t hot, double hot_share,
                           VarCtx* ctx) {
  Random rng(seed);
  uint64_t i = 0;
  while (!ctx->stop) {
    const uint64_t rank = rng.NextDouble() < hot_share
                              ? rng.Uniform(hot)
                              : rng.Uniform(keys);
    const std::string key = VarKeyFor(rank);
    Status st;
    if (rng.Uniform(2) == 0) {
      std::string v = "w";
      v += std::to_string(i++);
      st = co_await c->InsertVar(Slice(key), Slice(v));
    } else {
      std::string v;
      st = co_await c->LookupVar(Slice(key), &v);
      if (st.IsNotFound()) st = Status::OK();  // cold key not yet written
    }
    if (!st.ok()) ctx->failed++;
    if (ctx->measuring) ctx->ops++;
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  BenchEnv env = BenchEnv::FromArgs(args);
  BenchTelemetry telemetry("rdwc", args);

  const int num_shards = static_cast<int>(args.GetInt("shards", 64));
  const sim::SimTime epoch_ns =
      static_cast<sim::SimTime>(args.GetInt("epoch-us", 1000)) * 1000;
  const double theta = args.GetDouble("theta", 0.99);
  const uint64_t hot_keys = static_cast<uint64_t>(args.GetInt("hot-keys", 4));
  const double hot_share = args.GetDouble("hot-share", 0.99);
  const uint32_t promote =
      static_cast<uint32_t>(args.GetInt("promote", 8));
  const uint32_t window_max =
      static_cast<uint32_t>(args.GetInt("window-max", 64));

  AddEnvConfig(&telemetry, env);
  telemetry.Config("shards", num_shards);
  telemetry.Config("epoch_ns", static_cast<uint64_t>(epoch_ns));
  telemetry.Config("theta", theta);
  telemetry.Config("hot_keys", hot_keys);
  telemetry.Config("hot_share", hot_share);
  telemetry.Config("promote_threshold", static_cast<uint64_t>(promote));
  telemetry.Config("window_max_ops", static_cast<uint64_t>(window_max));

  const std::vector<Arm> arms = {
      {"adaptive", false, false},
      {"+delegation", true, false},
      {"+combining", true, true},
  };

  Table table("hot-key delegation + combining (" + std::to_string(env.keys) +
              " keys, " + std::to_string(env.threads_per_cs) +
              " threads/CS, hot set " + std::to_string(hot_keys) + " keys @ " +
              Fmt(hot_share, 2) + ")");
  table.SetColumns({"arm", "Mops", "p50(us)", "p99(us)", "windows",
                    "followers", "gets-shared", "puts-combined",
                    "combined-wr", "overflow"});

  double adaptive_mops = 0, combining_mops = 0;
  for (const Arm& arm : arms) {
    HybridOptions opts;
    opts.tree = ShermanOptions();
    opts.tree.cache_bytes = env.cache_bytes;
    opts.router.policy = route::RouterOptions::Policy::kAdaptive;
    opts.router.num_shards = num_shards;
    opts.router.epoch_ns = epoch_ns;
    opts.rdwc.enable_delegation = arm.delegation;
    opts.rdwc.enable_combining = arm.combining;
    opts.rdwc.promote_threshold = promote;
    opts.rdwc.window_max_ops = window_max;

    HybridSystem system(env.FabricCfg(), opts);
    system.BulkLoad(MakeLoadKvs(env.keys), 0.8);

    WorkloadOptions parsed;
    const bool ok = ParseMix("hotspot", &parsed);
    SHERMAN_CHECK(ok);
    RunnerOptions r = env.Runner(parsed.mix, theta);
    r.workload.hotspot_share = hot_share;
    r.workload.hotspot_keys = hot_keys;

    const RunResult run = RunWorkload(&system, r);
    telemetry.AddRun(arm.name, run);
    const obs::MetricsSnapshot& m = run.metrics;
    table.AddRow({arm.name, Fmt(run.mops), Fmt(run.P50Us(), 1),
                  Fmt(run.P99Us(), 1),
                  std::to_string(m.counter("rdwc.windows_opened")),
                  std::to_string(m.counter("rdwc.followers_queued")),
                  std::to_string(m.counter("rdwc.gets_shared")),
                  std::to_string(m.counter("rdwc.puts_combined")),
                  std::to_string(m.counter("rdwc.combined_writes")),
                  std::to_string(m.counter("rdwc.bypass_overflow"))});
    if (arm.name == "adaptive") adaptive_mops = run.mops;
    if (arm.name == "+combining") combining_mops = run.mops;
  }
  table.Print();

  // --- varlen hot-key segment: string API, delegation + combining on ---
  uint64_t var_failed = 0;
  double var_mops = 0;
  obs::MetricsSnapshot var_metrics;  // the segment's registry once drained
  {
    HybridOptions opts;
    opts.tree = ShermanOptions();
    opts.tree.cache_bytes = env.cache_bytes;
    opts.tree.two_level_versions = false;  // varlen requires sorted leaves
    opts.tree.shape.varlen = true;
    opts.router.policy = route::RouterOptions::Policy::kAdaptive;
    opts.router.num_shards = num_shards;
    opts.router.epoch_ns = epoch_ns;
    opts.rdwc.enable_delegation = true;
    opts.rdwc.enable_combining = true;
    opts.rdwc.promote_threshold = promote;
    opts.rdwc.window_max_ops = window_max;

    HybridSystem system(env.FabricCfg(), opts);
    // String kvs are heavier to stage than u64 pairs; cap the loaded set.
    const uint64_t vkeys = std::min<uint64_t>(env.keys, 200'000);
    std::vector<std::pair<std::string, std::string>> kvs;
    kvs.reserve(vkeys);
    for (uint64_t i = 0; i < vkeys; i++) {
      kvs.emplace_back(VarKeyFor(i), "val" + std::to_string(i));
    }
    system.BulkLoadVar(kvs, 0.8);

    VarCtx ctx;
    for (int cs = 0; cs < system.num_clients(); cs++) {
      for (int t = 0; t < env.threads_per_cs; t++) {
        sim::Spawn(VarHotLoop(&system.client(cs), ClientSeed(env.seed, cs, t),
                              vkeys, hot_keys, hot_share, &ctx));
      }
    }
    sim::Simulator& sim = system.simulator();
    const sim::SimTime t0 = sim.now();
    sim.At(t0 + env.warmup_ns, [&ctx] { ctx.measuring = true; });
    sim.At(t0 + env.warmup_ns + env.measure_ns, [&ctx] { ctx.stop = true; });
    sim.Run();

    var_failed = ctx.failed;
    var_mops = static_cast<double>(ctx.ops) * 1000.0 /
               static_cast<double>(env.measure_ns);
    var_metrics = system.sherman().registry().Snapshot();
    system.sherman().DebugCheckInvariants();
  }
  const uint64_t var_windows = var_metrics.counter("rdwc.windows_opened");
  const uint64_t var_combined = var_metrics.counter("rdwc.combined_writes");
  const uint64_t var_mismatch = var_metrics.counter("rdwc.var_key_mismatch");
  std::printf(
      "\nvarlen hot-key segment: %.2f Mops, %llu failed, windows %llu, "
      "followers %llu, puts-combined %llu, combined-wr %llu, "
      "key-mismatch %llu\n",
      var_mops, static_cast<unsigned long long>(var_failed),
      static_cast<unsigned long long>(var_windows),
      static_cast<unsigned long long>(
          var_metrics.counter("rdwc.followers_queued")),
      static_cast<unsigned long long>(
          var_metrics.counter("rdwc.puts_combined")),
      static_cast<unsigned long long>(var_combined),
      static_cast<unsigned long long>(var_mismatch));
  telemetry.Metric("varlen_mops", var_mops);
  telemetry.CounterMetric("varlen_failed_ops", var_failed);
  telemetry.CounterMetric("varlen_windows_opened", var_windows);
  telemetry.CounterMetric("varlen_combined_writes", var_combined);
  telemetry.CounterMetric("varlen_key_mismatch", var_mismatch);

  const double speedup =
      adaptive_mops > 0 ? combining_mops / adaptive_mops : 0;
  const double bar = env.quick ? 1.05 : 1.5;
  std::printf("\ncombining speedup over adaptive-only: %.2fx (gate >= %.2fx)\n",
              speedup, bar);
  telemetry.Gate("combining_speedup", speedup >= bar, speedup);
  const bool var_ok = var_combined > 0 && var_failed == 0;
  telemetry.Gate("varlen_combining_engaged", var_ok,
                 static_cast<double>(var_combined));
  if (speedup < bar) {
    std::printf("FAIL: combining speedup %.2fx below the %.2fx gate\n",
                speedup, bar);
    return 1;
  }
  if (!var_ok) {
    std::printf("FAIL: varlen combining gate (combined writes %llu, "
                "failed ops %llu)\n",
                static_cast<unsigned long long>(var_combined),
                static_cast<unsigned long long>(var_failed));
    return 1;
  }
  return 0;
}
