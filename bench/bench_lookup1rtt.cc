// bench_lookup1rtt: 1-RTT point lookups via the leaf-hint sidecar.
//
// The scenario hints exist for: a client with a COLD index cache (fresh
// connection, post-failover, cache thrashed by a scan) doing uniform point
// GETs. Without hints every lookup pays a full root-to-leaf traversal
// (height READs); with hints the client consults its local mirror of the
// MS-resident hint tables and issues ONE fingerprint-validated READ to the
// hinted leaf, falling back to traversal only on a stale/missing hint.
//
// Two arms on identical fresh systems, index cache OFF in both (so every
// op is the cold-cache case):
//
//   traverse   enable_leaf_hints off — the no-hint baseline
//   hints      enable_leaf_hints on — mirror consult + 1 validated READ
//
// Workload: 100% lookups, uniform popularity (zipf theta 0) — the
// adversarial shape for any hot-path cache and the best case for a
// whole-universe hint table. The runner CHECK-fails on any non-OK op, so
// a completing run is itself the zero-failed-ops gate (recorded as the
// `zero_failed_ops` telemetry gate).
//
// Gates (the ISSUE's acceptance bars):
//   reads_per_get <= 1.3   amortized RDMA READs per GET with hints on
//                          (1 leaf READ + amortized mirror refreshes)
//   hint_hit_rate >= 0.90  hint.served / hint.consults, quiescent tree
//   hint_speedup  >= 1.3x  hints throughput over the traverse baseline
//                          (relaxed to 1.1x under --quick: the short
//                          window leaves the mirror-fetch cost visible)
//   hint_refreshes_total <= num_cs
//                          mirror fetches over the whole hints run, warm-up
//                          included: the mirror is one per CS and the
//                          tables stay quiescent, so each CS fetches once
//
// Flags (beyond bench/common.h): --refresh-miss=N
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"

using namespace sherman;
using namespace sherman::bench;

int main(int argc, char** argv) {
  Args args(argc, argv);
  BenchEnv env = BenchEnv::FromArgs(args);
  BenchTelemetry telemetry("lookup1rtt", args);

  const uint32_t refresh_miss =
      static_cast<uint32_t>(args.GetInt("refresh-miss", 8));

  AddEnvConfig(&telemetry, env);
  telemetry.Config("refresh_miss_threshold",
                   static_cast<uint64_t>(refresh_miss));

  struct Arm {
    std::string name;
    bool hints = false;
  };
  const std::vector<Arm> arms = {{"traverse", false}, {"hints", true}};

  Table table("cold-cache uniform GET: traversal vs leaf-hint sidecar (" +
              std::to_string(env.keys) + " keys, " +
              std::to_string(env.threads_per_cs) + " threads/CS)");
  table.SetColumns({"arm", "Mops", "p50(us)", "p99(us)", "reads/op",
                    "consults", "served", "stale", "chases", "refreshes"});

  double traverse_mops = 0, hints_mops = 0;
  double reads_per_get = 0, hit_rate = 0;
  uint64_t hint_refreshes_total = 0;
  for (const Arm& arm : arms) {
    TreeOptions topt = ShermanOptions();
    // COLD cache by construction: the index cache is disabled outright,
    // so every lookup is the uncached path the sidecar targets.
    topt.enable_cache = false;
    topt.cache_bytes = 0;
    topt.enable_leaf_hints = arm.hints;
    topt.hint_refresh_miss_threshold = refresh_miss;

    ShermanSystem system(env.FabricCfg(), topt);
    system.BulkLoad(MakeLoadKvs(env.keys), 0.8);

    RunnerOptions r = env.Runner(WorkloadMix{0, 1.0, 0, 0}, /*theta=*/0);
    const RunResult run = RunWorkload(&system, r);
    telemetry.AddRun(arm.name, run);

    const obs::MetricsSnapshot& m = run.metrics;
    const uint64_t ops = run.stats.ops;
    const double rpo =
        ops > 0 ? static_cast<double>(m.counter("rdma.reads")) /
                      static_cast<double>(ops)
                : 0;
    const uint64_t consults = m.counter("hint.consults");
    const uint64_t served = m.counter("hint.served");
    // Mirror fetches over the whole run: the window's hint.refreshes
    // counter misses the cold-start fetches made during warm-up.
    const uint64_t refreshes =
        system.registry().Snapshot().counter("hint.refreshes");
    table.AddRow({arm.name, Fmt(run.mops), Fmt(run.P50Us(), 1),
                  Fmt(run.P99Us(), 1), Fmt(rpo, 2), std::to_string(consults),
                  std::to_string(served), std::to_string(m.counter("hint.stale")),
                  std::to_string(m.counter("hint.chases")),
                  std::to_string(refreshes)});
    if (arm.hints) {
      hint_refreshes_total = refreshes;
      hints_mops = run.mops;
      reads_per_get = rpo;
      hit_rate = consults > 0 ? static_cast<double>(served) /
                                    static_cast<double>(consults)
                              : 0;
    } else {
      traverse_mops = run.mops;
    }
  }
  table.Print();

  const double speedup = traverse_mops > 0 ? hints_mops / traverse_mops : 0;
  const double speedup_bar = env.quick ? 1.1 : 1.3;
  const uint64_t refresh_bar = static_cast<uint64_t>(env.num_cs);
  std::printf(
      "\nhints: %.2f READs/GET (gate <= 1.30), hit rate %.3f (gate >= 0.90), "
      "speedup %.2fx over traversal (gate >= %.2fx), %llu mirror fetches "
      "in the whole run (gate <= %llu)\n",
      reads_per_get, hit_rate, speedup, speedup_bar,
      static_cast<unsigned long long>(hint_refreshes_total),
      static_cast<unsigned long long>(refresh_bar));

  telemetry.Metric("reads_per_get", reads_per_get);
  telemetry.Metric("hint_hit_rate", hit_rate);
  telemetry.Metric("hint_speedup", speedup);
  telemetry.CounterMetric("hint_refreshes_total", hint_refreshes_total);
  // Both runs completed — the runner CHECK-aborts on any failed op.
  telemetry.Gate("zero_failed_ops", true, 0);
  telemetry.Gate("reads_per_get_le_1_3", reads_per_get <= 1.3, reads_per_get);
  telemetry.Gate("hint_hit_rate_ge_090", hit_rate >= 0.90, hit_rate);
  telemetry.Gate("hint_speedup", speedup >= speedup_bar, speedup);
  telemetry.Gate("hint_refreshes_le_num_cs",
                 hint_refreshes_total <= refresh_bar,
                 static_cast<double>(hint_refreshes_total));

  int rc = 0;
  if (reads_per_get > 1.3) {
    std::printf("FAIL: %.2f READs per cold-cache GET above the 1.30 gate\n",
                reads_per_get);
    rc = 1;
  }
  if (hit_rate < 0.90) {
    std::printf("FAIL: hint hit rate %.3f below the 0.90 gate\n", hit_rate);
    rc = 1;
  }
  if (speedup < speedup_bar) {
    std::printf("FAIL: hint speedup %.2fx below the %.2fx gate\n", speedup,
                speedup_bar);
    rc = 1;
  }
  if (hint_refreshes_total > refresh_bar) {
    std::printf("FAIL: %llu mirror fetches over %llu compute servers\n",
                static_cast<unsigned long long>(hint_refreshes_total),
                static_cast<unsigned long long>(refresh_bar));
    rc = 1;
  }
  return rc;
}
