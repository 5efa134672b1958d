// bench_hybrid: the adaptive hybrid router vs both pure paths.
//
// Three scenarios by default (override with --mix / --theta / --cache-kb):
//   skewed-write   write-intensive, Zipfian .99, warm cache — Sherman's
//                  home turf: hot contended shards must stay one-sided.
//   uniform-read   read-intensive, uniform, starved index cache — every
//                  one-sided lookup pays the full descent in round trips,
//                  so cold shards should offload to the MS-side executor.
//   hotspot-drift  write-intensive, Zipfian .99, hot set rotating every
//                  --drift-ops ops per client — the router must re-plan
//                  as shards change temperature.
//
// For each scenario three policies run on identical fresh systems:
// one-sided (pure Sherman), rpc (everything through the memory threads),
// and adaptive. The per-epoch routing log of the adaptive run is printed
// so the shard migration is visible.
//
// Flags (beyond bench/common.h): --shards=N --epoch-us=N --cache-kb=N
//   --drift-ops=N --mix=NAME --theta=F --no-epoch-log
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/hybrid_system.h"

using namespace sherman;
using namespace sherman::bench;

namespace {

struct Scenario {
  std::string name;
  WorkloadMix mix;
  double theta = 0;
  uint64_t cache_bytes = 4ull << 20;
  uint64_t drift_ops = 0;
};

struct PolicyResult {
  std::string policy;
  RunResult run;
};

PolicyResult RunPolicy(const BenchEnv& env, const Scenario& sc,
                       route::RouterOptions::Policy policy, int num_shards,
                       sim::SimTime epoch_ns, bool print_epoch_log) {
  HybridOptions opts;
  opts.tree = ShermanOptions();
  opts.tree.cache_bytes = sc.cache_bytes;
  opts.tree.enable_cache = sc.cache_bytes > 0;
  opts.router.policy = policy;
  opts.router.num_shards = num_shards;
  opts.router.epoch_ns = epoch_ns;

  HybridSystem system(env.FabricCfg(), opts);
  system.BulkLoad(MakeLoadKvs(env.keys), 0.8);

  RunnerOptions r = env.Runner(sc.mix, sc.theta);
  r.workload.hotspot_drift_ops = sc.drift_ops;

  PolicyResult out;
  switch (policy) {
    case route::RouterOptions::Policy::kAllOneSided:
      out.policy = "one-sided";
      break;
    case route::RouterOptions::Policy::kAllRpc:
      out.policy = "rpc";
      break;
    case route::RouterOptions::Policy::kAdaptive:
      out.policy = "adaptive";
      break;
  }
  out.run = RunWorkload(&system, r);

  if (print_epoch_log &&
      policy == route::RouterOptions::Policy::kAdaptive &&
      !system.router().epoch_log().empty()) {
    Table log("per-epoch routing (" + sc.name + ")");
    log.SetColumns({"epoch", "t(ms)", "one-sided", "rpc", "flips",
                    "rpc-share", "max-queue(us)"});
    for (const route::EpochRecord& e : system.router().epoch_log()) {
      log.AddRow({std::to_string(e.epoch), Fmt(e.at_ns / 1e6, 1),
                  std::to_string(e.shards_one_sided),
                  std::to_string(e.shards_rpc), std::to_string(e.flips),
                  Fmt(e.window_rpc_share, 2), Fmt(e.max_ms_backlog_us, 1)});
    }
    log.Print();
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  BenchEnv env = BenchEnv::FromArgs(args);
  BenchTelemetry telemetry("hybrid", args);
  // The hybrid trade-off is most visible at moderate client counts, where
  // the memory threads' capacity is a meaningful fraction of demand.
  if (!args.Has("threads")) env.threads_per_cs = 8;

  const int num_shards = static_cast<int>(args.GetInt("shards", 64));
  const sim::SimTime epoch_ns =
      static_cast<sim::SimTime>(args.GetInt("epoch-us", 1000)) * 1000;
  const uint64_t drift_ops =
      static_cast<uint64_t>(args.GetInt("drift-ops", 400));
  const bool epoch_log = !args.Has("no-epoch-log");

  AddEnvConfig(&telemetry, env);
  telemetry.Config("shards", num_shards);
  telemetry.Config("epoch_ns", static_cast<uint64_t>(epoch_ns));
  telemetry.Config("drift_ops", drift_ops);

  std::vector<Scenario> scenarios;
  const std::string mix_name = args.GetString("mix", "");
  if (!mix_name.empty()) {
    Scenario sc;
    sc.name = mix_name;
    WorkloadOptions parsed;
    if (!ParseMix(mix_name, &parsed)) {
      std::fprintf(stderr, "unknown mix '%s'\n", mix_name.c_str());
      return 1;
    }
    sc.mix = parsed.mix;
    sc.theta = args.GetDouble("theta", 0.99);
    sc.cache_bytes =
        static_cast<uint64_t>(args.GetInt("cache-kb", 4096)) << 10;
    if (parsed.hotspot_drift_ops > 0) sc.drift_ops = drift_ops;
    scenarios.push_back(sc);
  } else {
    scenarios.push_back(
        {"skewed-write", WorkloadMix::WriteIntensive(), 0.99, 4ull << 20, 0});
    scenarios.push_back(
        {"uniform-read", WorkloadMix::ReadIntensive(), 0.0, 0, 0});
    scenarios.push_back({"hotspot-drift", WorkloadMix::WriteIntensive(), 0.99,
                         4ull << 20, drift_ops});
  }

  Table table("adaptive hybrid offload (" + std::to_string(env.keys) +
              " keys, " + std::to_string(env.threads_per_cs) +
              " threads/CS, " + std::to_string(num_shards) + " shards, " +
              std::to_string(epoch_ns / 1000) + " us epochs)");
  table.SetColumns({"scenario", "policy", "Mops", "p50(us)", "p99(us)",
                    "rpc-share", "os-lat(us)", "rpc-lat(us)", "fallbacks",
                    "epochs", "flips"});

  for (const Scenario& sc : scenarios) {
    for (const auto policy : {route::RouterOptions::Policy::kAllOneSided,
                              route::RouterOptions::Policy::kAllRpc,
                              route::RouterOptions::Policy::kAdaptive}) {
      PolicyResult r =
          RunPolicy(env, sc, policy, num_shards, epoch_ns, epoch_log);
      telemetry.AddRun(sc.name + "/" + r.policy, r.run);
      const obs::MetricsSnapshot& m = r.run.metrics;
      const uint64_t os = m.counter("route.ops_one_sided");
      const uint64_t rpc = m.counter("route.ops_rpc");
      table.AddRow(
          {sc.name, r.policy, Fmt(r.run.mops), Fmt(r.run.P50Us(), 1),
           Fmt(r.run.P99Us(), 1), Fmt(Ratio(rpc, os + rpc), 2),
           Fmt(Ratio(m.counter("route.lat_one_sided_ns"), os) / 1000.0, 1),
           Fmt(Ratio(m.counter("route.lat_rpc_ns"), rpc) / 1000.0, 1),
           std::to_string(m.counter("route.rpc_fallbacks")),
           std::to_string(m.counter("route.epochs")),
           std::to_string(m.counter("route.shard_flips"))});
    }
  }
  table.Print();
  return 0;
}
