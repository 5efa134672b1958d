// Figure 10: contribution of each technique under SKEWED workloads
// (Zipfian 0.99): FG+ -> +Combine -> +On-Chip -> +Hierarchical ->
// +2-Level Ver (= Sherman), for write-only / write-intensive /
// read-intensive mixes.
//
// Paper headline: on write-only, Sherman reaches 4.14 Mops vs FG+'s 0.168
// (24.7x) with p99 dropping from 40632 us to 1136 us; on write-intensive,
// 8.02 vs 0.34 Mops with p99 19890 -> 659 us; read-intensive is roughly
// flat in throughput with lower p99 (15.3 -> 12.3 us).
#include "common.h"

using namespace sherman;
using namespace sherman::bench;

int main(int argc, char** argv) {
  Args args(argc, argv);
  BenchEnv env = BenchEnv::FromArgs(args);
  const double theta = args.GetDouble("theta", 0.99);
  BenchTelemetry telemetry("fig10", args);
  AddEnvConfig(&telemetry, env);
  telemetry.Config("theta", theta);

  struct Wl {
    const char* name;
    WorkloadMix mix;
    double paper_fg_mops, paper_sherman_mops;
  };
  const Wl workloads[] = {
      {"write-only", WorkloadMix::WriteOnly(), 0.168, 4.142},
      {"write-intensive", WorkloadMix::WriteIntensive(), 0.34, 8.02},
      {"read-intensive", WorkloadMix::ReadIntensive(), 32.9, 33.8},
  };

  for (const Wl& wl : workloads) {
    Table table(std::string("Figure 10 (skew ") + Fmt(theta, 2) + "): " +
                wl.name);
    table.SetColumns(
        {"stage", "Mops", "p50(us)", "p99(us)", "handovers", "paper ref"});
    for (const NamedPreset& stage : AblationStages()) {
      auto system = env.MakeSystem(stage.options);
      const RunResult r = RunWorkload(system.get(), env.Runner(wl.mix, theta));
      telemetry.AddRun(std::string(wl.name) + "/" + stage.name, r);
      std::string ref = "-";
      if (stage.name == "FG+") ref = Fmt(wl.paper_fg_mops) + " Mops";
      if (stage.name == "+2-Level Ver") {
        ref = Fmt(wl.paper_sherman_mops) + " Mops";
      }
      table.AddRow({stage.name, Fmt(r.mops), Fmt(r.P50Us()), Fmt(r.P99Us()),
                    std::to_string(r.metrics.counter("lock.handovers")),
                    ref});
      std::fprintf(stderr, "[fig10] %s / %s done (%.2f Mops)\n", wl.name,
                   stage.name.c_str(), r.mops);
    }
    table.Print();
  }
  return 0;
}
