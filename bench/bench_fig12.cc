// Figure 12: range query performance, FG+ vs Sherman, range sizes 100 and
// 1000, under (a) range-only and (b) range-write (50% insert / 50% range)
// workloads with skewed access.
//
// Paper: (a) FG+ edges Sherman by ~2% at range 100 (unsorted-leaf scan
// overhead); both converge at range 1000 (bandwidth-bound). (b) Sherman
// wins by up to 1.82x — its writes free network resources for ranges.
//
// Gate (exit 1 on failure, --quick included): Sherman >= FG+ on both
// range-write cells.
#include "common.h"

using namespace sherman;
using namespace sherman::bench;

int main(int argc, char** argv) {
  Args args(argc, argv);
  BenchEnv env = BenchEnv::FromArgs(args);
  const double theta = args.GetDouble("theta", 0.99);
  BenchTelemetry telemetry("fig12", args);
  AddEnvConfig(&telemetry, env);
  telemetry.Config("theta", theta);

  struct Cell {
    const char* workload;
    WorkloadMix mix;
    uint32_t range;
    const char* paper_note;
  };
  const Cell cells[] = {
      {"range-only", WorkloadMix::RangeOnly(), 100, "FG+ ~2% ahead"},
      {"range-only", WorkloadMix::RangeOnly(), 1000, "converge (BW-bound)"},
      {"range-write", WorkloadMix::RangeWrite(), 100, "Sherman up to 1.82x"},
      {"range-write", WorkloadMix::RangeWrite(), 1000, "Sherman ahead"},
  };

  bool range_write_ok = true;
  Table table("Figure 12: range query throughput (Mops)");
  table.SetColumns({"workload", "range size", "FG+", "Sherman",
                    "Sherman/FG+", "paper"});
  for (const Cell& c : cells) {
    double mops[2] = {0, 0};
    int i = 0;
    for (const TreeOptions& topt : {FgPlusOptions(), ShermanOptions()}) {
      auto system = env.MakeSystem(topt);
      RunnerOptions ropt = env.Runner(c.mix, theta);
      ropt.workload.range_size = c.range;
      const RunResult r = RunWorkload(system.get(), ropt);
      telemetry.AddRun(std::string(c.workload) + "/range" +
                           std::to_string(c.range) +
                           (i == 0 ? "/fg+" : "/sherman"),
                       r);
      mops[i++] = r.mops;
      std::fprintf(stderr, "[fig12] %s range=%u %s done (%.3f Mops)\n",
                   c.workload, c.range, i == 1 ? "FG+" : "Sherman", r.mops);
    }
    const double ratio = mops[1] / std::max(mops[0], 1e-9);
    table.AddRow({c.workload, std::to_string(c.range), Fmt(mops[0], 3),
                  Fmt(mops[1], 3), Fmt(ratio), c.paper_note});
    if (std::string(c.workload) == "range-write") {
      const bool ok = mops[1] >= mops[0];
      telemetry.Gate("b.sherman_ge_fgplus@range" + std::to_string(c.range),
                     ok, ratio);
      range_write_ok = range_write_ok && ok;
    }
  }
  table.Print();
  std::printf("\n(b) range-write: Sherman >= FG+ at both range sizes "
              "(gate): %s\n", range_write_ok ? "yes" : "no");
  if (range_write_ok) return 0;
  std::printf("FAIL: Fig. 12(b) range-write gate\n");
  return 1;
}
