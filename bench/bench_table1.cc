// Table 1: index performance of the one-sided approach (FG+).
//
// Paper setup: 100 Gbps ConnectX-5, 8 MSs, 8 CSs with 176 client threads,
// 8/8-byte key/value, 1-billion-key space. Reported:
//
//              read-intensive        write-intensive
//              uniform   skew        uniform   skew
//   Mops       31.8      32.9        18.7      0.34
//   p50 (us)   4.9       4.7         9.5       10
//   p90 (us)   6.4       6.2         14.3      68.7
//   p99 (us)   14.9      15.3        19        19890
//
// We run the same grid on the simulated fabric (4M keys at full size
// against the paper's 1 billion; see bench/common.h) and expect the same
// shape: high read throughput everywhere, moderate uniform-write
// throughput, and a collapse (orders of magnitude in both throughput and
// tail latency) under skewed writes.
#include <cstdio>

#include "common.h"

using namespace sherman;
using namespace sherman::bench;

int main(int argc, char** argv) {
  Args args(argc, argv);
  BenchEnv env = BenchEnv::FromArgs(args);
  BenchTelemetry telemetry("table1", args);
  AddEnvConfig(&telemetry, env);

  struct Cell {
    const char* workload;
    WorkloadMix mix;
    const char* pop;
    double theta;
    double paper_mops, paper_p50, paper_p90, paper_p99;
  };
  const Cell cells[] = {
      {"read-intensive", WorkloadMix::ReadIntensive(), "uniform", 0.0, 31.8,
       4.9, 6.4, 14.9},
      {"read-intensive", WorkloadMix::ReadIntensive(), "skew", 0.99, 32.9, 4.7,
       6.2, 15.3},
      {"write-intensive", WorkloadMix::WriteIntensive(), "uniform", 0.0, 18.7,
       9.5, 14.3, 19.0},
      {"write-intensive", WorkloadMix::WriteIntensive(), "skew", 0.99, 0.34,
       10.0, 68.7, 19890.0},
  };

  Table table("Table 1: FG+ (one-sided approach) performance");
  table.SetColumns({"workload", "popularity", "Mops", "p50(us)", "p90(us)",
                    "p99(us)", "paper Mops", "paper p99(us)"});

  for (const Cell& c : cells) {
    auto system = env.MakeSystem(FgPlusOptions());
    RunResult r = RunWorkload(system.get(), env.Runner(c.mix, c.theta));
    telemetry.AddRun(std::string(c.workload) + "/" + c.pop, r);
    table.AddRow({c.workload, c.pop, Fmt(r.mops), Fmt(r.P50Us()),
                  Fmt(r.P90Us()), Fmt(r.P99Us()), Fmt(c.paper_mops),
                  Fmt(c.paper_p99)});
    std::fprintf(stderr, "[table1] %s/%s done: %.2f Mops (%llu ops)\n",
                 c.workload, c.pop, r.mops,
                 static_cast<unsigned long long>(r.stats.ops));
  }
  table.Print();
  return 0;
}
