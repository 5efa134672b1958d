// contention_study: why write-optimization matters on disaggregated
// memory. Runs the same skewed write-heavy workload against the FG+
// baseline and Sherman (plus each intermediate ablation stage) on
// identical fabrics, and prints the incremental gains — a miniature of the
// paper's Figure 10 you can tweak interactively (e.g. --theta=0.9).
#include <cstdio>
#include <string>

#include "bench/report.h"
#include "bench/runner.h"
#include "core/presets.h"

using namespace sherman;
using namespace sherman::bench;

int main(int argc, char** argv) {
  Args args(argc, argv);
  const double theta = args.GetDouble("theta", 0.99);
  const uint64_t keys = static_cast<uint64_t>(args.GetInt("keys", 500'000));

  std::printf("Skewed (theta=%.2f) write-intensive workload, %llu keys,\n"
              "4 memory servers, 4 compute servers, 64 client threads.\n",
              theta, static_cast<unsigned long long>(keys));

  Table table("Write-optimization techniques, applied one by one");
  table.SetColumns({"configuration", "Mops", "p50(us)", "p99(us)",
                    "lock handovers", "vs FG+"});
  double fg_mops = 0;
  for (const NamedPreset& stage : AblationStages()) {
    rdma::FabricConfig fabric;
    fabric.num_memory_servers = 4;
    fabric.num_compute_servers = 4;
    fabric.ms_memory_bytes = 128ull << 20;
    ShermanSystem system(fabric, stage.options);
    system.BulkLoad(MakeLoadKvs(keys), 0.8);

    RunnerOptions ropt;
    ropt.threads_per_cs = 16;
    ropt.workload.loaded_keys = keys;
    ropt.workload.zipf_theta = theta;
    ropt.workload.mix = WorkloadMix::WriteIntensive();
    ropt.warmup_ns = 1'000'000;
    ropt.measure_ns = 8'000'000;
    const RunResult r = RunWorkload(&system, ropt);
    if (stage.name == "FG+") fg_mops = r.mops;
    table.AddRow({stage.name, Fmt(r.mops), Fmt(r.P50Us()), Fmt(r.P99Us()),
                  std::to_string(r.metrics.counter("lock.handovers")),
                  Fmt(r.mops / std::max(fg_mops, 1e-9), 1) + "x"});
    std::fprintf(stderr, "  %s done (%.2f Mops)\n", stage.name.c_str(),
                 r.mops);
  }
  table.Print();
  std::printf(
      "\nReading the table: command combination shortens critical paths,\n"
      "on-chip locks remove PCIe from lock hot paths, the hierarchical\n"
      "structure + handover absorb same-CS contention locally, and\n"
      "two-level versions shrink write-backs from node- to entry-size.\n");
  return 0;
}
