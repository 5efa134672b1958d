// Figure 16: HOCL ablation with skewed lock popularity (0.99), 176 threads
// across 8 CSs, 10240 locks on one MS:
//   Baseline (host flat CAS) -> On-Chip -> Hierarchical Structure ->
//   Wait Queue -> Handover.
//
// Paper: 0.85 -> ... -> 21.98 Mops overall; on-chip improves throughput
// 2.89x; the hierarchical structure 3.85x; wait queues cut p99 414 -> 372
// us; handover adds another 2.34x with 3.19x lower p99 (final p50 3.6 us,
// p99 117 us).
//
// Gate (exit 1 on failure, --quick included): each stage's claim as an
// ordering. On-Chip and then Hierarchical raise Mops, Wait Queue lowers
// p99 below Hierarchical's, and Handover beats Wait Queue on both.
#include "common.h"
#include "lock_bench.h"

using namespace sherman;
using namespace sherman::bench;

int main(int argc, char** argv) {
  Args args(argc, argv);
  const bool quick = args.Has("quick");
  BenchTelemetry telemetry("fig16", args);
  telemetry.Config("quick", quick);
  telemetry.Config("seed", args.GetInt("seed", 42));

  struct Stage {
    const char* name;
    const char* paper;
    HoclOptions lock;
  };
  HoclOptions base;
  base.onchip = false;
  base.hierarchical = false;
  base.wait_queue = false;
  base.handover = false;

  HoclOptions onchip = base;
  onchip.onchip = true;

  HoclOptions hier = onchip;
  hier.hierarchical = true;  // local locks, but spinning (no queue)

  HoclOptions wq = hier;
  wq.wait_queue = true;

  HoclOptions full = wq;
  full.handover = true;

  const Stage stages[] = {
      {"Baseline", "0.85 Mops", base},
      {"On-Chip", "2.89x thr", onchip},
      {"Hierarchical", "3.85x thr", hier},
      {"Wait Queue", "p99 414->372us", wq},
      {"Handover", "21.98 Mops, p99 117us", full},
  };

  Table table("Figure 16: HOCL ablation (skew 0.99, 176 threads, 10240 locks)");
  table.SetColumns({"stage", "Mops", "p50(us)", "p99(us)", "handovers",
                    "cas failures", "paper"});
  double mops[5];
  double p99_us[5];
  for (int i = 0; i < 5; i++) {
    const Stage& s = stages[i];
    LockBenchOptions opt;
    opt.num_cs = 8;
    opt.threads_per_cs = 22;
    opt.zipf_theta = 0.99;
    opt.lock = s.lock;
    opt.measure_ns = quick ? 4'000'000 : 10'000'000;
    opt.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
    const LockBenchResult r = RunLockBench(opt);
    mops[i] = r.mops;
    p99_us[i] = static_cast<double>(r.latency_ns.P99()) / 1000.0;
    telemetry.Metric(std::string("fig16.mops/") + s.name, mops[i]);
    telemetry.Metric(std::string("fig16.p99_us/") + s.name, p99_us[i]);
    telemetry.CounterMetric(std::string("fig16.handovers/") + s.name,
                            r.handovers);
    table.AddRow({s.name, Fmt(r.mops), FmtUs(r.latency_ns.P50()),
                  FmtUs(r.latency_ns.P99()), std::to_string(r.handovers),
                  std::to_string(r.cas_failures), s.paper});
    std::fprintf(stderr, "[fig16] %s done (%.2f Mops)\n", s.name, r.mops);
  }
  table.Print();

  // Stages: 0 Baseline, 1 On-Chip, 2 Hierarchical, 3 Wait Queue, 4 Handover.
  const bool onchip_ok = mops[1] > mops[0];
  const bool hier_ok = mops[2] > mops[1];
  const bool wq_ok = p99_us[3] < p99_us[2];
  const bool handover_ok = mops[4] > mops[3] && p99_us[4] < p99_us[3];
  telemetry.Gate("onchip_mops_gt_baseline", onchip_ok, mops[1] / mops[0]);
  telemetry.Gate("hierarchical_mops_gt_onchip", hier_ok, mops[2] / mops[1]);
  telemetry.Gate("waitqueue_p99_lt_hierarchical", wq_ok,
                 p99_us[3] / p99_us[2]);
  telemetry.Gate("handover_beats_waitqueue", handover_ok,
                 mops[4] / mops[3]);
  std::printf("\nOn-Chip > Baseline Mops (gate): %.2fx %s\n"
              "Hierarchical > On-Chip Mops (gate): %.2fx %s\n"
              "Wait Queue < Hierarchical p99 (gate): %.1f < %.1f us %s\n"
              "Handover > Wait Queue Mops, < its p99 (gate): %.2fx, "
              "%.1f < %.1f us %s\n",
              mops[1] / mops[0], onchip_ok ? "yes" : "no", mops[2] / mops[1],
              hier_ok ? "yes" : "no", p99_us[3], p99_us[2],
              wq_ok ? "yes" : "no", mops[4] / mops[3], p99_us[4], p99_us[3],
              handover_ok ? "yes" : "no");
  if (onchip_ok && hier_ok && wq_ok && handover_ok) return 0;
  std::printf("FAIL: Fig. 16 HOCL ablation gate\n");
  return 1;
}
