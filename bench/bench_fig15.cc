// Figure 15: sensitivity analysis.
//  (a) key size, uniform write-intensive   — paper: both drop as keys grow;
//      Sherman's advantage widens from 1.17x (16 B) to 1.47x (1 KB);
//  (b) key size, skewed                    — FG+ flat (collapsed); Sherman
//      ~1.4x even at 1 KB keys;
//  (c) index cache size                    — throughput and hit ratio grow
//      with capacity; ~80% of the level-1 working set gives ~98% hits.
//
// As in the paper, (a)/(b) fix 32 entries per leaf by growing the node
// with the key, and load a 5x smaller dataset.
#include "common.h"

using namespace sherman;
using namespace sherman::bench;

int main(int argc, char** argv) {
  Args args(argc, argv);
  BenchEnv env = BenchEnv::FromArgs(args);
  BenchTelemetry telemetry("fig15", args);
  AddEnvConfig(&telemetry, env);

  // --- (a)+(b): key size sweeps ---
  const uint64_t keys_ab = env.keys / 5;
  const std::vector<uint32_t> key_sizes =
      env.quick ? std::vector<uint32_t>{16, 128, 1024}
                : std::vector<uint32_t>{16, 32, 64, 128, 256, 512, 1024};

  for (const bool skewed : {false, true}) {
    Table table(std::string("Figure 15(") + (skewed ? "b" : "a") +
                "): key size sweep, write-intensive, " +
                (skewed ? "skew 0.99" : "uniform"));
    table.SetColumns({"key size (B)", "FG+ Mops", "Sherman Mops", "ratio",
                      "paper ratio"});
    for (uint32_t key_size : key_sizes) {
      double mops[2] = {0, 0};
      int i = 0;
      for (TreeOptions topt : {FgPlusOptions(), ShermanOptions()}) {
        topt.shape.key_size = key_size;
        topt.shape.node_size = 64 + 32 * topt.shape.leaf_entry_size();
        topt.cache_bytes = env.cache_bytes * 8;  // wider nodes, same coverage
        BenchEnv e2 = env;
        e2.keys = keys_ab;
        e2.cache_bytes = topt.cache_bytes;
        auto system = e2.MakeSystem(topt);
        RunnerOptions ropt = e2.Runner(WorkloadMix::WriteIntensive(),
                                       skewed ? 0.99 : 0.0);
        const RunResult r = RunWorkload(system.get(), ropt);
        telemetry.AddRun(std::string(skewed ? "b" : "a") + "/key" +
                             std::to_string(key_size) +
                             (i == 0 ? "/fg+" : "/sherman"),
                         r);
        mops[i++] = r.mops;
      }
      const char* paper_ratio =
          skewed ? (key_size >= 1024 ? "1.40" : "-")
                 : (key_size <= 16 ? "1.17" : (key_size >= 1024 ? "1.47" : "-"));
      table.AddRow({std::to_string(key_size), Fmt(mops[0]), Fmt(mops[1]),
                    Fmt(mops[1] / std::max(mops[0], 1e-9)), paper_ratio});
      std::fprintf(stderr, "[fig15%s] key=%u done (FG+ %.2f, Sherman %.2f)\n",
                   skewed ? "b" : "a", key_size, mops[0], mops[1]);
    }
    table.Print();
  }

  // --- (c): index cache size sweep (Sherman, uniform write-intensive) ---
  // The paper sweeps 100-500 MB against a ~480 MB level-1 working set
  // (1 B keys); we sweep the same *fractions* of our scaled working set.
  const uint64_t level1_bytes =
      env.keys / 43 / 49 * 1024;  // leaves / fanout * node size, approx
  Table table("Figure 15(c): index cache size sweep (Sherman, uniform "
              "write-intensive; paper: ~98% hits at ~80% of working set)");
  table.SetColumns({"cache (KB)", "working-set %", "Mops", "hit ratio"});
  for (double frac : {0.2, 0.4, 0.6, 0.8, 1.0, 2.0}) {
    BenchEnv e2 = env;
    e2.cache_bytes = std::max<uint64_t>(
        64 << 10, static_cast<uint64_t>(frac * level1_bytes));
    auto system = e2.MakeSystem(ShermanOptions());
    RunnerOptions ropt = e2.Runner(WorkloadMix::WriteIntensive(), 0.0);
    const RunResult r = RunWorkload(system.get(), ropt);
    telemetry.AddRun("c/cache" + std::to_string(e2.cache_bytes >> 10) + "kb",
                     r);
    const uint64_t hits = r.metrics.counter("cache.l1_hits");
    const double hit_ratio =
        Ratio(hits, hits + r.metrics.counter("cache.l1_misses"));
    telemetry.Metric("fig15c.hit_ratio@" + Fmt(frac, 1), hit_ratio);
    table.AddRow({std::to_string(e2.cache_bytes >> 10),
                  Fmt(frac * 100.0, 0) + "%", Fmt(r.mops),
                  Fmt(hit_ratio, 3)});
    std::fprintf(stderr, "[fig15c] frac=%.1f done (%.2f Mops, hit %.3f)\n",
                 frac, r.mops, hit_ratio);
  }
  table.Print();
  return 0;
}
