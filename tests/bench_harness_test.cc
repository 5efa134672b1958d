// Tests for the bench harness: run accounting, stats folding, table
// rendering, and argv parsing.
#include <gtest/gtest.h>

#include <set>

#include "bench/report.h"
#include "bench/runner.h"
#include "core/presets.h"

namespace sherman::bench {
namespace {

TEST(ClientSeedTest, UniqueAcrossClientsEvenAtScale) {
  // The old derivation (seed * 0x9e3779b9u + cs * 1000 + t) collided as
  // soon as threads_per_cs reached 1000: (cs=0, t=1000) == (cs=1, t=0).
  // The SplitMix64 chain must keep every (cs, t) pair distinct, including
  // across nearby base seeds.
  std::set<uint64_t> seen;
  uint64_t n = 0;
  for (uint64_t seed : {0ull, 1ull, 42ull, 43ull}) {
    for (int cs = 0; cs < 16; cs++) {
      for (int t = 0; t < 2048; t++) {
        seen.insert(ClientSeed(seed, cs, t));
        n++;
      }
    }
  }
  EXPECT_EQ(seen.size(), n);
}

TEST(ClientSeedTest, DeterministicAndSeedSensitive) {
  EXPECT_EQ(ClientSeed(42, 3, 7), ClientSeed(42, 3, 7));
  EXPECT_NE(ClientSeed(42, 3, 7), ClientSeed(43, 3, 7));
  EXPECT_NE(ClientSeed(42, 3, 7), ClientSeed(42, 7, 3));
}

TEST(MakeLoadKvsTest, SortedUniqueEvenKeys) {
  const auto kvs = MakeLoadKvs(100);
  ASSERT_EQ(kvs.size(), 100u);
  for (size_t i = 0; i < kvs.size(); i++) {
    EXPECT_EQ(kvs[i].first, 2 * (i + 1));
    EXPECT_EQ(kvs[i].second, kvs[i].first * 31 + 7);
  }
}

TEST(RunnerTest, MeasuresOnlyInsideWindow) {
  rdma::FabricConfig f;
  f.num_memory_servers = 2;
  f.num_compute_servers = 2;
  f.ms_memory_bytes = 32ull << 20;
  ShermanSystem system(f, ShermanOptions());
  system.BulkLoad(MakeLoadKvs(10'000), 0.8);

  RunnerOptions ropt;
  ropt.threads_per_cs = 4;
  ropt.workload.loaded_keys = 10'000;
  ropt.warmup_ns = 1'000'000;
  ropt.measure_ns = 2'000'000;
  const RunResult r = RunWorkload(&system, ropt);
  EXPECT_EQ(r.measured_ns, 2'000'000u);
  EXPECT_GT(r.stats.ops, 0u);
  // Throughput consistent with ops/window.
  EXPECT_NEAR(r.mops, static_cast<double>(r.stats.ops) * 1000.0 / 2'000'000.0,
              1e-9);
  // Latencies populated and ordered.
  EXPECT_GT(r.stats.latency_ns.P50(), 0u);
  EXPECT_LE(r.stats.latency_ns.P50(), r.stats.latency_ns.P99());
}

TEST(RunnerTest, RepeatedRunsReportDeltas) {
  rdma::FabricConfig f;
  f.num_memory_servers = 2;
  f.num_compute_servers = 2;
  f.ms_memory_bytes = 32ull << 20;
  ShermanSystem system(f, ShermanOptions());
  system.BulkLoad(MakeLoadKvs(10'000), 0.8);

  RunnerOptions ropt;
  ropt.threads_per_cs = 2;
  ropt.workload.loaded_keys = 10'000;
  ropt.warmup_ns = 200'000;
  ropt.measure_ns = 1'000'000;
  const RunResult r1 = RunWorkload(&system, ropt);
  const RunResult r2 = RunWorkload(&system, ropt);
  // Window counts are per-run deltas: the second run's cache lookups
  // exclude the first run's, so its hit ratio cannot exceed 1.
  const auto lookups = [](const obs::MetricsSnapshot& m) {
    return m.counter("cache.l1_hits") + m.counter("cache.l1_misses");
  };
  EXPECT_LE(lookups(r1.metrics) + lookups(r2.metrics),
            lookups(system.registry().Snapshot()));
  EXPECT_LE(static_cast<double>(r2.metrics.counter("cache.l1_hits")) /
                static_cast<double>(lookups(r2.metrics)),
            1.0);
  EXPECT_GT(r1.stats.ops, 0u);
  EXPECT_GT(r2.stats.ops, 0u);
}

TEST(AccumulateOpTest, RoutesMetricsByOpKind) {
  RunStats run;
  OpStats op;
  op.round_trips = 3;
  op.bytes_written = 18;
  op.read_retries = 2;
  op.used_handover = true;
  AccumulateOp(&run, op, 5'000, /*is_write=*/true, /*is_read=*/false);
  EXPECT_EQ(run.ops, 1u);
  EXPECT_EQ(run.round_trips.count(), 1u);
  EXPECT_EQ(run.write_bytes.count(), 1u);
  EXPECT_EQ(run.read_retries.count(), 0u);  // not a read op
  EXPECT_EQ(run.handovers, 1u);
  AccumulateOp(&run, op, 2'000, /*is_write=*/false, /*is_read=*/true);
  EXPECT_EQ(run.read_retries.count(), 1u);
  EXPECT_EQ(run.round_trips.count(), 1u);
}

TEST(TableTest, PrintsAlignedColumns) {
  Table t("Demo");
  t.SetColumns({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"a-much-longer-name", "2.5"});
  FILE* tmp = tmpfile();
  ASSERT_NE(tmp, nullptr);
  t.Print(tmp);
  std::fseek(tmp, 0, SEEK_SET);
  char buf[512] = {0};
  std::fread(buf, 1, sizeof(buf) - 1, tmp);
  std::fclose(tmp);
  const std::string out = buf;
  EXPECT_NE(out.find("Demo"), std::string::npos);
  EXPECT_NE(out.find("a-much-longer-name"), std::string::npos);
  EXPECT_NE(out.find("2.5"), std::string::npos);
}

TEST(FmtTest, Precision) {
  EXPECT_EQ(Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Fmt(3.14159, 0), "3");
  EXPECT_EQ(FmtUs(12'345, 1), "12.3");
}

TEST(ArgsTest, ParsesFlagsAndValues) {
  const char* argv[] = {"prog",         "--quick", "--keys=5000",
                        "--threads",    "7",       "--name=test",
                        "positional"};
  Args args(7, const_cast<char**>(argv));
  EXPECT_TRUE(args.Has("quick"));
  EXPECT_FALSE(args.Has("slow"));
  EXPECT_EQ(args.GetInt("keys", 0), 5000);
  EXPECT_EQ(args.GetInt("threads", 0), 7);
  EXPECT_EQ(args.GetInt("missing", 42), 42);
  EXPECT_EQ(args.GetString("name", ""), "test");
  EXPECT_DOUBLE_EQ(args.GetDouble("missing-d", 1.5), 1.5);
}

}  // namespace
}  // namespace sherman::bench
