// Deterministic replay: the simulator is a discrete-event machine, so two
// runs with the same seed and geometry must produce byte-identical bench
// reports — throughput, every histogram bucket, internal counters, routing
// epochs, and (for elastic runs) the migration volume and final tree
// content. Resumable fuzz triage and the seeded regression corpus both
// depend on this property; this suite guards it directly.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>

#include "bench/runner.h"
#include "core/hybrid_system.h"
#include "core/presets.h"
#include "migrate/migrator.h"

namespace sherman {
namespace {

rdma::FabricConfig SmallFabric(int ms, int cs) {
  rdma::FabricConfig f;
  f.num_memory_servers = ms;
  f.num_compute_servers = cs;
  f.ms_memory_bytes = 32ull << 20;
  return f;
}

// Exact bit pattern of a double — "within epsilon" is not determinism.
std::string Bits(double v) {
  uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  std::ostringstream os;
  os << u;
  return os.str();
}

std::string Serialize(const bench::RunResult& r) {
  std::ostringstream os;
  os << "ops=" << r.stats.ops << " measured_ns=" << r.measured_ns
     << " mops=" << Bits(r.mops) << " lat=" << r.stats.latency_ns.ToString()
     << " lat_cnt=" << r.stats.latency_ns.count()
     << " lat_min=" << r.stats.latency_ns.min()
     << " lat_max=" << r.stats.latency_ns.max()
     << " lat_mean=" << Bits(r.stats.latency_ns.Mean())
     << " rt=" << r.stats.round_trips.ToString()
     << " rr=" << r.stats.read_retries.ToString()
     << " wb=" << r.stats.write_bytes.ToString()
     << " lock_retries=" << r.stats.lock_retries
     << " handovers=" << r.stats.handovers
     << " cache_hits=" << r.stats.cache_hits
     << " cache_misses=" << r.stats.cache_misses
     << " metrics=" << r.metrics.ToJson();
  return os.str();
}

bench::RunnerOptions SmallRun(uint64_t keys, uint64_t seed) {
  bench::RunnerOptions r;
  r.threads_per_cs = 6;
  r.workload.mix = WorkloadMix::WriteIntensive();
  r.workload.mix.del = 0.05;
  r.workload.mix.range = 0.05;
  r.workload.mix.lookup = 0.4;
  r.workload.loaded_keys = keys;
  r.workload.zipf_theta = 0.99;
  r.warmup_ns = 300'000;
  r.measure_ns = 2'000'000;
  r.seed = seed;
  return r;
}

TEST(DeterminismTest, ShermanRunsAreByteIdentical) {
  const uint64_t keys = 20'000;
  std::string reports[2];
  for (int run = 0; run < 2; run++) {
    ShermanSystem system(SmallFabric(2, 3), ShermanOptions());
    system.BulkLoad(bench::MakeLoadKvs(keys), 0.8);
    reports[run] = Serialize(bench::RunWorkload(&system, SmallRun(keys, 42)));
  }
  EXPECT_EQ(reports[0], reports[1]);
}

TEST(DeterminismTest, DifferentSeedsDiffer) {
  // Sanity: the serialization is actually sensitive to the run.
  const uint64_t keys = 20'000;
  std::string reports[2];
  for (int run = 0; run < 2; run++) {
    ShermanSystem system(SmallFabric(2, 3), ShermanOptions());
    system.BulkLoad(bench::MakeLoadKvs(keys), 0.8);
    reports[run] =
        Serialize(bench::RunWorkload(&system, SmallRun(keys, 42 + run)));
  }
  EXPECT_NE(reports[0], reports[1]);
}

TEST(DeterminismTest, HybridRouterRunsAreByteIdentical) {
  const uint64_t keys = 20'000;
  std::string reports[2];
  std::string epochs[2];
  for (int run = 0; run < 2; run++) {
    HybridOptions opts;
    opts.tree = ShermanOptions();
    opts.router.num_shards = 16;
    opts.router.epoch_ns = 400'000;
    HybridSystem system(SmallFabric(2, 3), opts);
    system.BulkLoad(bench::MakeLoadKvs(keys), 0.8);
    reports[run] = Serialize(bench::RunWorkload(&system, SmallRun(keys, 7)));
    std::ostringstream os;
    for (const route::EpochRecord& e : system.router().epoch_log()) {
      os << e.epoch << ":" << e.at_ns << ":" << e.shards_one_sided << ":"
         << e.shards_rpc << ":" << e.flips << ":" << Bits(e.window_rpc_share)
         << ";";
    }
    epochs[run] = os.str();
  }
  EXPECT_EQ(reports[0], reports[1]);
  EXPECT_EQ(epochs[0], epochs[1]);
}

// RDWC replay: hot-key delegation + combining add timers (window probes),
// re-entrant window state, and cross-CS wakeup ordering — none of which
// may introduce a nondeterministic choice point, with combining on or off.
TEST(DeterminismTest, RdwcDelegationRunsAreByteIdentical) {
  const uint64_t keys = 20'000;
  for (const bool combining : {false, true}) {
    std::string reports[2];
    std::string rdwc[2];
    for (int run = 0; run < 2; run++) {
      HybridOptions opts;
      opts.tree = ShermanOptions();
      opts.router.num_shards = 16;
      opts.router.epoch_ns = 400'000;
      opts.rdwc.enable_delegation = true;
      opts.rdwc.enable_combining = combining;
      opts.rdwc.sample_shift = 0;
      opts.rdwc.promote_threshold = 2;
      HybridSystem system(SmallFabric(2, 3), opts);
      system.BulkLoad(bench::MakeLoadKvs(keys), 0.8);
      // Hotspot skew keeps write windows constantly open.
      bench::RunnerOptions r = SmallRun(keys, 11);
      r.workload.hotspot_share = 0.9;
      r.workload.hotspot_keys = 8;
      reports[run] = Serialize(bench::RunWorkload(&system, r));
      // Whole-run counts, drain included (the report holds the window's).
      rdwc[run] = system.sherman().registry().Snapshot().ToJson();
    }
    EXPECT_EQ(reports[0], reports[1]) << "combining=" << combining;
    EXPECT_EQ(rdwc[0], rdwc[1]) << "combining=" << combining;
  }
}

// Elastic replay: concurrent traffic + mid-run AddMemoryServer + live
// migration must still replay bit-for-bit — the migration protocol may not
// introduce any nondeterministic choice point.
TEST(DeterminismTest, ElasticMigrationRunsAreByteIdentical) {
  const uint64_t keys = 10'000;
  std::string scans[2];
  std::string migs[2];
  for (int run = 0; run < 2; run++) {
    ShermanSystem system(SmallFabric(2, 2), ShermanOptions());
    system.BulkLoad(bench::MakeLoadKvs(keys), 0.8);

    uint64_t total_ops = 0;
    bool stop = false;
    int live = 0;
    for (int cs = 0; cs < 2; cs++) {
      for (int t = 0; t < 4; t++) {
        live++;
        sim::Spawn([](TreeClient* c, uint64_t seed, uint64_t key_space,
                      bool* stop_flag, uint64_t* ops,
                      int* live_count) -> sim::Task<void> {
          WorkloadOptions wl;
          wl.mix = WorkloadMix::WriteIntensive();
          wl.loaded_keys = key_space;
          WorkloadGenerator gen(wl, seed);
          std::vector<std::pair<Key, uint64_t>> range_buf;
          while (!*stop_flag) {
            const Op op = gen.Next();
            if (op.type == OpType::kInsert) {
              EXPECT_TRUE((co_await c->Insert(op.key, op.value)).ok());
            } else {
              uint64_t v = 0;
              Status st = co_await c->Lookup(op.key, &v);
              EXPECT_TRUE(st.ok() || st.IsNotFound());
            }
            (*ops)++;
          }
          (*live_count)--;
        }(&system.client(cs), bench::ClientSeed(9, cs, t), keys, &stop,
          &total_ops, &live));
      }
    }

    migrate::Migrator migrator(&system, {});
    Status mig_st;
    bool mig_done = false;
    // Fabric growth + migration kick off mid-run, racing the op streams.
    system.simulator().At(300'000, [&system, &migrator, keys, &mig_st,
                                    &mig_done] {
      const int target = system.AddMemoryServer();
      sim::Spawn([](migrate::Migrator* m, Key hi, uint16_t tgt, Status* out,
                    bool* done_flag) -> sim::Task<void> {
        *out = co_await m->MigrateRange(1, hi, tgt);
        *done_flag = true;
      }(&migrator, WorkloadGenerator::LoadedKeyFor(keys / 2),
        static_cast<uint16_t>(target), &mig_st, &mig_done));
    });
    system.simulator().At(4'000'000, [&stop] { stop = true; });
    system.simulator().Run();
    ASSERT_EQ(live, 0);
    ASSERT_TRUE(mig_done);
    ASSERT_TRUE(mig_st.ok()) << mig_st.ToString();

    std::ostringstream os;
    os << "ops=" << total_ops << " steps=" << system.simulator().steps()
       << " now=" << system.simulator().now() << " scan:";
    for (const auto& [k, v] : system.DebugScanLeaves()) {
      os << k << "=" << v << ",";
    }
    scans[run] = os.str();
    migs[run] = system.registry().Snapshot().ToJson();  // migrate.* incl.
  }
  EXPECT_EQ(scans[0], scans[1]);
  EXPECT_EQ(migs[0], migs[1]);
}

// Varlen replay: slotted-leaf inserts with prefix recompaction, value-log
// appends/rotations/retires, swizzle-cache reads, and segment GC add many
// new choice points — all must replay bit-for-bit, including the final
// byte content of every record and the vlog counters.
TEST(DeterminismTest, VarlenRunsAreByteIdentical) {
  const uint64_t keys = 4'000;
  std::string reports[2];
  for (int run = 0; run < 2; run++) {
    TreeOptions topt = ShermanOptions();
    topt.two_level_versions = false;  // varlen requires sorted leaves
    topt.shape.varlen = true;
    topt.vlog_segment_bytes = 8 << 10;
    rdma::FabricConfig fab = SmallFabric(2, 3);
    // Outline-value churn with only one mid-run GC pass holds far more
    // dead extents than the 32 MB default fits.
    fab.ms_memory_bytes = 256ull << 20;
    ShermanSystem system(fab, topt);

    std::vector<std::pair<std::string, std::string>> load;
    for (uint64_t r = 1; r <= keys; r++) {
      const std::string k = WorkloadGenerator::StringKeyFor(r, 16, 40);
      load.emplace_back(k, "load:" + k);
    }
    std::sort(load.begin(), load.end());
    load.erase(std::unique(load.begin(), load.end(),
                           [](const auto& a, const auto& b) {
                             return a.first == b.first;
                           }),
               load.end());
    system.BulkLoadVar(load, 0.8);

    WorkloadOptions wl;
    ASSERT_TRUE(ParseMix("ycsb-string", &wl));
    wl.mix.del = 0.05;
    wl.mix.range = 0.05;
    wl.mix.lookup = 0.4;
    wl.loaded_keys = keys;
    wl.string_value_max = 256;  // both sides of the inline threshold

    uint64_t total_ops = 0;
    bool stop = false;
    int live = 0;
    for (int cs = 0; cs < 3; cs++) {
      for (int t = 0; t < 4; t++) {
        live++;
        sim::Spawn([](TreeClient* c, WorkloadOptions wl_opts, uint64_t seed,
                      bool* stop_flag, uint64_t* ops,
                      int* live_count) -> sim::Task<void> {
          WorkloadGenerator gen(wl_opts, seed);
          while (!*stop_flag) {
            const Op op = gen.Next();
            if (op.type == OpType::kInsert) {
              Status st = co_await c->InsertVar(Slice(op.skey),
                                                Slice(op.svalue));
              EXPECT_TRUE(st.ok()) << st.ToString();
            } else if (op.type == OpType::kDelete) {
              Status st = co_await c->DeleteVar(Slice(op.skey));
              EXPECT_TRUE(st.ok() || st.IsNotFound()) << st.ToString();
            } else if (op.type == OpType::kRangeQuery) {
              std::vector<std::pair<std::string, std::string>> out;
              Status st = co_await c->ScanVar(Slice(op.skey), 16, &out);
              EXPECT_TRUE(st.ok()) << st.ToString();
            } else {
              std::string v;
              Status st = co_await c->LookupVar(Slice(op.skey), &v);
              EXPECT_TRUE(st.ok() || st.IsNotFound()) << st.ToString();
            }
            (*ops)++;
          }
          (*live_count)--;
        }(&system.client(cs), wl, bench::ClientSeed(13, cs, t), &stop,
          &total_ops, &live));
      }
    }
    // A mid-run GC pass races the op streams, like the churn bench.
    system.simulator().At(1'500'000, [&system] {
      sim::Spawn([](TreeClient* c) -> sim::Task<void> {
        Status st = co_await c->VlogGcOnce();
        EXPECT_TRUE(st.ok() || st.IsOutOfMemory()) << st.ToString();
      }(&system.client(0)));
    });
    system.simulator().At(3'000'000, [&stop] { stop = true; });
    system.simulator().Run();
    ASSERT_EQ(live, 0);

    std::ostringstream os;
    os << "ops=" << total_ops << " steps=" << system.simulator().steps()
       << " now=" << system.simulator().now()
       << " metrics=" << system.registry().Snapshot().ToJson() << " scan:";
    for (const auto& [k, v] : system.DebugScanLeavesVar()) {
      os << k << "=" << v << ";";
    }
    reports[run] = os.str();
  }
  EXPECT_EQ(reports[0], reports[1]);
}

// Observability replay: the always-on trace rings and the unified metrics
// registry feed BENCH_*.json and the chrome://tracing export, so both must
// be byte-identical across identical seeded runs — timestamps are sim-time
// and every export iterates sorted containers.
TEST(DeterminismTest, TraceAndMetricsExportsAreByteIdentical) {
  const uint64_t keys = 20'000;
  std::string traces[2];
  std::string flights[2];
  std::string metrics[2];
  for (int run = 0; run < 2; run++) {
    ShermanSystem system(SmallFabric(2, 3), ShermanOptions());
    system.BulkLoad(bench::MakeLoadKvs(keys), 0.8);
    bench::RunWorkload(&system, SmallRun(keys, 42));
    traces[run] = system.tracer().ChromeTraceJson();
    flights[run] = system.tracer().FlightDumpAll(32);
    metrics[run] = system.registry().Snapshot().ToJson();
  }
  EXPECT_EQ(traces[0], traces[1]);
  EXPECT_EQ(flights[0], flights[1]);
  EXPECT_EQ(metrics[0], metrics[1]);
  EXPECT_NE(metrics[0].find("rdma.reads"), std::string::npos);
}

}  // namespace
}  // namespace sherman
