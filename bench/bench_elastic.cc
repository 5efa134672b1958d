// bench_elastic: online memory-server expansion under live load.
//
// An elastic run starts a hybrid cluster on two memory servers, drives a
// uniform workload, and mid-run (a) brings a third MS online with
// Fabric::AddMemoryServer and (b) live-migrates the lower half of the
// logical shards onto it (migrate::Migrator, copy-then-flip under HOCL
// locks, concurrent with traffic). The run reports:
//
//   pre     steady-state throughput on 2 MSs,
//   during  throughput while the copy passes run (the dip),
//   post    throughput after the flip,
//   native  a fresh cluster started with 3 MSs from the beginning,
//
// plus the migration volume/duration and a per-interval throughput series
// so the dip and recovery are visible. Acceptance: zero failed client ops
// across the whole elastic run, and post within 10% of native.
//
// Flags (beyond bench/common.h): --shards=N --post-ms=N --interval-us=N
//   --mix=NAME --theta=F --no-series
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "core/hybrid_system.h"
#include "migrate/migrator.h"

using namespace sherman;
using namespace sherman::bench;

namespace {

struct ElasticCtx {
  bool stop = false;
  sim::SimTime t0 = 0;
  sim::SimTime interval_ns = 500'000;
  std::vector<uint64_t> interval_ops;
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t live = 0;
};

template <typename Client>
sim::Task<void> ClientLoop(Client* client, sim::Simulator* sim,
                           WorkloadGenerator gen, ElasticCtx* ctx) {
  std::vector<std::pair<Key, uint64_t>> range_buf;
  while (!ctx->stop) {
    const Op op = gen.Next();
    Status st;
    bool ok = false;
    switch (op.type) {
      case OpType::kInsert:
        st = co_await client->Insert(op.key, op.value);
        ok = st.ok();
        break;
      case OpType::kLookup: {
        uint64_t value = 0;
        st = co_await client->Lookup(op.key, &value);
        ok = st.ok() || st.IsNotFound();
        break;
      }
      case OpType::kRangeQuery:
        st = co_await client->RangeQuery(op.key, op.range_size, &range_buf);
        ok = st.ok();
        break;
      case OpType::kDelete:
        st = co_await client->Delete(op.key);
        ok = st.ok() || st.IsNotFound();
        break;
    }
    if (!ok) ctx->failed++;
    ctx->ops++;
    const size_t idx =
        static_cast<size_t>((sim->now() - ctx->t0) / ctx->interval_ns);
    if (idx >= ctx->interval_ops.size()) ctx->interval_ops.resize(idx + 1, 0);
    ctx->interval_ops[idx]++;
  }
  ctx->live--;
}

struct MigrationMarks {
  sim::SimTime start = 0;
  sim::SimTime done = 0;
  uint64_t ops_at_start = 0;
  uint64_t ops_at_done = 0;
  int new_ms = -1;
};

sim::Task<void> RunMigration(HybridSystem* sys, migrate::Migrator* mig,
                             int num_shards_to_move, ElasticCtx* ctx,
                             MigrationMarks* marks, sim::SimTime post_ns) {
  sim::Simulator& sim = sys->simulator();
  marks->start = sim.now();
  marks->ops_at_start = ctx->ops;
  marks->new_ms = sys->AddMemoryServer();
  for (int s = 0; s < num_shards_to_move; s++) {
    Status st = co_await mig->MigrateShard(s, static_cast<uint16_t>(marks->new_ms));
    SHERMAN_CHECK_MSG(st.ok(), "shard %d migration failed: %s", s,
                      st.ToString().c_str());
  }
  // One pass over the union range: the per-shard walks already homed every
  // leaf (so this re-walk is cheap), but level-1 nodes straddling shard
  // boundaries only become migratable once the range is wide enough to
  // contain them.
  if (num_shards_to_move > 0) {
    const Key lo = sys->router().ShardBounds(0).first;
    const Key hi = sys->router().ShardBounds(num_shards_to_move - 1).second;
    Status st = co_await mig->MigrateRange(lo, hi,
                                           static_cast<uint16_t>(marks->new_ms));
    SHERMAN_CHECK_MSG(st.ok(), "union-range migration failed: %s",
                      st.ToString().c_str());
  }
  marks->done = sim.now();
  marks->ops_at_done = ctx->ops;
  sim.After(post_ns, [ctx, sys] {
    ctx->stop = true;
    sys->router().Stop();  // let the epoch timer chain die so the sim drains
  });
}

double WindowMops(uint64_t ops, sim::SimTime ns) {
  return ns == 0 ? 0.0 : static_cast<double>(ops) * 1000.0 /
                             static_cast<double>(ns);
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  BenchEnv env = BenchEnv::FromArgs(args);
  BenchTelemetry telemetry("elastic", args);
  env.num_ms = 2;  // founding cluster; the third MS arrives mid-run
  env.num_cs = 4;
  if (!args.Has("threads")) env.threads_per_cs = 8;

  const int num_shards = static_cast<int>(args.GetInt("shards", 32));
  const sim::SimTime post_ns =
      static_cast<sim::SimTime>(args.GetInt(
          "post-ms", static_cast<int64_t>(env.measure_ns / 1'000'000))) *
      1'000'000;
  const sim::SimTime interval_ns =
      static_cast<sim::SimTime>(args.GetInt("interval-us", 500)) * 1000;
  const bool print_series = !args.Has("no-series");

  WorkloadOptions wl;
  wl.mix = WorkloadMix::WriteIntensive();
  const std::string mix_name = args.GetString("mix", "");
  if (!mix_name.empty() && !ParseMix(mix_name, &wl)) {
    std::fprintf(stderr, "unknown mix '%s'\n", mix_name.c_str());
    return 1;
  }
  wl.loaded_keys = env.keys;
  wl.zipf_theta = args.GetDouble("theta", 0.0);

  HybridOptions opts;
  opts.tree = ShermanOptions();
  opts.router.num_shards = num_shards;
  AddEnvConfig(&telemetry, env);
  telemetry.Config("shards", num_shards);
  telemetry.Config("post_ns", static_cast<uint64_t>(post_ns));
  telemetry.Config("interval_ns", static_cast<uint64_t>(interval_ns));
  telemetry.Config("mix", mix_name.empty() ? "write-intensive" : mix_name);
  telemetry.Config("zipf_theta", wl.zipf_theta);

  // --- elastic run: 2 MSs, grow to 3 mid-run ------------------------------
  HybridSystem system(env.FabricCfg(), opts);
  telemetry.SetTracer(&system.sherman().tracer());
  system.BulkLoad(MakeLoadKvs(env.keys), 0.8);
  migrate::Migrator migrator(&system.sherman(), {}, &system.shard_map(),
                             &system.router());

  ElasticCtx ctx;
  ctx.interval_ns = interval_ns;
  sim::Simulator& sim = system.simulator();
  ctx.t0 = sim.now();  // interval-series origin == client start
  for (int cs = 0; cs < system.num_clients(); cs++) {
    for (int t = 0; t < env.threads_per_cs; t++) {
      ctx.live++;
      sim::Spawn(ClientLoop(&system.client(cs), &sim,
                            WorkloadGenerator(wl, ClientSeed(env.seed, cs, t)),
                            &ctx));
    }
  }
  system.router().Start();

  MigrationMarks marks;
  uint64_t ops_at_warmup = 0;
  const sim::SimTime pre_ns = env.measure_ns;
  sim.At(env.warmup_ns, [&] { ops_at_warmup = ctx.ops; });
  sim.At(env.warmup_ns + pre_ns, [&] {
    sim::Spawn(RunMigration(&system, &migrator, num_shards / 2, &ctx, &marks,
                            post_ns));
  });
  sim.Run();
  SHERMAN_CHECK(ctx.live == 0);

  const sim::SimTime end_ns = marks.done + post_ns;
  const double pre_mops =
      WindowMops(marks.ops_at_start - ops_at_warmup, pre_ns);
  const double during_mops = WindowMops(marks.ops_at_done - marks.ops_at_start,
                                        marks.done - marks.start);
  const double post_mops = WindowMops(ctx.ops - marks.ops_at_done, post_ns);
  const obs::MetricsSnapshot elastic = system.sherman().registry().Snapshot();
  const auto mig = [&elastic](const char* name) {
    return std::to_string(elastic.counter(std::string("migrate.") + name));
  };

  // --- native baseline: 3 MSs from the start ------------------------------
  BenchEnv native_env = env;
  native_env.num_ms = 3;
  HybridSystem native(native_env.FabricCfg(), opts);
  native.BulkLoad(MakeLoadKvs(env.keys), 0.8);
  RunnerOptions nr;
  nr.threads_per_cs = env.threads_per_cs;
  nr.workload = wl;
  nr.warmup_ns = env.warmup_ns;
  nr.measure_ns = post_ns;
  nr.seed = env.seed;
  const RunResult native_run = RunWorkload(&native, nr);

  Table t("elastic scale-out: 2 MSs -> 3 MSs, lower half of shards migrated");
  t.SetColumns({"window", "mops", "note"});
  t.AddRow({"pre", Fmt(pre_mops),
            "2 MSs, " + std::to_string(env.threads_per_cs * env.num_cs) +
                " clients"});
  t.AddRow({"during", Fmt(during_mops),
            "migration " + FmtUs(marks.done - marks.start) + " us"});
  t.AddRow({"post", Fmt(post_mops), "3 MSs after flip"});
  t.AddRow({"native-3ms", Fmt(native_run.mops), "started with 3 MSs"});
  t.Print();

  Table m("migration volume");
  m.SetColumns({"shards", "leaves", "internals", "passes", "copied(KB)",
                "sibling-fixes", "residual", "failed-ops"});
  m.AddRow({mig("shards_migrated"), mig("leaves_moved"),
            mig("internals_moved"), mig("passes"),
            std::to_string(elastic.counter("migrate.bytes_copied") >> 10),
            mig("sibling_fixes"), mig("residual_leaves"),
            std::to_string(ctx.failed)});
  m.Print();

  if (print_series) {
    Table s("throughput series (interval = " +
            std::to_string(interval_ns / 1000) + " us)");
    s.SetColumns({"t(ms)", "mops", "phase"});
    for (size_t i = 0; i < ctx.interval_ops.size(); i++) {
      const sim::SimTime at = static_cast<sim::SimTime>(i) * interval_ns;
      if (at > end_ns) break;
      const char* phase = at < env.warmup_ns ? "warmup"
                          : at < marks.start ? "pre"
                          : at < marks.done  ? "MIGRATING"
                                             : "post";
      s.AddRow({Fmt(at / 1e6, 2),
                Fmt(WindowMops(ctx.interval_ops[i], interval_ns)), phase});
    }
    s.Print();
  }

  telemetry.AddRun("native-3ms", native_run);
  telemetry.MergeMetrics(elastic);
  telemetry.Metric("elastic.pre_mops", pre_mops);
  telemetry.Metric("elastic.during_mops", during_mops);
  telemetry.Metric("elastic.post_mops", post_mops);
  telemetry.Metric("elastic.migration_ns",
                   static_cast<double>(marks.done - marks.start));
  {
    std::vector<std::pair<uint64_t, uint64_t>> pts;
    uint64_t cum = 0;
    for (size_t i = 0; i < ctx.interval_ops.size(); i++) {
      const sim::SimTime at = static_cast<sim::SimTime>(i + 1) * interval_ns;
      if (at > end_ns + interval_ns) break;
      cum += ctx.interval_ops[i];
      pts.emplace_back(static_cast<uint64_t>(at), cum);
    }
    telemetry.AddSeries("elastic_ops", std::move(pts));
  }

  const double ratio =
      native_run.mops == 0 ? 0.0 : post_mops / native_run.mops;
  std::printf("\npost/native ratio: %.3f (target >= 0.90), "
              "failed client ops: %llu (target 0)\n",
              ratio, static_cast<unsigned long long>(ctx.failed));
  telemetry.Gate("no_failed_ops", ctx.failed == 0,
                 static_cast<double>(ctx.failed));
  telemetry.Gate("post_vs_native", env.quick || ratio >= 0.90, ratio);
  // Write while `system` (and its tracer, for --trace-out) is still alive;
  // the destructor's write would run after the system is gone.
  telemetry.Write();
  if (ctx.failed != 0) {
    std::fprintf(stderr, "FAIL: %llu client ops failed during the elastic run\n",
                 static_cast<unsigned long long>(ctx.failed));
    return 1;
  }
  if (ratio < 0.90 && !env.quick) {
    std::fprintf(stderr, "WARN: post-migration throughput below 90%% of "
                         "the native 3-MS cluster\n");
    return 2;
  }
  std::printf("PASS\n");
  return 0;
}
