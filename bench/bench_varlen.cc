// bench_varlen: variable-length records — slotted leaves + value log.
//
// Three phases, one closed-loop harness:
//
//   fixed    — the u64 fast path (shape.varlen off): write-intensive
//              uniform mix on a bulkloaded tree. The baseline.
//   varlen-8B — the SAME op stream through the string API on a varlen
//              tree with 8-byte values (everything inline): what slot
//              indirection + byte keys cost with the value log idle.
//   vlog-churn — sustained insert/delete churn (fixed live count per
//              client) with values on the 16B..4KB geometric ladder, so
//              updates cross the inline threshold in both directions and
//              deletes retire extents, while a per-CS GC coroutine runs
//              VlogGcOnce continuously. The headline is the footprint
//              series: segment recycling must hold it FLAT.
//
// Both throughput phases drive the identical workload shape (uniform
// write-intensive over the same key count) through the identical loop,
// so the ratio isolates the record-format cost.
//
// Exit code enforces (always): zero failed ops, GC passes > 0, vlog
// appends > 0 with some out-of-line traffic under churn. Full runs
// additionally enforce varlen-8B >= 0.9x fixed and the churn footprint
// plateau (last sample within 10% of the halfway sample). --quick
// relaxes those (short windows have not equilibrated).
//
// Flags (beyond bench/common.h): --window=N (live keys per client in the
// churn phase, default 128), --samples=N (footprint samples, default 12)
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "vlog/vlog.h"

using namespace sherman;
using namespace sherman::bench;

namespace {

struct LoopCtx {
  bool stop = false;
  bool measuring = false;
  uint64_t ops = 0;
  uint64_t failed = 0;
};

void CountOp(LoopCtx* ctx, const Status& st, const char* what) {
  if (!st.ok() && !st.IsNotFound()) {
    if (++ctx->failed <= 4) {
      std::printf("failed %s: %s\n", what, st.ToString().c_str());
    }
  }
  if (ctx->measuring) ctx->ops++;
}

sim::Task<void> FixedLoop(TreeClient* client, WorkloadOptions w,
                          uint64_t seed, LoopCtx* ctx) {
  WorkloadGenerator gen(w, seed);
  while (!ctx->stop) {
    const Op op = gen.Next();
    Status st;
    switch (op.type) {
      case OpType::kInsert:
        st = co_await client->Insert(op.key, op.value);
        break;
      case OpType::kLookup: {
        uint64_t v = 0;
        st = co_await client->Lookup(op.key, &v);
        break;
      }
      case OpType::kRangeQuery: {
        std::vector<std::pair<Key, uint64_t>> out;
        st = co_await client->RangeQuery(op.key, op.range_size, &out);
        break;
      }
      case OpType::kDelete:
        st = co_await client->Delete(op.key);
        break;
    }
    CountOp(ctx, st, "fixed op");
  }
}

sim::Task<void> VarLoop(TreeClient* client, WorkloadOptions w, uint64_t seed,
                        LoopCtx* ctx) {
  WorkloadGenerator gen(w, seed);
  while (!ctx->stop) {
    const Op op = gen.Next();
    Status st;
    switch (op.type) {
      case OpType::kInsert:
        st = co_await client->InsertVar(op.skey, op.svalue);
        break;
      case OpType::kLookup: {
        std::string v;
        st = co_await client->LookupVar(op.skey, &v);
        break;
      }
      case OpType::kRangeQuery: {
        std::vector<std::pair<std::string, std::string>> out;
        st = co_await client->ScanVar(op.skey, op.range_size, &out);
        break;
      }
      case OpType::kDelete:
        st = co_await client->DeleteVar(op.skey);
        break;
    }
    CountOp(ctx, st, "varlen op");
  }
}

// One GC driver per CS: seals that client's open segments and relocates
// one victim per MS each pass. VlogGcOnce itself costs RPC round trips,
// so the loop always advances simulated time; the Delay paces it to a
// handful of passes per measurement window.
sim::Task<void> GcLoop(TreeClient* client, sim::Simulator* sim,
                       sim::SimTime interval, LoopCtx* ctx,
                       uint64_t* relocated) {
  while (!ctx->stop) {
    uint64_t moved = 0;
    co_await client->VlogGcOnce(&moved);
    *relocated += moved;
    co_await sim->Delay(interval);
  }
}

struct PhaseResult {
  double mops = 0;
  uint64_t ops = 0;
  uint64_t failed = 0;
  std::vector<uint64_t> footprint;
  uint64_t gc_relocated = 0;
  obs::MetricsSnapshot metrics;  // the registry once the phase drained
};

template <typename LoopFactory>
PhaseResult RunPhase(ShermanSystem* system, const BenchEnv& env,
                     LoopFactory make_loop, int samples, bool run_gc) {
  LoopCtx ctx;
  for (int cs = 0; cs < system->num_clients(); cs++) {
    for (int t = 0; t < env.threads_per_cs; t++) {
      sim::Spawn(make_loop(&system->client(cs), ClientSeed(env.seed, cs, t),
                           &ctx));
    }
  }
  PhaseResult out;
  sim::Simulator& sim = system->simulator();
  if (run_gc) {
    const sim::SimTime interval = env.measure_ns / 8;
    for (int cs = 0; cs < system->num_clients(); cs++) {
      sim::Spawn(GcLoop(&system->client(cs), &sim, interval, &ctx,
                        &out.gc_relocated));
    }
  }
  const sim::SimTime t0 = sim.now();
  const sim::SimTime total = env.warmup_ns + env.measure_ns;
  sim.At(t0 + env.warmup_ns, [&ctx] { ctx.measuring = true; });
  for (int i = 1; i <= samples; i++) {
    sim.At(t0 + total * i / samples, [system, &out] {
      out.footprint.push_back(system->TotalAllocatedBytes());
    });
  }
  sim.At(t0 + total, [&ctx] { ctx.stop = true; });
  sim.Run();
  out.ops = ctx.ops;
  out.failed = ctx.failed;
  out.mops = static_cast<double>(ctx.ops) * 1000.0 /
             static_cast<double>(env.measure_ns);
  out.metrics = system->registry().Snapshot();
  return out;
}

// The varlen bulkload set: the workload's loaded string keys (ranks
// 0..n-1) with 8-byte inline values, sorted by byte key.
std::vector<std::pair<std::string, std::string>> MakeVarLoadKvs(
    uint64_t n, const WorkloadOptions& w) {
  std::vector<std::pair<std::string, std::string>> kvs;
  kvs.reserve(n);
  for (uint64_t rank = 0; rank < n; rank++) {
    const uint64_t key = WorkloadGenerator::LoadedKeyFor(rank);
    std::string sk = WorkloadGenerator::StringKeyFor(key, w.string_key_min,
                                                     w.string_key_max);
    kvs.emplace_back(std::move(sk), std::string(8, 'v'));
  }
  std::sort(kvs.begin(), kvs.end());
  kvs.erase(std::unique(kvs.begin(), kvs.end(),
                        [](const auto& a, const auto& b) {
                          return a.first == b.first;
                        }),
            kvs.end());
  return kvs;
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  BenchEnv env = BenchEnv::FromArgs(args);
  BenchTelemetry telemetry("varlen", args);
  const uint64_t window = static_cast<uint64_t>(args.GetInt("window", 128));
  const int samples =
      std::max(2, static_cast<int>(args.GetInt("samples", 12)));
  // String kvs are an order of magnitude heavier to stage than u64 pairs;
  // cap the loaded set (BOTH phases use the cap, so the ratio stays
  // apples-to-apples).
  const uint64_t keys = std::min<uint64_t>(env.keys, 1'000'000);
  AddEnvConfig(&telemetry, env);
  telemetry.Config("loaded_keys_capped", keys);
  telemetry.Config("window", window);
  telemetry.Config("samples", samples);

  TreeOptions fixed_opt = ShermanOptions();
  // Varlen requires sorted leaves: entry-level versions cover fixed
  // 16-byte entries only. Run the fixed baseline sorted too, so the
  // comparison isolates the record format rather than the leaf protocol.
  fixed_opt.two_level_versions = false;
  TreeOptions var_opt = fixed_opt;
  var_opt.shape.varlen = true;

  WorkloadOptions wl;
  SHERMAN_CHECK(ParseMix("write-intensive", &wl));
  wl.loaded_keys = keys;

  // --- phase A: fixed-layout baseline ---
  PhaseResult fixed;
  {
    ShermanSystem system(env.FabricCfg(), fixed_opt);
    system.BulkLoad(MakeLoadKvs(keys), 0.8);
    fixed = RunPhase(
        &system, env,
        [&wl](TreeClient* c, uint64_t seed, LoopCtx* ctx) {
          return FixedLoop(c, wl, seed, ctx);
        },
        /*samples=*/2, /*run_gc=*/false);
  }

  // --- phase B: varlen, 8-byte values (all inline) ---
  WorkloadOptions wl8 = wl;
  SHERMAN_CHECK(ParseMix("ycsb-string", &wl8));
  wl8.loaded_keys = keys;
  wl8.string_value_min = 8;  // fixed-value parity: nothing out-of-line
  wl8.string_value_max = 8;
  PhaseResult var8;
  {
    ShermanSystem system(env.FabricCfg(), var_opt);
    system.BulkLoadVar(MakeVarLoadKvs(keys, wl8), 0.8);
    var8 = RunPhase(
        &system, env,
        [&wl8](TreeClient* c, uint64_t seed, LoopCtx* ctx) {
          return VarLoop(c, wl8, seed, ctx);
        },
        /*samples=*/2, /*run_gc=*/false);
  }

  // --- phase C: value-log churn (16B..4KB values, continuous GC) ---
  WorkloadOptions wlc;
  SHERMAN_CHECK(ParseMix("ycsb-string", &wlc));
  wlc.loaded_keys = keys;
  wlc.churn_window = window;
  PhaseResult churn;
  uint64_t live_records = 0;
  {
    ShermanSystem system(env.FabricCfg(), var_opt);
    system.BulkLoad({}, 0.8);  // start empty: churn pins the live set
    churn = RunPhase(
        &system, env,
        [&wlc](TreeClient* c, uint64_t seed, LoopCtx* ctx) {
          return VarLoop(c, wlc, seed, ctx);
        },
        samples, /*run_gc=*/true);
    system.DebugCheckInvariants();
    live_records = system.DebugScanLeavesVar().size();
  }

  const auto mb = [](uint64_t b) { return Fmt(b / (1024.0 * 1024.0), 1); };
  Table table("variable-length records (" + std::to_string(keys) +
              " keys, " + std::to_string(env.threads_per_cs) +
              " threads/CS)");
  table.SetColumns({"run", "Mops", "failed", "vlog appends", "vlog reads",
                    "retires", "gc moved", "footprint MB(first->last)"});
  const auto add_row = [&](const char* name, const PhaseResult& r) {
    table.AddRow({name, Fmt(r.mops), std::to_string(r.failed),
                  std::to_string(r.metrics.counter("vlog.appends")),
                  std::to_string(r.metrics.counter("vlog.reads")),
                  std::to_string(r.metrics.counter("vlog.retires")),
                  std::to_string(r.gc_relocated),
                  mb(r.footprint.front()) + "->" + mb(r.footprint.back())});
  };
  add_row("fixed", fixed);
  add_row("varlen-8B", var8);
  add_row("vlog-churn", churn);
  table.Print();

  const double ratio = fixed.mops > 0 ? var8.mops / fixed.mops : 0.0;
  std::printf("\nvarlen-8B/fixed throughput: %.2f (target >= 0.90)\n", ratio);
  std::printf("churn live records at quiescence: %llu\n",
              static_cast<unsigned long long>(live_records));
  std::printf("churn footprint (MB):");
  for (uint64_t b : churn.footprint) std::printf(" %s", mb(b).c_str());
  std::printf("\n");

  telemetry.Metric("fixed.mops", fixed.mops);
  telemetry.Metric("varlen8.mops", var8.mops);
  telemetry.Metric("churn.mops", churn.mops);
  telemetry.Metric("varlen8_over_fixed", ratio);
  const uint64_t churn_appends = churn.metrics.counter("vlog.appends");
  const uint64_t churn_retires = churn.metrics.counter("vlog.retires");
  const uint64_t churn_gc_passes = churn.metrics.counter("vlog.gc_passes");
  telemetry.CounterMetric("churn.vlog_appends", churn_appends);
  telemetry.CounterMetric("churn.vlog_retires", churn_retires);
  telemetry.CounterMetric("churn.gc_relocated", churn.gc_relocated);
  telemetry.CounterMetric("churn.live_records", live_records);
  {
    std::vector<std::pair<uint64_t, uint64_t>> pts;
    const sim::SimTime total = env.warmup_ns + env.measure_ns;
    for (size_t i = 0; i < churn.footprint.size(); i++) {
      pts.emplace_back(
          static_cast<uint64_t>(total * (i + 1) / churn.footprint.size()),
          churn.footprint[i]);
    }
    telemetry.AddSeries("footprint_bytes/vlog-churn", std::move(pts));
  }

  const uint64_t all_failed = fixed.failed + var8.failed + churn.failed;
  telemetry.Gate("no_failed_ops", all_failed == 0,
                 static_cast<double>(all_failed));
  telemetry.Gate("vlog_engaged",
                 churn_appends > 0 && churn_retires > 0,
                 static_cast<double>(churn_appends));
  telemetry.Gate("gc_ran", churn_gc_passes > 0,
                 static_cast<double>(churn_gc_passes));
  if (!env.quick) {
    telemetry.Gate("varlen8_ge_090x_fixed", ratio >= 0.90, ratio);
    telemetry.Gate("footprint_plateau",
                   static_cast<double>(churn.footprint.back()) <=
                       1.10 * static_cast<double>(
                                  churn.footprint[churn.footprint.size() / 2]),
                   static_cast<double>(churn.footprint.back()));
  }

  bool fail = false;
  if (all_failed > 0) {
    std::printf("FAIL: %llu ops failed\n",
                static_cast<unsigned long long>(all_failed));
    fail = true;
  }
  if (churn_appends == 0 || churn_retires == 0) {
    std::printf("FAIL: value log never engaged under churn "
                "(appends=%llu retires=%llu)\n",
                static_cast<unsigned long long>(churn_appends),
                static_cast<unsigned long long>(churn_retires));
    fail = true;
  }
  if (churn_gc_passes == 0) {
    std::printf("FAIL: GC never ran\n");
    fail = true;
  }
  if (!env.quick) {
    if (ratio < 0.90) {
      std::printf("FAIL: varlen-8B throughput below 90%% of fixed (%.2f)\n",
                  ratio);
      fail = true;
    }
    const uint64_t half = churn.footprint[churn.footprint.size() / 2];
    if (static_cast<double>(churn.footprint.back()) >
        1.10 * static_cast<double>(half)) {
      std::printf("FAIL: churn footprint still growing (%s MB -> %s MB)\n",
                  mb(half).c_str(), mb(churn.footprint.back()).c_str());
      fail = true;
    }
  }
  return fail ? 1 : 0;
}
