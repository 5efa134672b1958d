// bench_churn: space reclamation under sustained insert/delete churn.
//
// The churn mix holds the live-key count fixed: every client inserts
// fresh keys until its window fills, then alternates deleting its oldest
// key with inserting a new one. Leaves fill and split under the inserts;
// the deletes underflow the split halves, which merge back into their
// left siblings and return their nodes to the per-MS epoch-protected
// grace lists, where fresh split allocations recycle them. The headline
// result is the allocated-bytes series: it must PLATEAU (chunks stop
// being requested once recycling covers the split rate) while an
// insert-only run of the same op pattern grows without bound.
//
// Reported: the footprint series sampled across the run; the leaf-chain
// length vs the SAME churn stream with reclamation disabled
// (merge_threshold = 0, the paper's leaky delete — its drained leaves
// linger forever, so its chain grows with every window generation while
// the reclaimed chain tracks the live set); merge/free/recycle counters
// from all three reclamation sites (client merges, MS-side executor
// merges, allocator recycling); churn throughput vs an insert-only run
// of the same op pattern and vs the no-reclaim churn (the gross price of
// reclamation); and post-churn lookup throughput vs a freshly bulkloaded
// tree of the identical live set (the churned tree must not have decayed
// structurally).
//
// Exit code enforces (always): zero failed ops, merges > 0, frees > 0.
// Full runs additionally enforce recycling > 0, the plateau (last-sample
// footprint within 10% of the halfway mark), reclaimed leaf chain <=
// half the leaked chain, churn throughput >= 0.9x insert-only, and
// post-churn lookups >= 0.9x fresh-bulkload. --quick relaxes those
// (short windows have not equilibrated).
//
// Flags (beyond bench/common.h): --window=N (live keys per client,
// default 192), --samples=N (footprint samples, default 12)
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"

using namespace sherman;
using namespace sherman::bench;

namespace {

struct LookupCtx {
  bool stop = false;
  uint64_t ops = 0;
  uint64_t failed = 0;
};

sim::Task<void> LookupLoop(TreeClient* client, const std::vector<Key>* keys,
                           uint64_t seed, LookupCtx* ctx) {
  Random rng(seed);
  while (!ctx->stop) {
    const Key k = (*keys)[rng.Uniform(keys->size())];
    uint64_t v = 0;
    Status st = co_await client->Lookup(k, &v);
    if (!st.ok()) {
      if (++ctx->failed <= 4) {
        std::printf("lookup miss: cs=%d key=%llu: %s\n", client->cs_id(),
                    static_cast<unsigned long long>(k),
                    st.ToString().c_str());
      }
    }
    ctx->ops++;
  }
}

// Read-only throughput over `live` keys; every key must be found.
double MeasureLookupMops(ShermanSystem* system, const std::vector<Key>& live,
                         int threads_per_cs, sim::SimTime window,
                         uint64_t seed, uint64_t* failed) {
  LookupCtx ctx;
  for (int cs = 0; cs < system->num_clients(); cs++) {
    for (int t = 0; t < threads_per_cs; t++) {
      sim::Spawn(LookupLoop(&system->client(cs), &live,
                            ClientSeed(seed, cs, t), &ctx));
    }
  }
  sim::Simulator& sim = system->simulator();
  const sim::SimTime t0 = sim.now();
  sim.At(t0 + window, [&ctx] { ctx.stop = true; });
  sim.Run();
  *failed += ctx.failed;
  return static_cast<double>(ctx.ops) * 1000.0 /
         static_cast<double>(window);
}

struct ChurnResult {
  double mops = 0;
  RunResult run;                    // full runner result (telemetry)
  std::vector<uint64_t> footprint;  // sampled allocated bytes
  uint64_t leaf_merges = 0;  // client-side merges (reclaim.leaf_merges)
  uint64_t ms_nodes_freed = 0;
  uint64_t ms_nodes_recycled = 0;
  uint64_t grace_pending = 0;
  size_t leaf_chain = 0;  // leaves in the B-link chain at quiescence
};

ChurnResult RunChurn(ShermanSystem* system, const BenchEnv& env,
                     uint64_t window, int samples, uint64_t seed_offset = 0) {
  RunnerOptions r;
  r.threads_per_cs = env.threads_per_cs;
  r.workload.loaded_keys = env.keys;
  r.workload.churn_window = window;
  r.warmup_ns = env.warmup_ns;
  r.measure_ns = env.measure_ns;
  r.seed = env.seed + seed_offset;

  ChurnResult out;
  sim::Simulator& sim = system->simulator();
  const sim::SimTime t0 = sim.now();
  const sim::SimTime total = env.warmup_ns + env.measure_ns;
  for (int i = 1; i <= samples; i++) {
    sim.At(t0 + total * i / samples, [system, &out] {
      out.footprint.push_back(system->TotalAllocatedBytes());
    });
  }
  const RunResult res = RunWorkload(system, r);
  out.run = res;
  out.mops = res.mops;
  const obs::MetricsSnapshot end = system->registry().Snapshot();
  out.leaf_merges = end.counter("reclaim.leaf_merges");
  out.ms_nodes_freed = end.counter("alloc.nodes_freed");
  out.ms_nodes_recycled = end.counter("alloc.nodes_recycled");
  out.grace_pending =
      static_cast<uint64_t>(end.gauge("reclaim.grace_pending"));
  out.leaf_chain = system->DebugCountLeaves();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  BenchEnv env = BenchEnv::FromArgs(args);
  BenchTelemetry telemetry("churn", args);
  const uint64_t window = static_cast<uint64_t>(args.GetInt("window", 192));
  const int samples =
      std::max(2, static_cast<int>(args.GetInt("samples", 12)));
  AddEnvConfig(&telemetry, env);
  telemetry.Config("window", window);
  telemetry.Config("samples", samples);
  // Churn owns the whole tree: start empty so the live set (and therefore
  // the steady-state footprint) is exactly what the windows pin.
  TreeOptions topt = ShermanOptions();

  // --- churn run (fixed live count, reclamation on) ---
  ShermanSystem churned(env.FabricCfg(), topt);
  churned.BulkLoad({}, 0.8);
  const ChurnResult churn = RunChurn(&churned, env, window, samples);

  // --- leaky baseline: the identical churn stream with reclamation
  // disabled (the paper's delete: slots null, leaves never merge or
  // free). Same live set, same tree dynamics — the throughput delta is
  // the price of reclamation, and the footprint contrast is its point:
  // drained leaves linger forever, so the leak grows with every window
  // generation that sweeps past. ---
  TreeOptions leaky_opt = topt;
  leaky_opt.merge_threshold = 0;
  ShermanSystem leaky_sys(env.FabricCfg(), leaky_opt);
  leaky_sys.BulkLoad({}, 0.8);
  const ChurnResult leaky = RunChurn(&leaky_sys, env, window, samples);

  // --- insert-only reference: same op pattern, deletes never fire
  // (window larger than the op budget), footprint grows with the data ---
  ShermanSystem grower(env.FabricCfg(), topt);
  grower.BulkLoad({}, 0.8);
  const ChurnResult insert_only =
      RunChurn(&grower, env, /*window=*/1ull << 40, samples);

  // --- post-churn lookups vs a fresh bulkload of the same live set ---
  const auto live_kvs = churned.DebugScanLeaves();
  std::vector<Key> live;
  live.reserve(live_kvs.size());
  for (const auto& [k, v] : live_kvs) live.push_back(k);
  uint64_t lookup_failures = 0;
  double churned_rd = 0, fresh_rd = 0;
  if (!live.empty()) {
    churned_rd = MeasureLookupMops(&churned, live, env.threads_per_cs,
                                   env.measure_ns, env.seed + 1,
                                   &lookup_failures);
    ShermanSystem fresh(env.FabricCfg(), topt);
    fresh.BulkLoad(live_kvs, 0.8);
    fresh_rd = MeasureLookupMops(&fresh, live, env.threads_per_cs,
                                 env.measure_ns, env.seed + 1,
                                 &lookup_failures);
  }

  Table table("delete-heavy churn (" + std::to_string(window) +
              " live keys/client, " + std::to_string(env.threads_per_cs) +
              " threads/CS)");
  table.SetColumns({"run", "Mops", "footprint MB(first->last)", "leaves",
                    "merges", "freed", "recycled", "grace"});
  const auto mb = [](uint64_t b) { return Fmt(b / (1024.0 * 1024.0), 1); };
  const auto add_row = [&](const char* name, const ChurnResult& r) {
    table.AddRow({name, Fmt(r.mops),
                  mb(r.footprint.front()) + "->" + mb(r.footprint.back()),
                  std::to_string(r.leaf_chain),
                  std::to_string(r.leaf_merges),
                  std::to_string(r.ms_nodes_freed),
                  std::to_string(r.ms_nodes_recycled),
                  std::to_string(r.grace_pending)});
  };
  add_row("churn", churn);
  add_row("churn-no-reclaim", leaky);
  add_row("insert-only", insert_only);
  table.Print();

  telemetry.AddRun("churn", churn.run);
  telemetry.AddRun("churn-no-reclaim", leaky.run);
  telemetry.AddRun("insert-only", insert_only.run);
  const auto footprint_series = [&](const ChurnResult& r) {
    std::vector<std::pair<uint64_t, uint64_t>> pts;
    const sim::SimTime total = env.warmup_ns + env.measure_ns;
    for (size_t i = 0; i < r.footprint.size(); i++) {
      pts.emplace_back(static_cast<uint64_t>(total * (i + 1) /
                                             r.footprint.size()),
                       r.footprint[i]);
    }
    return pts;
  };
  telemetry.AddSeries("footprint_bytes/churn", footprint_series(churn));
  telemetry.AddSeries("footprint_bytes/no-reclaim", footprint_series(leaky));
  telemetry.Metric("churn.leaf_chain", static_cast<double>(churn.leaf_chain));
  telemetry.Metric("churn.leaked_leaf_chain",
                   static_cast<double>(leaky.leaf_chain));

  std::printf("\nfootprint series, reclaim    (MB):");
  for (uint64_t b : churn.footprint) std::printf(" %s", mb(b).c_str());
  std::printf("\nfootprint series, no-reclaim (MB):");
  for (uint64_t b : leaky.footprint) std::printf(" %s", mb(b).c_str());
  std::printf("\nlive keys at quiescence: %zu\n", live.size());
  std::printf("leaf chain: %zu with reclaim vs %zu leaked "
              "(target <= 0.5x)\n",
              churn.leaf_chain, leaky.leaf_chain);
  std::printf("churn/insert-only throughput: %.2f (target >= 0.90)\n",
              insert_only.mops > 0 ? churn.mops / insert_only.mops : 0.0);
  std::printf("churn/no-reclaim throughput: %.2f (the gross price of "
              "reclamation; reference)\n",
              leaky.mops > 0 ? churn.mops / leaky.mops : 0.0);
  std::printf("post-churn/fresh lookup throughput: %.2f (target >= 0.90)\n",
              fresh_rd > 0 ? churned_rd / fresh_rd : 0.0);

  telemetry.Gate("no_lookup_failures", lookup_failures == 0,
                 static_cast<double>(lookup_failures));
  telemetry.Gate("reclamation_engaged",
                 churn.leaf_merges > 0 && churn.ms_nodes_freed > 0,
                 static_cast<double>(churn.leaf_merges));
  if (!env.quick) {
    telemetry.Gate("footprint_plateau",
                   static_cast<double>(churn.footprint.back()) <=
                       1.10 * static_cast<double>(
                                  churn.footprint[churn.footprint.size() / 2]),
                   static_cast<double>(churn.footprint.back()));
    telemetry.Gate("chain_le_half_leaked",
                   churn.leaf_chain * 2 <= leaky.leaf_chain,
                   static_cast<double>(churn.leaf_chain));
  }

  bool fail = false;
  if (lookup_failures > 0) {
    std::printf("FAIL: %llu post-churn lookups missed live keys\n",
                static_cast<unsigned long long>(lookup_failures));
    fail = true;
  }
  if (churn.leaf_merges == 0 || churn.ms_nodes_freed == 0) {
    std::printf("FAIL: reclamation never engaged (merges=%llu freed=%llu)\n",
                static_cast<unsigned long long>(churn.leaf_merges),
                static_cast<unsigned long long>(churn.ms_nodes_freed));
    fail = true;
  }
  if (!env.quick) {
    // Full runs must actually recycle (quick windows can end with every
    // free still inside its grace period).
    if (churn.ms_nodes_recycled == 0) {
      std::printf("FAIL: no freed node was ever recycled\n");
      fail = true;
    }
    // Plateau: once half the run has passed (per-client chunk acquisition
    // is done), the footprint may not grow more than 10% to the end.
    const uint64_t half = churn.footprint[churn.footprint.size() / 2];
    if (static_cast<double>(churn.footprint.back()) >
        1.10 * static_cast<double>(half)) {
      std::printf("FAIL: footprint still growing (%s MB -> %s MB)\n",
                  mb(half).c_str(), mb(churn.footprint.back()).c_str());
      fail = true;
    }
    if (insert_only.mops > 0 && churn.mops < 0.9 * insert_only.mops) {
      std::printf("FAIL: churn throughput below 90%% of insert-only\n");
      fail = true;
    }
    if (churn.leaf_chain * 2 > leaky.leaf_chain) {
      std::printf("FAIL: reclaimed chain not under half the leaked chain\n");
      fail = true;
    }
    if (fresh_rd > 0 && churned_rd < 0.9 * fresh_rd) {
      std::printf("FAIL: post-churn lookups below 90%% of fresh bulkload\n");
      fail = true;
    }
  }
  return fail ? 1 : 0;
}
