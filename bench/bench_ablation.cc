// Ablation benches for design choices beyond the paper's own figures:
//   (a) HOCL handover depth (the paper fixes MAX_DEPTH = 4 to avoid
//       starving other CSs — this sweep shows the fairness/throughput
//       trade-off);
//   (b) command combination x two-level versions as *independent* toggles
//       (Figures 10/11 only apply them cumulatively);
//   (c) the §4.6 generality claim measured: the HOCL hash table with FG-
//       style locks vs full HOCL under skewed Put traffic;
//   (d) the §3.1 motivation measured: writes delegated over RPC to the
//       memory servers' memory threads vs Sherman's one-sided path.
//       Gates: every RPC-arm op is exactly one RPC, and the RPC arm stays
//       under the num_ms / rpc_service_ns memory-thread ceiling. Exits 1
//       when either fails.
#include <memory>

#include "common.h"
#include "core/hybrid_system.h"
#include "ext/hash_table.h"
#include "lock_bench.h"
#include "util/random.h"

using namespace sherman;
using namespace sherman::bench;

namespace {

struct HashCtx {
  bool stop = false;
  uint64_t ops = 0;
  Histogram latency;
};

sim::Task<void> HashWorker(rdma::Fabric* fabric, ext::HashTableClient* client,
                           uint64_t keys, double theta, uint64_t seed,
                           HashCtx* ctx) {
  Random rng(seed);
  ScrambledZipfianGenerator zipf(keys, theta);
  while (!ctx->stop) {
    const uint64_t key = 1 + zipf.Next(rng);
    const sim::SimTime t0 = fabric->simulator().now();
    Status st = co_await client->Put(key, rng.Next());
    SHERMAN_CHECK(st.ok());
    ctx->ops++;
    ctx->latency.Add(fabric->simulator().now() - t0);
  }
}

double RunHashBench(const ext::HashTableOptions& topt, double theta,
                    sim::SimTime window, double* p99_us) {
  rdma::FabricConfig fcfg;
  fcfg.num_memory_servers = 4;
  fcfg.num_compute_servers = 4;
  fcfg.ms_memory_bytes = 128ull << 20;
  rdma::Fabric fabric(fcfg);
  ext::HoclHashTable table(&fabric, topt);
  std::vector<std::unique_ptr<ext::HashTableClient>> clients;
  for (int cs = 0; cs < 4; cs++) {
    clients.push_back(std::make_unique<ext::HashTableClient>(&table, cs));
  }
  HashCtx ctx;
  const uint64_t keys = 100'000;
  for (int cs = 0; cs < 4; cs++) {
    for (int t = 0; t < 16; t++) {
      sim::Spawn(HashWorker(&fabric, clients[cs].get(), keys, theta,
                            static_cast<uint64_t>(cs) * 100 + t, &ctx));
    }
  }
  fabric.simulator().At(window, [&ctx] { ctx.stop = true; });
  fabric.simulator().Run();
  *p99_us = ctx.latency.P99() / 1000.0;
  return static_cast<double>(ctx.ops) * 1000.0 / static_cast<double>(window);
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  BenchEnv env = BenchEnv::FromArgs(args);
  BenchTelemetry telemetry("ablation", args);
  AddEnvConfig(&telemetry, env);
  const sim::SimTime lock_window = env.quick ? 3'000'000 : 8'000'000;

  // --- (a) handover depth sweep ---
  {
    Table table("Ablation (a): HOCL handover depth (skew 0.99, 176 threads; "
                "paper fixes MAX_DEPTH=4)");
    table.SetColumns({"max depth", "Mops", "p50(us)", "p99(us)", "handovers"});
    for (uint32_t depth : {0u, 1u, 2u, 4u, 8u, 32u}) {
      LockBenchOptions opt;
      opt.zipf_theta = 0.99;
      opt.lock.handover = depth > 0;
      opt.lock.max_handover_depth = depth;
      opt.measure_ns = lock_window;
      const LockBenchResult r = RunLockBench(opt);
      telemetry.Metric("a.mops@depth" + std::to_string(depth), r.mops);
      table.AddRow({std::to_string(depth), Fmt(r.mops),
                    FmtUs(r.latency_ns.P50()), FmtUs(r.latency_ns.P99()),
                    std::to_string(r.handovers)});
      std::fprintf(stderr, "[ablation-a] depth=%u done (%.2f Mops)\n", depth,
                   r.mops);
    }
    table.Print();
  }

  // --- (b) combine x two-level versions grid on the tree ---
  {
    Table table("Ablation (b): combine x two-level versions, independent "
                "toggles (write-intensive)");
    table.SetColumns({"combine", "two-level", "uniform Mops", "skew Mops"});
    for (bool combine : {false, true}) {
      for (bool two_level : {false, true}) {
        TreeOptions topt = ShermanOptions();
        topt.combine_commands = combine;
        topt.two_level_versions = two_level;
        if (!two_level) {
          topt.consistency = TreeOptions::Consistency::kChecksum;
        }
        double mops[2];
        int i = 0;
        for (double theta : {0.0, 0.99}) {
          BenchEnv e2 = env;
          e2.keys = env.quick ? 200'000 : 1'000'000;
          auto system = e2.MakeSystem(topt);
          const RunResult r = RunWorkload(
              system.get(), e2.Runner(WorkloadMix::WriteIntensive(), theta));
          telemetry.AddRun(std::string("b/combine-") + (combine ? "on" : "off") +
                               "/2lv-" + (two_level ? "on" : "off") +
                               (theta > 0 ? "/skew" : "/uniform"),
                           r);
          mops[i++] = r.mops;
        }
        table.AddRow({combine ? "on" : "off", two_level ? "on" : "off",
                      Fmt(mops[0]), Fmt(mops[1])});
        std::fprintf(stderr, "[ablation-b] combine=%d 2lv=%d done\n", combine,
                     two_level);
      }
    }
    table.Print();
  }

  // --- (c) generality: hash table with FG locks vs HOCL ---
  {
    Table table("Ablation (c): HOCL generality — bucket hash table, skewed "
                "Put-only (§4.6)");
    table.SetColumns({"configuration", "Mops", "p99(us)"});
    struct Cfg {
      const char* name;
      bool hocl;
      bool combine;
    };
    for (const Cfg& cfg : {Cfg{"FG-style locks, no combine", false, false},
                           Cfg{"FG-style locks + combine", false, true},
                           Cfg{"full HOCL + combine", true, true}}) {
      ext::HashTableOptions topt;
      topt.combine_commands = cfg.combine;
      if (!cfg.hocl) {
        topt.lock.onchip = false;
        topt.lock.hierarchical = false;
        topt.lock.wait_queue = false;
        topt.lock.handover = false;
      }
      double p99 = 0;
      const double mops =
          RunHashBench(topt, 0.99, env.quick ? 3'000'000 : 8'000'000, &p99);
      telemetry.Metric(std::string("c.mops/") + cfg.name, mops);
      table.AddRow({cfg.name, Fmt(mops), Fmt(p99)});
      std::fprintf(stderr, "[ablation-c] %s done (%.2f Mops)\n", cfg.name,
                   mops);
    }
    table.Print();
  }

  // --- (d) why not RPC? (§3.1 motivation, made measurable) ---
  // A Cell/FaRM-style write path delegates index ops to the MS memory
  // threads; with 1-2 wimpy cores per MS (3 us per request) it caps at
  // num_ms / 3 us regardless of client count, while Sherman's one-sided
  // path rides NIC IOPS. The RPC arm pins every shard of a HybridSystem to
  // TreeRpcService, which runs each put near memory on the same B-link
  // tree. Its puts all update loaded keys, so no leaf split can decline
  // one to the one-sided path: every op is exactly one RPC.
  const rdma::FabricConfig fcfg = env.FabricCfg();
  const double rpc_ceiling_mops = fcfg.num_memory_servers * 1000.0 /
                                  static_cast<double>(fcfg.rpc_service_ns);
  uint64_t rpc_not_one_rpc = 0;  // measured RPC-arm ops not served by one RPC
  double rpc_mops_max_clients = 0;
  {
    Table table("Ablation (d): RPC-delegated writes vs one-sided Sherman "
                "(uniform Put/Insert-only)");
    table.SetColumns({"clients", "RPC index Mops", "Sherman Mops"});
    for (int threads_per_cs : {4, 11, 22}) {
      BenchEnv e2 = env;
      e2.keys = env.quick ? 100'000 : 500'000;
      double rpc_mops = 0;
      {
        HybridOptions hopt;
        hopt.tree = ShermanOptions();
        hopt.router.policy = route::RouterOptions::Policy::kAllRpc;
        HybridSystem system(fcfg, hopt);
        system.BulkLoad(MakeLoadKvs(e2.keys), 0.8);
        RunnerOptions ropt = e2.Runner(WorkloadMix::WriteOnly(), 0.0);
        ropt.threads_per_cs = threads_per_cs;
        ropt.workload.update_fraction = 1.0;
        const RunResult r = RunWorkload(&system, ropt);
        rpc_not_one_rpc += r.metrics.counter("route.ops_one_sided") +
                           r.metrics.counter("route.rpc_fallbacks");
        rpc_mops = r.mops;
      }
      double sherman_mops = 0;
      {
        auto system = e2.MakeSystem(ShermanOptions());
        RunnerOptions ropt = e2.Runner(WorkloadMix::WriteOnly(), 0.0);
        ropt.threads_per_cs = threads_per_cs;
        const RunResult r = RunWorkload(system.get(), ropt);
        telemetry.AddRun(
            "d/c" + std::to_string(threads_per_cs * env.num_cs) + "/sherman",
            r);
        sherman_mops = r.mops;
      }
      telemetry.Metric(
          "d.rpc_mops@c" + std::to_string(threads_per_cs * env.num_cs),
          rpc_mops);
      rpc_mops_max_clients = rpc_mops;
      table.AddRow({std::to_string(threads_per_cs * env.num_cs),
                    Fmt(rpc_mops), Fmt(sherman_mops)});
      std::fprintf(stderr, "[ablation-d] clients=%d done (rpc %.2f vs %.2f)\n",
                   threads_per_cs * env.num_cs, rpc_mops, sherman_mops);
    }
    table.Print();
  }

  const bool all_one_rpc = rpc_not_one_rpc == 0;
  const bool capped = rpc_mops_max_clients <= 1.02 * rpc_ceiling_mops;
  telemetry.Gate("d.rpc_all_one_rpc", all_one_rpc,
                 static_cast<double>(rpc_not_one_rpc));
  telemetry.Gate("d.rpc_capped", capped, rpc_mops_max_clients);
  std::printf("\n(d) RPC arm: %llu ops not served by exactly one RPC (gate "
              "0); %.2f Mops at the most clients vs the %.2f Mops "
              "memory-thread ceiling (gate <= 1.02x)\n",
              static_cast<unsigned long long>(rpc_not_one_rpc),
              rpc_mops_max_clients, rpc_ceiling_mops);
  if (all_one_rpc && capped) return 0;
  std::printf("FAIL: ablation (d) RPC-arm gate\n");
  return 1;
}
