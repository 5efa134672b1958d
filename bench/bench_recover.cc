// bench_recover: client-crash fault tolerance under load.
//
// N compute servers run a mixed insert/lookup workload; mid-measurement
// one client is fail-stop killed (every coroutine of that CS freezes at
// its next doorbell, exactly as the crash-point harness does). A survivor
// acting as the failure detector recovers the dead client after a
// detection delay: claims it, sweeps its lock lanes, replays or rolls
// back its in-doubt intents, and releases its reclamation pins. Survivor
// workers meanwhile run straight through the crash — writers that hit a
// dead lane steal the lease organically, readers escape tombstone bounces
// through the lock probe.
//
// Reported: the survivor-throughput interval series (the dip while dead
// lanes pend and its post-recovery level), per-surviving-worker throughput
// before/after the kill, the recovery latency (detection delay + repair
// time), and the recovery action counters (lanes swept, intents
// replayed/rolled back, orphans freed, lease steals).
//
// Exit code enforces: zero failed survivor ops, recovery completed, and —
// full runs only — post-kill per-worker survivor throughput >= 0.5x
// pre-kill (--quick relaxes the ratio; short windows are noisy).
//
// Flags (beyond bench/common.h): --kill-at-frac-pct=P (kill instant as a
// percentage of the measure window, default 35), --detect-ms=D (failure-
// detection delay before explicit recovery, default 1ms). Set
// SHERMAN_CRASH_AT=<site>:<n> (+ SHERMAN_CRASH_CS) to kill the victim at
// a named structural crash point instead of the timed fail-stop.
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "fault/crash_point.h"
#include "obs/trace.h"
#include "recover/recoverer.h"

using namespace sherman;
using namespace sherman::bench;

namespace {

struct WorkerCtx {
  bool stop = false;
  std::vector<uint64_t> ops_by_cs;     // completed ops per compute server
  std::vector<uint64_t> failed_by_cs;  // non-OK/NotFound outcomes
};

sim::Task<void> MixWorker(TreeClient* client, obs::Tracer* tracer,
                          uint64_t keys, uint64_t seed, WorkerCtx* ctx) {
  Random rng(seed);
  const int cs = client->cs_id();
  // Per-worker trace context, same shape as the runner's: a root span per
  // op so the flight dump around the kill shows what every client was
  // doing, with lower-layer spans parented under it.
  obs::TraceCtx trace = obs::TraceCtx::For(tracer, obs::RingId::Client(cs));
  // Updates + lookups over the loaded set, plus fresh-key inserts and
  // deletes so splits and merges run continuously: the kill then lands on
  // clients that are genuinely mid-structural-op, exercising the intent
  // machinery rather than only the lane sweep.
  uint64_t fresh = 0;
  while (!ctx->stop) {
    const uint64_t dice = rng.Uniform(10);
    Status st;
    OpStats op_stats;
    op_stats.trace = &trace;
    if (dice < 3) {
      const Key key = WorkloadGenerator::LoadedKeyFor(rng.Uniform(keys));
      SHERMAN_TSPAN(&trace, "op.insert", key);
      st = co_await client->Insert(key, key * 13 + 1, &op_stats);
    } else if (dice < 5) {
      // Odd keys land between the (even) loaded keys and fill leaves.
      const Key key = 1 + 2 * ((seed + fresh++) % (4 * keys));
      SHERMAN_TSPAN(&trace, "op.insert", key);
      st = co_await client->Insert(key, key, &op_stats);
    } else if (dice < 6) {
      const Key key = 1 + 2 * rng.Uniform(4 * keys);
      SHERMAN_TSPAN(&trace, "op.delete", key);
      st = co_await client->Delete(key, &op_stats);
    } else {
      const Key key = WorkloadGenerator::LoadedKeyFor(rng.Uniform(keys));
      uint64_t v = 0;
      SHERMAN_TSPAN(&trace, "op.lookup", key);
      st = co_await client->Lookup(key, &v, &op_stats);
    }
    if (!st.ok() && !st.IsNotFound()) ctx->failed_by_cs[cs]++;
    ctx->ops_by_cs[cs]++;
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  BenchEnv env = BenchEnv::FromArgs(args);
  BenchTelemetry telemetry("recover", args);
  env.num_ms = 4;
  env.num_cs = 4;
  if (env.quick) env.threads_per_cs = std::min(env.threads_per_cs, 8);
  const double kill_frac = args.GetInt("kill-at-frac-pct", 35) / 100.0;
  const sim::SimTime detect_ns =
      static_cast<sim::SimTime>(args.GetInt("detect-ms", 1)) * 1'000'000;
  const int victim_cs = env.num_cs - 1;
  const uint16_t victim_tag = static_cast<uint16_t>(victim_cs) + 1;

  fault::Injector().Reset();
  const bool site_kill = fault::Injector().ArmFromEnv();

  AddEnvConfig(&telemetry, env);
  telemetry.Config("kill_frac", kill_frac);
  telemetry.Config("detect_ns", static_cast<uint64_t>(detect_ns));
  telemetry.Config("victim_cs", victim_cs);
  telemetry.Config("site_kill", site_kill);

  TreeOptions topt = ShermanOptions();
  auto system = env.MakeSystem(topt);
  telemetry.SetTracer(&system->tracer());
  sim::Simulator& sim = system->simulator();

  WorkerCtx ctx;
  ctx.ops_by_cs.assign(env.num_cs, 0);
  ctx.failed_by_cs.assign(env.num_cs, 0);
  for (int cs = 0; cs < env.num_cs; cs++) {
    for (int t = 0; t < env.threads_per_cs; t++) {
      sim::Spawn(MixWorker(&system->client(cs), &system->tracer(), env.keys,
                           ClientSeed(env.seed, cs, t), &ctx));
    }
  }

  // Interval series over the measure window (survivor ops only).
  constexpr int kIntervals = 12;
  const sim::SimTime t_kill =
      env.warmup_ns +
      static_cast<sim::SimTime>(kill_frac * static_cast<double>(env.measure_ns));
  std::vector<uint64_t> survivor_series(kIntervals + 1, 0);
  const auto survivor_ops = [&ctx, victim_cs] {
    uint64_t n = 0;
    for (size_t cs = 0; cs < ctx.ops_by_cs.size(); cs++) {
      if (static_cast<int>(cs) != victim_cs) n += ctx.ops_by_cs[cs];
    }
    return n;
  };
  for (int i = 0; i <= kIntervals; i++) {
    sim.At(env.warmup_ns + env.measure_ns * i / kIntervals,
           [&survivor_series, &survivor_ops, i] {
             survivor_series[i] = survivor_ops();
           });
  }

  // The kill. With SHERMAN_CRASH_AT armed the victim dies at its named
  // crash site; if the workload never reaches that site by the kill
  // instant (e.g. an update-heavy mix that rarely splits), fall back to
  // the timed fail-stop so the recovery below never targets a live client.
  sim.At(t_kill, [victim_cs, site_kill] {
    if (!site_kill || !fault::Injector().dead(victim_cs)) {
      fault::Injector().KillClient(victim_cs);
    }
  });

  // The failure detector: a survivor recovers the victim after the
  // detection delay (organic lease steals may already have beaten it).
  bool recovered = false;
  sim.At(t_kill + detect_ns, [&system, &recovered, victim_tag] {
    sim::Spawn([](ShermanSystem* sys, uint16_t tag,
                  bool* flag) -> sim::Task<void> {
      co_await sys->client(0).recoverer().RecoverDeadOwner(tag);
      *flag = true;
    }(system.get(), victim_tag, &recovered));
  });

  sim.At(env.warmup_ns + env.measure_ns, [&ctx] { ctx.stop = true; });
  sim.Run();

  // Recovery actions of every survivor, from the registry: an organic
  // lease steal runs recovery on whichever client observed the expiry
  // first, not necessarily the designated failure detector. Only
  // survivors steal leases or recover: the victim is dead.
  const obs::MetricsSnapshot end = system->registry().Snapshot();
  const uint64_t lease_steals = end.counter("lock.lease_steals");
  const uint64_t recoveries = end.counter("recover.recoveries");
  const uint64_t partial_recoveries = end.counter("recover.partial_recoveries");
  const double repair_ns = end.gauge("recover.last_duration_ns");
  uint64_t survivor_failed = 0;
  for (int cs = 0; cs < env.num_cs; cs++) {
    if (cs != victim_cs) survivor_failed += ctx.failed_by_cs[cs];
  }
  const int survivor_workers = (env.num_cs - 1) * env.threads_per_cs;

  // Per-interval survivor Mops.
  const double interval_ms =
      static_cast<double>(env.measure_ns) / kIntervals / 1e6;
  const int kill_interval = static_cast<int>(kill_frac * kIntervals);
  double pre = 0, dip = 1e18, post = 0;
  int pre_n = 0, post_n = 0;
  std::printf("survivor throughput series (Mops, %d clients x %d threads, "
              "victim killed in interval %d):\n",
              env.num_cs, env.threads_per_cs, kill_interval + 1);
  for (int i = 0; i < kIntervals; i++) {
    const double mops =
        static_cast<double>(survivor_series[i + 1] - survivor_series[i]) /
        (interval_ms * 1e3);
    std::printf("  [%2d] %.3f\n", i + 1, mops);
    if (i < kill_interval) {
      pre += mops;
      pre_n++;
    } else if (i > kill_interval) {
      post += mops;
      post_n++;
      dip = std::min(dip, mops);
    }
  }
  pre = pre_n > 0 ? pre / pre_n : 0;
  post = post_n > 0 ? post / post_n : 0;
  const double recovery_latency_ms =
      (static_cast<double>(detect_ns) + repair_ns) / 1e6;

  telemetry.MergeMetrics(end);
  {
    std::vector<std::pair<uint64_t, uint64_t>> pts;
    for (int i = 0; i <= kIntervals; i++) {
      pts.emplace_back(env.measure_ns * i / kIntervals, survivor_series[i]);
    }
    telemetry.AddSeries("survivor_ops", std::move(pts));
  }
  telemetry.Metric("recover.pre_kill_mops", pre);
  telemetry.Metric("recover.post_recovery_mops", post);
  telemetry.Metric("recover.dip_mops", dip < 1e17 ? dip : 0);
  telemetry.Metric("recover.latency_ms", recovery_latency_ms);
  telemetry.CounterMetric("recover.survivor_lease_steals", lease_steals);

  std::printf("\nsurvivors: %d workers, failed ops %llu\n", survivor_workers,
              static_cast<unsigned long long>(survivor_failed));
  std::printf("pre-kill  %.3f Mops   post-recovery %.3f Mops   ratio %.2f\n",
              pre, post, pre > 0 ? post / pre : 0);
  std::printf("dip interval %.3f Mops\n", dip < 1e17 ? dip : 0);
  std::printf("recovery: latency %.3f ms (detect %.1f ms + repair %.3f ms), "
              "recoveries %llu (partial %llu)\n",
              recovery_latency_ms, detect_ns / 1e6, repair_ns / 1e6,
              static_cast<unsigned long long>(recoveries),
              static_cast<unsigned long long>(partial_recoveries));
  std::printf("actions: lanes swept %llu, intents replayed %llu / rolled "
              "back %llu, orphans freed %llu, survivor lease steals %llu\n",
              static_cast<unsigned long long>(
                  end.counter("recover.lanes_swept")),
              static_cast<unsigned long long>(
                  end.counter("recover.intents_replayed")),
              static_cast<unsigned long long>(
                  end.counter("recover.intents_rolled_back")),
              static_cast<unsigned long long>(
                  end.counter("recover.orphans_freed")),
              static_cast<unsigned long long>(lease_steals));

  // Gates.
  telemetry.Gate("no_survivor_failures", survivor_failed == 0,
                 static_cast<double>(survivor_failed));
  telemetry.Gate("recovery_completed",
                 recovered && recoveries + partial_recoveries > 0,
                 static_cast<double>(recoveries + partial_recoveries));
  telemetry.Gate("post_pre_ratio",
                 env.quick || pre <= 0 || post / pre >= 0.5,
                 pre > 0 ? post / pre : 0);
  bool ok = true;
  if (survivor_failed != 0) {
    std::printf("FAIL: %llu survivor ops failed\n",
                static_cast<unsigned long long>(survivor_failed));
    ok = false;
  }
  if (!recovered || recoveries + partial_recoveries == 0) {
    std::printf("FAIL: recovery never completed\n");
    ok = false;
  }
  if (!env.quick && pre > 0 && post / pre < 0.5) {
    std::printf("FAIL: post-recovery survivor throughput %.2fx pre-kill "
                "(target >= 0.5)\n",
                post / pre);
    ok = false;
  }
  std::printf("%s\n", ok ? "PASS" : "FAIL");
  // Write while `system` (and its tracer, for --trace-out) is still alive;
  // the destructor's write would run after the system is gone.
  telemetry.Write();
  return ok ? 0 : 1;
}
