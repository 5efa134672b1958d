#include "bench/runner.h"

#include <functional>
#include <memory>

#include "core/hybrid_system.h"
#include "sim/task.h"
#include "util/logging.h"

namespace sherman::bench {

namespace {

// Points in RunResult::series.
constexpr int kSeriesPoints = 24;

struct RunContext {
  bool measuring = false;
  bool stop = false;
  sim::SimTime measure_start = 0;
  sim::SimTime measure_end = 0;
  RunStats stats;
  uint64_t live_clients = 0;
  obs::MetricsSnapshot metrics_before;
  obs::MetricsSnapshot metrics_after;
  std::vector<SeriesPoint> series;
};

[[maybe_unused]] const char* OpSpanName(OpType t) {
  switch (t) {
    case OpType::kInsert: return "op.insert";
    case OpType::kLookup: return "op.lookup";
    case OpType::kRangeQuery: return "op.range";
    case OpType::kDelete: return "op.delete";
  }
  return "op";
}

// Works over any client exposing TreeClient's op signatures
// (TreeClient, route::HybridClient, ...).
template <typename Client>
sim::Task<void> ClientLoop(Client* client, sim::Simulator* sim,
                           obs::Tracer* tracer, int cs_id,
                           WorkloadGenerator gen, int pipeline_depth,
                           RunContext* ctx) {
  std::vector<std::pair<Key, uint64_t>> range_buf;
  // Per-client-coroutine trace context: root spans for each op, threaded
  // down through OpStats so lower layers parent their spans correctly
  // even as client coroutines interleave.
  obs::TraceCtx trace =
      obs::TraceCtx::For(tracer, obs::RingId::Client(cs_id));

  while (!ctx->stop) {
    if (pipeline_depth > 1) {
      // Pipelined wave: draw `depth` ops, batch lookups, inserts, and
      // deletes; range queries stay singleton. Per-op latency = wave
      // elapsed.
      std::vector<Key> get_keys;
      std::vector<std::pair<Key, uint64_t>> ins_kvs;
      std::vector<Key> del_keys;
      std::vector<Op> rest;
      for (int i = 0; i < pipeline_depth; i++) {
        const Op op = gen.Next();
        switch (op.type) {
          case OpType::kLookup:
            get_keys.push_back(op.key);
            break;
          case OpType::kInsert:
            ins_kvs.emplace_back(op.key, op.value);
            break;
          case OpType::kDelete:
            del_keys.push_back(op.key);
            break;
          default:
            rest.push_back(op);
            break;
        }
      }
      if (!get_keys.empty()) {
        OpStats batch_stats;
        batch_stats.trace = &trace;
        std::vector<MultiGetResult> res;
        const sim::SimTime start = sim->now();
        SHERMAN_TSPAN(&trace, "op.multiget", get_keys.size());
        Status st = co_await client->MultiGet(get_keys, &res, &batch_stats);
        SHERMAN_CHECK_MSG(st.ok(), "multi-get failed: %s",
                          st.ToString().c_str());
        if (ctx->measuring) {
          const sim::SimTime elapsed = sim->now() - start;
          for (size_t i = 0; i < get_keys.size(); i++) {
            AccumulateOp(&ctx->stats, i == 0 ? batch_stats : OpStats{},
                         elapsed, /*is_write=*/false, /*is_read=*/true);
          }
        }
      }
      if (!ins_kvs.empty()) {
        OpStats batch_stats;
        batch_stats.trace = &trace;
        const size_t ins_n = ins_kvs.size();
        const sim::SimTime start = sim->now();
        SHERMAN_TSPAN(&trace, "op.multiinsert", ins_n);
        Status st = co_await client->MultiInsert(std::move(ins_kvs),
                                                 &batch_stats);
        SHERMAN_CHECK_MSG(st.ok(), "multi-insert failed: %s",
                          st.ToString().c_str());
        if (ctx->measuring) {
          const sim::SimTime elapsed = sim->now() - start;
          for (size_t i = 0; i < ins_n; i++) {
            AccumulateOp(&ctx->stats, i == 0 ? batch_stats : OpStats{},
                         elapsed, /*is_write=*/true, /*is_read=*/false);
          }
        }
      }
      if (!del_keys.empty()) {
        OpStats batch_stats;
        batch_stats.trace = &trace;
        const size_t del_n = del_keys.size();
        std::vector<Status> res;
        const sim::SimTime start = sim->now();
        SHERMAN_TSPAN(&trace, "op.multidelete", del_n);
        Status st = co_await client->MultiDelete(std::move(del_keys), &res,
                                                 &batch_stats);
        SHERMAN_CHECK_MSG(st.ok(), "multi-delete failed: %s",
                          st.ToString().c_str());
        if (ctx->measuring) {
          const sim::SimTime elapsed = sim->now() - start;
          for (size_t i = 0; i < del_n; i++) {
            AccumulateOp(&ctx->stats, i == 0 ? batch_stats : OpStats{},
                         elapsed, /*is_write=*/true, /*is_read=*/false);
          }
        }
      }
      for (const Op& op : rest) {
        OpStats op_stats;
        op_stats.trace = &trace;
        const sim::SimTime start = sim->now();
        SHERMAN_TSPAN(&trace, "op.range", op.key, op.range_size);
        Status st = co_await client->RangeQuery(op.key, op.range_size,
                                                &range_buf, &op_stats);
        SHERMAN_CHECK_MSG(st.ok(), "range failed: %s", st.ToString().c_str());
        if (ctx->measuring) {
          AccumulateOp(&ctx->stats, op_stats, sim->now() - start,
                       /*is_write=*/false, /*is_read=*/false);
        }
      }
      continue;
    }

    const Op op = gen.Next();
    OpStats op_stats;
    op_stats.trace = &trace;
    const sim::SimTime start = sim->now();
    bool is_write = false;
    bool is_read = false;
    SHERMAN_TSPAN(&trace, OpSpanName(op.type), op.key);
    switch (op.type) {
      case OpType::kInsert: {
        is_write = true;
        Status st = co_await client->Insert(op.key, op.value, &op_stats);
        SHERMAN_CHECK_MSG(st.ok(), "insert failed: %s",
                          st.ToString().c_str());
        break;
      }
      case OpType::kLookup: {
        is_read = true;
        uint64_t value = 0;
        Status st = co_await client->Lookup(op.key, &value, &op_stats);
        SHERMAN_CHECK_MSG(st.ok() || st.IsNotFound(), "lookup failed: %s",
                          st.ToString().c_str());
        break;
      }
      case OpType::kRangeQuery: {
        Status st = co_await client->RangeQuery(op.key, op.range_size,
                                                &range_buf, &op_stats);
        SHERMAN_CHECK_MSG(st.ok(), "range failed: %s", st.ToString().c_str());
        break;
      }
      case OpType::kDelete: {
        is_write = true;
        Status st = co_await client->Delete(op.key, &op_stats);
        SHERMAN_CHECK_MSG(st.ok() || st.IsNotFound(), "delete failed: %s",
                          st.ToString().c_str());
        break;
      }
    }
    if (ctx->measuring) {
      AccumulateOp(&ctx->stats, op_stats, sim->now() - start, is_write,
                   is_read);
    }
  }
  ctx->live_clients--;
}

// GetClient: int cs_id -> Client*. `sherman` supplies the simulator,
// tracer and registry both system flavors share.
template <typename GetClient>
RunResult RunWorkloadImpl(ShermanSystem* sherman, GetClient get_client,
                          const RunnerOptions& options,
                          std::function<void()> at_measure_end) {
  sim::Simulator& sim = sherman->simulator();
  auto ctx = std::make_unique<RunContext>();

  for (int cs = 0; cs < sherman->num_clients(); cs++) {
    for (int t = 0; t < options.threads_per_cs; t++) {
      const uint64_t seed = ClientSeed(options.seed, cs, t);
      ctx->live_clients++;
      sim::Spawn(ClientLoop(get_client(cs), &sim, &sherman->tracer(), cs,
                            WorkloadGenerator(options.workload, seed),
                            options.pipeline_depth, ctx.get()));
    }
  }

  const sim::SimTime t0 = sim.now();
  sim.At(t0 + options.warmup_ns, [&ctx, &sim, sherman] {
    ctx->measuring = true;
    ctx->measure_start = sim.now();
    ctx->metrics_before = sherman->registry().Snapshot();
  });
  // Intra-window throughput series: cumulative measured ops at evenly
  // spaced sample times.
  for (int i = 1; i <= kSeriesPoints; i++) {
    const sim::SimTime at =
        t0 + options.warmup_ns +
        options.measure_ns * static_cast<sim::SimTime>(i) /
            static_cast<sim::SimTime>(kSeriesPoints);
    sim.At(at, [c = ctx.get(), &sim] {
      c->series.push_back({sim.now() - c->measure_start, c->stats.ops});
    });
  }
  sim.At(t0 + options.warmup_ns + options.measure_ns,
         [&ctx, &sim, &at_measure_end, sherman] {
           ctx->measuring = false;
           ctx->measure_end = sim.now();
           ctx->metrics_after = sherman->registry().Snapshot();
           ctx->stop = true;
           if (at_measure_end) at_measure_end();
         });

  sim.Run();  // drains: clients exit after their in-flight op finishes
  SHERMAN_CHECK(ctx->live_clients == 0);

  RunResult result;
  result.measured_ns = ctx->measure_end - ctx->measure_start;
  result.metrics = ctx->metrics_after.Since(ctx->metrics_before);
  result.series = std::move(ctx->series);
  result.stats = std::move(ctx->stats);
  result.mops = result.measured_ns == 0
                    ? 0
                    : static_cast<double>(result.stats.ops) * 1000.0 /
                          static_cast<double>(result.measured_ns);
  return result;
}

}  // namespace

uint64_t ClientSeed(uint64_t seed, int cs, int t) {
  uint64_t h = SplitMix64(seed);
  h = SplitMix64(h ^ static_cast<uint64_t>(cs));
  h = SplitMix64(h ^ static_cast<uint64_t>(t));
  return h;
}

std::vector<std::pair<Key, uint64_t>> MakeLoadKvs(uint64_t n) {
  std::vector<std::pair<Key, uint64_t>> kvs;
  kvs.reserve(n);
  for (uint64_t r = 0; r < n; r++) {
    const Key k = WorkloadGenerator::LoadedKeyFor(r);
    kvs.emplace_back(k, k * 31 + 7);
  }
  return kvs;
}

RunResult RunWorkload(ShermanSystem* system, const RunnerOptions& options) {
  return RunWorkloadImpl(
      system, [system](int cs) { return &system->client(cs); }, options,
      nullptr);
}

RunResult RunWorkload(HybridSystem* system, const RunnerOptions& options) {
  system->router().Start();
  return RunWorkloadImpl(
      &system->sherman(), [system](int cs) { return &system->client(cs); },
      options, [system] { system->router().Stop(); });
}

}  // namespace sherman::bench
