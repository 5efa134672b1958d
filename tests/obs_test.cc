// Observability layer: span causality under coroutine interleaving, ring
// wraparound, the unified metrics registry's snapshot/merge/diff algebra,
// trace export determinism, and the disabled configurations (runtime off
// and SHERMAN_TRACING=OFF builds).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "alloc/layout.h"
#include "bench/runner.h"
#include "core/btree.h"
#include "core/hybrid_system.h"
#include "core/presets.h"
#include "migrate/migrator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace sherman {
namespace {

// --- TraceRing ---------------------------------------------------------

TEST(TraceRingTest, WraparoundOverwritesOldestAndCountsDroppedEnds) {
  sim::Simulator sim;
  obs::TraceOptions opts;
  opts.ring_entries = 4;
  obs::Tracer tracer(&sim, opts);
  obs::TraceRing* ring = tracer.Ring(0);
  ASSERT_EQ(ring->capacity(), 4u);

  const uint64_t first = ring->Begin("span", 0, 0, 0, 0);
  for (int i = 0; i < 7; i++) ring->Begin("span", 0, 0, 0, 0);
  EXPECT_EQ(ring->spans_started(), 8u);

  // The first span's slot has been overwritten twice over.
  EXPECT_EQ(ring->Find(first), nullptr);
  EXPECT_NE(ring->Find(8), nullptr);

  // Ending an overwritten span is a counted no-op, not a corruption.
  ring->End(first, 5);
  EXPECT_EQ(ring->dropped_ends(), 1u);
  EXPECT_EQ(ring->Find(5)->end_ns, 0u);

  // Live records visit oldest-first: exactly the last `capacity` ids.
  std::vector<uint64_t> ids;
  ring->ForEach([&ids](const obs::SpanRecord& r) { ids.push_back(r.id); });
  EXPECT_EQ(ids, (std::vector<uint64_t>{5, 6, 7, 8}));
}

// --- span causality under coroutine interleaving -----------------------

// These tests observe spans recorded through the macros, so they only
// exist in tracing-enabled builds; with SHERMAN_TRACING=OFF the macros
// compile to nothing (ObsSystemTest below checks that flavor).
#if SHERMAN_TRACE_ENABLED

// One logical operation: an outer span, a yield, a nested span with
// another yield, and an instant inside the nested span. `tag` makes each
// op's spans recognizable after the interleaved run.
sim::Task<void> TracedOp(sim::Simulator* sim, obs::Tracer* tracer,
                         uint32_t ring_id, uint64_t tag, uint64_t delay) {
  obs::TraceCtx ctx = obs::TraceCtx::For(tracer, ring_id);
  SHERMAN_TSPAN(&ctx, "op", tag);
  co_await sim->Delay(delay);
  {
    SHERMAN_TSPAN(&ctx, "inner", tag);
    co_await sim->Delay(delay);
    SHERMAN_TINSTANT(&ctx, "instant", tag);
  }
  co_await sim->Delay(delay);
}

TEST(TraceTest, CausalityCorrectWhenCoroutinesShareARing) {
  sim::Simulator sim;
  obs::Tracer tracer(&sim);
  // Two ops on the SAME ring with different cadences: every co_await is an
  // interleaving point, so a global current-parent slot would mis-parent
  // the spans. The per-op TraceCtx must keep each chain separate.
  sim::Spawn(TracedOp(&sim, &tracer, /*ring_id=*/0, /*tag=*/1, /*delay=*/3));
  sim::Spawn(TracedOp(&sim, &tracer, /*ring_id=*/0, /*tag=*/2, /*delay=*/5));
  sim.Run();

  const obs::TraceRing* ring = tracer.FindRing(0);
  ASSERT_NE(ring, nullptr);
  for (uint64_t tag : {1u, 2u}) {
    uint64_t op_id = 0, inner_id = 0;
    uint64_t inner_parent = 0, instant_parent = 0;
    ring->ForEach([&](const obs::SpanRecord& r) {
      if (r.a0 != tag) return;
      if (std::string(r.name) == "op") op_id = r.id;
      if (std::string(r.name) == "inner") {
        inner_id = r.id;
        inner_parent = r.parent;
      }
      if (std::string(r.name) == "instant") instant_parent = r.parent;
    });
    ASSERT_NE(op_id, 0u) << "tag " << tag;
    EXPECT_EQ(inner_parent, op_id) << "tag " << tag;
    EXPECT_EQ(instant_parent, inner_id) << "tag " << tag;
  }
}

sim::Task<void> EventHelper(sim::Simulator* sim, obs::TraceCtx* ctx,
                            uint64_t tag) {
  SHERMAN_TEVENT(ctx, "helper", tag);
  co_await sim->Delay(tag);
}

TEST(TraceTest, EventScopeNeverMutatesSharedCtx) {
  sim::Simulator sim;
  obs::Tracer tracer(&sim);
  bool checked = false;
  sim::Spawn([](sim::Simulator* s, obs::Tracer* t,
                bool* done) -> sim::Task<void> {
    obs::TraceCtx ctx = obs::TraceCtx::For(t, 0);
    {
      SHERMAN_TSPAN(&ctx, "op");
      const uint64_t current_before = ctx.current;
      // Helpers fan out concurrently against the SAME ctx — the exact
      // shape of the shared deep paths (raw reads, lock acquisition).
      sim::Spawn(EventHelper(s, &ctx, 3));
      sim::Spawn(EventHelper(s, &ctx, 5));
      co_await s->Delay(10);  // outlive both helpers
      EXPECT_EQ(ctx.current, current_before);
    }
    *done = true;
  }(&sim, &tracer, &checked));
  sim.Run();
  ASSERT_TRUE(checked);

  // Both helper spans parent under the op span regardless of interleaving.
  const obs::TraceRing* ring = tracer.FindRing(0);
  ASSERT_NE(ring, nullptr);
  uint64_t op_id = 0;
  std::vector<uint64_t> helper_parents;
  ring->ForEach([&](const obs::SpanRecord& r) {
    if (std::string(r.name) == "op") op_id = r.id;
    if (std::string(r.name) == "helper") helper_parents.push_back(r.parent);
  });
  ASSERT_NE(op_id, 0u);
  ASSERT_EQ(helper_parents.size(), 2u);
  EXPECT_EQ(helper_parents[0], op_id);
  EXPECT_EQ(helper_parents[1], op_id);
}

TEST(TraceTest, NullAndInertCtxAreSafe) {
  SHERMAN_TSPAN(nullptr, "x");
  SHERMAN_TEVENT(nullptr, "y", 1);
  SHERMAN_TINSTANT(nullptr, "z");
  obs::TraceCtx inert;  // no tracer
  SHERMAN_TSPAN(&inert, "x");
  SHERMAN_TINSTANT(&inert, "z", 9);
  EXPECT_EQ(inert.current, 0u);
}

TEST(TraceTest, RuntimeDisabledTracerRecordsNothing) {
  sim::Simulator sim;
  obs::TraceOptions opts;
  opts.enabled = false;
  obs::Tracer tracer(&sim, opts);
  obs::TraceCtx ctx = obs::TraceCtx::For(&tracer, 0);
  EXPECT_FALSE(ctx.active());
  SHERMAN_TSPAN(&ctx, "x");
  SHERMAN_TINSTANT(&ctx, "y");
  // For() on a disabled tracer must not even materialize the ring.
  EXPECT_EQ(tracer.FindRing(0), nullptr);
  tracer.DumpToStderr("should be a no-op", {});
  EXPECT_TRUE(tracer.last_flight_dump().empty());
}

// --- flight recorder ---------------------------------------------------

TEST(TraceTest, FlightDumpCarriesReasonAndRecentSpans) {
  sim::Simulator sim;
  obs::Tracer tracer(&sim);
  sim::Spawn(TracedOp(&sim, &tracer, obs::RingId::Client(1), 7, 2));
  sim.Run();
  tracer.DumpToStderr("unit-test dump", {obs::RingId::Client(1)});
  const std::string& dump = tracer.last_flight_dump();
  EXPECT_NE(dump.find("unit-test dump"), std::string::npos);
  EXPECT_NE(dump.find("inner"), std::string::npos);
}

// --- export determinism ------------------------------------------------

TEST(TraceTest, ExportsAreByteIdenticalAcrossIdenticalRuns) {
  std::string chrome[2], flight[2];
  for (int run = 0; run < 2; run++) {
    sim::Simulator sim;
    obs::Tracer tracer(&sim);
    for (uint64_t tag = 1; tag <= 3; tag++) {
      sim::Spawn(TracedOp(&sim, &tracer, static_cast<uint32_t>(tag % 2), tag,
                          2 * tag + 1));
    }
    sim.Run();
    chrome[run] = tracer.ChromeTraceJson();
    flight[run] = tracer.FlightDumpAll(16);
  }
  EXPECT_EQ(chrome[0], chrome[1]);
  EXPECT_EQ(flight[0], flight[1]);
  // And the export is not trivially empty.
  EXPECT_NE(chrome[0].find("traceEvents"), std::string::npos);
  EXPECT_NE(chrome[0].find("\"op\""), std::string::npos);
}

// --- index op spans ----------------------------------------------------

// True when span `id` on `ring` has `root` among its ancestors.
bool Descends(const obs::TraceRing* ring, uint64_t id, uint64_t root) {
  const obs::SpanRecord* r = ring->Find(id);
  while (r != nullptr && r->parent != 0) {
    if (r->parent == root) return true;
    r = ring->Find(r->parent);
  }
  return false;
}

TEST(TraceTest, RangeQueryLeafFetchIsSpannedUnderTheOp) {
  rdma::FabricConfig f;
  f.num_memory_servers = 2;
  f.num_compute_servers = 1;
  f.ms_memory_bytes = 32ull << 20;
  ShermanSystem system(f, ShermanOptions());
  system.BulkLoad(bench::MakeLoadKvs(5'000), 0.8);

  uint64_t root = 0;
  bool done = false;
  sim::Spawn([](ShermanSystem* s, uint64_t* root_id,
                bool* flag) -> sim::Task<void> {
    obs::TraceCtx ctx =
        obs::TraceCtx::For(&s->tracer(), obs::RingId::Client(0));
    OpStats stats;
    stats.trace = &ctx;
    SHERMAN_TSPAN(&ctx, "op.range");
    *root_id = ctx.current;
    std::vector<std::pair<Key, uint64_t>> out;
    const Status st = co_await s->client(0).RangeQuery(100, 200, &out, &stats);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(out.size(), 200u);
    *flag = true;
  }(&system, &root, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);

  // 200 keys span several leaves: the parallel leaf READs are one
  // rdma.read_batch span per fetch round, all under the op's root span.
  const obs::TraceRing* ring =
      system.tracer().FindRing(obs::RingId::Client(0));
  ASSERT_NE(ring, nullptr);
  uint64_t batches = 0;
  ring->ForEach([&](const obs::SpanRecord& r) {
    if (std::string(r.name) != "rdma.read_batch") return;
    EXPECT_TRUE(Descends(ring, r.id, root));
    EXPECT_GT(r.a0, 0u);  // leaves fetched
    batches++;
  });
  EXPECT_GT(batches, 0u);
}

#endif  // SHERMAN_TRACE_ENABLED

// --- metrics registry --------------------------------------------------

TEST(MetricsTest, SnapshotMergeAndDiffAlgebra) {
  obs::Registry reg;
  obs::Counter* c = reg.GetCounter("a.count");
  obs::Gauge* g = reg.GetGauge("a.level");
  Histogram* h = reg.GetHistogram("a.lat");
  c->Inc(3);
  g->Set(2.5);
  h->Add(10);
  h->Add(20);

  const obs::MetricsSnapshot s1 = reg.Snapshot();
  EXPECT_EQ(s1.counter("a.count"), 3u);
  EXPECT_EQ(s1.gauge("a.level"), 2.5);
  ASSERT_EQ(s1.histograms.count("a.lat"), 1u);
  EXPECT_EQ(s1.histograms.at("a.lat").count(), 2u);

  // Pointer stability: the same name returns the same metric.
  EXPECT_EQ(reg.GetCounter("a.count"), c);

  c->Inc(4);
  h->Add(30);
  const obs::MetricsSnapshot s2 = reg.Snapshot();

  // Since(): counters subtract, gauges and histograms keep the newer view.
  const obs::MetricsSnapshot d = s2.Since(s1);
  EXPECT_EQ(d.counter("a.count"), 4u);
  EXPECT_EQ(d.gauge("a.level"), 2.5);
  EXPECT_EQ(d.histograms.at("a.lat").count(), 3u);

  // Merge identity: folding in an empty snapshot changes nothing.
  obs::MetricsSnapshot m = s2;
  m.Merge(obs::MetricsSnapshot{});
  EXPECT_EQ(m.ToJson(), s2.ToJson());

  // Merge sums counters and gauges, merges histogram populations.
  obs::MetricsSnapshot other;
  other.AddCounter("a.count", 5);
  other.SetGauge("a.level", 1.0);
  other.histograms["a.lat"].Add(40);
  m.Merge(other);
  EXPECT_EQ(m.counter("a.count"), 12u);
  EXPECT_EQ(m.gauge("a.level"), 3.5);
  EXPECT_EQ(m.histograms.at("a.lat").count(), 4u);

  // Missing-name reads fall back to the default.
  EXPECT_EQ(m.counter("no.such", 99), 99u);
  EXPECT_EQ(m.gauge("no.such", -1.0), -1.0);
}

TEST(MetricsTest, CollectorsRunAtSnapshotTime) {
  obs::Registry reg;
  int calls = 0;
  reg.AddCollector([&calls](obs::MetricsSnapshot* s) {
    calls++;
    s->SetGauge("x.level", 7);
  });
  EXPECT_EQ(calls, 0);  // registration alone must not invoke it
  const obs::MetricsSnapshot s = reg.Snapshot();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(s.gauge("x.level"), 7.0);
}

TEST(MetricsTest, JsonIsDeterministicAndSorted) {
  obs::MetricsSnapshot s;
  s.AddCounter("z.last", 1);
  s.AddCounter("a.first", 2);
  s.SetGauge("m.mid", 0.5);
  const std::string j1 = s.ToJson();
  const std::string j2 = s.ToJson();
  EXPECT_EQ(j1, j2);
  EXPECT_LT(j1.find("a.first"), j1.find("z.last"));
}

// --- one representation: every count lives in the registry -------------

rdma::FabricConfig TwoByTwo() {
  rdma::FabricConfig f;
  f.num_memory_servers = 2;
  f.num_compute_servers = 2;
  f.ms_memory_bytes = 32ull << 20;
  return f;
}

// The metric families ("rdma", "lock", ...) a snapshot names.
std::set<std::string> Families(const obs::MetricsSnapshot& s) {
  const auto family = [](const std::string& name) {
    return name.substr(0, name.find('.'));
  };
  std::set<std::string> out;
  for (const auto& [name, v] : s.counters) out.insert(family(name));
  for (const auto& [name, v] : s.gauges) out.insert(family(name));
  return out;
}

// Two clients, a memory server added later and a migrator all count into
// the deployment's one registry, each count under one name: there is no
// per-instance copy left to sum.
TEST(MetricsSystemTest, EveryInstanceCountsUnderOneName) {
  ShermanSystem system(TwoByTwo(), ShermanOptions());
  const uint64_t n = 4'000;
  system.BulkLoad(bench::MakeLoadKvs(n), 0.8);
  obs::Registry& reg = system.registry();
  const obs::MetricsSnapshot base = reg.Snapshot();

  // The same updates through each client in turn.
  obs::MetricsSnapshot by_client[2];
  for (int cs = 0; cs < 2; cs++) {
    const obs::MetricsSnapshot before = reg.Snapshot();
    bool done = false;
    sim::Spawn([](TreeClient* c, bool* flag) -> sim::Task<void> {
      for (uint64_t r = 0; r < 100; r++) {
        const Key k = WorkloadGenerator::LoadedKeyFor(r);
        EXPECT_TRUE((co_await c->Insert(k, r)).ok());
      }
      *flag = true;
    }(&system.client(cs), &done));
    system.simulator().Run();
    ASSERT_TRUE(done);
    by_client[cs] = reg.Snapshot().Since(before);
  }
  for (const char* name : {"rdma.batches", "rdma.writes", "nic.cs.tx_msgs",
                           "nic.ms.rx_msgs", "lock.cas_attempts",
                           "cache.l1_hits"}) {
    EXPECT_GT(by_client[0].counter(name), 0u) << name;
    EXPECT_GT(by_client[1].counter(name), 0u) << name;
  }
  // Counting named nothing new: every name exists from construction.
  EXPECT_EQ(reg.Snapshot().counters.size(), base.counters.size());

  // A memory server added later: its QPs, NIC and chunk manager count
  // under the same names.
  const int ms = system.AddMemoryServer();
  const obs::MetricsSnapshot before_ms = reg.Snapshot();
  bool done = false;
  sim::Spawn([](rdma::Qp* qp, bool* flag) -> sim::Task<void> {
    const uint64_t chunk = co_await qp->Rpc(kRpcAllocChunk, 0);
    EXPECT_NE(chunk, 0u);
    co_await qp->Rpc(kRpcFreeNode, chunk, 1024);
    *flag = true;
  }(&system.fabric().qp(1, ms), &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
  const obs::MetricsSnapshot added = reg.Snapshot().Since(before_ms);
  EXPECT_EQ(added.counter("rdma.rpcs"), 2u);
  EXPECT_EQ(added.counter("nic.ms.rx_msgs"), 2u);
  EXPECT_EQ(added.counter("alloc.nodes_freed"), 1u);
  EXPECT_EQ(reg.Snapshot().counters.size(), base.counters.size());

  // A migrator's family appears when it is built, and its moves count
  // there.
  EXPECT_EQ(Families(reg.Snapshot()).count("migrate"), 0u);
  migrate::Migrator mig(&system, {});
  EXPECT_EQ(reg.Snapshot().counter("migrate.leaves_moved", 99), 0u);
  Status st;
  bool migrated = false;
  sim::Spawn([](migrate::Migrator* m, Key hi, uint16_t target, Status* out,
                bool* flag) -> sim::Task<void> {
    *out = co_await m->MigrateRange(1, hi, target);
    *flag = true;
  }(&mig, WorkloadGenerator::LoadedKeyFor(n / 4), static_cast<uint16_t>(ms),
    &st, &migrated));
  system.simulator().Run();
  ASSERT_TRUE(migrated);
  ASSERT_TRUE(st.ok()) << st.ToString();
  const obs::MetricsSnapshot end = reg.Snapshot();
  EXPECT_EQ(end.counter("migrate.ranges_migrated"), 1u);
  EXPECT_GT(end.counter("migrate.leaves_moved"), 0u);
  EXPECT_GE(end.counter("migrate.bytes_copied"),
            end.counter("migrate.leaves_moved") *
                system.options().shape.node_size);
  system.DebugCheckInvariants();
}

// A counter family exists exactly when its component does, so a
// snapshot, and every BENCH_*.json built from one, names only what the
// deployment runs.
TEST(MetricsSystemTest, FamiliesOfAbsentComponentsStayAbsent) {
  const std::set<std::string> base = {"alloc", "cache",   "lock",   "nic",
                                      "rdma",  "reclaim", "recover"};
  const auto with = [&base](std::set<std::string> extra) {
    extra.insert(base.begin(), base.end());
    return extra;
  };
  {
    ShermanSystem plain(TwoByTwo(), ShermanOptions());
    EXPECT_EQ(Families(plain.registry().Snapshot()), base);
  }
  {
    TreeOptions t = ShermanOptions();
    t.enable_leaf_hints = true;
    ShermanSystem hints(TwoByTwo(), t);
    EXPECT_EQ(Families(hints.registry().Snapshot()), with({"hint"}));
  }
  {
    TreeOptions t = ShermanOptions();
    t.two_level_versions = false;  // varlen requires sorted leaves
    t.shape.varlen = true;
    ShermanSystem varlen(TwoByTwo(), t);
    EXPECT_EQ(Families(varlen.registry().Snapshot()), with({"vlog"}));
  }
  HybridOptions h;
  h.tree = ShermanOptions();
  {
    HybridSystem hybrid(TwoByTwo(), h);
    EXPECT_EQ(Families(hybrid.sherman().registry().Snapshot()),
              with({"route", "rpc"}));
  }
  h.rdwc.enable_delegation = true;
  {
    HybridSystem hybrid(TwoByTwo(), h);
    EXPECT_EQ(Families(hybrid.sherman().registry().Snapshot()),
              with({"route", "rpc", "rdwc"}));
  }
}

// --- whole-system smoke: build-flavor-dependent trace volume -----------

// In a tracing-enabled build a short workload must leave spans in the
// client rings; with SHERMAN_TRACING=OFF the macros compile to nothing,
// so the very same run must leave the rings empty (zero-size trace path).
TEST(ObsSystemTest, TraceVolumeMatchesBuildFlavor) {
  rdma::FabricConfig f;
  f.num_memory_servers = 2;
  f.num_compute_servers = 2;
  f.ms_memory_bytes = 32ull << 20;
  ShermanSystem system(f, ShermanOptions());
  system.BulkLoad(bench::MakeLoadKvs(5'000), 0.8);

  bench::RunnerOptions r;
  r.threads_per_cs = 4;
  r.workload.mix = WorkloadMix::WriteIntensive();
  r.workload.loaded_keys = 5'000;
  r.warmup_ns = 100'000;
  r.measure_ns = 500'000;
  r.seed = 11;
  bench::RunWorkload(&system, r);

  uint64_t spans = 0;
  for (int cs = 0; cs < 2; cs++) {
    const obs::TraceRing* ring =
        system.tracer().FindRing(obs::RingId::Client(cs));
    if (ring != nullptr) spans += ring->spans_started();
  }
#if SHERMAN_TRACE_ENABLED
  EXPECT_GT(spans, 0u);
#else
  EXPECT_EQ(spans, 0u);
#endif

  // The registry must serve the unified view in both flavors.
  const obs::MetricsSnapshot snap = system.registry().Snapshot();
  EXPECT_GT(snap.counter("rdma.reads"), 0u);
  EXPECT_GT(snap.counter("cache.l1_hits") + snap.counter("cache.l1_misses"),
            0u);
}

#if !SHERMAN_TRACE_ENABLED
// Compiled-out macros must not evaluate their arguments.
TEST(ObsDisabledBuildTest, MacroArgumentsAreNotEvaluated) {
  int evals = 0;
  [[maybe_unused]] auto bump = [&evals]() -> uint64_t {
    return static_cast<uint64_t>(++evals);
  };
  [[maybe_unused]] obs::TraceCtx* null_ctx = nullptr;
  SHERMAN_TSPAN(null_ctx, "x", bump());
  SHERMAN_TEVENT(null_ctx, "y", bump());
  SHERMAN_TINSTANT(null_ctx, "z", bump());
  EXPECT_EQ(evals, 0);
}
#endif

}  // namespace
}  // namespace sherman
