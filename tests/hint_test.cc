// Leaf-hint sidecar staleness: a hinted leaf that is concurrently split,
// merged away, migrated to another MS, or freed-and-recycled into a
// different role must only ever cost the lookup a fallback — never a
// wrong value, never a failed op. Each scenario warms one client's hint
// mirror, mutates the tree through a DIFFERENT client (so the victim's
// mirror goes stale), then re-reads through the stale mirror and checks
// both the values and the hint-feedback counters. The crash-site sweep at
// the hint-publish/invalidate milestones lives in recover_test
// (CrashSweepTest covers hint.publish and hint.invalidate).
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "bench/runner.h"
#include "core/btree.h"
#include "core/presets.h"
#include "migrate/migrator.h"
#include "workload/workload.h"

namespace sherman {
namespace {

rdma::FabricConfig SmallFabric(int ms = 2, int cs = 2) {
  rdma::FabricConfig f;
  f.num_memory_servers = ms;
  f.num_compute_servers = cs;
  f.ms_memory_bytes = 32ull << 20;
  return f;
}

TreeOptions HintOptions() {
  TreeOptions topt = ShermanOptions();
  topt.shape.node_size = 256;  // small nodes: splits/merges fire fast
  topt.enable_cache = false;   // isolate the hint path from the cache
  topt.cache_bytes = 0;
  topt.enable_leaf_hints = true;
  // A huge refresh threshold keeps the victim's mirror frozen at its
  // warm-time contents — every scenario below depends on the mirror NOT
  // healing itself by refetching mid-test.
  topt.hint_refresh_miss_threshold = 1'000'000;
  return topt;
}

// Looks up every loaded rank in [0, n) through `c` and checks the value.
sim::Task<void> VerifyAll(TreeClient* c, uint64_t n, bool* done) {
  for (uint64_t r = 0; r < n; r++) {
    const Key k = WorkloadGenerator::LoadedKeyFor(r);
    uint64_t v = 0;
    const Status st = co_await c->Lookup(k, &v);
    EXPECT_TRUE(st.ok()) << "rank " << r << ": " << st.ToString();
    EXPECT_EQ(v, k * 31 + 7) << "rank " << r;
  }
  *done = true;
}

// One lookup to warm the client's mirror (the first consult fetches every
// MS's table).
sim::Task<void> WarmMirror(TreeClient* c, bool* done) {
  uint64_t v = 0;
  const Status st = co_await c->Lookup(WorkloadGenerator::LoadedKeyFor(0), &v);
  EXPECT_TRUE(st.ok()) << st.ToString();
  *done = true;
}

void RunToDone(ShermanSystem* system, bool* done) {
  system->simulator().Run();
  ASSERT_TRUE(*done);
}

// RunToDone, returning the registry's counts over the run. The phases
// whose hint.* counts the scenarios check run only the victim client, so
// these are the victim's counts.
obs::MetricsSnapshot RunPhase(ShermanSystem* system, bool* done) {
  const obs::MetricsSnapshot before = system->registry().Snapshot();
  RunToDone(system, done);
  return system->registry().Snapshot().Since(before);
}

// --- split ------------------------------------------------------------------
// The victim's mirror predates a burst of inserts that splits hinted
// leaves; keys that moved to new right siblings must still be served
// (B-link chase from the hinted leaf), and keys in split-off siblings the
// mirror has never heard of must fall back cleanly.
TEST(HintStalenessTest, HintedLeafConcurrentlySplit) {
  ShermanSystem system(SmallFabric(), HintOptions());
  const uint64_t n = 2'000;
  system.BulkLoad(bench::MakeLoadKvs(n), 1.0);  // full leaves: split-prone

  bool warmed = false;
  sim::Spawn(WarmMirror(&system.client(1), &warmed));
  RunToDone(&system, &warmed);

  // Client 0 inserts the odd keys between every loaded pair: every leaf
  // overflows and splits. Client 1's mirror still maps pre-split ranges.
  bool churned = false;
  sim::Spawn([](TreeClient* c, uint64_t keys, bool* done) -> sim::Task<void> {
    for (uint64_t r = 0; r < keys; r++) {
      const Key k = WorkloadGenerator::LoadedKeyFor(r) + 1;
      EXPECT_TRUE((co_await c->Insert(k, k)).ok());
    }
    *done = true;
  }(&system.client(0), n, &churned));
  RunToDone(&system, &churned);

  bool verified = false;
  sim::Spawn(VerifyAll(&system.client(1), n, &verified));
  const obs::MetricsSnapshot h = RunPhase(&system, &verified);

  EXPECT_GT(h.counter("hint.consults"), 0u);
  // Post-split reads from the stale mirror must have chased or fallen
  // back at least once — if not, the scenario never went stale.
  EXPECT_GT(h.counter("hint.chases") + h.counter("hint.stale"), 0u)
      << "splits never invalidated a hint";
  system.DebugCheckInvariants();
}

// --- merge ------------------------------------------------------------------
// Mass deletion merges most leaves away; the victim's mirror still points
// at freed nodes. Every surviving key must read correctly (validation
// rejects the freed leaf, traversal serves it) and every deleted key must
// report NotFound — not a failure.
TEST(HintStalenessTest, HintedLeafConcurrentlyMerged) {
  ShermanSystem system(SmallFabric(), HintOptions());
  const uint64_t n = 2'000;
  system.BulkLoad(bench::MakeLoadKvs(n), 1.0);

  bool warmed = false;
  sim::Spawn(WarmMirror(&system.client(1), &warmed));
  RunToDone(&system, &warmed);

  bool churned = false;
  sim::Spawn([](TreeClient* c, uint64_t keys, bool* done) -> sim::Task<void> {
    for (uint64_t r = 0; r < keys; r++) {
      if (r % 16 == 0) continue;  // keep 1 of every 16
      EXPECT_TRUE(
          (co_await c->Delete(WorkloadGenerator::LoadedKeyFor(r))).ok());
    }
    *done = true;
  }(&system.client(0), n, &churned));
  RunToDone(&system, &churned);

  bool verified = false;
  sim::Spawn([](TreeClient* c, uint64_t keys, bool* done) -> sim::Task<void> {
    for (uint64_t r = 0; r < keys; r++) {
      const Key k = WorkloadGenerator::LoadedKeyFor(r);
      uint64_t v = 0;
      const Status st = co_await c->Lookup(k, &v);
      if (r % 16 == 0) {
        EXPECT_TRUE(st.ok()) << "rank " << r << ": " << st.ToString();
        EXPECT_EQ(v, k * 31 + 7);
      } else {
        EXPECT_TRUE(st.IsNotFound()) << "rank " << r << ": " << st.ToString();
      }
    }
    *done = true;
  }(&system.client(1), n, &verified));
  const obs::MetricsSnapshot h = RunPhase(&system, &verified);

  EXPECT_GT(h.counter("hint.stale"), 0u) << "merges never invalidated a hint";
  system.DebugCheckInvariants();
}

// --- migrate ----------------------------------------------------------------
// Half the key range moves to a freshly added MS; the victim's mirror
// still maps it to the source copies (freed after the flip). Reads must
// re-home transparently.
TEST(HintStalenessTest, HintedLeafConcurrentlyMigrated) {
  ShermanSystem system(SmallFabric(), HintOptions());
  const uint64_t n = 4'000;
  system.BulkLoad(bench::MakeLoadKvs(n), 0.8);

  bool warmed = false;
  sim::Spawn(WarmMirror(&system.client(1), &warmed));
  RunToDone(&system, &warmed);

  const int target = system.AddMemoryServer();
  migrate::Migrator mig(&system, {});
  Status st;
  bool moved = false;
  sim::Spawn([](migrate::Migrator* m, Key hi, uint16_t t, Status* out,
                bool* done) -> sim::Task<void> {
    *out = co_await m->MigrateRange(1, hi, t);
    *done = true;
  }(&mig, WorkloadGenerator::LoadedKeyFor(n / 2), static_cast<uint16_t>(target),
    &st, &moved));
  RunToDone(&system, &moved);
  ASSERT_TRUE(st.ok()) << st.ToString();

  bool verified = false;
  sim::Spawn(VerifyAll(&system.client(1), n, &verified));
  const obs::MetricsSnapshot h = RunPhase(&system, &verified);

  EXPECT_GT(h.counter("hint.consults"), 0u);
  EXPECT_GT(h.counter("hint.stale"), 0u)
      << "migration never invalidated a hint";
  system.DebugCheckInvariants();
}

// --- recycle ----------------------------------------------------------------
// Delete churn frees leaves, insert churn recycles their addresses into
// NEW nodes (possibly internal, possibly leaves with different fences).
// A stale mirror entry pointing at a recycled address must be rejected by
// the role/fence validation — never served.
TEST(HintStalenessTest, HintedLeafAddressRecycled) {
  ShermanSystem system(SmallFabric(), HintOptions());
  const uint64_t n = 2'000;
  system.BulkLoad(bench::MakeLoadKvs(n), 1.0);

  bool warmed = false;
  sim::Spawn(WarmMirror(&system.client(1), &warmed));
  RunToDone(&system, &warmed);

  // Client 0: delete the top half (merges free leaves), then insert a
  // dense run of fresh keys below the surviving range (splits allocate,
  // recycling the freed addresses).
  bool churned = false;
  sim::Spawn([](TreeClient* c, uint64_t keys, bool* done) -> sim::Task<void> {
    for (uint64_t r = keys / 2; r < keys; r++) {
      EXPECT_TRUE(
          (co_await c->Delete(WorkloadGenerator::LoadedKeyFor(r))).ok());
    }
    for (uint64_t r = 0; r < keys / 2; r++) {
      const Key k = WorkloadGenerator::LoadedKeyFor(r) + 1;
      EXPECT_TRUE((co_await c->Insert(k, k)).ok());
    }
    *done = true;
  }(&system.client(0), n, &churned));
  RunToDone(&system, &churned);

  ASSERT_GT(system.registry().Snapshot().counter("alloc.nodes_recycled"), 0u)
      << "churn never recycled a freed node";

  // Surviving + fresh keys all correct through the stale mirror; deleted
  // keys NotFound.
  bool verified = false;
  sim::Spawn([](TreeClient* c, uint64_t keys, bool* done) -> sim::Task<void> {
    for (uint64_t r = 0; r < keys; r++) {
      const Key k = WorkloadGenerator::LoadedKeyFor(r);
      uint64_t v = 0;
      const Status st = co_await c->Lookup(k, &v);
      if (r < keys / 2) {
        EXPECT_TRUE(st.ok()) << "rank " << r << ": " << st.ToString();
        EXPECT_EQ(v, k * 31 + 7);
      } else {
        EXPECT_TRUE(st.IsNotFound()) << "rank " << r << ": " << st.ToString();
      }
    }
    *done = true;
  }(&system.client(1), n, &verified));
  const obs::MetricsSnapshot h = RunPhase(&system, &verified);

  EXPECT_GT(h.counter("hint.stale"), 0u)
      << "recycled addresses never tripped validation";
  system.DebugCheckInvariants();
}

// --- one mirror per compute server ------------------------------------------
// The mirror is per CS and shared by its coroutines. Lookups that start
// together on a cold CS must fetch the MS tables once, not once each: the
// op that starts the fetch consults the mirror when it lands, the others
// traverse meanwhile without counting a consult.
TEST(HintMirrorTest, ColdStartFetchesTablesOncePerComputeServer) {
  constexpr int kMs = 4;
  ShermanSystem system(SmallFabric(kMs), HintOptions());
  const uint64_t n = 2'000;
  system.BulkLoad(bench::MakeLoadKvs(n), 0.8);
  // A cold traversal READs the root pointer and the root node, then one
  // node per level; the op that fetches pays one header and one table READ
  // per MS on top of its leaf READ. The two classes must not overlap.
  const uint32_t max_traversal_rts = system.DebugHeight() + 2;
  const uint32_t fetch_rts = 2 * kMs + 1;
  ASSERT_LT(max_traversal_rts, fetch_rts);

  // Every lookup's round trips; two waves of kCoroutines, each wave
  // starting at one sim instant.
  constexpr int kCoroutines = 12;
  std::vector<uint32_t> rts;
  const auto wave = [&](uint64_t first_rank) {
    for (int c = 0; c < kCoroutines; c++) {
      sim::Spawn([](TreeClient* tc, Key k,
                    std::vector<uint32_t>* out) -> sim::Task<void> {
        OpStats stats;
        uint64_t v = 0;
        const Status st = co_await tc->Lookup(k, &v, &stats);
        EXPECT_TRUE(st.ok()) << st.ToString();
        EXPECT_EQ(v, k * 31 + 7);
        out->push_back(stats.round_trips);
      }(&system.client(0),
        WorkloadGenerator::LoadedKeyFor((first_rank + c * 151) % n), &rts));
    }
    system.simulator().Run();
  };

  // hint.* counts so far (client 0 is the only client running).
  const auto hint = [&system](const char* name) {
    return system.registry().Snapshot().counter(std::string("hint.") + name);
  };

  wave(0);
  ASSERT_EQ(rts.size(), static_cast<size_t>(kCoroutines));
  EXPECT_EQ(hint("refreshes"), 1u) << "every cold coroutine fetched the tables";
  EXPECT_EQ(hint("consults"), 1u) << "ops consulted while the first fetch ran";

  // Warm wave: the mirror serves every lookup with one READ, no refetch.
  wave(7);
  ASSERT_EQ(rts.size(), static_cast<size_t>(2 * kCoroutines));
  EXPECT_EQ(hint("refreshes"), 1u);

  uint64_t hinted = 0;
  uint64_t fetched = 0;
  uint64_t traversed = 0;
  for (const uint32_t rt : rts) {
    if (rt == 1) {
      hinted++;
    } else if (rt == fetch_rts) {
      fetched++;
    } else {
      EXPECT_GE(rt, 2u);
      EXPECT_LE(rt, max_traversal_rts);
      traversed++;
    }
  }
  EXPECT_EQ(fetched, 1u);
  EXPECT_EQ(hinted, static_cast<uint64_t>(kCoroutines));
  EXPECT_EQ(hint("consults"), hinted + fetched);
  EXPECT_EQ(hint("served"), hint("consults"));
  EXPECT_EQ(hint("consults") + traversed, rts.size());
  EXPECT_EQ(hint("stale") + hint("chases"), 0u);
}

// --- refresh in flight ------------------------------------------------------
// A staleness refresh drops each MS's slice of the mirror before that MS's
// table READ and rebuilds it when the READ returns. Meanwhile the CS's
// other ops must neither consult the mirror (a key on that MS would be
// served a neighbouring MS's leaf) nor start a refresh of their own: they
// traverse.
TEST(HintMirrorTest, OpsTraverseWhileARefreshIsInFlight) {
  TreeOptions topt = HintOptions();
  topt.hint_refresh_miss_threshold = 1;  // one stale hint forces a refresh
  ShermanSystem system(SmallFabric(), topt);
  const uint64_t n = 2'000;
  system.BulkLoad(bench::MakeLoadKvs(n), 1.0);
  TreeClient& victim = system.client(1);
  const int num_ms = system.fabric().num_memory_servers();

  // The victim's counts: the sum of the phases it runs alone.
  bool warmed = false;
  sim::Spawn(WarmMirror(&victim, &warmed));
  obs::MetricsSnapshot h = RunPhase(&system, &warmed);
  std::vector<uint64_t> warm_gen(num_ms);
  for (int ms = 0; ms < num_ms; ms++) {
    warm_gen[ms] = system.hint_directory(ms)->generation();
  }

  // Client 0 empties a run of leaves: merges free them, and their home
  // MSs drop their hint entries. The victim's mirror still maps them.
  constexpr uint64_t kGoneLo = 1'000;
  constexpr uint64_t kGoneHi = 1'100;
  bool churned = false;
  sim::Spawn([](TreeClient* c, bool* done) -> sim::Task<void> {
    for (uint64_t r = kGoneLo; r < kGoneHi; r++) {
      EXPECT_TRUE(
          (co_await c->Delete(WorkloadGenerator::LoadedKeyFor(r))).ok());
    }
    *done = true;
  }(&system.client(0), &churned));
  RunToDone(&system, &churned);

  // The victim looks up deleted keys until one hint goes stale.
  bool stale = false;
  sim::Spawn([](TreeClient* c, const obs::Counter* stale_hints,
                bool* done) -> sim::Task<void> {
    const uint64_t stale0 = stale_hints->value();
    for (uint64_t r = kGoneLo; r < kGoneHi && stale_hints->value() == stale0;
         r++) {
      uint64_t v = 0;
      const Status st =
          co_await c->Lookup(WorkloadGenerator::LoadedKeyFor(r), &v);
      EXPECT_TRUE(st.IsNotFound()) << st.ToString();
    }
    *done = true;
  }(&victim, system.registry().GetCounter("hint.stale"), &stale));
  h.Merge(RunPhase(&system, &stale));
  ASSERT_EQ(h.counter("hint.stale"), 1u) << "no hinted leaf was merged away";
  ASSERT_EQ(h.counter("hint.refreshes"), 1u);

  // m: an MS whose table moved, so the refresh READs it again.
  int m = -1;
  for (int ms = 0; ms < num_ms && m < 0; ms++) {
    if (system.hint_directory(ms)->generation() != warm_gen[ms]) m = ms;
  }
  ASSERT_GE(m, 0);
  // k: a loaded key that is the lo fence of a leaf homed on m, well left
  // of the emptied run.
  Key k = 0;
  {
    rdma::MemoryRegion& mem = system.fabric().ms(m).host();
    const uint64_t count = mem.Read64(kHintAreaOffset + 8);
    for (uint64_t i = 0; i < count && k == 0; i++) {
      const Key lo =
          mem.Read64(kHintAreaOffset + kHintHeaderBytes + i * kHintSlotBytes);
      if (lo != 0 && lo < WorkloadGenerator::LoadedKeyFor(kGoneLo / 2)) k = lo;
    }
  }
  ASSERT_NE(k, 0u);

  // The next consult runs the refresh. Meanwhile a second op on the same
  // CS waits for the refresh's table READ to m to be posted and looks k up
  // while that READ is in flight. The victim runs alone, and before that
  // READ the refresh READs only the 16-byte headers of MSs 0..m (no table
  // left of m moved).
  struct Probe {
    bool done = false;
    obs::MetricsSnapshot before;  // the registry when the probe starts
    OpStats stats;
  } probe;
  const obs::MetricsSnapshot phase_start = system.registry().Snapshot();
  const uint64_t headers_bytes = 16 * (static_cast<uint64_t>(m) + 1);
  bool triggered = false;
  sim::Spawn([](TreeClient* c, bool* done) -> sim::Task<void> {
    uint64_t v = 0;
    const Key key = WorkloadGenerator::LoadedKeyFor(n - 1);
    EXPECT_TRUE((co_await c->Lookup(key, &v)).ok());
    EXPECT_EQ(v, key * 31 + 7);
    *done = true;
  }(&victim, &triggered));
  sim::Spawn([](ShermanSystem* sys, TreeClient* c, uint64_t bytes0,
                uint64_t headers, Key key, Probe* p) -> sim::Task<void> {
    const obs::Counter* read_bytes =
        sys->registry().GetCounter("rdma.read_bytes");
    while (read_bytes->value() - bytes0 <= headers) {
      co_await sys->simulator().Delay(10);
    }
    p->before = sys->registry().Snapshot();
    uint64_t v = 0;
    EXPECT_TRUE((co_await c->Lookup(key, &v, &p->stats)).ok());
    EXPECT_EQ(v, key * 31 + 7);
    p->done = true;
  }(&system, &victim, phase_start.counter("rdma.read_bytes"), headers_bytes,
    k, &probe));
  system.simulator().Run();
  ASSERT_TRUE(triggered);
  ASSERT_TRUE(probe.done);

  // The victim's counts when the probe started, and after the phase.
  obs::MetricsSnapshot before = h;
  before.Merge(probe.before.Since(phase_start));
  h.Merge(system.registry().Snapshot().Since(phase_start));
  EXPECT_EQ(before.counter("hint.refreshes"), 1u) << "refresh not in flight";
  EXPECT_EQ(h.counter("hint.refreshes"), 2u);
  // Traversed: more than the one hinted leaf READ, at most a cold
  // traversal's READs, and no consult, stale entry or chase counted.
  EXPECT_GE(probe.stats.round_trips, 2u);
  EXPECT_LE(probe.stats.round_trips, system.DebugHeight() + 2);
  EXPECT_EQ(h.counter("hint.consults"), before.counter("hint.consults") + 1)
      << "the refresher's only";
  EXPECT_EQ(h.counter("hint.stale"), before.counter("hint.stale"));
  EXPECT_EQ(h.counter("hint.chases"), before.counter("hint.chases"));
  system.DebugCheckInvariants();
}

}  // namespace
}  // namespace sherman
