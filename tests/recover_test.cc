// Crash-fault tolerance: exhaustive deterministic crash-point sweep.
//
// For EVERY named crash site registered by the structural-op code (leaf /
// internal / root splits in core/btree.cc, leaf merges, migration flips in
// src/migrate/, hot-key write windows in src/combine/), a scenario
// kills a victim client exactly at that site,
// lets a survivor recover the dead client (lease steal + intent
// replay/rollback), and verifies:
//  - the tree equals the shadow oracle: every op the victim COMPLETED is
//    present, the single in-flight op is atomic (applied in full or not at
//    all), and nothing else changed;
//  - structural invariants hold (DebugCheckInvariants);
//  - every lock lane in the fabric is free, the dead client's intent slab
//    and recovery claim are clear, and survivor operations proceed
//    normally afterwards.
// The sweep also ASSERTS full registry coverage: each registered site must
// actually fire in its scenario, and no site may exist without a scenario
// prefix mapping.
//
// Separate tests exercise the ORGANIC detection paths (no explicit
// recovery call): a survivor writer blocks on the dead holder's lane until
// the lease expires and steals it (several writers of one survivor steal
// once each); a survivor reader escapes its tombstone bounce loop through
// the lock probe.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench/runner.h"
#include "core/btree.h"
#include "core/hybrid_system.h"
#include "core/presets.h"
#include "fault/crash_point.h"
#include "lock/lock_table.h"
#include "migrate/migrator.h"
#include "recover/intent.h"
#include "recover/recoverer.h"

namespace sherman {
namespace {

constexpr sim::SimTime kLeasePeriodNs = 20'000;
constexpr int kVictimCs = 1;
constexpr uint16_t kVictimTag = kVictimCs + 1;

// rdwc sweep scenario: the hot key, its value before the window, and the
// joined PUT's value (the window write's last-writer-wins result).
constexpr Key kHot = 42;
constexpr uint64_t kHotBefore = 0xAA01;
constexpr uint64_t kPutVal = 0xF00D;

TreeOptions RecoverOptions(double merge_threshold = 0.4) {
  TreeOptions t = ShermanOptions();
  t.shape.node_size = 256;
  t.merge_threshold = merge_threshold;
  t.lock.lease_period_ns = kLeasePeriodNs;
  t.lock.lease_expiry_periods = 4;
  return t;
}

rdma::FabricConfig RecoverFabric(int ms = 2, int cs = 2) {
  rdma::FabricConfig f;
  f.num_memory_servers = ms;
  f.num_compute_servers = cs;
  f.ms_memory_bytes = 32ull << 20;
  return f;
}

// A count summed over every component of the deployment.
uint64_t Count(ShermanSystem* system, const char* name) {
  return system->registry().Snapshot().counter(name);
}

// Every lock lane on every MS (both address spaces) must be free.
void ExpectAllLanesFree(ShermanSystem* system, const std::string& ctx) {
  for (int ms = 0; ms < system->fabric().num_memory_servers(); ms++) {
    const uint8_t* dev = system->fabric().ms(ms).device().raw(0);
    const uint8_t* host = system->fabric().ms(ms).host().raw(kHostGltOffset);
    uint64_t held = 0;
    for (uint64_t i = 0; i < kLocksPerMs * kLockBytes; i++) {
      held += dev[i] != 0;
      held += host[i] != 0;
    }
    EXPECT_EQ(held, 0u) << ctx << ": held lanes on MS " << ms;
  }
}

// The dead client's intent slab and recovery claim must be clear.
void ExpectClientClean(ShermanSystem* system, int cs, const std::string& ctx) {
  for (uint32_t slot = 0; slot < kIntentSlotsPerClient; slot++) {
    const uint8_t* rec = system->fabric().HostRaw(
        recover::IntentSlotAddress(cs, static_cast<int>(slot)));
    EXPECT_EQ(rec[0], 0u) << ctx << ": live intent in slot " << slot;
  }
  uint64_t claim;
  std::memcpy(&claim,
              system->fabric().HostRaw(recover::RecoveryClaimAddress(cs)), 8);
  EXPECT_EQ(claim, 0u) << ctx << ": recovery claim still held";
}

// --- victim op streams ------------------------------------------------------

struct VictimLog {
  std::map<Key, uint64_t> committed;  // ops the victim saw complete
  std::set<Key> deleted;              // completed deletes
  Key inflight = 0;                   // the (single) op that never returned
  uint64_t inflight_value = 0;
  bool finished = false;  // ran out of ops without crashing
};

sim::Task<void> InsertVictim(TreeClient* c, Key start, int count,
                             VictimLog* log) {
  for (int i = 0; i < count; i++) {
    const Key k = start + 2 * static_cast<Key>(i);  // odd: off the bulkload
    const uint64_t v = 0xdead0000ull + static_cast<uint64_t>(i);
    log->inflight = k;
    log->inflight_value = v;
    Status st = co_await c->Insert(k, v);
    EXPECT_TRUE(st.ok()) << st.ToString();
    log->committed[k] = v;
    log->inflight = 0;
  }
  log->finished = true;
}

sim::Task<void> DeleteVictim(TreeClient* c, const std::vector<Key>* keys,
                             VictimLog* log) {
  for (Key k : *keys) {
    log->inflight = k;
    Status st = co_await c->Delete(k);
    EXPECT_TRUE(st.ok() || st.IsNotFound()) << st.ToString();
    log->deleted.insert(k);
    log->inflight = 0;
  }
  log->finished = true;
}

sim::Task<void> MigrateVictim(migrate::Migrator* mig, Key lo, Key hi,
                              uint16_t target, VictimLog* log) {
  Status st = co_await mig->MigrateRange(lo, hi, target);
  EXPECT_TRUE(st.ok()) << st.ToString();
  log->finished = true;
}

// --- survivor: wait for the crash, recover, verify --------------------------

struct SurvivorResult {
  bool done = false;
  bool recovered = false;
};

sim::Task<void> SurvivorRecoverAndVerify(
    ShermanSystem* system, const std::map<Key, uint64_t>* expected,
    const VictimLog* log, SurvivorResult* out) {
  sim::Simulator& sim = system->simulator();
  TreeClient& c = system->client(0);

  // Wait for the victim to die (or finish, for coverage-failure reporting).
  for (int i = 0; i < 4096 && !fault::Injector().fired() && !log->finished;
       i++) {
    co_await sim.Delay(50'000);
  }
  if (!fault::Injector().fired()) {
    out->done = true;
    co_return;
  }
  // Let the victim's in-flight completions drain and its lease age out.
  co_await sim.Delay(8 * kLeasePeriodNs);

  // Operator-initiated recovery (the failure-detector path; organic
  // lease-steal detection has its own tests below). Idempotent with any
  // recovery survivor ops may already have triggered.
  co_await c.recoverer().RecoverDeadOwner(kVictimTag);
  out->recovered = true;

  // Survivor traffic proceeds: a write into the recovered key space and a
  // full read-back of the oracle.
  Status st = co_await c.Insert(1'000'003, 777);
  EXPECT_TRUE(st.ok()) << "survivor insert after recovery: " << st.ToString();
  uint64_t v = 0;
  st = co_await c.Lookup(1'000'003, &v);
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(v, 777u);

  for (const auto& [k, want] : *expected) {
    // `expected` is the pre-victim oracle: skip keys the victim touched
    // (its committed stream is folded in by the host-side scan check).
    if (k == log->inflight || log->deleted.count(k) != 0 ||
        log->committed.count(k) != 0) {
      continue;
    }
    v = 0;
    st = co_await c.Lookup(k, &v);
    EXPECT_TRUE(st.ok()) << "lost committed key " << k << ": "
                         << st.ToString();
    if (st.ok()) {
      EXPECT_EQ(v, want) << "wrong value for key " << k;
    }
  }
  out->done = true;
}

// --- the sweep --------------------------------------------------------------

// rdwc.* sites live in the hot-key delegation layer (src/combine/): the
// victim is a write window's DELEGATE. The scenario promotes one key; the
// victim's PUT opens a window, a survivor PUT and GET join it in the same
// tick, and the victim dies at the site: window opened (nothing bound, no
// lock held), value bound (the leaf locked, the write frozen before its
// post), or write done (the joined PUT's value landed). The window's timer
// detects the dead delegate and completes the window without it: the
// followers are served when the write landed and re-run directly
// otherwise (at `rdwc.bound` the re-run PUT lease-steals the lock the
// victim died holding). The sweep checks that no follower is stranded,
// that the GET returns a value the key held, that the acknowledged PUT is
// visible (nothing overwrites it later), and that the tree ends
// oracle-identical with every lock lane free. Operator recovery
// afterwards is an idempotent no-op.
bool RunRdwcSiteScenario(const std::string& site) {
  fault::CrashInjector& inj = fault::Injector();
  inj.Reset();

  HybridOptions o;
  o.tree = RecoverOptions();
  o.router.num_shards = 4;
  o.rdwc.enable_delegation = true;
  o.rdwc.enable_combining = true;
  o.rdwc.sample_shift = 0;     // count every op: deterministic promotion
  o.rdwc.promote_threshold = 2;
  o.rdwc.hot_window_ns = 100'000'000;  // one epoch for the whole test
  o.rdwc.follower_timeout_ns = 30'000;
  HybridSystem system(RecoverFabric(), o);
  const uint64_t loaded = 120;
  const auto kvs = bench::MakeLoadKvs(loaded);
  system.BulkLoad(kvs, 0.9);

  struct Follower {
    Status st;
    uint64_t v = 0;
    bool done = false;
  };
  bool done = false;
  sim::Spawn([](HybridSystem* sys, const std::string* s,
                bool* flag) -> sim::Task<void> {
    sim::Simulator& sim = sys->simulator();
    route::HybridClient& c0 = sys->client(0);

    // Promote the key (sample_shift 0 + threshold 2: two ops suffice).
    for (int i = 0; i < 2; i++) {
      Status st = co_await c0.Insert(kHot, 0xAA00ull + i);
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
    EXPECT_TRUE(sys->rdwc()->IsHot(kHot));

    // The victim's PUT opens the next window as delegate; a survivor PUT
    // (its value is the window's write) and GET join it before its value
    // is bound. The victim dies at the armed site.
    fault::Injector().Arm(*s, /*nth=*/1, kVictimCs);
    sim::Spawn([](HybridSystem* h) -> sim::Task<void> {
      co_await h->client(kVictimCs).Insert(kHot, 0xDEADull);
      ADD_FAILURE() << "victim delegate returned from its crash site";
    }(sys));
    Follower put, get;
    sim::Spawn([](HybridSystem* h, Follower* out) -> sim::Task<void> {
      out->st = co_await h->client(0).Insert(kHot, kPutVal);
      out->done = true;
    }(sys, &put));
    sim::Spawn([](HybridSystem* h, Follower* out) -> sim::Task<void> {
      out->st = co_await h->client(0).Lookup(kHot, &out->v);
      out->done = true;
    }(sys, &get));
    EXPECT_EQ(Count(&sys->sherman(), "rdwc.followers_queued"), 2u);

    for (int i = 0; i < 4096 && !fault::Injector().fired(); i++) {
      co_await sim.Delay(500);
    }
    EXPECT_TRUE(fault::Injector().fired()) << *s << " never fired";
    if (!fault::Injector().fired()) {
      *flag = true;
      co_return;
    }
    EXPECT_EQ(sys->rdwc()->open_windows(), 1u)
        << *s << ": the dead delegate's window should still be open";

    for (int i = 0; i < 4096 && !(put.done && get.done); i++) {
      co_await sim.Delay(5'000);
    }
    EXPECT_TRUE(put.done && get.done)
        << *s << ": followers stranded by the dead delegate";
    EXPECT_TRUE(put.st.ok()) << put.st.ToString();
    EXPECT_TRUE(get.st.ok()) << get.st.ToString();
    if (*s == "rdwc.written") {
      // The write landed: the followers were served from the window.
      EXPECT_EQ(get.v, kPutVal) << *s << ": GET not served the write";
      EXPECT_EQ(Count(&sys->sherman(), "rdwc.gets_shared"), 1u);
    } else {
      // Nothing landed: the followers re-ran directly, the GET before or
      // after the re-run PUT.
      EXPECT_TRUE(get.v == kHotBefore || get.v == kPutVal)
          << *s << ": GET returned " << get.v;
      EXPECT_EQ(Count(&sys->sherman(), "rdwc.gets_shared"), 0u);
    }
    EXPECT_EQ(Count(&sys->sherman(), "rdwc.windows_abandoned"), 1u)
        << *s << ": the timer never completed the dead delegate's window";
    EXPECT_EQ(sys->rdwc()->open_windows(), 0u);

    // Operator-initiated recovery stays idempotent on top of this.
    co_await sim.Delay(8 * kLeasePeriodNs);
    co_await sys->sherman().client(0).recoverer().RecoverDeadOwner(kVictimTag);

    uint64_t v = 0;
    Status st = co_await c0.Lookup(kHot, &v);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(v, kPutVal);
    *flag = true;
  }(&system, &site, &done));
  system.simulator().Run();

  EXPECT_TRUE(done) << site << ": orchestrator never finished";
  if (!inj.fired()) return false;

  EXPECT_FALSE(system.sherman().tracer().last_flight_dump().empty())
      << site << ": no flight dump after crash-point kill";

  // Oracle: the bulkload with the hot key ending at the acknowledged
  // PUT's value, nothing else disturbed.
  system.sherman().DebugCheckInvariants();
  const auto scan = system.sherman().DebugScanLeaves();
  std::map<Key, uint64_t> final_map(scan.begin(), scan.end());
  for (const auto& [k, want] : kvs) {
    auto it = final_map.find(k);
    EXPECT_NE(it, final_map.end()) << site << ": loaded key " << k << " lost";
    if (it != final_map.end()) {
      EXPECT_EQ(it->second, k == kHot ? kPutVal : want)
          << site << ": wrong value for key " << k;
    }
  }
  EXPECT_EQ(final_map.size(), kvs.size()) << site << ": phantom keys";

  ExpectAllLanesFree(&system.sherman(), site);
  ExpectClientClean(&system.sherman(), kVictimCs, site);
  return true;
}

// Runs the scenario for `site` and returns true if the site fired.
bool RunSiteScenario(const std::string& site) {
  if (site.rfind("rdwc.", 0) == 0) return RunRdwcSiteScenario(site);

  fault::CrashInjector& inj = fault::Injector();
  inj.Reset();

  const bool is_split = site.rfind("split.", 0) == 0;
  const bool is_isplit = site.rfind("isplit.", 0) == 0;
  // hint.publish rides the split scenario (leaf splits publish hints);
  // hint.invalidate rides the merge scenario (merges invalidate before
  // the free). Both run with the sidecar enabled.
  const bool is_hint = site.rfind("hint.", 0) == 0;
  const bool is_merge =
      site.rfind("merge.", 0) == 0 || site == "hint.invalidate";
  const bool is_flip = site.rfind("flip.", 0) == 0;
  const bool is_root = site == "split.root";
  EXPECT_TRUE(is_split || is_isplit || is_merge || is_flip || is_hint)
      << "crash site " << site << " has no scenario mapping — extend "
      << "recover_test to cover it";

  TreeOptions opts = RecoverOptions();
  if (is_hint) opts.enable_leaf_hints = true;
  ShermanSystem system(RecoverFabric(), opts);
  // Shadow oracle: the committed state. Starts as the bulkload.
  std::map<Key, uint64_t> expected;
  VictimLog log;
  migrate::Migrator migrator(
      &system, migrate::MigratorOptions{.cs_id = kVictimCs});

  uint64_t loaded = 0;
  if (is_root) {
    loaded = 0;  // grow from an empty root leaf: MakeNewRoot fires early
  } else if (is_isplit) {
    loaded = 240;  // height 3: leaf splits overflow level-1 internals
  } else {
    loaded = 120;
  }
  const auto kvs = bench::MakeLoadKvs(loaded);
  system.BulkLoad(kvs, 0.9);
  for (const auto& [k, v] : kvs) expected[k] = v;

  inj.Arm(site, /*nth=*/1, kVictimCs);

  if (is_merge) {
    // Drain keys left to right; leaves underflow and merge into their
    // drained left siblings.
    static std::vector<Key> doomed;
    doomed.clear();
    for (uint64_t i = 0; i < loaded; i++) doomed.push_back(2 * (i + 1));
    sim::Spawn(DeleteVictim(&system.client(kVictimCs), &doomed, &log));
  } else if (is_flip) {
    const int target = system.AddMemoryServer();
    sim::Spawn(MigrateVictim(&migrator, 1, 2 * loaded + 1,
                             static_cast<uint16_t>(target), &log));
  } else {
    // Dense ascending inserts: leaf splits (and with enough of them,
    // internal splits and root growth).
    sim::Spawn(InsertVictim(&system.client(kVictimCs), 101,
                            is_root ? 60 : 400, &log));
  }

  SurvivorResult survivor;
  sim::Spawn(SurvivorRecoverAndVerify(&system, &expected, &log, &survivor));
  system.simulator().Run();

  EXPECT_TRUE(survivor.done) << site << ": survivor never finished";
  if (!inj.fired()) return false;

  // A SHERMAN_CRASH_AT kill must leave a flight-recorder dump behind (the
  // death observer fires on MarkDead, recovery activation fires again).
  EXPECT_FALSE(system.tracer().last_flight_dump().empty())
      << site << ": no flight dump after crash-point kill";

  // Apply the victim's committed ops to the oracle.
  for (const auto& [k, v] : log.committed) expected[k] = v;
  for (Key k : log.deleted) expected.erase(k);

  // Quiescent whole-tree comparison. The single in-flight op must be
  // atomic: fully applied or fully absent.
  system.DebugCheckInvariants();
  const auto scan = system.DebugScanLeaves();
  std::map<Key, uint64_t> final_map(scan.begin(), scan.end());
  for (const auto& [k, want] : expected) {
    if (k == log.inflight) continue;
    auto it = final_map.find(k);
    EXPECT_NE(it, final_map.end())
        << site << ": committed key " << k << " lost";
    if (it != final_map.end()) {
      EXPECT_EQ(it->second, want) << site << ": wrong value for key " << k;
    }
  }
  for (const auto& [k, v] : final_map) {
    if (expected.count(k)) continue;
    if (k == 1'000'003) continue;  // the survivor's probe insert
    // Only the in-flight op may add a key — with exactly its value.
    EXPECT_EQ(k, log.inflight) << site << ": phantom key " << k;
    if (k == log.inflight && log.inflight_value != 0) {
      EXPECT_EQ(v, log.inflight_value) << site << ": torn in-flight insert";
    }
  }
  if (log.inflight != 0 && expected.count(log.inflight) &&
      final_map.count(log.inflight)) {
    // In-flight delete that did not apply: the old value must survive
    // un-torn; in-flight insert over an existing key: old or new value.
    const uint64_t got = final_map[log.inflight];
    EXPECT_TRUE(got == expected[log.inflight] ||
                (log.inflight_value != 0 && got == log.inflight_value))
        << site << ": torn in-flight op on key " << log.inflight;
  }

  ExpectAllLanesFree(&system, site);
  ExpectClientClean(&system, kVictimCs, site);
  return true;
}

TEST(CrashSweepTest, EveryRegisteredCrashPointRecoversToOracle) {
  const std::vector<std::string> sites = fault::CrashSiteNames();
  // The registry must contain every structural-op family. If a site is
  // added without updating this list, the count assertions below fail —
  // by design: the sweep IS the contract that each site has a scenario.
  const std::set<std::string> kKnown = {
      "split.intent",  "split.sibling", "split.leaf",    "split.linked",
      "split.root",    "isplit.intent", "isplit.right",  "isplit.commit",
      "isplit.linked", "merge.intent",  "merge.tombstone", "merge.parent",
      "merge.sibling", "merge.freed",   "flip.intent",   "flip.copy",
      "flip.tombstone", "flip.flipped", "flip.sibfixed", "flip.freed",
      "rdwc.open",     "rdwc.bound",    "rdwc.written",
      "hint.publish",  "hint.invalidate",
  };
  EXPECT_EQ(sites.size(), kKnown.size());
  for (const std::string& s : sites) {
    EXPECT_TRUE(kKnown.count(s)) << "unmapped crash site " << s;
  }
  for (const std::string& site : sites) {
    SCOPED_TRACE("crash site: " + site);
    EXPECT_TRUE(RunSiteScenario(site))
        << "site " << site << " never fired in its scenario — the sweep "
        << "does not cover it";
  }
  fault::Injector().Reset();
}

// --- organic detection paths ------------------------------------------------

// A survivor WRITER blocked on the dead holder's lane steals the lease
// (no explicit recovery call anywhere).
TEST(CrashRecoveryTest, WriterLeaseStealRecoversTornMerge) {
  fault::CrashInjector& inj = fault::Injector();
  inj.Reset();
  ShermanSystem system(RecoverFabric(), RecoverOptions());
  const uint64_t loaded = 120;
  system.BulkLoad(bench::MakeLoadKvs(loaded), 0.9);

  inj.Arm("merge.tombstone", 1, kVictimCs);
  static std::vector<Key> doomed;
  doomed.clear();
  for (uint64_t i = 0; i < loaded; i++) doomed.push_back(2 * (i + 1));
  VictimLog log;
  sim::Spawn(DeleteVictim(&system.client(kVictimCs), &doomed, &log));

  bool done = false;
  sim::Spawn([](ShermanSystem* sys, const VictimLog* vlog,
                bool* flag) -> sim::Task<void> {
    sim::Simulator& sim = sys->simulator();
    for (int i = 0; i < 4096 && !fault::Injector().fired(); i++) {
      co_await sim.Delay(50'000);
    }
    EXPECT_TRUE(fault::Injector().fired());
    if (!fault::Injector().fired()) co_return;
    co_await sim.Delay(2 * kLeasePeriodNs);  // completions drain; lease young
    // Write INTO the torn range: the leaf the victim tombstoned mid-merge.
    // The insert blocks on the dead lane until the lease expires, steals
    // it, recovers, and completes.
    const Key torn = vlog->inflight;
    EXPECT_NE(torn, 0u);
    Status st = co_await sys->client(0).Insert(torn, 4242);
    EXPECT_TRUE(st.ok()) << st.ToString();
    uint64_t v = 0;
    st = co_await sys->client(0).Lookup(torn, &v);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(v, 4242u);
    *flag = true;
  }(&system, &log, &done));
  system.simulator().Run();

  ASSERT_TRUE(done);
  // Client 0 is the only survivor: the registry's counts are its own.
  EXPECT_GE(Count(&system, "lock.lease_steals"), 1u)
      << "the writer should have detected the expired lease itself";
  EXPECT_GE(Count(&system, "recover.recoveries"), 1u);
  system.DebugCheckInvariants();
  ExpectAllLanesFree(&system, "writer-steal");
  ExpectClientClean(&system, kVictimCs, "writer-steal");
  inj.Reset();
}

// A survivor READER (lock-free path) escapes its tombstone bounce loop via
// the lock probe and triggers the same recovery.
TEST(CrashRecoveryTest, ReaderProbeRecoversTornMerge) {
  fault::CrashInjector& inj = fault::Injector();
  inj.Reset();
  ShermanSystem system(RecoverFabric(), RecoverOptions());
  const uint64_t loaded = 120;
  system.BulkLoad(bench::MakeLoadKvs(loaded), 0.9);

  inj.Arm("merge.parent", 1, kVictimCs);
  static std::vector<Key> doomed;
  doomed.clear();
  for (uint64_t i = 0; i < loaded; i++) doomed.push_back(2 * (i + 1));
  VictimLog log;
  sim::Spawn(DeleteVictim(&system.client(kVictimCs), &doomed, &log));

  bool done = false;
  sim::Spawn([](ShermanSystem* sys, const VictimLog* vlog,
                bool* flag) -> sim::Task<void> {
    sim::Simulator& sim = sys->simulator();
    for (int i = 0; i < 4096 && !fault::Injector().fired(); i++) {
      co_await sim.Delay(50'000);
    }
    EXPECT_TRUE(fault::Injector().fired());
    if (!fault::Injector().fired()) co_return;
    co_await sim.Delay(8 * kLeasePeriodNs);
    // Read a key just RIGHT of the tombstoned leaf's range: the merge
    // died between tombstone and sibling widening, so the reader bounces
    // until its probe locks the tombstone and recovery completes.
    const Key probe = vlog->inflight + 2;
    uint64_t v = 0;
    Status st = co_await sys->client(0).Lookup(probe, &v);
    EXPECT_TRUE(st.ok() || st.IsNotFound()) << st.ToString();
    *flag = true;
  }(&system, &log, &done));
  system.simulator().Run();

  ASSERT_TRUE(done);
  // Client 0 is the only survivor: the registry's count is its own.
  EXPECT_GE(Count(&system, "recover.recoveries"), 1u)
      << "the reader's probe should have driven recovery";
  system.DebugCheckInvariants();
  ExpectAllLanesFree(&system, "reader-probe");
  inj.Reset();
}

// Fail-stop kill (no crash site): a client dies BETWEEN structural ops,
// holding ordinary entry-write locks at most. Recovery must simply release
// its lanes and pins without touching tree content.
TEST(CrashRecoveryTest, FailStopKillMidTrafficIsRecoverable) {
  fault::CrashInjector& inj = fault::Injector();
  inj.Reset();
  ShermanSystem system(RecoverFabric(), RecoverOptions());
  const uint64_t loaded = 200;
  system.BulkLoad(bench::MakeLoadKvs(loaded), 0.8);

  VictimLog log;
  sim::Spawn(InsertVictim(&system.client(kVictimCs), 101, 2'000, &log));
  system.simulator().At(300'000, [] {
    fault::Injector().KillClient(kVictimCs);
  });

  bool done = false;
  sim::Spawn([](ShermanSystem* sys, bool* flag) -> sim::Task<void> {
    co_await sys->simulator().Delay(300'000 + 8 * kLeasePeriodNs);
    co_await sys->client(0).recoverer().RecoverDeadOwner(kVictimTag);
    // Every key must be reachable afterwards.
    for (Key k = 2; k <= 60; k += 2) {
      uint64_t v = 0;
      Status st = co_await sys->client(0).Lookup(k, &v);
      EXPECT_TRUE(st.ok()) << "key " << k << ": " << st.ToString();
    }
    *flag = true;
  }(&system, &done));
  system.simulator().Run();

  ASSERT_TRUE(done);
  system.DebugCheckInvariants();
  ExpectAllLanesFree(&system, "fail-stop");
  ExpectClientClean(&system, kVictimCs, "fail-stop");
  // The flight recorder fired twice — on the crash-point kill and on the
  // Recoverer's activation — and the retained dump must not be empty.
  EXPECT_FALSE(system.tracer().last_flight_dump().empty());
  EXPECT_NE(system.tracer().last_flight_dump().find("recovery activated"),
            std::string::npos);
  inj.Reset();
}

// Whether a live internal node at level 1 holds the separator `sep`
// (host-side walk: root down to level 1, then right along it).
bool SeparatorLinked(ShermanSystem* system, Key sep) {
  const TreeShape& shape = system->options().shape;
  rdma::GlobalAddress addr = system->DebugRootAddr();
  while (NodeView(system->fabric().HostRaw(addr), &shape).level() > 1) {
    addr = NodeView(system->fabric().HostRaw(addr), &shape)
               .InternalChildFor(sep);
  }
  for (; !addr.is_null();) {
    NodeView v(system->fabric().HostRaw(addr), &shape);
    if (sep < v.hi_fence()) {
      for (uint32_t i = 0; i < v.count(); i++) {
        if (v.InternalKey(i) == sep) return true;
      }
      return false;
    }
    addr = v.sibling();
  }
  return false;
}

// Leaf address -> lo fence, along the leaf chain.
std::map<uint64_t, Key> LeafLos(ShermanSystem* system) {
  const TreeShape& shape = system->options().shape;
  rdma::GlobalAddress addr = system->DebugRootAddr();
  while (!NodeView(system->fabric().HostRaw(addr), &shape).is_leaf()) {
    addr = NodeView(system->fabric().HostRaw(addr), &shape).leftmost_child();
  }
  std::map<uint64_t, Key> out;
  for (; !addr.is_null();) {
    NodeView v(system->fabric().HostRaw(addr), &shape);
    out[addr.ToU64()] = v.lo_fence();
    addr = v.sibling();
  }
  return out;
}

// A leaf split's parent link runs after its put was acknowledged. The
// victim dies the moment a splitting insert returns, its linker between
// the parent lock and the separator write. The acknowledged key must read
// back, and recovery replays the split intent: it links the separator and
// leaves a valid tree, every lane free and the victim's slab clear.
TEST(CrashRecoveryTest, CrashAfterSplitAckBeforeLinkReplays) {
  fault::CrashInjector& inj = fault::Injector();
  inj.Reset();
  ShermanSystem system(RecoverFabric(), RecoverOptions());
  system.BulkLoad(bench::MakeLoadKvs(120), 0.9);

  Key acked = 0;  // the splitting insert's key (value 3 * key)
  Key sep = 0;    // the new leaf's lo fence
  sim::Spawn([](ShermanSystem* sys, Key* acked, Key* sep) -> sim::Task<void> {
    TreeClient& c = sys->client(kVictimCs);
    for (Key k = 101; k < 1'000; k += 2) {
      const std::map<uint64_t, Key> before = LeafLos(sys);
      EXPECT_TRUE((co_await c.Insert(k, 3 * k)).ok());
      const std::map<uint64_t, Key> after = LeafLos(sys);
      if (after.size() == before.size()) continue;
      fault::Injector().KillClient(kVictimCs);
      *acked = k;
      for (const auto& [addr, lo] : after) {
        if (before.count(addr) == 0) *sep = lo;
      }
      co_return;
    }
  }(&system, &acked, &sep));
  system.simulator().Run();
  ASSERT_NE(acked, 0u) << "no insert split a leaf";
  ASSERT_NE(sep, 0u);
  EXPECT_FALSE(SeparatorLinked(&system, sep))
      << "the linker landed the separator before the victim died";

  bool done = false;
  sim::Spawn([](ShermanSystem* sys, Key acked, bool* flag) -> sim::Task<void> {
    co_await sys->simulator().Delay(8 * kLeasePeriodNs);
    TreeClient& c = sys->client(0);
    co_await c.recoverer().RecoverDeadOwner(kVictimTag);
    uint64_t v = 0;
    const Status st = co_await c.Lookup(acked, &v);
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(v, 3 * acked);
    *flag = true;
  }(&system, acked, &done));
  system.simulator().Run();

  ASSERT_TRUE(done);
  EXPECT_TRUE(SeparatorLinked(&system, sep)) << "recovery did not link it";
  EXPECT_GE(Count(&system, "recover.intents_replayed"), 1u);
  system.DebugCheckInvariants();
  ExpectAllLanesFree(&system, "split-ack");
  ExpectClientClean(&system, kVictimCs, "split-ack");
  inj.Reset();
}

// A cross-MS split posts its sibling WRITE beside its intent WRITE. The
// victim splits a full leaf on MS 0 into a sibling on MS 1 (its allocator
// starts there) and dies at split.intent: both WRITEs have landed, the
// commit batch has not. Recovery rolls the split back and retires the
// written but unlinked sibling; the tree is the bulk load, untouched.
TEST(CrashRecoveryTest, CrossMsSplitDiesWithItsSiblingWritten) {
  fault::CrashInjector& inj = fault::Injector();
  inj.Reset();
  ShermanSystem system(RecoverFabric(), RecoverOptions());
  const auto kvs = bench::MakeLoadKvs(120);
  system.BulkLoad(kvs, 1.0);  // every leaf full: any new key splits
  Key key = 0;
  for (const auto& [addr, lo] : LeafLos(&system)) {
    if (rdma::GlobalAddress::FromU64(addr).node == 0 && lo != 0) {
      key = lo + 1;  // loaded keys are even
      break;
    }
  }
  ASSERT_NE(key, 0u);
  inj.Arm("split.intent", /*nth=*/1, kVictimCs);
  sim::Spawn([](TreeClient* c, Key k) -> sim::Task<void> {
    co_await c->Insert(k, 1);
    ADD_FAILURE() << "the splitting insert returned";
  }(&system.client(kVictimCs), key));
  system.simulator().Run();
  ASSERT_TRUE(inj.fired());

  // The intent names a sibling on the other MS whose bytes have landed.
  recover::IntentRecord rec;
  for (uint32_t slot = 0; slot < kIntentSlotsPerClient; slot++) {
    const recover::IntentRecord r = recover::IntentRecord::Deserialize(
        system.fabric().HostRaw(
            recover::IntentSlotAddress(kVictimCs, static_cast<int>(slot))));
    if (r.op == recover::IntentOp::kSplit) rec = r;
  }
  ASSERT_EQ(rec.op, recover::IntentOp::kSplit);
  ASSERT_EQ(rec.primary.node, 0);
  ASSERT_EQ(rec.second.node, 1);
  const NodeView sib(system.fabric().HostRaw(rec.second),
                     &system.options().shape);
  EXPECT_TRUE(sib.is_leaf());
  EXPECT_EQ(sib.lo_fence(), rec.aux) << "the sibling WRITE never landed";
  EXPECT_EQ(sib.hi_fence(), rec.hi);

  bool done = false;
  sim::Spawn([](ShermanSystem* sys, bool* flag) -> sim::Task<void> {
    co_await sys->simulator().Delay(8 * kLeasePeriodNs);
    co_await sys->client(0).recoverer().RecoverDeadOwner(kVictimTag);
    *flag = true;
  }(&system, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);

  EXPECT_EQ(Count(&system, "recover.intents_rolled_back"), 1u);
  EXPECT_EQ(Count(&system, "recover.orphans_freed"), 1u);
  EXPECT_EQ(Count(&system, "alloc.nodes_freed"), 1u);
  system.DebugCheckInvariants();
  const auto scan = system.DebugScanLeaves();
  const std::map<Key, uint64_t> got(scan.begin(), scan.end());
  const std::map<Key, uint64_t> loaded(kvs.begin(), kvs.end());
  EXPECT_EQ(got, loaded);
  ExpectAllLanesFree(&system, "cross-ms split");
  ExpectClientClean(&system, kVictimCs, "cross-ms split");
  inj.Reset();
}

// FG+ (sorted leaves, checksums, no command combination) writes a delete
// back as two ranges, the header and the shifted suffix, posted as one
// doorbell batch. The victim dies the instant the header lands, before
// its release: the suffix must land too, so once recovery sweeps the lane
// every other key reads back and the deleted one is gone. Awaited one
// WRITE at a time, the suffix never went out, and no reader validated the
// leaf again.
TEST(CrashRecoveryTest, SortedLeafDeleteLandsWhole) {
  fault::CrashInjector& inj = fault::Injector();
  inj.Reset();
  TreeOptions topt = FgPlusOptions();
  topt.shape.node_size = 256;
  topt.lock.lease_period_ns = kLeasePeriodNs;
  topt.lock.lease_expiry_periods = 4;
  ShermanSystem system(RecoverFabric(), topt);
  const auto kvs = bench::MakeLoadKvs(120);
  system.BulkLoad(kvs, 0.9);
  rdma::GlobalAddress leaf = rdma::kNullAddress;
  Key key = 0;
  for (const auto& [addr, lo] : LeafLos(&system)) {
    if (lo != 0) {
      leaf = rdma::GlobalAddress::FromU64(addr);
      key = lo + 8;  // the fifth of nine entries; loaded keys are even
      break;
    }
  }
  ASSERT_NE(key, 0u);
  uint8_t* host = system.fabric().HostRaw(leaf);
  const uint32_t count = NodeView(host, &topt.shape).count();

  sim::Spawn([](TreeClient* c, Key k) -> sim::Task<void> {
    co_await c->Delete(k);
    ADD_FAILURE() << "the delete returned";
  }(&system.client(kVictimCs), key));
  bool killed = false;
  sim::Spawn([](ShermanSystem* sys, uint8_t* h, const TreeShape* shape,
                uint32_t n, bool* flag) -> sim::Task<void> {
    for (int i = 0; i < 100'000 && NodeView(h, shape).count() == n; i++) {
      co_await sys->simulator().Delay(10);
    }
    fault::Injector().KillClient(kVictimCs);
    *flag = NodeView(h, shape).count() == n - 1;
  }(&system, host, &system.options().shape, count, &killed));
  system.simulator().Run();
  ASSERT_TRUE(killed) << "the delete's write-back never landed";

  bool done = false;
  sim::Spawn([](ShermanSystem* sys, bool* flag) -> sim::Task<void> {
    co_await sys->simulator().Delay(8 * kLeasePeriodNs);
    co_await sys->client(0).recoverer().RecoverDeadOwner(kVictimTag);
    *flag = true;
  }(&system, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);

  int bad = 0;
  sim::Spawn([](TreeClient* c, const std::vector<std::pair<Key, uint64_t>>* kv,
                Key gone, int* bad_out) -> sim::Task<void> {
    for (const auto& [k, v] : *kv) {
      uint64_t got = 0;
      const Status st = co_await c->Lookup(k, &got);
      const bool ok = k == gone ? st.IsNotFound() : st.ok() && got == v;
      if (!ok) {
        ADD_FAILURE() << "key " << k << ": " << st.ToString();
        ++*bad_out;
      }
    }
  }(&system.client(0), &kvs, key, &bad));
  system.simulator().Run();
  EXPECT_EQ(bad, 0);
  system.DebugCheckInvariants();
  ExpectAllLanesFree(&system, "sorted-leaf delete");
  ExpectClientClean(&system, kVictimCs, "sorted-leaf delete");
  inj.Reset();
}

// Orphaned reclamation pins: a dead client's in-flight ops must not freeze
// node recycling forever — recovery releases them (ReclaimEpoch::MarkDead)
// and the grace lists drain again.
TEST(CrashRecoveryTest, RecoveryReleasesDeadClientsEpochPins) {
  fault::CrashInjector& inj = fault::Injector();
  inj.Reset();
  ShermanSystem system(RecoverFabric(), RecoverOptions());
  system.BulkLoad(bench::MakeLoadKvs(120), 0.9);

  inj.Arm("merge.freed", 1, kVictimCs);
  static std::vector<Key> doomed;
  doomed.clear();
  for (uint64_t i = 0; i < 120; i++) doomed.push_back(2 * (i + 1));
  VictimLog log;
  sim::Spawn(DeleteVictim(&system.client(kVictimCs), &doomed, &log));

  bool done = false;
  sim::Spawn([](ShermanSystem* sys, bool* flag) -> sim::Task<void> {
    sim::Simulator& sim = sys->simulator();
    for (int i = 0; i < 4096 && !fault::Injector().fired(); i++) {
      co_await sim.Delay(50'000);
    }
    EXPECT_TRUE(fault::Injector().fired());
    if (!fault::Injector().fired()) co_return;
    co_await sim.Delay(8 * kLeasePeriodNs);
    // The victim died mid-op: its pin holds MinActive down.
    EXPECT_GT(sys->reclaim_epoch().pinned_ops(), 0u);
    co_await sys->client(0).recoverer().RecoverDeadOwner(kVictimTag);
    EXPECT_TRUE(sys->reclaim_epoch().IsDead(kVictimCs));
    *flag = true;
  }(&system, &done));
  system.simulator().Run();

  ASSERT_TRUE(done);
  // With the dead pins released, the freed node's grace period can pass:
  // nothing older than the current epoch is pinned anymore.
  EXPECT_EQ(system.reclaim_epoch().pinned_ops(), 0u);
  EXPECT_GT(Count(&system, "alloc.nodes_freed"), 0u);
  inj.Reset();
}

// A flip replay must drop a stale translation of the source's left
// neighbour, as the migrator's own repair does. S is the last child of the
// first level-1 node P0, and L, its right neighbour, opens the next one.
// CS 2 caches P0, CS 0 merges S away, and the victim dies at flip.flipped
// while migrating L: the flip committed, but the neighbour still links L.
// CS 2's cache resolves L.lo - 1 to S's tombstone, so a replay that kept
// that translation would lock the tombstone on every attempt and give up,
// leaving L tombstoned, linked and its intent live.
TEST(CrashRecoveryTest, FlipReplayDropsStaleNeighbourTranslation) {
  fault::CrashInjector& inj = fault::Injector();
  inj.Reset();
  ShermanSystem system(RecoverFabric(2, 3), RecoverOptions());
  system.BulkLoad(bench::MakeLoadKvs(400), 0.4);  // 4 entries a leaf
  ASSERT_GE(system.DebugHeight(), 3u);

  const TreeShape& shape = system.options().shape;
  const auto view = [&](rdma::GlobalAddress a) {
    return NodeView(system.fabric().HostRaw(a), &shape);
  };
  rdma::GlobalAddress p0 = system.DebugRootAddr();
  while (view(p0).level() > 1) p0 = view(p0).leftmost_child();
  const NodeView pv = view(p0);
  ASSERT_GE(pv.count(), 2u);
  const rdma::GlobalAddress s_addr = pv.InternalChild(pv.count() - 1);
  const rdma::GlobalAddress l_addr = view(s_addr).sibling();
  const Key s_lo = view(s_addr).lo_fence();
  const Key l_lo = view(l_addr).lo_fence();
  const Key l_hi = view(l_addr).hi_fence();
  ASSERT_EQ(l_lo, pv.hi_fence()) << "L must open the next parent";
  Key s_key = 0;
  for (const auto& [k, v] : system.DebugScanLeaves()) {
    if (k >= s_lo && k < l_lo) s_key = k;
  }
  ASSERT_NE(s_key, 0u);

  // CS 2 caches P0; CS 0's delete underflows S into its left neighbour.
  bool merged = false;
  sim::Spawn([](ShermanSystem* sys, Key k, bool* flag) -> sim::Task<void> {
    uint64_t v = 0;
    EXPECT_TRUE((co_await sys->client(2).Lookup(k, &v)).ok());
    EXPECT_TRUE((co_await sys->client(0).Delete(k)).ok());
    *flag = true;
  }(&system, s_key, &merged));
  system.simulator().Run();
  ASSERT_TRUE(merged);
  ASSERT_TRUE(view(s_addr).is_free()) << "S was not merged away";

  // The victim migrates L and dies once the parent names the copy.
  inj.Arm("flip.flipped", /*nth=*/1, kVictimCs);
  const int target = system.AddMemoryServer();
  migrate::Migrator mig(&system, {.cs_id = kVictimCs});
  VictimLog log;
  sim::Spawn(MigrateVictim(&mig, l_lo, l_hi, static_cast<uint16_t>(target),
                           &log));
  system.simulator().Run();
  ASSERT_TRUE(inj.fired());
  ASSERT_TRUE(view(l_addr).is_free());
  const uint64_t freed = Count(&system, "alloc.nodes_freed");

  bool done = false;
  sim::Spawn([](ShermanSystem* sys, bool* flag) -> sim::Task<void> {
    co_await sys->simulator().Delay(8 * kLeasePeriodNs);
    co_await sys->client(2).recoverer().RecoverDeadOwner(kVictimTag);
    *flag = true;
  }(&system, &done));
  system.simulator().Run();

  ASSERT_TRUE(done);
  EXPECT_EQ(Count(&system, "recover.intents_replayed"), 1u);
  EXPECT_EQ(Count(&system, "recover.partial_recoveries"), 0u);
  ExpectClientClean(&system, kVictimCs, "flip-replay");
  // L retired: out of the leaf chain and freed.
  EXPECT_EQ(LeafLos(&system).count(l_addr.ToU64()), 0u);
  EXPECT_EQ(Count(&system, "alloc.nodes_freed"), freed + 1);
  system.DebugCheckInvariants();
  ExpectAllLanesFree(&system, "flip-replay");
  inj.Reset();
}

// Several coroutines of one survivor blocked on a lane the victim died
// holding each steal it once: while the first one's recovery runs, the
// others park on it until the dead client's lanes are swept, instead of
// re-CASing the dead lane (and counting a steal) every round trip.
TEST(CrashRecoveryTest, WaitersOfOneRecoveryStealOnce) {
  fault::CrashInjector& inj = fault::Injector();
  inj.Reset();
  ShermanSystem system(RecoverFabric(), RecoverOptions());
  const uint64_t loaded = 120;
  system.BulkLoad(bench::MakeLoadKvs(loaded), 0.9);

  inj.Arm("merge.tombstone", 1, kVictimCs);
  static std::vector<Key> doomed;
  doomed.clear();
  for (uint64_t i = 0; i < loaded; i++) doomed.push_back(2 * (i + 1));
  VictimLog log;
  sim::Spawn(DeleteVictim(&system.client(kVictimCs), &doomed, &log));
  system.simulator().Run();
  ASSERT_TRUE(inj.fired());

  // The torn leaf (tombstoned, still linked) and one key of its range per
  // waiter.
  constexpr int kWaiters = 3;
  const TreeShape& shape = system.options().shape;
  std::vector<Key> keys;
  for (const auto& [addr, lo] : LeafLos(&system)) {
    NodeView v(system.fabric().HostRaw(rdma::GlobalAddress::FromU64(addr)),
               &shape);
    if (!v.is_free()) continue;
    for (Key k = v.lo_fence(); k < v.hi_fence() && keys.size() < kWaiters;
         k++) {
      keys.push_back(k);
    }
  }
  ASSERT_EQ(keys.size(), static_cast<size_t>(kWaiters));

  int done = 0;
  for (int i = 0; i < kWaiters; i++) {
    sim::Spawn([](ShermanSystem* sys, Key k, int* count) -> sim::Task<void> {
      co_await sys->simulator().Delay(2 * kLeasePeriodNs);  // lease young
      Status st = co_await sys->client(0).Insert(k, 4242);
      EXPECT_TRUE(st.ok()) << st.ToString();
      uint64_t v = 0;
      st = co_await sys->client(0).Lookup(k, &v);
      EXPECT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(v, 4242u);
      ++*count;
    }(&system, keys[i], &done));
  }
  system.simulator().Run();

  ASSERT_EQ(done, kWaiters);
  // Client 0 is the only survivor: the registry's counts are its own.
  EXPECT_EQ(Count(&system, "lock.lease_steals"),
            static_cast<uint64_t>(kWaiters));
  EXPECT_EQ(Count(&system, "recover.recoveries"), 1u);
  system.DebugCheckInvariants();
  ExpectAllLanesFree(&system, "waiters-steal-once");
  ExpectClientClean(&system, kVictimCs, "waiters-steal-once");
  inj.Reset();
}

}  // namespace
}  // namespace sherman
