// Tests for hot-key delegation + read/write combining (src/combine/):
// promotion/demotion mechanics of the sampled delegation table, write
// windows (joined GETs are served the window's write, joined PUTs fold
// into it, last arrival wins), sealing once the value is bound, overflow
// bypass, the queue-only ablation (combining off), the off switch being a
// true no-op, and a per-key linearizability check over a multi-CS
// hot-key history. Delegate death is covered by recover_test's crash
// sweep (rdwc.* sites); extreme-skew fuzzing with kills by fuzz_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/runner.h"
#include "combine/rdwc.h"
#include "core/hybrid_system.h"
#include "core/presets.h"
#include "test_oracle.h"
#include "util/random.h"

namespace sherman {
namespace {

rdma::FabricConfig SmallFabric(int ms = 2, int cs = 2) {
  rdma::FabricConfig f;
  f.num_memory_servers = ms;
  f.num_compute_servers = cs;
  f.ms_memory_bytes = 32ull << 20;
  return f;
}

// The deployment's rdwc.<name> count.
uint64_t Rdwc(HybridSystem* system, const char* name) {
  return system->sherman().registry().Snapshot().counter(
      std::string("rdwc.") + name);
}

HybridOptions RdwcHybrid(bool combining = true) {
  HybridOptions o;
  o.tree = ShermanOptions();
  o.router.num_shards = 8;
  o.rdwc.enable_delegation = true;
  o.rdwc.enable_combining = combining;
  o.rdwc.sample_shift = 0;       // count every op: deterministic promotion
  o.rdwc.promote_threshold = 1;  // the first op on a key promotes it
  o.rdwc.hot_window_ns = 100'000'000;
  return o;
}

// --- delegation table ------------------------------------------------------

TEST(RdwcTableTest, PromotesAtThresholdAndDemotesAfterColdWindows) {
  rdma::Fabric fabric(SmallFabric());

  combine::RdwcOptions opt;
  opt.enable_delegation = true;
  opt.sample_shift = 0;
  opt.promote_threshold = 4;
  opt.hot_window_ns = 1'000;
  combine::RdwcLayer layer(&fabric.simulator(), opt, &fabric.registry());

  const Key k = 42;
  for (int i = 0; i < 3; i++) {
    EXPECT_EQ(layer.Admit(k), nullptr) << "promoted too early at hit " << i;
  }
  EXPECT_NE(layer.Admit(k), nullptr);  // 4th sampled hit promotes
  EXPECT_TRUE(layer.IsHot(k));
  EXPECT_EQ(fabric.registry().Snapshot().counter("rdwc.promotions"), 1u);

  // Three cold epochs: the first roll still sees the promotion burst, the
  // next two see one sampled hit each (below bar 2) and demote.
  for (int epoch = 1; epoch <= 3; epoch++) {
    fabric.simulator().After(1'200, [] {});
    fabric.simulator().Run();  // now() lands past the epoch boundary
    layer.Admit(k);
  }
  EXPECT_FALSE(layer.IsHot(k));
  EXPECT_EQ(fabric.registry().Snapshot().counter("rdwc.demotions"), 1u);
}

TEST(RdwcTableTest, SampledColdPathSkipsTheTable) {
  rdma::Fabric fabric(SmallFabric());

  combine::RdwcOptions opt;
  opt.enable_delegation = true;
  opt.sample_shift = 2;  // 1 in 4 ops counted
  opt.promote_threshold = 2;
  opt.hot_window_ns = 100'000'000;
  combine::RdwcLayer layer(&fabric.simulator(), opt, &fabric.registry());

  // 7 ops = 1 sampled hit: stays cold; the 8th samples again and promotes.
  const Key k = 7;
  for (int i = 0; i < 7; i++) EXPECT_EQ(layer.Admit(k), nullptr);
  EXPECT_FALSE(layer.IsHot(k));
  EXPECT_NE(layer.Admit(k), nullptr);
  EXPECT_TRUE(layer.IsHot(k));
}

// --- write windows ---------------------------------------------------------

TEST(RdwcWindowTest, ParkedGetsShareAndPutsCombineLastWins) {
  HybridSystem system(SmallFabric(), RdwcHybrid());
  system.BulkLoad(bench::MakeLoadKvs(1'000), 0.8);

  struct Out {
    Status st;
    uint64_t v = 0;
    bool done = false;
  };
  Out del, put1, put2, get;
  // Same tick: the first PUT opens the window as delegate; the two PUTs
  // and the GET join it before its value is bound (after the lock).
  sim::Spawn([](HybridSystem* s, Out* o) -> sim::Task<void> {
    o->st = co_await s->client(0).Insert(42, 100);
    o->done = true;
  }(&system, &del));
  sim::Spawn([](HybridSystem* s, Out* o) -> sim::Task<void> {
    o->st = co_await s->client(1).Insert(42, 200);
    o->done = true;
  }(&system, &put1));
  sim::Spawn([](HybridSystem* s, Out* o) -> sim::Task<void> {
    o->st = co_await s->client(1).Insert(42, 300);  // last arrival wins
    o->done = true;
  }(&system, &put2));
  sim::Spawn([](HybridSystem* s, Out* o) -> sim::Task<void> {
    o->st = co_await s->client(1).Lookup(42, &o->v);
    o->done = true;
  }(&system, &get));
  system.simulator().Run();

  ASSERT_TRUE(del.done && put1.done && put2.done && get.done);
  EXPECT_TRUE(del.st.ok() && put1.st.ok() && put2.st.ok() && get.st.ok());
  // The joined GET is served the window's one write, which carries the
  // LAST joined PUT's value.
  EXPECT_EQ(get.v, 300u);

  EXPECT_EQ(Rdwc(&system, "windows_opened"), 1u);
  EXPECT_EQ(Rdwc(&system, "followers_queued"), 3u);
  EXPECT_EQ(Rdwc(&system, "puts_combined"), 2u);
  EXPECT_EQ(Rdwc(&system, "gets_shared"), 1u);
  EXPECT_EQ(Rdwc(&system, "combined_writes"), 1u);
  EXPECT_EQ(system.rdwc()->open_windows(), 0u);

  // The tree holds the window's value.
  bool checked = false;
  sim::Spawn([](HybridSystem* s, bool* flag) -> sim::Task<void> {
    uint64_t v = 0;
    Status st = co_await s->client(0).Lookup(42, &v);
    EXPECT_TRUE(st.ok());
    EXPECT_EQ(v, 300u);
    *flag = true;
  }(&system, &checked));
  system.simulator().Run();
  ASSERT_TRUE(checked);
  system.sherman().DebugCheckInvariants();
}

// The value of `key` in MS memory, read straight from the leaves.
uint64_t LeafValue(HybridSystem* system, Key key) {
  for (const auto& [k, v] : system->sherman().DebugScanLeaves()) {
    if (k == key) return v;
  }
  return 0;
}

// A PUT issued after the window's write has landed must not join that
// window: its value would be acknowledged but never written. Binding the
// value seals the window, so the PUT opens the next one.
TEST(RdwcWindowTest, PutAfterTheWriteLandedOpensTheNextWindow) {
  HybridSystem system(SmallFabric(), RdwcHybrid());
  system.BulkLoad(bench::MakeLoadKvs(1'000), 0.8);

  Status del, put1, put2;
  sim::Spawn([](HybridSystem* s, Status* st) -> sim::Task<void> {
    *st = co_await s->client(0).Insert(42, 100);
  }(&system, &del));
  sim::Spawn([](HybridSystem* s, Status* st) -> sim::Task<void> {
    *st = co_await s->client(1).Insert(42, 200);  // joins the window
  }(&system, &put1));
  bool issued = false;
  sim::Spawn([](HybridSystem* s, Status* st, bool* flag) -> sim::Task<void> {
    // Poll the leaf in MS memory until the window's write (200) landed,
    // then issue the third PUT while the window's ops are still in flight.
    for (int i = 0; i < 100'000 && LeafValue(s, 42) != 200; i++) {
      co_await s->simulator().Delay(20);
    }
    EXPECT_EQ(LeafValue(s, 42), 200u);
    EXPECT_EQ(s->rdwc()->open_windows(), 1u) << "the window already closed";
    *flag = true;
    *st = co_await s->client(1).Insert(42, 300);
  }(&system, &put2, &issued));
  system.simulator().Run();

  ASSERT_TRUE(issued);
  EXPECT_TRUE(del.ok() && put1.ok() && put2.ok());
  EXPECT_EQ(Rdwc(&system, "windows_opened"), 2u);
  EXPECT_EQ(Rdwc(&system, "combined_writes"), 1u);

  uint64_t v = 0;
  sim::Spawn([](HybridSystem* s, uint64_t* out) -> sim::Task<void> {
    EXPECT_TRUE((co_await s->client(0).Lookup(42, out)).ok());
  }(&system, &v));
  system.simulator().Run();
  EXPECT_EQ(v, 300u) << "an acknowledged PUT was never written";
  system.sherman().DebugCheckInvariants();
}

TEST(RdwcWindowTest, OverflowBypassesToTheDirectPath) {
  HybridOptions o = RdwcHybrid();
  o.rdwc.window_max_ops = 1;
  HybridSystem system(SmallFabric(), o);
  system.BulkLoad(bench::MakeLoadKvs(1'000), 0.8);

  std::vector<Status> res(4);
  int done = 0;
  for (int i = 0; i < 4; i++) {
    sim::Spawn([](HybridSystem* s, Status* out, int v,
                  int* counter) -> sim::Task<void> {
      *out = co_await s->client(0).Insert(42, 1000 + v);
      (*counter)++;
    }(&system, &res[i], i, &done));
  }
  system.simulator().Run();

  ASSERT_EQ(done, 4);
  for (const Status& st : res) EXPECT_TRUE(st.ok()) << st.ToString();
  // One delegate, one parked follower, two overflowed past the full window.
  EXPECT_EQ(Rdwc(&system, "windows_opened"), 1u);
  EXPECT_EQ(Rdwc(&system, "followers_queued"), 1u);
  EXPECT_EQ(Rdwc(&system, "bypass_overflow"), 2u);
  system.sherman().DebugCheckInvariants();
}

TEST(RdwcWindowTest, QueueOnlyModeSerializesWithoutSharing) {
  HybridSystem system(SmallFabric(), RdwcHybrid(/*combining=*/false));
  system.BulkLoad(bench::MakeLoadKvs(1'000), 0.8);

  struct Out {
    Status st;
    uint64_t v = 0;
    bool done = false;
  };
  Out del, put, get;
  sim::Spawn([](HybridSystem* s, Out* o) -> sim::Task<void> {
    o->st = co_await s->client(0).Insert(42, 100);
    o->done = true;
  }(&system, &del));
  sim::Spawn([](HybridSystem* s, Out* o) -> sim::Task<void> {
    o->st = co_await s->client(1).Insert(42, 200);
    o->done = true;
  }(&system, &put));
  sim::Spawn([](HybridSystem* s, Out* o) -> sim::Task<void> {
    o->st = co_await s->client(1).Lookup(42, &o->v);
    o->done = true;
  }(&system, &get));
  system.simulator().Run();

  ASSERT_TRUE(del.done && put.done && get.done);
  EXPECT_TRUE(del.st.ok() && put.st.ok() && get.st.ok());
  // Queue-only: followers re-ran their own remote ops after the delegate.
  EXPECT_EQ(Rdwc(&system, "windows_opened"), 1u);
  EXPECT_EQ(Rdwc(&system, "followers_queued"), 2u);
  EXPECT_EQ(Rdwc(&system, "combined_writes"), 0u);
  EXPECT_EQ(Rdwc(&system, "puts_combined"), 0u);
  EXPECT_EQ(Rdwc(&system, "gets_shared"), 0u);
  // The GET ran as a real remote read: it saw 100 or 200 depending on
  // whether it beat the re-run PUT, both legal linearizations.
  EXPECT_TRUE(get.v == 100u || get.v == 200u) << get.v;
  system.sherman().DebugCheckInvariants();
}

// --- varlen write windows -------------------------------------------------

HybridOptions RdwcVarHybrid(bool combining = true) {
  HybridOptions o = RdwcHybrid(combining);
  o.tree.two_level_versions = false;  // varlen requires sorted leaves
  o.tree.shape.varlen = true;
  o.tree.shape.node_size = 512;
  return o;
}

std::vector<std::pair<std::string, std::string>> VarLoadKvs(int n) {
  std::vector<std::pair<std::string, std::string>> kvs;
  kvs.reserve(n);
  for (int i = 0; i < n; i++) {
    char k[16];
    std::snprintf(k, sizeof(k), "k%06d", i + 1);
    kvs.emplace_back(k, "val" + std::to_string(i));
  }
  return kvs;
}

TEST(RdwcVarWindowTest, ParkedVarGetsShareAndPutsCombineLastWins) {
  HybridSystem system(SmallFabric(), RdwcVarHybrid());
  system.BulkLoadVar(VarLoadKvs(200), 0.8);

  struct Out {
    Status st;
    std::string v;
    bool done = false;
  };
  Out del, put1, put2, get;
  // Same tick on one hot string key: the first InsertVar opens the window
  // as delegate; two PUTs and a GET park while it is in flight.
  sim::Spawn([](HybridSystem* s, Out* o) -> sim::Task<void> {
    o->st = co_await s->client(0).InsertVar(Slice("hotkey00"), Slice("d100"));
    o->done = true;
  }(&system, &del));
  sim::Spawn([](HybridSystem* s, Out* o) -> sim::Task<void> {
    o->st = co_await s->client(1).InsertVar(Slice("hotkey00"), Slice("d200"));
    o->done = true;
  }(&system, &put1));
  sim::Spawn([](HybridSystem* s, Out* o) -> sim::Task<void> {
    o->st = co_await s->client(1).InsertVar(Slice("hotkey00"), Slice("d300"));
    o->done = true;
  }(&system, &put2));
  sim::Spawn([](HybridSystem* s, Out* o) -> sim::Task<void> {
    o->st = co_await s->client(1).LookupVar(Slice("hotkey00"), &o->v);
    o->done = true;
  }(&system, &get));
  system.simulator().Run();

  ASSERT_TRUE(del.done && put1.done && put2.done && get.done);
  EXPECT_TRUE(del.st.ok() && put1.st.ok() && put2.st.ok() && get.st.ok());
  // The joined GET is served the window's write: the last joined PUT.
  EXPECT_EQ(get.v, "d300");

  EXPECT_EQ(Rdwc(&system, "windows_opened"), 1u);
  EXPECT_EQ(Rdwc(&system, "followers_queued"), 3u);
  EXPECT_EQ(Rdwc(&system, "puts_combined"), 2u);
  EXPECT_EQ(Rdwc(&system, "gets_shared"), 1u);
  EXPECT_EQ(Rdwc(&system, "combined_writes"), 1u);
  EXPECT_EQ(Rdwc(&system, "var_key_mismatch"), 0u);
  EXPECT_EQ(system.rdwc()->open_windows(), 0u);

  bool checked = false;
  sim::Spawn([](HybridSystem* s, bool* flag) -> sim::Task<void> {
    std::string v;
    Status st = co_await s->client(0).LookupVar(Slice("hotkey00"), &v);
    EXPECT_TRUE(st.ok());
    EXPECT_EQ(v, "d300");
    *flag = true;
  }(&system, &checked));
  system.simulator().Run();
  ASSERT_TRUE(checked);
  system.sherman().DebugCheckInvariants();
}

TEST(RdwcVarWindowTest, FullKeyMismatchOnHotRoutingKeyBypasses) {
  HybridSystem system(SmallFabric(), RdwcVarHybrid());
  system.BulkLoadVar(VarLoadKvs(200), 0.8);

  // Both keys share the first 8 bytes (one routing key, one delegation
  // entry) but are distinct records: the second op must NOT share the
  // first's window.
  struct Out {
    Status st;
    bool done = false;
  };
  Out a, b;
  sim::Spawn([](HybridSystem* s, Out* o) -> sim::Task<void> {
    o->st = co_await s->client(0).InsertVar(Slice("hotkey00_a"), Slice("va"));
    o->done = true;
  }(&system, &a));
  sim::Spawn([](HybridSystem* s, Out* o) -> sim::Task<void> {
    o->st = co_await s->client(1).InsertVar(Slice("hotkey00_b"), Slice("vb"));
    o->done = true;
  }(&system, &b));
  system.simulator().Run();

  ASSERT_TRUE(a.done && b.done);
  EXPECT_TRUE(a.st.ok() && b.st.ok());
  EXPECT_EQ(Rdwc(&system, "windows_opened"), 1u);
  EXPECT_EQ(Rdwc(&system, "var_key_mismatch"), 1u);
  EXPECT_EQ(Rdwc(&system, "followers_queued"), 0u);

  bool checked = false;
  sim::Spawn([](HybridSystem* s, bool* flag) -> sim::Task<void> {
    std::string v;
    EXPECT_TRUE(
        (co_await s->client(0).LookupVar(Slice("hotkey00_a"), &v)).ok());
    EXPECT_EQ(v, "va");
    EXPECT_TRUE(
        (co_await s->client(0).LookupVar(Slice("hotkey00_b"), &v)).ok());
    EXPECT_EQ(v, "vb");
    *flag = true;
  }(&system, &checked));
  system.simulator().Run();
  ASSERT_TRUE(checked);
  system.sherman().DebugCheckInvariants();
}

struct VarOut {
  Status st;
  std::string v;
  bool done = false;
};

sim::Task<void> VarPut(HybridSystem* s, int cs, std::string key,
                       std::string value, VarOut* o) {
  o->st = co_await s->client(cs).InsertVar(Slice(key), Slice(value));
  o->done = true;
}

sim::Task<void> VarGet(HybridSystem* s, int cs, std::string key, VarOut* o) {
  o->st = co_await s->client(cs).LookupVar(Slice(key), &o->v);
  o->done = true;
}

// Reads `key` back through a fresh op once the window has drained.
std::string VarReadBack(HybridSystem* system, const std::string& key) {
  VarOut o;
  sim::Spawn(VarGet(system, 0, key, &o));
  system->simulator().Run();
  EXPECT_TRUE(o.done && o.st.ok()) << o.st.ToString();
  return o.v;
}

TEST(RdwcVarWindowTest, OverflowBypassesToTheDirectPath) {
  HybridOptions opt = RdwcVarHybrid();
  opt.rdwc.window_max_ops = 1;
  HybridSystem system(SmallFabric(), opt);
  system.BulkLoadVar(VarLoadKvs(200), 0.8);

  // Three PUTs on one hot string key in one tick: the delegate, one
  // parked follower, and one overflow that runs the direct path.
  VarOut put[3];
  for (int i = 0; i < 3; i++) {
    std::string value = "o";
    value += std::to_string(i);
    sim::Spawn(VarPut(&system, i == 0 ? 0 : 1, "hotkey00", value, &put[i]));
  }
  system.simulator().Run();
  for (const VarOut& o : put) {
    ASSERT_TRUE(o.done);
    EXPECT_TRUE(o.st.ok()) << o.st.ToString();
  }
  EXPECT_EQ(Rdwc(&system, "windows_opened"), 1u);
  EXPECT_EQ(Rdwc(&system, "followers_queued"), 1u);
  EXPECT_EQ(Rdwc(&system, "bypass_overflow"), 1u);
  EXPECT_EQ(Rdwc(&system, "combined_writes"), 1u);
  // The window's one write carries the joined o1; the overflowed o2 raced
  // it.
  const std::string last = VarReadBack(&system, "hotkey00");
  EXPECT_TRUE(last == "o1" || last == "o2") << last;
  // GETs with no write window open read directly: no window opened.
  EXPECT_EQ(Rdwc(&system, "windows_opened"), 1u);

  // A PUT opens the next window; of two GETs behind it, one joins and is
  // served the window's write, the other overflows and reads directly.
  VarOut put3, get[2];
  sim::Spawn(VarPut(&system, 0, "hotkey00", "o3", &put3));
  for (VarOut& o : get) sim::Spawn(VarGet(&system, 1, "hotkey00", &o));
  system.simulator().Run();
  ASSERT_TRUE(put3.done && get[0].done && get[1].done);
  EXPECT_TRUE(put3.st.ok() && get[0].st.ok() && get[1].st.ok());
  EXPECT_EQ(get[0].v, "o3");
  EXPECT_TRUE(get[1].v == last || get[1].v == "o3") << get[1].v;
  EXPECT_EQ(Rdwc(&system, "windows_opened"), 2u);
  EXPECT_EQ(Rdwc(&system, "bypass_overflow"), 2u);
  EXPECT_EQ(Rdwc(&system, "gets_shared"), 1u);
  EXPECT_EQ(VarReadBack(&system, "hotkey00"), "o3");
  system.sherman().DebugCheckInvariants();
}

// Out-of-line values need their value-log append before the lock, so a
// window cannot fold them: such PUTs neither open nor join a window.
TEST(RdwcVarWindowTest, OutOfLinePutsRunDirect) {
  HybridSystem system(SmallFabric(), RdwcVarHybrid());
  system.BulkLoadVar(VarLoadKvs(200), 0.8);

  const std::string big(kInlineThreshold + 1, 'x');
  VarOut del, put_big, get;
  sim::Spawn(VarPut(&system, 0, "hotkey00", "small", &del));
  sim::Spawn(VarPut(&system, 1, "hotkey00", big, &put_big));
  sim::Spawn(VarGet(&system, 1, "hotkey00", &get));
  system.simulator().Run();
  ASSERT_TRUE(del.done && put_big.done && get.done);
  EXPECT_TRUE(del.st.ok() && put_big.st.ok() && get.st.ok());
  EXPECT_EQ(get.v, "small");  // joined the window the inline PUT opened
  EXPECT_EQ(Rdwc(&system, "windows_opened"), 1u);
  EXPECT_EQ(Rdwc(&system, "followers_queued"), 1u);
  EXPECT_EQ(Rdwc(&system, "puts_combined"), 0u);
  const std::string last = VarReadBack(&system, "hotkey00");
  EXPECT_TRUE(last == "small" || last == big) << last.size();
  system.sherman().DebugCheckInvariants();
}

TEST(RdwcVarWindowTest, QueueOnlyModeRerunsParkedOpsDirectly) {
  HybridSystem system(SmallFabric(), RdwcVarHybrid(/*combining=*/false));
  system.BulkLoadVar(VarLoadKvs(200), 0.8);

  VarOut del, put, get;
  sim::Spawn(VarPut(&system, 0, "hotkey00", "q100", &del));
  sim::Spawn(VarPut(&system, 1, "hotkey00", "q200", &put));
  sim::Spawn(VarGet(&system, 1, "hotkey00", &get));
  system.simulator().Run();

  ASSERT_TRUE(del.done && put.done && get.done);
  EXPECT_TRUE(del.st.ok() && put.st.ok() && get.st.ok());
  EXPECT_EQ(Rdwc(&system, "windows_opened"), 1u);
  EXPECT_EQ(Rdwc(&system, "followers_queued"), 2u);
  EXPECT_EQ(Rdwc(&system, "combined_writes"), 0u);
  EXPECT_EQ(Rdwc(&system, "puts_combined"), 0u);
  EXPECT_EQ(Rdwc(&system, "gets_shared"), 0u);
  // The parked ops re-ran their own remote ops after the delegate's
  // write: the GET saw either PUT, and the re-run PUT landed last.
  EXPECT_TRUE(get.v == "q100" || get.v == "q200") << get.v;
  EXPECT_EQ(VarReadBack(&system, "hotkey00"), "q200");
  system.sherman().DebugCheckInvariants();
}

// --- linearizability --------------------------------------------------------

// One client's 300 ops on the hot keys, each recorded in `h`: PUTs of
// unique values and GETs through the windows, MultiInsert / MultiGet
// beside them.
sim::Task<void> HotKeyWorker(HybridSystem* s, int cs, uint64_t seed,
                             const std::vector<Key>* hot,
                             testutil::RegisterHistory* h, int* n) {
  route::HybridClient& c = s->client(cs);
  sim::Simulator& sim = s->simulator();
  Random rng(seed);
  for (uint64_t i = 1; i <= 300; i++) {
    const Key k = (*hot)[rng.Uniform(hot->size())];
    const uint64_t value = (seed << 32) | i;  // unique
    const sim::SimTime invoke = sim.now();
    const uint64_t dice = rng.Uniform(10);
    if (dice < 4) {
      const size_t op = h->BeginWrite(k, value, invoke);
      EXPECT_TRUE((co_await c.Insert(k, value)).ok());
      h->EndWrite(k, op, sim.now());
    } else if (dice < 8) {
      uint64_t v = 0;
      EXPECT_TRUE((co_await c.Lookup(k, &v)).ok());
      h->Read(k, invoke, sim.now(), v);
    } else if (dice < 9) {
      const size_t op = h->BeginWrite(k, value, invoke);
      std::vector<std::pair<Key, uint64_t>> kvs;
      kvs.emplace_back(k, value);
      const Status st = co_await c.MultiInsert(std::move(kvs));
      EXPECT_TRUE(st.ok()) << st.ToString();
      h->EndWrite(k, op, sim.now());
    } else {
      std::vector<Key> keys(1, k);
      std::vector<MultiGetResult> got;
      const Status st = co_await c.MultiGet(std::move(keys), &got);
      EXPECT_TRUE(st.ok()) << st.ToString();
      EXPECT_TRUE(got.size() == 1 && got[0].status.ok());
      if (got.size() == 1) h->Read(k, invoke, sim.now(), got[0].value);
    }
  }
  (*n)++;
}

// Reads the hot keys straight from MS memory every 50 ns until all
// `workers` are done:
// each poll is an instantaneous read of what has landed. A write lands
// where it linearizes (a window's ops included), so the polls belong in
// the history; they catch an acknowledged write that never landed.
sim::Task<void> MemoryObserver(HybridSystem* s, const std::vector<Key>* hot,
                               testutil::RegisterHistory* h,
                               const int* done, int workers) {
  while (*done < workers) {
    const sim::SimTime now = s->simulator().now();
    for (const auto& [k, v] : s->sherman().DebugScanLeaves()) {
      if (k > hot->back()) break;
      if (std::find(hot->begin(), hot->end(), k) != hot->end()) {
        h->Read(k, now, now, v);
      }
    }
    co_await s->simulator().Delay(50);
  }
}

// Several compute servers hammer two hot keys with unique-valued PUTs and
// GETs through the windows, beside MultiInsert / MultiGet, which bypass
// the table and so race the windows' writes directly, while a memory
// observer polls the hot keys. Every op on a hot key goes into a per-key
// register history that must be linearizable.
TEST(RdwcLinearizabilityTest, MultiCsHotKeyHistoryIsLinearizable) {
  for (uint64_t seed = 1; seed <= 4; seed++) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    HybridSystem system(SmallFabric(/*ms=*/2, /*cs=*/4), RdwcHybrid());
    const auto kvs = bench::MakeLoadKvs(200);
    system.BulkLoad(kvs, 0.8);
    const std::vector<Key> hot = {2, 4};
    testutil::RegisterHistory hist;
    for (const auto& [k, v] : kvs) {
      if (k <= hot.back()) hist.Initial(k, v);
    }

    int done = 0;
    for (int cs = 0; cs < 4; cs++) {
      for (int t = 0; t < 4; t++) {
        sim::Spawn(HotKeyWorker(&system, cs, seed * 100 + cs * 10 + t, &hot,
                                &hist, &done));
      }
    }
    sim::Spawn(MemoryObserver(&system, &hot, &hist, &done, 16));
    system.simulator().Run();
    ASSERT_EQ(done, 16);
    EXPECT_GT(Rdwc(&system, "combined_writes"), 0u);
    EXPECT_GT(Rdwc(&system, "gets_shared"), 0u);
    EXPECT_EQ(hist.keys(), hot.size());
    const std::vector<std::string> bad = hist.Check();
    EXPECT_TRUE(bad.empty()) << bad.size() << " violations, first: "
                             << bad.front();
    system.sherman().DebugCheckInvariants();
  }
}

TEST(RdwcWindowTest, DisabledLayerIsAbsentAndOpsStillWork) {
  HybridOptions o = RdwcHybrid();
  o.rdwc.enable_delegation = false;
  HybridSystem system(SmallFabric(), o);
  system.BulkLoad(bench::MakeLoadKvs(1'000), 0.8);
  EXPECT_EQ(system.rdwc(), nullptr);

  bool done = false;
  sim::Spawn([](HybridSystem* s, bool* flag) -> sim::Task<void> {
    for (int i = 0; i < 50; i++) {
      EXPECT_TRUE((co_await s->client(0).Insert(42, 7000 + i)).ok());
    }
    uint64_t v = 0;
    EXPECT_TRUE((co_await s->client(1).Lookup(42, &v)).ok());
    EXPECT_EQ(v, 7049u);
    *flag = true;
  }(&system, &done));
  system.simulator().Run();
  ASSERT_TRUE(done);
}

}  // namespace
}  // namespace sherman
