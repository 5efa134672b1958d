// Tests for hot-key delegation + read/write combining (src/combine/):
// promotion/demotion mechanics of the sampled delegation table, window
// sharing (parked GETs adopt the window value, parked PUTs collapse into
// one combined write, last arrival wins), overflow bypass, the
// queue-only ablation (combining off), and the off switch being a true
// no-op. Delegate-death re-election is covered by recover_test's crash
// sweep (rdwc.* sites); extreme-skew fuzzing with kills by fuzz_test.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/runner.h"
#include "combine/rdwc.h"
#include "core/hybrid_system.h"
#include "core/presets.h"

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

// --- combining windows -----------------------------------------------------

TEST(RdwcWindowTest, ParkedGetsShareAndPutsCombineLastWins) {
  HybridSystem system(SmallFabric(), RdwcHybrid());
  system.BulkLoad(bench::MakeLoadKvs(1'000), 0.8);

  struct Out {
    Status st;
    uint64_t v = 0;
    bool done = false;
  };
  Out del, put1, put2, get;
  // Same tick: the first op opens the window as delegate; the two PUTs
  // and the GET park while it is in flight.
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
  // The GET parked in the window shares its final value: the combined
  // write, which carries the LAST parked PUT's value.
  EXPECT_EQ(get.v, 300u);

  EXPECT_EQ(Rdwc(&system, "windows_opened"), 1u);
  EXPECT_EQ(Rdwc(&system, "followers_queued"), 3u);
  EXPECT_EQ(Rdwc(&system, "puts_combined"), 2u);
  EXPECT_EQ(Rdwc(&system, "gets_shared"), 1u);
  EXPECT_EQ(Rdwc(&system, "combined_writes"), 1u);
  EXPECT_EQ(system.rdwc()->open_windows(), 0u);

  // The tree holds the combined value.
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

// --- varlen combining windows ----------------------------------------------

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
  // The parked GET shares the combined write's value (last parked PUT).
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
    sim::Spawn(VarPut(&system, i == 0 ? 0 : 1, "hotkey00",
                      "o" + std::to_string(i), &put[i]));
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
  // The combined write (o1) lands after the delegate's own (o0); the
  // overflowed o2 raced both.
  const std::string last = VarReadBack(&system, "hotkey00");
  EXPECT_TRUE(last == "o1" || last == "o2") << last;

  // Three GETs the same way: delegate, shared follower, overflow. Every
  // one reads the value just read back.
  VarOut get[3];
  for (int i = 0; i < 3; i++) {
    sim::Spawn(VarGet(&system, i == 0 ? 0 : 1, "hotkey00", &get[i]));
  }
  system.simulator().Run();
  for (const VarOut& o : get) {
    ASSERT_TRUE(o.done);
    EXPECT_TRUE(o.st.ok()) << o.st.ToString();
    EXPECT_EQ(o.v, last);
  }
  // Plus the read-back's and the GETs' windows.
  EXPECT_EQ(Rdwc(&system, "windows_opened"), 3u);
  EXPECT_EQ(Rdwc(&system, "bypass_overflow"), 2u);
  EXPECT_EQ(Rdwc(&system, "gets_shared"), 1u);
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
