// Shared shadow-map oracle for concurrent differential tests (fuzz_test,
// migrate_test). The oracle records, per key, every value ever written and
// by whom — BEFORE the op is issued, so a concurrent torn-read check is
// sound — and the quiescent check enforces:
//  - every key in the final scan was bulkloaded or inserted;
//  - every final value was actually written to that key;
//  - keys written by exactly one thread and never deleted hold that
//    thread's last value (no lost updates);
//  - structural invariants hold (DebugCheckInvariants).
// The value-set rules cannot see an op served a value out of real-time
// order; RegisterHistory (below) checks per-key linearizability.
#ifndef SHERMAN_TESTS_TEST_ORACLE_H_
#define SHERMAN_TESTS_TEST_ORACLE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/btree.h"
#include "util/random.h"

namespace sherman::testutil {

struct KeyOracle {
  std::set<uint64_t> written_values;
  std::set<int> writers;  // -1 marks the bulkload
  bool deleted = false;   // any delete (or oracle exemption) ever issued
};
using Oracle = std::map<Key, KeyOracle>;

// Seeds the oracle with the bulkloaded pairs.
inline void SeedOracle(Oracle* oracle,
                       const std::vector<std::pair<Key, uint64_t>>& kvs) {
  for (const auto& [k, v] : kvs) {
    (*oracle)[k].written_values.insert(v);
    (*oracle)[k].writers.insert(-1);
  }
}

// Concurrent-read check: an OK read must return some written value.
// Coroutine-safe (EXPECT only, no ASSERT returns).
inline void CheckRead(const Oracle& oracle, Key key, const Status& st,
                      uint64_t v) {
  auto it = oracle.find(key);
  if (st.ok()) {
    EXPECT_NE(it, oracle.end()) << "phantom key " << key;
    if (it != oracle.end()) {
      EXPECT_TRUE(it->second.written_values.count(v))
          << "torn value " << v << " for key " << key;
    }
  } else {
    EXPECT_TRUE(st.IsNotFound()) << st.ToString();
  }
}

// One client thread's singleton-op stream (insert/lookup/delete/range),
// recorded against the shared oracle before each op is issued. Tiny
// fabrics can legitimately run out of chunks mid-run; such keys are
// exempted from the lost-update rule (marked deleted) instead of failing.
inline sim::Task<void> SingletonMixWorker(TreeClient* client, int tid,
                                          uint64_t seed, int ops,
                                          uint64_t key_space, Oracle* oracle,
                                          std::map<Key, uint64_t>* my_last,
                                          int* done) {
  Random rng(seed);
  for (int i = 0; i < ops; i++) {
    const Key key = 1 + rng.Uniform(key_space);
    const uint64_t dice = rng.Uniform(10);
    if (dice < 5) {
      const uint64_t value = (static_cast<uint64_t>(tid + 1) << 32) | (i + 1);
      (*oracle)[key].written_values.insert(value);
      (*oracle)[key].writers.insert(tid);
      (*my_last)[key] = value;
      Status st = co_await client->Insert(key, value);
      if (st.IsOutOfMemory()) {
        (*oracle)[key].deleted = true;
        my_last->erase(key);
        continue;
      }
      EXPECT_TRUE(st.ok()) << st.ToString();
    } else if (dice < 8) {
      uint64_t v = 0;
      Status st = co_await client->Lookup(key, &v);
      CheckRead(*oracle, key, st, v);
    } else if (dice < 9) {
      // Unconditional (entry-creating) mark: a concurrent insert may
      // create the key while this delete is in flight, and the delete
      // then legally linearizes after it — no last-value guarantee
      // survives for this key.
      (*oracle)[key].deleted = true;
      my_last->erase(key);
      Status st = co_await client->Delete(key);
      EXPECT_TRUE(st.ok() || st.IsNotFound()) << st.ToString();
    } else {
      std::vector<std::pair<Key, uint64_t>> out;
      Status st = co_await client->RangeQuery(
          key, 1 + static_cast<uint32_t>(rng.Uniform(40)), &out);
      EXPECT_TRUE(st.ok()) << st.ToString();
      for (size_t j = 1; j < out.size(); j++) {
        EXPECT_LT(out[j - 1].first, out[j].first) << "unsorted range";
      }
      for (const auto& [k2, v2] : out) CheckRead(*oracle, k2, Status::OK(), v2);
    }
  }
  (*done)++;
}

// Quiescent check of the whole tree against the oracle. `last_by_thread[t]`
// holds thread t's last written value per key (erased on delete/exemption).
inline void CheckOracleAtQuiescence(
    ShermanSystem* system, const Oracle& oracle,
    const std::map<Key, uint64_t> last_by_thread[], int threads) {
  system->DebugCheckInvariants();
  const auto scan = system->DebugScanLeaves();
  std::map<Key, uint64_t> final_map(scan.begin(), scan.end());
  for (const auto& [k, v] : final_map) {
    auto it = oracle.find(k);
    ASSERT_NE(it, oracle.end()) << "scan surfaced unwritten key " << k;
    EXPECT_TRUE(it->second.written_values.count(v))
        << "final value " << v << " for key " << k << " was never written";
  }
  for (int t = 0; t < threads; t++) {
    for (const auto& [k, v] : last_by_thread[t]) {
      const KeyOracle& o = oracle.at(k);
      if (o.deleted) continue;
      std::set<int> real_writers = o.writers;
      real_writers.erase(-1);  // bulkload
      if (real_writers.size() != 1) continue;
      auto it = final_map.find(k);
      ASSERT_NE(it, final_map.end()) << "lost key " << k;
      EXPECT_EQ(it->second, v) << "lost update on key " << k;
    }
  }
}

// ---------------------------------------------------------------------------
// Variable-length edition: full byte-string keys, byte-string values. The
// rules are the same as the fixed oracle's; only the key/value domain
// changes. Values routinely cross the inline threshold between updates, so
// a torn read here would surface either a stale inline image or a stale
// vlog extent — both fail the written-values membership check.

struct VarKeyOracle {
  std::set<std::string> written_values;
  std::set<int> writers;  // -1 marks the bulkload
  bool deleted = false;   // any delete (or oracle exemption) ever issued
};
using VarOracle = std::map<std::string, VarKeyOracle>;

inline void SeedVarOracle(
    VarOracle* oracle,
    const std::vector<std::pair<std::string, std::string>>& kvs) {
  for (const auto& [k, v] : kvs) {
    (*oracle)[k].written_values.insert(v);
    (*oracle)[k].writers.insert(-1);
  }
}

inline void CheckVarRead(const VarOracle& oracle, const std::string& key,
                         const Status& st, const std::string& v) {
  auto it = oracle.find(key);
  if (st.ok()) {
    EXPECT_NE(it, oracle.end()) << "phantom key " << key;
    if (it != oracle.end()) {
      EXPECT_TRUE(it->second.written_values.count(v))
          << "torn value (" << v.size() << "B) for key " << key;
    }
  } else {
    EXPECT_TRUE(st.IsNotFound()) << st.ToString();
  }
}

// Quiescent check of a varlen tree against the oracle, via the full
// string scan (which resolves every out-of-line value through the vlog).
inline void CheckVarOracleAtQuiescence(
    ShermanSystem* system, const VarOracle& oracle,
    const std::map<std::string, std::string> last_by_thread[], int threads) {
  system->DebugCheckInvariants();
  const auto scan = system->DebugScanLeavesVar();
  std::map<std::string, std::string> final_map(scan.begin(), scan.end());
  EXPECT_EQ(final_map.size(), scan.size()) << "duplicate keys in scan";
  for (const auto& [k, v] : final_map) {
    auto it = oracle.find(k);
    ASSERT_NE(it, oracle.end()) << "scan surfaced unwritten key " << k;
    EXPECT_TRUE(it->second.written_values.count(v))
        << "final value (" << v.size() << "B) for key " << k
        << " was never written";
  }
  for (int t = 0; t < threads; t++) {
    for (const auto& [k, v] : last_by_thread[t]) {
      const VarKeyOracle& o = oracle.at(k);
      if (o.deleted) continue;
      std::set<int> real_writers = o.writers;
      real_writers.erase(-1);  // bulkload
      if (real_writers.size() != 1) continue;
      auto it = final_map.find(k);
      ASSERT_NE(it, final_map.end()) << "lost key " << k;
      EXPECT_EQ(it->second, v) << "lost update on key " << k;
    }
  }
}

// ---------------------------------------------------------------------------
// Per-key register linearizability. Each op on a key is recorded with its
// invoke and respond sim times, its kind and its value. Written values are
// unique per key (deletes write fresh tombstones no read can name), so
// each read names the write it observed and the check is polynomial: the
// zone test of Gibbons & Korach, "Testing shared memories" (SIAM J.
// Comput. 1997). A write and the reads of its value form a cluster; its
// zone runs between the cluster's earliest respond f and latest invoke s.
// When f < s (a forward zone) the cluster must span [f, s] in any
// linearization, so no other write fits inside it; otherwise (a backward
// zone) it can linearize at one point of [s, f]. The history is
// linearizable iff no read returns before its write is invoked, no two
// forward zones overlap, and no backward zone lies inside a forward one.
// Reads that found nothing are not recorded: dropping reads keeps a
// linearizable history linearizable, so the check stays sound.

struct RegOp {
  static constexpr int64_t kPending = std::numeric_limits<int64_t>::max();
  int64_t invoke = 0;
  int64_t respond = kPending;  // a write whose client died never responds
  bool write = false;
  uint64_t value = 0;
};

class RegisterHistory {
 public:
  // The value `key` held before the history (its bulkloaded value).
  void Initial(Key key, uint64_t value) { initial_[key] = value; }
  // A write is recorded as it is issued (its client may die before it
  // returns); EndWrite stamps its response.
  size_t BeginWrite(Key key, uint64_t value, sim::SimTime now) {
    std::vector<RegOp>& ops = ops_[key];
    ops.push_back(RegOp{static_cast<int64_t>(now), RegOp::kPending, true,
                        value});
    return ops.size() - 1;
  }
  void EndWrite(Key key, size_t op, sim::SimTime now) {
    ops_[key][op].respond = static_cast<int64_t>(now);
  }
  size_t BeginDelete(Key key, sim::SimTime now) {
    return BeginWrite(key, kTombstone | next_tombstone_++, now);
  }
  // An OK read of `value`.
  void Read(Key key, sim::SimTime invoke, sim::SimTime respond,
            uint64_t value) {
    ops_[key].push_back(RegOp{static_cast<int64_t>(invoke),
                              static_cast<int64_t>(respond), false, value});
  }
  // A write of unknown outcome (a failed op) leaves the key unverifiable.
  void Exclude(Key key) { excluded_.insert(key); }

  size_t keys() const { return ops_.size(); }

  // One line per violation; empty = every key's history is linearizable.
  std::vector<std::string> Check() const {
    std::vector<std::string> bad;
    for (const auto& [key, ops] : ops_) {
      if (excluded_.count(key) == 0) CheckKey(key, ops, &bad);
    }
    return bad;
  }

 private:
  static constexpr uint64_t kTombstone = 1ull << 63;

  struct Cluster {
    bool written = false;
    int64_t write_invoke = 0;
    int64_t f = RegOp::kPending;                  // earliest respond
    int64_t s = std::numeric_limits<int64_t>::min();  // latest invoke
  };

  void CheckKey(Key key, const std::vector<RegOp>& ops,
                std::vector<std::string>* bad) const {
    const auto report = [&](const std::string& what) {
      std::ostringstream os;
      os << "key " << key << ": " << what;
      bad->push_back(os.str());
    };
    std::map<uint64_t, Cluster> clusters;
    const auto init = initial_.find(key);
    if (init != initial_.end()) {
      // The initial value: a write that completed before the history.
      Cluster& c = clusters[init->second];
      c.written = true;
      c.write_invoke = c.f = c.s = -1;
    }
    for (const RegOp& op : ops) {
      if (!op.write) continue;
      Cluster& c = clusters[op.value];
      if (c.written) {
        report("value " + std::to_string(op.value) + " written twice");
        return;
      }
      c.written = true;
      c.write_invoke = op.invoke;
      c.f = op.respond;
      c.s = op.invoke;
    }
    for (const RegOp& op : ops) {
      if (op.write) continue;
      auto it = clusters.find(op.value);
      if (it == clusters.end()) {
        report("read of never-written value " + std::to_string(op.value));
        continue;
      }
      Cluster& c = it->second;
      if (op.respond < c.write_invoke) {
        report("read of " + std::to_string(op.value) + " at [" +
               std::to_string(op.invoke) + "," + std::to_string(op.respond) +
               "] returned before its write was invoked at " +
               std::to_string(c.write_invoke));
      }
      c.f = std::min(c.f, op.respond);
      c.s = std::max(c.s, op.invoke);
    }
    std::vector<std::pair<int64_t, int64_t>> fwd;  // (f, s), f < s
    std::vector<std::pair<int64_t, int64_t>> bwd;  // (s, f), s <= f
    std::vector<uint64_t> fwd_value;
    for (const auto& [value, c] : clusters) {
      if (c.f < c.s) {
        fwd.emplace_back(c.f, c.s);
      } else {
        bwd.emplace_back(c.s, c.f);
      }
    }
    std::sort(fwd.begin(), fwd.end());
    int64_t reach = std::numeric_limits<int64_t>::min();
    for (const auto& [f, s] : fwd) {
      if (f < reach) {
        report("two forward zones overlap at " + std::to_string(f));
      }
      reach = std::max(reach, s);
    }
    for (const auto& [bs, bf] : bwd) {
      for (const auto& [f, s] : fwd) {
        if (f < bs && bf < s) {
          report("a write's backward zone [" + std::to_string(bs) + "," +
                 std::to_string(bf) + "] lies inside the forward zone [" +
                 std::to_string(f) + "," + std::to_string(s) + "]");
        }
      }
    }
  }

  std::map<Key, std::vector<RegOp>> ops_;
  std::map<Key, uint64_t> initial_;
  std::set<Key> excluded_;
  uint64_t next_tombstone_ = 0;
};

}  // namespace sherman::testutil

#endif  // SHERMAN_TESTS_TEST_ORACLE_H_
