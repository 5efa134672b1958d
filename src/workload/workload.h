// YCSB-style workload generation (§5.1.3, Table 3).
//
// Key universe: the tree is bulkloaded with the even keys 2, 4, ..., 2N
// (logical ranks 0..N-1). Insert operations draw a rank from the popularity
// distribution; with probability `update_fraction` (the paper's ~2/3) the
// op targets the existing even key (an update), otherwise the adjacent odd
// key (a fresh insert). This keeps fresh inserts spatially spread instead
// of hammering the rightmost leaf.
#ifndef SHERMAN_WORKLOAD_WORKLOAD_H_
#define SHERMAN_WORKLOAD_WORKLOAD_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "util/random.h"

namespace sherman {

enum class OpType : uint8_t { kInsert, kLookup, kRangeQuery, kDelete };

struct WorkloadMix {
  double insert = 0;
  double lookup = 0;
  double range = 0;
  double del = 0;

  // The paper's five mixes (Table 3).
  static WorkloadMix WriteOnly() { return {1.0, 0.0, 0.0, 0.0}; }
  static WorkloadMix WriteIntensive() { return {0.5, 0.5, 0.0, 0.0}; }
  static WorkloadMix ReadIntensive() { return {0.05, 0.95, 0.0, 0.0}; }
  static WorkloadMix RangeOnly() { return {0.0, 0.0, 1.0, 0.0}; }
  static WorkloadMix RangeWrite() { return {0.5, 0.0, 0.5, 0.0}; }
};

struct WorkloadOptions {
  WorkloadMix mix = WorkloadMix::WriteIntensive();
  uint64_t loaded_keys = 1'000'000;  // N entries bulkloaded
  // 0 => uniform popularity; otherwise Zipfian skewness (0.99 = YCSB default).
  double zipf_theta = 0;
  uint32_t range_size = 100;
  double update_fraction = 2.0 / 3.0;

  // Hotspot drift: every `hotspot_drift_ops` operations the popularity
  // mapping rotates by `hotspot_drift_step` ranks, moving the Zipfian hot
  // set to a different region of the key space (0 = static hot set). This
  // exercises epoch re-adaptation in the hybrid router: shards that were
  // hot go cold and vice versa.
  uint64_t hotspot_drift_ops = 0;
  uint64_t hotspot_drift_step = 0;  // 0 => loaded_keys / 8

  // Hotspot popularity (the 99/1 extreme-skew preset bench_rdwc drives):
  // with probability `hotspot_share` an op targets a hot set of
  // `hotspot_keys` loaded keys (0 => 1% of loaded_keys) scattered over
  // the loaded prefix; other ops draw from the regular popularity
  // distribution. 0 disables.
  double hotspot_share = 0;
  uint64_t hotspot_keys = 0;

  // String-key mode (the "ycsb-string" preset): every op additionally
  // carries a byte-string key (and value, for inserts) for varlen trees.
  // The string key is a DETERMINISTIC function of the op's u64 key — a
  // 16-hex-digit FNV scramble plus hash-derived filler up to a per-key
  // length in [string_key_min, string_key_max] — so updates and deletes
  // land on the same record, any client can recompute the key, and the
  // scramble spreads routing prefixes uniformly. Insert VALUE lengths are
  // drawn per op on a geometric ladder over [string_value_min,
  // string_value_max], so updates cross the vlog inline threshold in both
  // directions.
  bool string_keys = false;
  uint32_t string_key_min = 16;  // >= 16 (the hex stem)
  uint32_t string_key_max = 40;
  uint32_t string_value_min = 16;
  uint32_t string_value_max = 4096;

  // Churn mode (space-reclamation benchmarking): when churn_window > 0
  // the generator ignores `mix` and keeps this client's live insert set
  // at exactly churn_window keys — each op inserts the next odd key of a
  // sliding sequence (seed-random start, advancing one rank per insert,
  // wrapping the universe) until the window fills, then alternates
  // deleting the oldest inserted key with inserting a fresh one. FIFO
  // expiry is time-correlated, so the live window sweeps the key space:
  // leaves drain and merge behind it while splits run ahead of it.
  // Overlapping client windows collide on keys; the loser's later delete
  // resolves as NotFound, so the aggregate live count stays pinned. This
  // is the sustained insert+delete-at-fixed-live-count mix bench_churn
  // uses to prove the allocated-bytes plateau.
  uint64_t churn_window = 0;
};

struct Op {
  OpType type = OpType::kLookup;
  uint64_t key = 0;
  uint64_t value = 0;      // for inserts
  uint32_t range_size = 0; // for range queries
  // String-key mode only (empty otherwise): the byte key, and for
  // inserts the byte value.
  std::string skey;
  std::string svalue;
};

// Deterministic per-client stream of operations.
class WorkloadGenerator {
 public:
  WorkloadGenerator(const WorkloadOptions& options, uint64_t seed);

  Op Next();

  // The even tree key for popularity rank r.
  static uint64_t LoadedKeyFor(uint64_t rank) { return 2 * (rank + 1); }

  // The deterministic string key for u64 key `key` (string-key mode):
  // 16 hex digits of an FNV scramble, extended with hash filler to a
  // per-key length in [min_len, max_len]. min_len must be >= 16.
  static std::string StringKeyFor(uint64_t key, uint32_t min_len,
                                  uint32_t max_len);

  const WorkloadOptions& options() const { return options_; }

  // Current rotation of the popularity mapping (see hotspot_drift_ops).
  uint64_t drift_offset() const { return drift_offset_; }

  // The current drawable key-space size: loaded_keys plus the fresh keys
  // this generator has inserted so far. Every fresh insert joins the
  // drawable key space — the popularity universe grows (the Zipfian zeta
  // sum extends incrementally), so recently inserted keys draw follow-up
  // updates/lookups/deletes and can become hot.
  uint64_t universe() const {
    return options_.loaded_keys + fresh_keys_.size();
  }

  // The tree key for rank r: a loaded even key below loaded_keys, one of
  // this generator's fresh inserts above.
  uint64_t KeyForRank(uint64_t rank) const;

 private:
  uint64_t NextRank();
  // String-key mode: attaches skey (and svalue for inserts) to *op.
  void FillStrings(Op* op);
  // One insert-value length off the geometric ladder.
  uint32_t DrawValueLen();

  WorkloadOptions options_;
  Random rng_;
  std::unique_ptr<ScrambledZipfianGenerator> zipf_;  // null => uniform
  std::vector<uint64_t> fresh_keys_;  // post-load inserts, by extended rank
  uint64_t value_counter_;
  uint64_t drift_offset_ = 0;
  uint64_t ops_since_drift_ = 0;
  std::deque<uint64_t> churn_fifo_;  // churn mode: this client's live keys
  uint64_t churn_cursor_ = 0;        // churn mode: next insert rank
  bool churn_started_ = false;
};

// Parses the mix names used by bench binaries ("write-only",
// "write-intensive", "read-intensive", "range-only", "range-write").
bool ParseMix(const std::string& name, WorkloadMix* mix);

// Same, writing into full WorkloadOptions; additionally accepts
// "hotspot-drift" (write-intensive mix with a rotating Zipfian hot set,
// enabling hotspot_drift_ops if unset), "hotspot" (write-intensive 99/1
// extreme hotspot: 99% of ops on ~1% of the keys, enabling
// hotspot_share if unset — the mix bench_rdwc drives), and "churn"
// (sustained insert+delete at a fixed live-key count, enabling
// churn_window if unset), and "ycsb-string" (write-intensive mix over a
// string keyspace: enables string_keys with the default 16-40 byte keys
// and 16B-4KB geometric values — the varlen tree's YCSB-style preset).
// The mix-only overload rejects these names on purpose: a caller that
// cannot apply the extra options would silently run a mislabeled
// workload.
bool ParseMix(const std::string& name, WorkloadOptions* options);

}  // namespace sherman

#endif  // SHERMAN_WORKLOAD_WORKLOAD_H_
