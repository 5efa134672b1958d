#include "workload/workload.h"

#include <algorithm>

#include "util/logging.h"

namespace sherman {

WorkloadGenerator::WorkloadGenerator(const WorkloadOptions& options,
                                     uint64_t seed)
    : options_(options), rng_(seed), value_counter_(seed << 20) {
  SHERMAN_CHECK(options.loaded_keys > 0);
  const double total = options.mix.insert + options.mix.lookup +
                       options.mix.range + options.mix.del;
  SHERMAN_CHECK_MSG(total > 0.999 && total < 1.001,
                    "workload mix must sum to 1 (got %.3f)", total);
  if (options.zipf_theta > 0) {
    zipf_ = std::make_unique<ScrambledZipfianGenerator>(options.loaded_keys,
                                                        options.zipf_theta);
  }
  if (options.string_keys) {
    SHERMAN_CHECK_MSG(options.string_key_min >= 16,
                      "string keys need the 16-byte hex stem");
    SHERMAN_CHECK(options.string_key_max >= options.string_key_min);
    SHERMAN_CHECK(options.string_value_min > 0);
    SHERMAN_CHECK(options.string_value_max >= options.string_value_min);
  }
}

std::string WorkloadGenerator::StringKeyFor(uint64_t key, uint32_t min_len,
                                            uint32_t max_len) {
  static const char kHex[] = "0123456789abcdef";
  // The stem: 16 hex digits of the scrambled key. Hex bytes are plain
  // ASCII, so the first 8 bytes can never collide with the routing-key
  // sentinels, and the FNV scramble spreads routing prefixes uniformly
  // regardless of how dense the u64 key space is.
  const uint64_t h = ScrambledZipfianGenerator::FnvHash(key);
  std::string s(16, '0');
  for (int i = 0; i < 16; i++) s[i] = kHex[(h >> (60 - 4 * i)) & 0xf];
  uint32_t len = min_len;
  if (max_len > min_len) {
    len += static_cast<uint32_t>(
        ScrambledZipfianGenerator::FnvHash(key ^ 0x9e3779b97f4a7c15ull) %
        (max_len - min_len + 1));
  }
  uint64_t filler = ScrambledZipfianGenerator::FnvHash(h);
  while (s.size() < len) {
    s.push_back(kHex[filler & 0xf]);
    filler = (filler >> 4) | (filler << 60);
  }
  return s;
}

uint32_t WorkloadGenerator::DrawValueLen() {
  const uint32_t lo = options_.string_value_min;
  const uint32_t hi = options_.string_value_max;
  if (hi <= lo) return lo;
  // Geometric ladder lo, 2*lo, 4*lo, ..., capped at hi: small inline
  // values and multi-KB outline values are both common, instead of the
  // uniform draw's mean sitting far above the inline threshold.
  uint32_t steps = 0;
  while ((lo << (steps + 1)) <= hi && steps < 30) steps++;
  const uint32_t e = static_cast<uint32_t>(rng_.Uniform(steps + 1));
  return std::min(hi, lo << e);
}

void WorkloadGenerator::FillStrings(Op* op) {
  if (!options_.string_keys) return;
  op->skey = StringKeyFor(op->key, options_.string_key_min,
                          options_.string_key_max);
  if (op->type == OpType::kInsert) {
    // Value bytes are a cheap deterministic pattern of op->value so an
    // oracle can recompute them; the LENGTH is the interesting part — a
    // re-draw per op makes updates cross the inline threshold both ways.
    const uint32_t len = DrawValueLen();
    op->svalue.resize(len);
    uint64_t x = ScrambledZipfianGenerator::FnvHash(op->value);
    for (uint32_t i = 0; i < len; i++) {
      op->svalue[i] = static_cast<char>('a' + ((x >> ((i & 7) * 8)) + i) % 26);
    }
  }
}

uint64_t WorkloadGenerator::KeyForRank(uint64_t rank) const {
  if (rank < options_.loaded_keys) return LoadedKeyFor(rank);
  return fresh_keys_[rank - options_.loaded_keys];
}

uint64_t WorkloadGenerator::NextRank() {
  uint64_t rank;
  if (options_.hotspot_share > 0 && rng_.Bernoulli(options_.hotspot_share)) {
    // Hotspot popularity: the hot set is `hotspot_keys` loaded ranks
    // scattered over the loaded prefix (always-present even keys, so a
    // hot GET is never a spurious NotFound).
    const uint64_t hot_n =
        options_.hotspot_keys > 0
            ? options_.hotspot_keys
            : std::max<uint64_t>(1, options_.loaded_keys / 100);
    rank = ScrambledZipfianGenerator::FnvHash(rng_.Uniform(hot_n)) %
           options_.loaded_keys;
  } else {
    rank = zipf_ != nullptr ? zipf_->Next(rng_) : rng_.Uniform(universe());
  }
  if (options_.hotspot_drift_ops > 0) {
    if (++ops_since_drift_ >= options_.hotspot_drift_ops) {
      ops_since_drift_ = 0;
      const uint64_t step = options_.hotspot_drift_step > 0
                                ? options_.hotspot_drift_step
                                : std::max<uint64_t>(1, options_.loaded_keys / 8);
      drift_offset_ = (drift_offset_ + step) % options_.loaded_keys;
    }
    // The rotation is defined over the loaded prefix; fresh ranks keep
    // their identity.
    if (rank < options_.loaded_keys) {
      rank = (rank + drift_offset_) % options_.loaded_keys;
    }
  }
  return rank;
}

Op WorkloadGenerator::Next() {
  Op op;
  if (options_.churn_window > 0) {
    // Churn mode: fixed live-key count. Delete the oldest inserted key
    // once the window is full, otherwise insert the next key of this
    // client's sliding sequence (FIFO expiry is time-correlated, so the
    // live window sweeps the key space: leaves fully drain behind it —
    // exercising merge/reclaim — while splits run ahead of it).
    if (churn_fifo_.size() >= options_.churn_window) {
      op.type = OpType::kDelete;
      op.key = churn_fifo_.front();
      churn_fifo_.pop_front();
    } else {
      if (!churn_started_) {
        churn_cursor_ = NextRank();  // seed-random start per client
        churn_started_ = true;
      }
      op.type = OpType::kInsert;
      op.key = LoadedKeyFor(churn_cursor_) + 1;
      churn_cursor_ = (churn_cursor_ + 1) % options_.loaded_keys;
      op.value = ++value_counter_;
      churn_fifo_.push_back(op.key);
    }
    FillStrings(&op);
    return op;
  }
  const double dice = rng_.NextDouble();
  const WorkloadMix& mix = options_.mix;
  const uint64_t rank = NextRank();
  const uint64_t key = KeyForRank(rank);

  if (dice < mix.insert) {
    op.type = OpType::kInsert;
    // ~2/3 of inserts update existing keys, the rest insert the adjacent
    // odd key (§5.1.3). A rank drawn from the grown universe folds back
    // into the loaded prefix so the update/fresh parity is independent
    // of how many fresh keys exist; the fresh odd key joins the drawable
    // universe, where read-side ops can reach it (and re-inserting it
    // again adds popularity weight).
    const uint64_t irank = rank % options_.loaded_keys;
    if (rng_.Bernoulli(options_.update_fraction)) {
      op.key = LoadedKeyFor(irank);
    } else {
      op.key = LoadedKeyFor(irank) + 1;
      fresh_keys_.push_back(op.key);
      if (zipf_ != nullptr) zipf_->GrowTo(universe());
    }
    op.value = ++value_counter_;
  } else if (dice < mix.insert + mix.lookup) {
    op.type = OpType::kLookup;
    op.key = key;
  } else if (dice < mix.insert + mix.lookup + mix.range) {
    op.type = OpType::kRangeQuery;
    op.key = key;
    op.range_size = options_.range_size;
  } else {
    op.type = OpType::kDelete;
    op.key = key;
  }
  FillStrings(&op);
  return op;
}

bool ParseMix(const std::string& name, WorkloadMix* mix) {
  if (name == "write-only") {
    *mix = WorkloadMix::WriteOnly();
  } else if (name == "write-intensive") {
    *mix = WorkloadMix::WriteIntensive();
  } else if (name == "read-intensive") {
    *mix = WorkloadMix::ReadIntensive();
  } else if (name == "range-only") {
    *mix = WorkloadMix::RangeOnly();
  } else if (name == "range-write") {
    *mix = WorkloadMix::RangeWrite();
  } else {
    return false;
  }
  return true;
}

bool ParseMix(const std::string& name, WorkloadOptions* options) {
  if (name == "hotspot-drift") {
    options->mix = WorkloadMix::WriteIntensive();
    if (options->hotspot_drift_ops == 0) options->hotspot_drift_ops = 400;
    return true;
  }
  if (name == "hotspot") {
    // 99/1 extreme hotspot: 99% of ops on ~1% of the keys (bench_rdwc's
    // mix; hotspot_keys can further narrow the hot set).
    options->mix = WorkloadMix::WriteIntensive();
    if (options->hotspot_share == 0) options->hotspot_share = 0.99;
    return true;
  }
  if (name == "churn") {
    options->mix = WorkloadMix::WriteOnly();  // informational; churn ignores it
    if (options->churn_window == 0) options->churn_window = 256;
    return true;
  }
  if (name == "ycsb-string") {
    // The varlen tree's YCSB-style string preset: write-intensive mix,
    // string keys with the default length spreads (16-40B keys, 16B-4KB
    // geometric values).
    options->mix = WorkloadMix::WriteIntensive();
    options->string_keys = true;
    return true;
  }
  return ParseMix(name, &options->mix);
}

}  // namespace sherman
