// IndexCache: the compute-server-side cache of internal tree nodes
// (§4.2.3).
//
// Every cached level is one ordered map keyed by lower fence key, so a
// lookup is "greatest lo <= key, then check hi" on one level. The paper
// keeps type ① in a skiplist that a CS's threads probe concurrently; here
// a CS's threads are coroutines on one host thread and a probe costs the
// constant cpu_cache_lookup_ns, so the standard map serves.
//
// Type ① — level-1 nodes (parents of leaves) — are bounded by a byte
// capacity and evicted with power-of-two-choices: sample two random cached
// nodes and drop the least recently used. A hit resolves a key directly to
// a leaf address (one RDMA_READ per operation in the ideal case).
//
// Type ② — the upper levels (level >= 2, including the root) — live under
// a dedicated byte budget (a quarter of the type-① capacity, floored at 16
// nodes). A healthy tree has only a handful of such nodes, but stale
// entries accumulate across splits and root moves, so they are charged and
// LRU-evicted like any other cached node instead of growing without bound.
//
// The cache never causes consistency issues: fetched nodes carry fence keys
// and level, which the tree validates. A leaf that validates teaches the
// cached level-1 node its split (LearnSplit), so a chase the split explains
// keeps the node. Only a dead end no split explains makes the tree call
// Invalidate() and retry (the paper's lazy invalidation).
#ifndef SHERMAN_CACHE_INDEX_CACHE_H_
#define SHERMAN_CACHE_INDEX_CACHE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "core/node_layout.h"
#include "obs/metrics.h"
#include "rdma/global_address.h"
#include "util/random.h"

namespace sherman {

class IndexCache {
 public:
  // Counts into `registry` as cache.*, shared by every CS's cache.
  IndexCache(uint64_t capacity_bytes, uint32_t node_bytes, uint64_t seed,
             obs::Registry* registry);

  IndexCache(const IndexCache&) = delete;
  IndexCache& operator=(const IndexCache&) = delete;

  // Type-① lookup: if a cached level-1 node covers `key`, returns it (its
  // ChildFor(key) is the target leaf). Counts a hit/miss.
  const ParsedInternal* LookupLevel1(Key key);

  // Caches a node, or refreshes the cached node of the same level and lo:
  // level-1 nodes under the type-① capacity, levels >= 2 under the type-②
  // budget.
  void Insert(const ParsedInternal& node);

  // Type-② lookup: deepest cached upper-level node covering `key` (never
  // level 1). Returns nullptr if none (caller starts at the root).
  const ParsedInternal* LookupUpper(Key key);

  // Drops the cached node (any type) whose range covers `key` at address
  // `addr` — called when a fetched child contradicts the cached pointer.
  void Invalidate(Key key, rdma::GlobalAddress addr);

  // Drops the type-① entry covering `key` regardless of address — called
  // when the leaf it steered to failed its fence check (lazy invalidation,
  // §4.2.3).
  void InvalidateLevel1Covering(Key key);

  // Teaches the type-① entry covering `key` that `leaf` split at `leaf_hi`
  // into `sibling`: adds the child (leaf_hi -> sibling). Only when that
  // entry still routes leaf_hi to leaf and leaf_hi lies strictly inside its
  // fences; otherwise changes nothing and returns false. The entry may then
  // hold more children than a real node, and stays as advisory as any
  // cached one: a wrong child costs a chase or a restart.
  bool LearnSplit(Key key, rdma::GlobalAddress leaf, Key leaf_hi,
                  rdma::GlobalAddress sibling);

  // Drops type-② entries covering `key` whose child pointer for `key` is
  // `child` — called when a descent through `child` found a tombstoned
  // (migrated-away) node: the live parent was flipped in place, so any
  // cached copy still steering to `child` is stale.
  void InvalidateUpperCovering(Key key, rdma::GlobalAddress child);

  // Drops every type-① entry whose fence interval intersects [lo, hi) —
  // the flip-time invalidation broadcast of a shard migration. Cached
  // leaf translations in the migrated range point at tombstones; dropping
  // them here saves every client one wasted READ + restart per key.
  void InvalidateKeyRange(Key lo, Key hi);

  uint64_t bytes_used() const {
    return (pool_.size() + upper_count_) * node_bytes_;
  }
  size_t level1_nodes() const { return pool_.size(); }
  size_t upper_nodes() const { return upper_count_; }
  uint64_t upper_bytes_used() const { return upper_count_ * node_bytes_; }
  uint64_t upper_capacity_bytes() const { return upper_capacity_bytes_; }

 private:
  struct Entry {
    ParsedInternal node;
    uint64_t last_used = 0;
    size_t pool_index = 0;  // level 1 only: position in pool_
  };
  using Level = std::map<Key, Entry>;  // lo fence -> entry

  // The entry of `level` whose fence interval covers `key`, or nullptr.
  static Entry* Covering(Level& level, Key key);
  void Erase(Entry* entry);
  void EvictIfNeeded();
  void EvictUpperIfNeeded();

  uint64_t capacity_bytes_;
  uint64_t upper_capacity_bytes_;
  uint32_t node_bytes_;
  Random rng_;
  uint64_t tick_ = 0;
  size_t upper_count_ = 0;

  std::map<uint8_t, Level> levels_;  // level -> its cached nodes
  // Level-1 entries in insertion order, swap-removed: eviction samples it
  // by index, so this order decides which nodes get evicted.
  std::vector<Entry*> pool_;

  obs::Counter* hits_;    // type-① (level-1) lookups
  obs::Counter* misses_;
  obs::Counter* upper_hits_;    // type-② (level >= 2) lookups, counted
  obs::Counter* upper_misses_;  // separately: they shorten a descent
                                // rather than replace it
  obs::Counter* evictions_;
  obs::Counter* invalidations_;
  // cache.splits_learned, registered on the first learned split so a
  // deployment that never learns one has no such key.
  obs::Registry* registry_;
  obs::Counter* splits_learned_ = nullptr;
};

}  // namespace sherman

#endif  // SHERMAN_CACHE_INDEX_CACHE_H_
