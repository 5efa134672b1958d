// Unit tests for the index cache (§4.2.3).
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "cache/index_cache.h"
#include "util/random.h"

namespace sherman {
namespace {

ParsedInternal MakeNode(uint8_t level, Key lo, Key hi, uint64_t addr_seed) {
  ParsedInternal p;
  p.level = level;
  p.lo = lo;
  p.hi = hi;
  p.self = rdma::GlobalAddress(0, 4096 + addr_seed * 1024);
  p.leftmost = rdma::GlobalAddress(1, 4096 + addr_seed * 2048);
  // A couple of children splitting [lo, hi).
  const Key mid = lo + (hi - lo) / 2;
  p.entries.emplace_back(mid, rdma::GlobalAddress(1, 8192 + addr_seed));
  return p;
}

TEST(IndexCacheTest, Level1HitAndMiss) {
  obs::Registry reg;
  IndexCache cache(1 << 20, 1024, 1, &reg);
  cache.Insert(MakeNode(1, 100, 200, 1));
  EXPECT_NE(cache.LookupLevel1(150), nullptr);
  EXPECT_EQ(cache.LookupLevel1(250), nullptr);
  EXPECT_EQ(cache.LookupLevel1(50), nullptr);
  EXPECT_EQ(reg.Snapshot().counter("cache.l1_hits"), 1u);
  EXPECT_EQ(reg.Snapshot().counter("cache.l1_misses"), 2u);
}

TEST(IndexCacheTest, ChildForRoutesWithinCachedNode) {
  obs::Registry reg;
  IndexCache cache(1 << 20, 1024, 1, &reg);
  ParsedInternal n = MakeNode(1, 0, 1000, 2);
  cache.Insert(n);
  const ParsedInternal* hit = cache.LookupLevel1(10);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->ChildFor(10), n.leftmost);
  EXPECT_EQ(hit->ChildFor(600), n.entries[0].second);
}

TEST(IndexCacheTest, UpperCachePrefersDeepestLevel) {
  obs::Registry reg;
  IndexCache cache(1 << 20, 1024, 1, &reg);
  cache.Insert(MakeNode(3, 0, kMaxKey, 3));
  cache.Insert(MakeNode(2, 0, 5000, 4));
  const ParsedInternal* got = cache.LookupUpper(100);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->level, 2);
  // Key outside the level-2 node falls back to level 3.
  got = cache.LookupUpper(9000);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->level, 3);
}

TEST(IndexCacheTest, Level1NodesNeverServeUpperLookups) {
  obs::Registry reg;
  IndexCache cache(1 << 20, 1024, 1, &reg);
  cache.Insert(MakeNode(1, 0, 1000, 5));
  EXPECT_EQ(cache.LookupUpper(10), nullptr);
}

TEST(IndexCacheTest, RefreshInPlaceKeepsOneEntry) {
  obs::Registry reg;
  IndexCache cache(1 << 20, 1024, 1, &reg);
  cache.Insert(MakeNode(1, 100, 200, 6));
  cache.Insert(MakeNode(1, 100, 180, 6));  // same lo, updated hi
  EXPECT_EQ(cache.level1_nodes(), 1u);
  const ParsedInternal* got = cache.LookupLevel1(150);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->hi, 180u);
}

TEST(IndexCacheTest, EvictsUnderCapacityPressure) {
  // Capacity for 4 nodes of 1 KB.
  obs::Registry reg;
  IndexCache cache(4 * 1024, 1024, 7, &reg);
  for (uint64_t i = 0; i < 32; i++) {
    cache.Insert(MakeNode(1, i * 100, (i + 1) * 100, i));
  }
  EXPECT_LE(cache.bytes_used(), 4u * 1024);
  EXPECT_LE(cache.level1_nodes(), 4u);
  EXPECT_GT(reg.Snapshot().counter("cache.evictions"), 0u);
}

TEST(IndexCacheTest, EvictionPrefersLeastRecentlyUsed) {
  obs::Registry reg;
  IndexCache cache(8 * 1024, 1024, 7, &reg);
  for (uint64_t i = 0; i < 8; i++) {
    cache.Insert(MakeNode(1, i * 100, (i + 1) * 100, i));
  }
  // Touch node 0 heavily; then overflow. Node 0 should usually survive
  // power-of-two-choices eviction.
  for (int i = 0; i < 50; i++) cache.LookupLevel1(50);
  for (uint64_t i = 8; i < 16; i++) {
    cache.Insert(MakeNode(1, i * 100, (i + 1) * 100, i));
  }
  EXPECT_NE(cache.LookupLevel1(50), nullptr) << "hot entry was evicted";
}

// Power-of-two choices draws two pool slots per victim from the cache's
// seeded RNG, so which nodes survive is a pure function of the seed, the
// inserts and the lookups between them. The set is pinned: it moves if the
// pool order (insertion order, swap-remove) or the draws per victim change.
TEST(IndexCacheTest, EvictionVictimsArePinned) {
  obs::Registry reg;
  IndexCache cache(8 * 1024, 1024, 7, &reg);
  for (uint64_t i = 0; i < 32; i++) {
    cache.Insert(MakeNode(1, i * 100, (i + 1) * 100, i));
    cache.LookupLevel1(i / 2 * 100 + 50);  // touch an older node, if cached
  }
  std::vector<Key> survivors;
  for (uint64_t i = 0; i < 32; i++) {
    if (cache.LookupLevel1(i * 100) != nullptr) survivors.push_back(i * 100);
  }
  EXPECT_EQ(survivors, (std::vector<Key>{0, 1600, 2300, 2400, 2600, 2900,
                                         3000, 3100}));
  EXPECT_EQ(reg.Snapshot().counter("cache.evictions"), 24u);
}

TEST(IndexCacheTest, InvalidateByKeyAndAddress) {
  obs::Registry reg;
  IndexCache cache(1 << 20, 1024, 1, &reg);
  ParsedInternal n = MakeNode(1, 100, 200, 8);
  cache.Insert(n);
  // Wrong address: no-op.
  cache.Invalidate(150, rdma::GlobalAddress(9, 9));
  EXPECT_NE(cache.LookupLevel1(150), nullptr);
  // Right address: dropped.
  cache.Invalidate(150, n.self);
  EXPECT_EQ(cache.LookupLevel1(150), nullptr);
}

TEST(IndexCacheTest, InvalidateLevel1Covering) {
  obs::Registry reg;
  IndexCache cache(1 << 20, 1024, 1, &reg);
  cache.Insert(MakeNode(1, 100, 200, 9));
  cache.InvalidateLevel1Covering(150);
  EXPECT_EQ(cache.LookupLevel1(150), nullptr);
  EXPECT_GE(reg.Snapshot().counter("cache.invalidations"), 1u);
  // Covering nothing: harmless.
  cache.InvalidateLevel1Covering(150);
}

// MakeNode(1, 100, 200, .) routes [100, 150) to its leftmost child and
// [150, 200) to its one entry. A split of the leftmost child at 120 is news
// to it: learned, both halves route to their own leaf, and the learn is
// counted. Anything else changes nothing.
TEST(IndexCacheTest, LearnSplitAddsTheSplitOnlyWhenItIsNews) {
  obs::Registry reg;
  IndexCache cache(1 << 20, 1024, 1, &reg);
  const ParsedInternal n = MakeNode(1, 100, 200, 10);
  cache.Insert(n);
  const rdma::GlobalAddress left = n.leftmost;
  const rdma::GlobalAddress right = n.entries[0].second;
  const rdma::GlobalAddress sib(1, 1 << 20);
  const auto entries = [&cache] { return cache.LookupLevel1(110)->entries; };

  EXPECT_FALSE(cache.LearnSplit(110, left, 160, sib));   // routed to right
  EXPECT_FALSE(cache.LearnSplit(110, right, 120, sib));  // routed to left
  EXPECT_FALSE(cache.LearnSplit(110, left, 100, sib));   // at the lo fence
  EXPECT_FALSE(cache.LearnSplit(110, left, 90, sib));    // below it
  EXPECT_FALSE(cache.LearnSplit(160, right, 200, sib));  // at the hi fence
  EXPECT_FALSE(cache.LearnSplit(160, right, 250, sib));  // above it
  EXPECT_FALSE(cache.LearnSplit(110, left, 120, rdma::kNullAddress));
  EXPECT_FALSE(cache.LearnSplit(250, left, 260, sib));   // nothing covers
  // `right` starts at 150 in the node, so it cannot end there.
  EXPECT_FALSE(cache.LearnSplit(160, right, 150, sib));
  EXPECT_EQ(entries(), n.entries);
  EXPECT_EQ(reg.Snapshot().counters.count("cache.splits_learned"), 0u);

  EXPECT_TRUE(cache.LearnSplit(110, left, 120, sib));
  const ParsedInternal* p = cache.LookupLevel1(110);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->ChildFor(100), left);
  EXPECT_EQ(p->ChildFor(119), left);
  EXPECT_EQ(p->ChildFor(120), sib);
  EXPECT_EQ(p->ChildFor(149), sib);
  EXPECT_EQ(p->ChildFor(150), right);
  EXPECT_EQ(p->lo, 100u);
  EXPECT_EQ(p->hi, 200u);
  // The same split again is no news.
  EXPECT_FALSE(cache.LearnSplit(130, left, 120, sib));
  EXPECT_EQ(reg.Snapshot().counter("cache.splits_learned"), 1u);
  EXPECT_EQ(cache.level1_nodes(), 1u);
  EXPECT_EQ(reg.Snapshot().counter("cache.invalidations"), 0u);
}

TEST(IndexCacheTest, InvalidateKeyRange) {
  obs::Registry reg;
  IndexCache cache(1 << 20, 1024, 1, &reg);
  for (uint64_t i = 0; i < 8; i++) {
    cache.Insert(MakeNode(1, i * 100, (i + 1) * 100, i));
  }
  cache.Insert(MakeNode(2, 0, 10'000, 8));
  // [150, 450) intersects [100, 200) .. [400, 500) and nothing else; the
  // level-2 node is not a translation and stays.
  cache.InvalidateKeyRange(150, 450);
  EXPECT_EQ(cache.level1_nodes(), 4u);
  for (uint64_t i = 0; i < 8; i++) {
    const bool dropped = i >= 1 && i <= 4;
    EXPECT_EQ(cache.LookupLevel1(i * 100 + 50) == nullptr, dropped) << i;
  }
  EXPECT_EQ(cache.upper_nodes(), 1u);
  EXPECT_NE(cache.LookupUpper(150), nullptr);
  EXPECT_EQ(reg.Snapshot().counter("cache.invalidations"), 4u);
}

// InvalidateKeyRange swap-removes its victims in pool order, and later
// evictions sample that pool, so their victims are pinned like the set in
// EvictionVictimsArePinned.
TEST(IndexCacheTest, EvictionAfterKeyRangeDropIsPinned) {
  obs::Registry reg;
  IndexCache cache(8 * 1024, 1024, 7, &reg);
  for (uint64_t i = 0; i < 8; i++) {
    cache.Insert(MakeNode(1, i * 100, (i + 1) * 100, i));
  }
  cache.InvalidateKeyRange(150, 450);  // drops [100, 500)
  for (uint64_t i = 8; i < 16; i++) {
    cache.Insert(MakeNode(1, i * 100, (i + 1) * 100, i));
  }
  std::vector<Key> survivors;
  for (uint64_t i = 0; i < 16; i++) {
    if (cache.LookupLevel1(i * 100) != nullptr) survivors.push_back(i * 100);
  }
  EXPECT_EQ(survivors, (std::vector<Key>{0, 500, 800, 900, 1100, 1200,
                                         1300, 1500}));
}

TEST(IndexCacheTest, UpperNodesChargedAndBounded) {
  // 64 KB type-① capacity => upper budget max(64K/4, 16*1K) = 16 KB = 16
  // nodes. Insert many distinct level-2 nodes (as stale epochs would) and
  // the budget must hold instead of growing without bound.
  obs::Registry reg;
  IndexCache cache(64 << 10, 1024, 1, &reg);
  for (uint64_t i = 0; i < 200; i++) {
    cache.Insert(MakeNode(2, i * 100, (i + 1) * 100, i));
  }
  EXPECT_LE(cache.upper_bytes_used(), cache.upper_capacity_bytes());
  EXPECT_LE(cache.upper_nodes(), 16u);
  EXPECT_GT(reg.Snapshot().counter("cache.evictions"), 0u);
  // bytes_used() reports both tiers.
  EXPECT_EQ(cache.bytes_used(), cache.upper_bytes_used());
}

TEST(IndexCacheTest, UpperRefreshDoesNotDoubleCharge) {
  obs::Registry reg;
  IndexCache cache(1 << 20, 1024, 1, &reg);
  cache.Insert(MakeNode(2, 100, 200, 1));
  const uint64_t once = cache.upper_bytes_used();
  cache.Insert(MakeNode(2, 100, 250, 1));  // same level+lo: refresh in place
  EXPECT_EQ(cache.upper_bytes_used(), once);
  EXPECT_EQ(cache.upper_nodes(), 1u);
  const ParsedInternal* got = cache.LookupUpper(220);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->hi, 250u);
}

TEST(IndexCacheTest, UpperEvictionPrefersLeastRecentlyUsed) {
  // Budget of 16 nodes; fill it, keep node 0 hot, then overflow: the hot
  // node must survive LRU eviction.
  obs::Registry reg;
  IndexCache cache(64 << 10, 1024, 1, &reg);
  for (uint64_t i = 0; i < 16; i++) {
    cache.Insert(MakeNode(2, i * 100, (i + 1) * 100, i));
  }
  for (int i = 0; i < 4; i++) EXPECT_NE(cache.LookupUpper(50), nullptr);
  for (uint64_t i = 16; i < 24; i++) {
    cache.Insert(MakeNode(2, i * 100, (i + 1) * 100, i));
  }
  EXPECT_NE(cache.LookupUpper(50), nullptr) << "hot upper node was evicted";
}

TEST(IndexCacheTest, InvalidateUpperReleasesBudget) {
  obs::Registry reg;
  IndexCache cache(1 << 20, 1024, 1, &reg);
  ParsedInternal n = MakeNode(2, 0, 5000, 20);
  cache.Insert(n);
  EXPECT_EQ(cache.upper_nodes(), 1u);
  cache.Invalidate(100, n.self);
  EXPECT_EQ(cache.upper_nodes(), 0u);
  EXPECT_EQ(cache.upper_bytes_used(), 0u);
}

TEST(IndexCacheTest, InvalidateUpper) {
  obs::Registry reg;
  IndexCache cache(1 << 20, 1024, 1, &reg);
  ParsedInternal n = MakeNode(2, 0, 5000, 10);
  cache.Insert(n);
  cache.Invalidate(100, n.self);
  EXPECT_EQ(cache.LookupUpper(100), nullptr);
}

// Random Insert / LookupLevel1 / invalidation steps over 500 disjoint
// level-1 intervals and four level-2 nodes, under a 64-node capacity that
// keeps eviction and the pool's swap-remove busy. `live` holds, per lo, the
// latest node inserted and not invalidated since. A cached node may be
// missing (evicted) but never stale: every hit covers its key and is the
// live node for its lo.
TEST(IndexCacheTest, RandomizedAgainstReference) {
  constexpr uint32_t kNodeBytes = 1024;
  constexpr Key kWidth = 100;
  constexpr Key kSpan = 500 * kWidth;
  constexpr Key kUpperWidth = kSpan / 4;
  obs::Registry reg;
  IndexCache cache(64 * kNodeBytes, kNodeBytes, 3, &reg);
  Random rng(13);
  std::map<Key, ParsedInternal> live;
  std::map<Key, ParsedInternal> upper;  // every level-2 node cached
  auto insert_upper = [&](Key key) {
    const Key lo = key / kUpperWidth * kUpperWidth;
    const ParsedInternal n = MakeNode(2, lo, lo + kUpperWidth, 1'000'000 + lo);
    cache.Insert(n);
    upper[lo] = n;
  };
  for (Key lo = 0; lo < kSpan; lo += kUpperWidth) insert_upper(lo);
  auto covering = [&](Key key) {
    auto it = live.find(key / kWidth * kWidth);
    return it != live.end() && key < it->second.hi ? it : live.end();
  };
  uint64_t hits = 0;
  for (uint64_t step = 0; step < 20'000; step++) {
    const Key key = rng.Uniform(kSpan);
    switch (rng.Uniform(5)) {
      case 0: {  // insert or refresh, with a fresh address and hi
        if (rng.Uniform(20) == 0) {
          insert_upper(key);
          break;
        }
        const Key lo = key / kWidth * kWidth;
        const ParsedInternal n =
            MakeNode(1, lo, lo + 1 + rng.Uniform(kWidth), step);
        cache.Insert(n);
        live[lo] = n;
        break;
      }
      case 1: {
        const ParsedInternal* hit = cache.LookupLevel1(key);
        if (hit == nullptr) break;
        hits++;
        ASSERT_EQ(hit->level, 1);
        ASSERT_TRUE(hit->lo <= key && key < hit->hi) << key;
        auto want = covering(key);
        ASSERT_NE(want, live.end()) << "hit on invalidated node " << hit->lo;
        EXPECT_EQ(hit->lo, want->second.lo);
        EXPECT_EQ(hit->hi, want->second.hi);
        EXPECT_EQ(hit->self, want->second.self);
        break;
      }
      case 2: {
        cache.InvalidateLevel1Covering(key);
        auto it = covering(key);
        if (it != live.end()) live.erase(it);
        break;
      }
      case 3: {  // by address: the level-1 node's, a level-2 node's, or stale
        const uint64_t pick = rng.Uniform(3);
        auto it = covering(key);
        if (pick == 0 && it != live.end()) {
          cache.Invalidate(key, it->second.self);
          live.erase(it);
        } else if (pick == 1 && !upper.empty() &&
                   upper.begin()->first <= key) {
          auto up = std::prev(upper.upper_bound(key));
          if (key < up->second.hi) {
            cache.Invalidate(key, up->second.self);
            upper.erase(up);
          }
        } else {
          const size_t before = cache.level1_nodes();
          cache.Invalidate(key, rdma::GlobalAddress(7, 64));
          ASSERT_EQ(cache.level1_nodes(), before);
        }
        break;
      }
      case 4: {
        const Key hi = key + 1 + rng.Uniform(5 * kWidth);
        cache.InvalidateKeyRange(key, hi);
        for (auto it = live.begin(); it != live.end();) {
          const bool intersects = it->second.lo < hi && it->second.hi > key;
          it = intersects ? live.erase(it) : std::next(it);
        }
        break;
      }
    }
    ASSERT_LE(cache.level1_nodes(), 64u);
    ASSERT_LE(cache.level1_nodes(), live.size());
    ASSERT_EQ(cache.upper_nodes(), upper.size());
    ASSERT_EQ(cache.bytes_used(),
              (cache.level1_nodes() + cache.upper_nodes()) * kNodeBytes);
  }
  // Sweep: whatever is still cached is live.
  for (Key lo = 0; lo < kSpan; lo += kWidth) {
    const ParsedInternal* hit = cache.LookupLevel1(lo);
    if (hit == nullptr) continue;
    auto want = covering(lo);
    ASSERT_NE(want, live.end()) << lo;
    EXPECT_EQ(hit->self, want->second.self);
  }
  EXPECT_GT(hits, 100u);
  EXPECT_GT(reg.Snapshot().counter("cache.evictions"), 0u);
}

TEST(IndexCacheTest, HitRatioAccounting) {
  obs::Registry reg;
  IndexCache cache(1 << 20, 1024, 1, &reg);
  cache.Insert(MakeNode(1, 0, 100, 13));
  cache.LookupLevel1(50);   // hit
  cache.LookupLevel1(500);  // miss
  const obs::MetricsSnapshot m = reg.Snapshot();
  const double hits = static_cast<double>(m.counter("cache.l1_hits"));
  EXPECT_DOUBLE_EQ(hits / (hits + m.counter("cache.l1_misses")), 0.5);
}

}  // namespace
}  // namespace sherman
