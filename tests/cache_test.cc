// Unit tests for the skiplist and the index cache (§4.2.3).
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "cache/index_cache.h"
#include "cache/skiplist.h"
#include "util/random.h"

namespace sherman {
namespace {

// --- SkipList ---

TEST(SkipListTest, InsertFindErase) {
  SkipList<int> sl;
  EXPECT_TRUE(sl.empty());
  sl.Insert(10, 100);
  sl.Insert(20, 200);
  sl.Insert(5, 50);
  EXPECT_EQ(sl.size(), 3u);
  ASSERT_NE(sl.Find(10), nullptr);
  EXPECT_EQ(*sl.Find(10), 100);
  EXPECT_EQ(sl.Find(11), nullptr);
  EXPECT_TRUE(sl.Erase(10));
  EXPECT_FALSE(sl.Erase(10));
  EXPECT_EQ(sl.size(), 2u);
}

TEST(SkipListTest, InsertOverwrites) {
  SkipList<int> sl;
  sl.Insert(7, 1);
  sl.Insert(7, 2);
  EXPECT_EQ(sl.size(), 1u);
  EXPECT_EQ(*sl.Find(7), 2);
}

TEST(SkipListTest, FindLessOrEqual) {
  SkipList<int> sl;
  sl.Insert(10, 1);
  sl.Insert(20, 2);
  sl.Insert(30, 3);
  uint64_t found = 0;
  EXPECT_EQ(sl.FindLessOrEqual(5, &found), nullptr);
  ASSERT_NE(sl.FindLessOrEqual(10, &found), nullptr);
  EXPECT_EQ(found, 10u);
  ASSERT_NE(sl.FindLessOrEqual(25, &found), nullptr);
  EXPECT_EQ(found, 20u);
  ASSERT_NE(sl.FindLessOrEqual(1000, &found), nullptr);
  EXPECT_EQ(found, 30u);
}

TEST(SkipListTest, IterationIsOrdered) {
  SkipList<int> sl;
  Random rng(11);
  std::map<uint64_t, int> reference;
  for (int i = 0; i < 1000; i++) {
    const uint64_t k = rng.Uniform(10'000);
    sl.Insert(k, i);
    reference[k] = i;
  }
  std::vector<uint64_t> keys;
  sl.ForEach([&](uint64_t k, const int&) { keys.push_back(k); });
  EXPECT_EQ(keys.size(), reference.size());
  auto it = reference.begin();
  for (size_t i = 0; i < keys.size(); i++, ++it) {
    EXPECT_EQ(keys[i], it->first);
  }
}

TEST(SkipListTest, RandomizedAgainstStdMap) {
  SkipList<int> sl;
  std::map<uint64_t, int> reference;
  Random rng(13);
  for (int i = 0; i < 20'000; i++) {
    const uint64_t k = rng.Uniform(500);
    const int action = static_cast<int>(rng.Uniform(3));
    if (action == 0) {
      sl.Insert(k, i);
      reference[k] = i;
    } else if (action == 1) {
      EXPECT_EQ(sl.Erase(k), reference.erase(k) > 0);
    } else {
      int* v = sl.Find(k);
      auto it = reference.find(k);
      if (it == reference.end()) {
        EXPECT_EQ(v, nullptr);
      } else {
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, it->second);
      }
    }
  }
  EXPECT_EQ(sl.size(), reference.size());
}

// --- IndexCache ---

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

TEST(IndexCacheTest, ClearDropsEverything) {
  obs::Registry reg;
  IndexCache cache(1 << 20, 1024, 1, &reg);
  cache.Insert(MakeNode(1, 0, 100, 11));
  cache.Insert(MakeNode(2, 0, 10'000, 12));
  cache.Clear();
  EXPECT_EQ(cache.level1_nodes(), 0u);
  EXPECT_EQ(cache.LookupUpper(5), nullptr);
  EXPECT_EQ(cache.bytes_used(), 0u);
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
