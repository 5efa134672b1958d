// Unit tests for the node formats of Figure 8: headers, version pairs,
// checksums, sorted/unsorted leaves, internal nodes, parsing.
#include <gtest/gtest.h>

#include <vector>

#include "core/node_layout.h"

namespace sherman {
namespace {

TreeShape DefaultShape() { return TreeShape{1024, 8, 8}; }

std::vector<uint8_t> Buf(const TreeShape& s) {
  return std::vector<uint8_t>(s.node_size, 0);
}

TEST(TreeShapeTest, CapacitiesMatchPaperScale) {
  const TreeShape s = DefaultShape();
  EXPECT_EQ(s.leaf_entry_size(), 18u);  // 1 + 8 + 8 + 1 (paper packs 17)
  // 1 KB node, 8/8 keys: dozens of entries per node.
  EXPECT_GE(s.leaf_capacity(), 50u);
  EXPECT_GE(s.internal_capacity(), 55u);
}

TEST(TreeShapeTest, WideKeysShrinkCapacity) {
  TreeShape s{1024, 128, 8};
  EXPECT_LT(s.leaf_capacity(), 8u);
  EXPECT_GE(s.leaf_capacity(), 2u);
}

TEST(NodeViewTest, HeaderRoundTrip) {
  const TreeShape s = DefaultShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitLeaf(100, 200, rdma::GlobalAddress(3, 4096));
  EXPECT_TRUE(v.is_leaf());
  EXPECT_FALSE(v.is_free());
  EXPECT_EQ(v.level(), 0);
  EXPECT_EQ(v.lo_fence(), 100u);
  EXPECT_EQ(v.hi_fence(), 200u);
  EXPECT_EQ(v.sibling(), rdma::GlobalAddress(3, 4096));
  EXPECT_TRUE(v.InFence(100));
  EXPECT_TRUE(v.InFence(199));
  EXPECT_FALSE(v.InFence(200));
  EXPECT_FALSE(v.InFence(99));
  v.set_free(true);
  EXPECT_TRUE(v.is_free());
  v.set_free(false);
  EXPECT_FALSE(v.is_free());
}

TEST(NodeViewTest, NodeVersionsBumpTogetherAndWrap) {
  const TreeShape s = DefaultShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  EXPECT_TRUE(v.NodeVersionsMatch());
  for (int i = 0; i < 20; i++) {
    v.BumpNodeVersions();
    EXPECT_TRUE(v.NodeVersionsMatch());
    EXPECT_EQ(v.front_version(), (i + 1) & 0xf) << "4-bit wraparound";
  }
  // A torn state (only front bumped) must be detectable.
  buf[kOffFnv] = (v.front_version() + 1) & 0xf;
  EXPECT_FALSE(v.NodeVersionsMatch());
}

TEST(NodeViewTest, ChecksumDetectsCorruption) {
  const TreeShape s = DefaultShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  v.SetLeafEntryRaw(0, 42, 4242);
  v.UpdateChecksum();
  EXPECT_TRUE(v.VerifyChecksum());
  buf[500] ^= 0xff;
  EXPECT_FALSE(v.VerifyChecksum());
  buf[500] ^= 0xff;
  EXPECT_TRUE(v.VerifyChecksum());
}

TEST(NodeViewTest, LeafEntryVersionsBumpOnSet) {
  const TreeShape s = DefaultShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  EXPECT_TRUE(v.LeafEntryVersionsMatch(3));
  v.SetLeafEntry(3, 77, 770);
  EXPECT_EQ(v.LeafKey(3), 77u);
  EXPECT_EQ(v.LeafValue(3), 770u);
  EXPECT_EQ(v.LeafFrontVersion(3), 1);
  EXPECT_EQ(v.LeafRearVersion(3), 1);
  EXPECT_TRUE(v.LeafEntryVersionsMatch(3));
  // Raw set does not touch versions (bulk load).
  v.SetLeafEntryRaw(4, 88, 880);
  EXPECT_EQ(v.LeafFrontVersion(4), 0);
}

TEST(NodeViewTest, TornEntryDetectable) {
  const TreeShape s = DefaultShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  v.SetLeafEntry(0, 1, 10);
  // Simulate a torn write: front version advanced, rear still old.
  buf[v.LeafEntryOffset(0)] = 2;
  EXPECT_FALSE(v.LeafEntryVersionsMatch(0));
}

TEST(NodeViewTest, FindLeafSlotMatchEmptyFull) {
  const TreeShape s = DefaultShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  // Empty leaf: no match, slot 0 empty.
  auto r = v.FindLeafSlot(5);
  EXPECT_EQ(r.match, UINT32_MAX);
  EXPECT_EQ(r.empty, 0u);
  // Fill slots 0..2; key 6 in slot 1.
  v.SetLeafEntry(0, 4, 40);
  v.SetLeafEntry(1, 6, 60);
  v.SetLeafEntry(2, 8, 80);
  r = v.FindLeafSlot(6);
  EXPECT_EQ(r.match, 1u);
  r = v.FindLeafSlot(5);
  EXPECT_EQ(r.match, UINT32_MAX);
  EXPECT_EQ(r.empty, 3u);
  // Full leaf: neither match nor empty.
  for (uint32_t i = 0; i < s.leaf_capacity(); i++) {
    v.SetLeafEntry(i, 1000 + i, i);
  }
  r = v.FindLeafSlot(5);
  EXPECT_EQ(r.match, UINT32_MAX);
  EXPECT_EQ(r.empty, UINT32_MAX);
}

TEST(NodeViewTest, DeletedSlotIsReusable) {
  const TreeShape s = DefaultShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  v.SetLeafEntry(0, 10, 1);
  v.SetLeafEntry(1, 20, 2);
  v.SetLeafEntry(1, kNullKey, 0);  // delete clears the key
  auto r = v.FindLeafSlot(30);
  EXPECT_EQ(r.empty, 1u);
}

TEST(NodeViewTest, SortedLeafInsertKeepsOrderAndShifts) {
  const TreeShape s = DefaultShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  EXPECT_TRUE(v.SortedLeafInsert(20, 200));
  EXPECT_TRUE(v.SortedLeafInsert(10, 100));
  EXPECT_TRUE(v.SortedLeafInsert(30, 300));
  EXPECT_TRUE(v.SortedLeafInsert(15, 150));
  EXPECT_EQ(v.count(), 4u);
  const Key expect[] = {10, 15, 20, 30};
  for (int i = 0; i < 4; i++) EXPECT_EQ(v.LeafKey(i), expect[i]);
  // Update in place.
  EXPECT_TRUE(v.SortedLeafInsert(15, 155));
  EXPECT_EQ(v.count(), 4u);
  EXPECT_EQ(v.LeafValue(1), 155u);
}

TEST(NodeViewTest, SortedLeafInsertFullFails) {
  const TreeShape s = DefaultShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  for (uint32_t i = 0; i < s.leaf_capacity(); i++) {
    ASSERT_TRUE(v.SortedLeafInsert(10 + i * 2, i));
  }
  EXPECT_FALSE(v.SortedLeafInsert(11, 0));
  EXPECT_TRUE(v.SortedLeafInsert(10, 999));  // updates still fine
}

TEST(NodeViewTest, SortedLeafFindAndRemove) {
  const TreeShape s = DefaultShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  for (Key k : {10, 20, 30, 40}) v.SortedLeafInsert(k, k * 10);
  EXPECT_EQ(v.SortedLeafFind(30), 2u);
  EXPECT_EQ(v.SortedLeafFind(31), UINT32_MAX);
  v.SortedLeafRemoveAt(v.SortedLeafFind(20));
  EXPECT_EQ(v.SortedLeafFind(20), UINT32_MAX);
  EXPECT_EQ(v.count(), 3u);
  EXPECT_EQ(v.LeafKey(1), 30u);
  EXPECT_EQ(v.LeafValue(1), 300u);
}

TEST(NodeViewTest, InternalChildForRouting) {
  const TreeShape s = DefaultShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  const rdma::GlobalAddress lm(1, 4096), c1(1, 8192), c2(1, 12288);
  v.InitInternal(1, 0, kMaxKey, rdma::kNullAddress, lm);
  EXPECT_TRUE(v.InternalInsert(100, c1));
  EXPECT_TRUE(v.InternalInsert(200, c2));
  EXPECT_EQ(v.InternalChildFor(50), lm);
  EXPECT_EQ(v.InternalChildFor(100), c1);
  EXPECT_EQ(v.InternalChildFor(150), c1);
  EXPECT_EQ(v.InternalChildFor(200), c2);
  EXPECT_EQ(v.InternalChildFor(1'000'000), c2);
}

TEST(NodeViewTest, InternalInsertSortedWithShift) {
  const TreeShape s = DefaultShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitInternal(1, 0, kMaxKey, rdma::kNullAddress, rdma::GlobalAddress(0, 64));
  EXPECT_TRUE(v.InternalInsert(30, rdma::GlobalAddress(0, 3000)));
  EXPECT_TRUE(v.InternalInsert(10, rdma::GlobalAddress(0, 1000)));
  EXPECT_TRUE(v.InternalInsert(20, rdma::GlobalAddress(0, 2000)));
  EXPECT_EQ(v.count(), 3u);
  EXPECT_EQ(v.InternalKey(0), 10u);
  EXPECT_EQ(v.InternalKey(1), 20u);
  EXPECT_EQ(v.InternalKey(2), 30u);
  EXPECT_EQ(v.InternalChild(1), rdma::GlobalAddress(0, 2000));
  // Duplicate separator: idempotent overwrite.
  EXPECT_TRUE(v.InternalInsert(20, rdma::GlobalAddress(0, 2222)));
  EXPECT_EQ(v.count(), 3u);
  EXPECT_EQ(v.InternalChild(1), rdma::GlobalAddress(0, 2222));
}

TEST(NodeViewTest, InternalInsertFullFails) {
  const TreeShape s = DefaultShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitInternal(1, 0, kMaxKey, rdma::kNullAddress, rdma::GlobalAddress(0, 64));
  for (uint32_t i = 0; i < s.internal_capacity(); i++) {
    ASSERT_TRUE(v.InternalInsert(10 + i, rdma::GlobalAddress(0, 4096 + i)));
  }
  EXPECT_FALSE(v.InternalInsert(5, rdma::GlobalAddress(0, 99)));
}

// --- ParsedInternal / ParseInternal ---

TEST(ParseInternalTest, RoundTrip) {
  const TreeShape s = DefaultShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  const rdma::GlobalAddress self(2, 4096);
  v.InitInternal(2, 100, 900, rdma::GlobalAddress(2, 8192),
                 rdma::GlobalAddress(0, 64));
  v.InternalInsert(300, rdma::GlobalAddress(0, 3000));
  v.InternalInsert(600, rdma::GlobalAddress(0, 6000));
  ParsedInternal p;
  ASSERT_TRUE(ParseInternal(buf.data(), s, self, &p).ok());
  EXPECT_EQ(p.self, self);
  EXPECT_EQ(p.level, 2);
  EXPECT_EQ(p.lo, 100u);
  EXPECT_EQ(p.hi, 900u);
  EXPECT_EQ(p.entries.size(), 2u);
  EXPECT_EQ(p.ChildFor(150), p.leftmost);
  EXPECT_EQ(p.ChildFor(450), rdma::GlobalAddress(0, 3000));
  EXPECT_EQ(p.ChildFor(600), rdma::GlobalAddress(0, 6000));
}

TEST(ParseInternalTest, ChildIndexCountsEntriesAtOrBelowKey) {
  ParsedInternal p;
  p.lo = 0;
  p.hi = kMaxKey;
  p.leftmost = rdma::GlobalAddress(0, 100);
  p.entries = {{10, rdma::GlobalAddress(0, 200)},
               {20, rdma::GlobalAddress(0, 300)}};
  EXPECT_EQ(p.ChildIndex(5), 0u);
  EXPECT_EQ(p.ChildIndex(10), 1u);
  EXPECT_EQ(p.ChildIndex(15), 1u);
  EXPECT_EQ(p.ChildIndex(20), 2u);
  EXPECT_EQ(p.ChildIndex(kMaxKey - 1), 2u);
  EXPECT_EQ(p.ChildFor(5), rdma::GlobalAddress(0, 100));
  EXPECT_EQ(p.ChildFor(15), rdma::GlobalAddress(0, 200));
  EXPECT_EQ(p.ChildFor(25), rdma::GlobalAddress(0, 300));
}

TEST(ParseInternalTest, RejectsTornNode) {
  const TreeShape s = DefaultShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitInternal(1, 0, kMaxKey, rdma::kNullAddress, rdma::GlobalAddress(0, 64));
  buf[kOffFnv] = 3;  // front != rear
  ParsedInternal p;
  EXPECT_TRUE(ParseInternal(buf.data(), s, {}, &p).IsRetry());
}

TEST(ParseInternalTest, RejectsLeaf) {
  const TreeShape s = DefaultShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  ParsedInternal p;
  EXPECT_TRUE(ParseInternal(buf.data(), s, {}, &p).IsCorruption());
}

TEST(ParseInternalTest, RejectsFreedNode) {
  const TreeShape s = DefaultShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitInternal(1, 0, kMaxKey, rdma::kNullAddress, rdma::GlobalAddress(0, 64));
  v.set_free(true);
  ParsedInternal p;
  EXPECT_TRUE(ParseInternal(buf.data(), s, {}, &p).IsRetry());
}

TEST(ParseInternalTest, RejectsGarbageCount) {
  const TreeShape s = DefaultShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitInternal(1, 0, kMaxKey, rdma::kNullAddress, rdma::GlobalAddress(0, 64));
  v.set_count(60'000);
  ParsedInternal p;
  EXPECT_TRUE(ParseInternal(buf.data(), s, {}, &p).IsCorruption());
}

TEST(ParseInternalTest, RejectsUnorderedKeys) {
  const TreeShape s = DefaultShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitInternal(1, 0, kMaxKey, rdma::kNullAddress, rdma::GlobalAddress(0, 64));
  v.SetInternalEntry(0, 50, rdma::GlobalAddress(0, 1));
  v.SetInternalEntry(1, 20, rdma::GlobalAddress(0, 2));  // out of order
  v.set_count(2);
  ParsedInternal p;
  EXPECT_TRUE(ParseInternal(buf.data(), s, {}, &p).IsRetry());
}

// Parameterized sweep: layouts behave across node geometries.
struct ShapeParam {
  uint32_t node_size;
  uint32_t key_size;
};

class ShapeSweepTest : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(ShapeSweepTest, LeafEntriesRoundTripAtEveryIndex) {
  const TreeShape s{GetParam().node_size, GetParam().key_size, 8};
  ASSERT_GE(s.leaf_capacity(), 2u);
  std::vector<uint8_t> buf(s.node_size, 0);
  NodeView v(buf.data(), &s);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  for (uint32_t i = 0; i < s.leaf_capacity(); i++) {
    v.SetLeafEntry(i, 1'000'000 + i, 7'000'000 + i);
  }
  for (uint32_t i = 0; i < s.leaf_capacity(); i++) {
    EXPECT_EQ(v.LeafKey(i), 1'000'000 + i);
    EXPECT_EQ(v.LeafValue(i), 7'000'000 + i);
    EXPECT_TRUE(v.LeafEntryVersionsMatch(i));
  }
  // Entries stay inside the node (rear version byte untouched).
  EXPECT_LE(v.LeafEntryOffset(s.leaf_capacity() - 1) + s.leaf_entry_size(),
            s.node_size - 1);
}

TEST_P(ShapeSweepTest, InternalEntriesStayInBounds) {
  const TreeShape s{GetParam().node_size, GetParam().key_size, 8};
  ASSERT_GE(s.internal_capacity(), 3u);
  std::vector<uint8_t> buf(s.node_size, 0);
  NodeView v(buf.data(), &s);
  v.InitInternal(1, 0, kMaxKey, rdma::kNullAddress, rdma::GlobalAddress(0, 64));
  for (uint32_t i = 0; i < s.internal_capacity(); i++) {
    ASSERT_TRUE(v.InternalInsert(100 + i, rdma::GlobalAddress(0, 4096 + i)));
  }
  EXPECT_LE(v.InternalEntryOffset(s.internal_capacity() - 1) +
                s.internal_entry_size(),
            s.node_size - 1);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ShapeSweepTest,
    ::testing::Values(ShapeParam{256, 8}, ShapeParam{512, 8},
                      ShapeParam{1024, 8}, ShapeParam{4096, 8},
                      ShapeParam{1024, 16}, ShapeParam{1024, 32},
                      ShapeParam{2048, 64}, ShapeParam{4096, 128}),
    [](const auto& info) {
      return "node" + std::to_string(info.param.node_size) + "_key" +
             std::to_string(info.param.key_size);
    });

// --- varlen slotted leaves ---

TreeShape VarShape(uint32_t node_size = 1024) {
  TreeShape s{node_size, 8, 8};
  s.varlen = true;
  return s;
}

const uint8_t* Bytes(const std::string& s) {
  return reinterpret_cast<const uint8_t*>(s.data());
}

bool VarInsertInline(NodeView* v, const std::string& key,
                     const std::string& value) {
  return v->VarInsert(key, Bytes(value),
                      static_cast<uint32_t>(value.size()),
                      static_cast<uint16_t>(value.size()),
                      /*outline=*/false);
}

TEST(RoutingKeyTest, LexMonotoneOverByteKeys) {
  const std::string keys[] = {"a", "ab", "abc", "abd", "b",
                              "longer-than-8-bytes-1",
                              "longer-than-8-bytes-2", "zzzzzzzzz"};
  for (size_t i = 0; i + 1 < std::size(keys); i++) {
    EXPECT_LE(RoutingKeyFor(keys[i]), RoutingKeyFor(keys[i + 1]))
        << keys[i] << " vs " << keys[i + 1];
  }
  // Keys sharing their first 8 bytes share a routing key.
  EXPECT_EQ(RoutingKeyFor("longer-than-8-bytes-1"),
            RoutingKeyFor("longer-than-8-bytes-2"));
  EXPECT_NE(RoutingKeyFor("abc"), RoutingKeyFor("abd"));
}

TEST(VarLeafTest, InsertFindRemoveRoundTrip) {
  const TreeShape s = VarShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  ASSERT_TRUE(VarInsertInline(&v, "bravo", "BB"));
  ASSERT_TRUE(VarInsertInline(&v, "alpha", "A"));
  ASSERT_TRUE(VarInsertInline(&v, "charlie", "CCC"));
  EXPECT_EQ(v.count(), 3u);
  // Slots sort by full key.
  EXPECT_EQ(v.VarFullKey(0), "alpha");
  EXPECT_EQ(v.VarFullKey(1), "bravo");
  EXPECT_EQ(v.VarFullKey(2), "charlie");
  const uint32_t i = v.VarFind("bravo");
  ASSERT_NE(i, UINT32_MAX);
  EXPECT_EQ(v.VarInlineValue(i).ToString(), "BB");
  EXPECT_EQ(v.VarFind("delta"), UINT32_MAX);
  // Update in place (shorter value): same slot count, new bytes.
  ASSERT_TRUE(VarInsertInline(&v, "bravo", "x"));
  EXPECT_EQ(v.count(), 3u);
  EXPECT_EQ(v.VarInlineValue(v.VarFind("bravo")).ToString(), "x");
  v.VarRemoveAt(v.VarFind("bravo"));
  EXPECT_EQ(v.count(), 2u);
  EXPECT_EQ(v.VarFind("bravo"), UINT32_MAX);
  EXPECT_GT(v.dead_bytes(), 0u);
  v.VarCompact();
  EXPECT_EQ(v.dead_bytes(), 0u);
  EXPECT_EQ(v.VarFullKey(0), "alpha");
  EXPECT_EQ(v.VarInlineValue(v.VarFind("charlie")).ToString(), "CCC");
}

TEST(VarLeafTest, ZeroLengthValueRoundTrips) {
  const TreeShape s = VarShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  ASSERT_TRUE(VarInsertInline(&v, "empty-value-key", ""));
  const uint32_t i = v.VarFind("empty-value-key");
  ASSERT_NE(i, UINT32_MAX);
  EXPECT_EQ(v.VarVlen(i), 0u);
  EXPECT_FALSE(v.VarOutline(i));
  EXPECT_EQ(v.VarInlineValue(i).size(), 0u);
  // A zero-length value next to a real one: neither bleeds into the other.
  ASSERT_TRUE(VarInsertInline(&v, "empty-value-kez", "neighbor"));
  EXPECT_EQ(v.VarInlineValue(v.VarFind("empty-value-key")).size(), 0u);
  EXPECT_EQ(v.VarInlineValue(v.VarFind("empty-value-kez")).ToString(),
            "neighbor");
}

// An empty value's staged payload has no storage (its data() is null):
// building, re-prefixing and splitting a leaf that holds one must never
// hand that pointer to memcpy, which UBSan rejects.
TEST(VarLeafTest, EmptyValueSurvivesBuildReprefixAndSplit) {
  const TreeShape s = VarShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  std::vector<VarEntry> entries(3);
  entries[0].key = "app/metrics/cpu";  // empty payload: a zero-length value
  entries[1].key = "app/metrics/mem";
  entries[1].payload = {'m'};
  entries[1].vlen = 1;
  entries[2].key = "app/metrics/net";  // empty payload
  ASSERT_TRUE(BuildVarLeaf(&v, entries));
  EXPECT_EQ(v.prefix_len(), 12u);  // "app/metrics/"
  // A diverging key shrinks the prefix, rewriting every entry.
  ASSERT_TRUE(VarInsertInline(&v, "app/logs/x", ""));
  EXPECT_EQ(v.prefix_len(), 4u);
  EXPECT_EQ(v.VarInlineValue(v.VarFind("app/metrics/cpu")).size(), 0u);
  EXPECT_EQ(v.VarInlineValue(v.VarFind("app/metrics/mem")).ToString(), "m");

  // Split: both halves rebuild from the extracted entries.
  const std::vector<VarEntry> all = ExtractVarEntries(v);
  ASSERT_EQ(all.size(), 4u);
  auto lbuf = Buf(s), ubuf = Buf(s);
  NodeView lower(lbuf.data(), &s), upper(ubuf.data(), &s);
  lower.InitLeaf(0, 1000, rdma::kNullAddress);
  upper.InitLeaf(1000, kMaxKey, rdma::kNullAddress);
  ASSERT_TRUE(BuildVarLeaf(
      &lower, std::vector<VarEntry>(all.begin(), all.begin() + 2)));
  ASSERT_TRUE(
      BuildVarLeaf(&upper, std::vector<VarEntry>(all.begin() + 2, all.end())));
  EXPECT_EQ(lower.VarInlineValue(lower.VarFind("app/logs/x")).size(), 0u);
  EXPECT_EQ(lower.VarInlineValue(lower.VarFind("app/metrics/cpu")).size(), 0u);
  EXPECT_EQ(upper.VarInlineValue(upper.VarFind("app/metrics/mem")).ToString(),
            "m");
  EXPECT_EQ(upper.VarInlineValue(upper.VarFind("app/metrics/net")).size(), 0u);
}

// Growing a page's only entry past the free bytes drops its slot and
// compacts the then-empty page before re-inserting it: that rebuild has no
// key to take the page prefix from.
TEST(VarLeafTest, GrowingTheOnlyEntryRebuildsAnEmptyPage) {
  const TreeShape s = VarShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  std::vector<VarEntry> entries(12);
  for (size_t i = 0; i < entries.size(); i++) {
    entries[i].key = "shared-prefix/" + std::to_string(10 + i);
    entries[i].payload.assign(60, static_cast<uint8_t>('a' + i));
    entries[i].vlen = 60;
  }
  ASSERT_TRUE(BuildVarLeaf(&v, entries));
  ASSERT_GT(v.prefix_len(), 0u);
  while (v.count() > 1) v.VarRemoveAt(0);
  const std::string key = v.VarFullKey(0);
  const std::string grown(v.VarFreeBytes() + 1, 'g');
  ASSERT_TRUE(VarInsertInline(&v, key, grown));
  EXPECT_EQ(v.count(), 1u);
  EXPECT_EQ(v.dead_bytes(), 0u);
  EXPECT_EQ(v.VarInlineValue(v.VarFind(key)).ToString(), grown);
}

TEST(VarLeafTest, MaxKeyLengthRoundTrips) {
  const TreeShape s = VarShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  std::string k(s.max_key_len, 'k');
  k[0] = 'a';  // keep the routing key off the sentinels
  ASSERT_TRUE(VarInsertInline(&v, k, "v"));
  const uint32_t i = v.VarFind(k);
  ASSERT_NE(i, UINT32_MAX);
  EXPECT_EQ(v.VarFullKey(i), k);
  EXPECT_EQ(v.VarInlineValue(i).ToString(), "v");
}

TEST(VarLeafTest, HeapExhaustsBeforeSlotCapacity) {
  const TreeShape s = VarShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  // 200-byte inline values: the byte budget (< node_size) admits only a
  // handful of entries even though the slot array alone could hold dozens.
  const std::string big(200, 'v');
  uint32_t n = 0;
  while (VarInsertInline(&v, "key-" + std::to_string(n), big)) n++;
  EXPECT_GE(n, 2u);
  EXPECT_LT(n, 6u) << "byte budget should bound far below slot capacity";
  // The failed insert must leave the page intact.
  EXPECT_EQ(v.count(), n);
  for (uint32_t i = 0; i < n; i++) {
    EXPECT_EQ(v.VarInlineValue(i).size(), big.size());
  }
  // A small entry still fits (the reject was about the BIG payload).
  EXPECT_TRUE(VarInsertInline(&v, "tiny", "t"));
}

TEST(VarLeafTest, TornReadDetectableAcrossVariableRegion) {
  const TreeShape s = VarShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  ASSERT_TRUE(VarInsertInline(&v, "shared/prefix/aaa", "111"));
  ASSERT_TRUE(VarInsertInline(&v, "shared/prefix/bbb", "222"));
  v.UpdateChecksum();
  ASSERT_TRUE(v.VerifyChecksum());
  // Flip one heap byte (the variable region grows down from the tail):
  // the whole-node checksum must catch it.
  buf[v.heap_watermark() + 1] ^= 0xff;
  EXPECT_FALSE(v.VerifyChecksum());
  buf[v.heap_watermark() + 1] ^= 0xff;
  EXPECT_TRUE(v.VerifyChecksum());
  // A torn whole-node write (front version bumped, rear stale) is caught
  // by the node version pair, exactly as in fixed sorted mode.
  buf[kOffFnv] = (v.front_version() + 1) & 0xf;
  EXPECT_FALSE(v.NodeVersionsMatch());
}

TEST(VarLeafTest, PrefixShrinksWhenDivergentKeyArrives) {
  const TreeShape s = VarShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  std::vector<VarEntry> entries;
  for (const char* k : {"app/metrics/cpu", "app/metrics/mem"}) {
    VarEntry e;
    e.key = k;
    e.payload = {'v'};
    e.vlen = 1;
    entries.push_back(e);
  }
  ASSERT_TRUE(BuildVarLeaf(&v, entries));
  EXPECT_GT(v.prefix_len(), 0u);  // "app/metrics/" shared
  // Diverging key: the page prefix must shrink and old keys survive.
  ASSERT_TRUE(VarInsertInline(&v, "app/logs/x", "L"));
  EXPECT_EQ(v.VarFullKey(v.VarFind("app/metrics/cpu")), "app/metrics/cpu");
  EXPECT_EQ(v.VarInlineValue(v.VarFind("app/logs/x")).ToString(), "L");
  EXPECT_LE(v.prefix_len(), 4u);
}

TEST(VarLeafTest, OutlinePointerRoundTrip) {
  const TreeShape s = VarShape();
  auto buf = Buf(s);
  NodeView v(buf.data(), &s);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  const uint64_t ptr = 0xabcdef0123456789ull;
  uint8_t payload[8];
  std::memcpy(payload, &ptr, 8);
  ASSERT_TRUE(v.VarInsert("outlined", payload, 8, /*vlen=*/4096,
                          /*outline=*/true));
  const uint32_t i = v.VarFind("outlined");
  ASSERT_NE(i, UINT32_MAX);
  EXPECT_TRUE(v.VarOutline(i));
  EXPECT_EQ(v.VarVlen(i), 4096u);
  EXPECT_EQ(v.VarVlogPtr(i), ptr);
  v.VarSetVlogPtr(i, ptr + 1);  // GC repoint: in place, no heap motion
  EXPECT_EQ(v.VarVlogPtr(i), ptr + 1);
  EXPECT_EQ(v.VarEntryBytes(i), 8u + 8u);  // suffix + pointer, not vlen
}

TEST(VarLeafTest, BuildExtractMoveRoundTrip) {
  const TreeShape s = VarShape();
  auto lbuf = Buf(s), rbuf = Buf(s);
  NodeView left(lbuf.data(), &s), right(rbuf.data(), &s);
  left.InitLeaf(0, 1000, rdma::kNullAddress);
  right.InitLeaf(1000, kMaxKey, rdma::kNullAddress);
  ASSERT_TRUE(VarInsertInline(&left, "m-aaa", "1"));
  ASSERT_TRUE(VarInsertInline(&left, "m-bbb", "2"));
  ASSERT_TRUE(VarInsertInline(&right, "m-ccc", "3"));
  const auto before = ExtractVarEntries(left);
  ASSERT_EQ(before.size(), 2u);
  EXPECT_EQ(before[0].key, "m-aaa");
  ASSERT_TRUE(VarLeafFits(left, right));
  MoveVarLeafEntries(&left, right);
  EXPECT_EQ(left.count(), 3u);
  EXPECT_EQ(left.VarFullKey(2), "m-ccc");
  EXPECT_EQ(left.VarInlineValue(left.VarFind("m-ccc")).ToString(), "3");
}

}  // namespace
}  // namespace sherman
