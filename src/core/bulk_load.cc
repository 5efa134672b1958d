// Bulk loading and offline verification for ShermanSystem. These write MS
// memory directly (no simulated traffic): the paper bulkloads the tree
// before measuring, and tests use the scans to verify invariants.
#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/btree.h"
#include "core/record_policy.h"
#include "util/logging.h"
#include "vlog/vlog.h"

namespace sherman {

rdma::GlobalAddress ShermanSystem::AllocBulk(uint32_t size) {
  const int num_ms = fabric_.num_memory_servers();
  if (static_cast<int>(bulk_chunk_.size()) < num_ms) {
    // First call, or memory servers were added since the last bulk load.
    bulk_chunk_.resize(num_ms, rdma::kNullAddress);
    bulk_used_.resize(num_ms, 0);
  }
  // Spread nodes round-robin across memory servers (§4.2: "Sherman spreads
  // B+Tree nodes across a set of memory servers").
  for (int tries = 0; tries < num_ms; tries++) {
    const int ms = bulk_next_ms_;
    bulk_next_ms_ = (bulk_next_ms_ + 1) % num_ms;
    if (bulk_chunk_[ms].is_null() || bulk_used_[ms] + size > kChunkSize) {
      const uint64_t off = chunks_[ms]->AllocChunk();
      if (off == 0) continue;  // this MS is full
      bulk_chunk_[ms] = rdma::GlobalAddress(static_cast<uint16_t>(ms), off);
      bulk_used_[ms] = 0;
    }
    const rdma::GlobalAddress addr = bulk_chunk_[ms].Plus(bulk_used_[ms]);
    bulk_used_[ms] += size;
    return addr;
  }
  SHERMAN_CHECK_MSG(false, "bulk load exhausted disaggregated memory");
  return rdma::kNullAddress;
}

rdma::GlobalAddress ShermanSystem::BuildUpperLevels(
    std::vector<std::pair<rdma::GlobalAddress, Key>> children, double fill) {
  const TreeShape& shape = options_.shape;
  const uint32_t per_internal = std::max<uint32_t>(
      2, std::min<uint32_t>(
             shape.internal_capacity(),
             static_cast<uint32_t>(shape.internal_capacity() * fill)));
  uint8_t level = 1;
  while (children.size() > 1) {
    // Each node takes one leftmost child plus up to per_internal keyed
    // children.
    const size_t group = static_cast<size_t>(per_internal) + 1;
    const size_t num_nodes = (children.size() + group - 1) / group;
    std::vector<rdma::GlobalAddress> naddrs(num_nodes);
    for (size_t i = 0; i < num_nodes; i++) {
      naddrs[i] = AllocBulk(shape.node_size);
    }
    std::vector<std::pair<rdma::GlobalAddress, Key>> next;
    next.reserve(num_nodes);
    for (size_t i = 0; i < num_nodes; i++) {
      const size_t begin = i * group;
      const size_t end = std::min(children.size(), begin + group);
      const Key lo = (i == 0) ? 0 : children[begin].second;
      const Key hi = (i + 1 == num_nodes) ? kMaxKey : children[end].second;
      const rdma::GlobalAddress sibling =
          (i + 1 == num_nodes) ? rdma::kNullAddress : naddrs[i + 1];

      NodeView view(fabric_.HostRaw(naddrs[i]), &shape);
      view.InitInternal(level, lo, hi, sibling,
                        /*leftmost=*/children[begin].first);
      uint16_t count = 0;
      for (size_t j = begin + 1; j < end; j++) {
        view.SetInternalEntry(count, children[j].second, children[j].first);
        count++;
      }
      view.set_count(count);
      view.Reseal(options_.consistency);
      if (dmsan_ != nullptr) dmsan_->PublishNode(naddrs[i], level);
      next.emplace_back(naddrs[i], lo);
    }
    children = std::move(next);
    level++;
  }
  return children[0].first;
}

void ShermanSystem::BulkLoad(const std::vector<std::pair<Key, uint64_t>>& kvs,
                             double fill) {
  SHERMAN_CHECK(fill > 0 && fill <= 1.0);
  const TreeShape& shape = options_.shape;
  const bool sorted_mode = !options_.two_level_versions;
  // Varlen leaves are slotted pages; fixed 16-byte records cannot be
  // staged into them. An empty load (the root bootstrap) is fine.
  SHERMAN_CHECK_MSG(!shape.varlen || kvs.empty(),
                    "varlen trees bulk load via BulkLoadVar");

  for (size_t i = 0; i < kvs.size(); i++) {
    SHERMAN_CHECK(kvs[i].first != kNullKey && kvs[i].first != kMaxKey);
    if (i > 0) SHERMAN_CHECK_MSG(kvs[i - 1].first < kvs[i].first,
                                 "bulk load keys must be sorted and unique");
  }

  // --- Leaves ---
  const uint32_t per_leaf = std::max<uint32_t>(
      1, std::min<uint32_t>(shape.leaf_capacity(),
                            static_cast<uint32_t>(shape.leaf_capacity() * fill)));
  const size_t num_leaves =
      kvs.empty() ? 1 : (kvs.size() + per_leaf - 1) / per_leaf;

  std::vector<std::pair<rdma::GlobalAddress, Key>> level_nodes;
  level_nodes.reserve(num_leaves);
  std::vector<rdma::GlobalAddress> addrs(num_leaves);
  for (size_t i = 0; i < num_leaves; i++) addrs[i] = AllocBulk(shape.node_size);

  for (size_t i = 0; i < num_leaves; i++) {
    const size_t begin = i * per_leaf;
    const size_t end = std::min(kvs.size(), begin + per_leaf);
    const Key lo = (i == 0) ? 0 : kvs[begin].first;
    const Key hi = (i + 1 == num_leaves) ? kMaxKey : kvs[end].first;
    const rdma::GlobalAddress sibling =
        (i + 1 == num_leaves) ? rdma::kNullAddress : addrs[i + 1];

    NodeView view(fabric_.HostRaw(addrs[i]), &shape);
    view.InitLeaf(lo, hi, sibling);
    for (size_t j = begin; j < end; j++) {
      view.SetLeafEntryRaw(static_cast<uint32_t>(j - begin), kvs[j].first,
                           kvs[j].second);
    }
    if (sorted_mode) view.set_count(static_cast<uint16_t>(end - begin));
    view.Reseal(options_.consistency);
    if (dmsan_ != nullptr) dmsan_->PublishNode(addrs[i], /*level=*/0);
    if (!hints_.empty()) hints_[addrs[i].node]->SeedDirect(lo, addrs[i]);
    level_nodes.emplace_back(addrs[i], lo);
  }

  const rdma::GlobalAddress root = BuildUpperLevels(std::move(level_nodes),
                                                    fill);

  // --- Publish the root pointer in MS 0's meta region ---
  const uint64_t packed = root.ToU64();
  std::memcpy(fabric_.ms(0).host().raw(kRootPointerOffset), &packed, 8);
}

void ShermanSystem::BulkLoadVar(
    const std::vector<std::pair<std::string, std::string>>& kvs, double fill) {
  SHERMAN_CHECK(fill > 0 && fill <= 1.0);
  const TreeShape& shape = options_.shape;
  SHERMAN_CHECK_MSG(shape.varlen, "BulkLoadVar on a fixed-size tree");

  for (size_t i = 0; i < kvs.size(); i++) {
    const std::string& k = kvs[i].first;
    SHERMAN_CHECK_MSG(!k.empty() && k.size() <= shape.max_key_len,
                      "bulk key length out of range");
    const Key rk = RoutingKeyFor(k);
    SHERMAN_CHECK_MSG(rk != kNullKey && rk != kMaxKey,
                      "bulk key routes to a reserved sentinel");
    if (i > 0) SHERMAN_CHECK_MSG(kvs[i - 1].first < k,
                                 "bulk load keys must be sorted and unique");
    // The offline loader has no value-log appender; longer values go
    // through InsertVar on a running client.
    SHERMAN_CHECK_MSG(kvs[i].second.size() <= kInlineThreshold,
                      "BulkLoadVar values must be inline-sized");
  }

  // Greedy byte-budget packing: leaves close at ~`fill` of the usable
  // byte budget, and a routing-key group (keys sharing the first 8 bytes)
  // never splits across leaves — splits can only cut at routing
  // boundaries, so neither can the loader. A sorted run's common prefix
  // p is the LCP of its first and last key, and the run needs p plus its
  // slot, key and value bytes minus p per entry (VarBytesNeeded), so a
  // running byte sum prices each group against the open leaf in O(1).
  const uint64_t budget = shape.var_usable_bytes();
  const uint64_t target = std::max<uint64_t>(
      1, static_cast<uint64_t>(static_cast<double>(budget) * fill));
  std::vector<size_t> leaf_start = {0};  // first entry of each leaf
  uint64_t open_bytes = 0;  // slot, key and value bytes of the open leaf
  size_t i = 0;
  while (i < kvs.size()) {
    size_t j = i;
    uint64_t group_bytes = 0;
    const Key rk = RoutingKeyFor(kvs[i].first);
    for (; j < kvs.size() && RoutingKeyFor(kvs[j].first) == rk; j++) {
      group_bytes +=
          kVarSlotSize + kvs[j].first.size() + kvs[j].second.size();
    }
    const size_t first = leaf_start.back();
    const std::string& a = kvs[first].first;
    const std::string& b = kvs[j - 1].first;
    const size_t max_p = std::min<size_t>({a.size(), b.size(), 255});
    size_t p = 0;  // as VarCommonPrefix: the LCP, capped at 255
    while (p < max_p && a[p] == b[p]) p++;
    const uint64_t need = p + open_bytes + group_bytes - (j - first) * p;
    if (first < i && need > target) {
      leaf_start.push_back(i);
      open_bytes = 0;
      continue;  // retry this routing group against a fresh leaf
    }
    SHERMAN_CHECK_MSG(need <= budget,
                      "routing-key group exceeds leaf capacity");
    open_bytes += group_bytes;
    i = j;
  }

  const size_t num_leaves = leaf_start.size();
  std::vector<rdma::GlobalAddress> addrs(num_leaves);
  for (size_t l = 0; l < num_leaves; l++) addrs[l] = AllocBulk(shape.node_size);

  std::vector<std::pair<rdma::GlobalAddress, Key>> level_nodes;
  level_nodes.reserve(num_leaves);
  std::vector<VarEntry> entries;
  for (size_t l = 0; l < num_leaves; l++) {
    const size_t end = (l + 1 == num_leaves) ? kvs.size() : leaf_start[l + 1];
    entries.clear();
    for (size_t e = leaf_start[l]; e < end; e++) {
      const std::string& v = kvs[e].second;
      VarEntry& entry = entries.emplace_back();
      entry.key = kvs[e].first;
      entry.payload.assign(v.begin(), v.end());
      entry.vlen = static_cast<uint16_t>(v.size());
    }
    const Key lo = (l == 0) ? 0 : RoutingKeyFor(kvs[leaf_start[l]].first);
    const Key hi =
        (l + 1 == num_leaves) ? kMaxKey : RoutingKeyFor(kvs[end].first);
    const rdma::GlobalAddress sibling =
        (l + 1 == num_leaves) ? rdma::kNullAddress : addrs[l + 1];
    NodeView view(fabric_.HostRaw(addrs[l]), &shape);
    view.InitLeaf(lo, hi, sibling);
    SHERMAN_CHECK(BuildVarLeaf(&view, entries));
    view.Reseal(options_.consistency);
    if (dmsan_ != nullptr) dmsan_->PublishNode(addrs[l], /*level=*/0);
    if (!hints_.empty()) hints_[addrs[l].node]->SeedDirect(lo, addrs[l]);
    level_nodes.emplace_back(addrs[l], lo);
  }

  const rdma::GlobalAddress root = BuildUpperLevels(std::move(level_nodes),
                                                    fill);
  const uint64_t packed = root.ToU64();
  std::memcpy(fabric_.ms(0).host().raw(kRootPointerOffset), &packed, 8);
}

std::vector<std::pair<Key, uint64_t>> ShermanSystem::DebugScanLeaves() const {
  auto* self = const_cast<ShermanSystem*>(this);
  const TreeShape& shape = options_.shape;
  SHERMAN_CHECK_MSG(!shape.varlen, "varlen trees scan via DebugScanLeavesVar");

  std::vector<std::pair<Key, uint64_t>> out;
  const FixedPolicy leaf_ops(options_, kNullKey);
  for (rdma::GlobalAddress addr = DebugLeftmostLeaf(); !addr.is_null();) {
    NodeView view(self->fabric_.HostRaw(addr), &shape);
    SHERMAN_CHECK(view.is_leaf());
    // At rest no entry is torn: every entry write lands whole.
    SHERMAN_CHECK(
        leaf_ops.Collect(view, kNullKey, UINT32_MAX, &out).has_value());
    addr = view.sibling();
  }
  return out;
}

std::vector<std::pair<std::string, std::string>>
ShermanSystem::DebugScanLeavesVar() const {
  auto* self = const_cast<ShermanSystem*>(this);
  const TreeShape& shape = options_.shape;
  SHERMAN_CHECK_MSG(shape.varlen, "DebugScanLeavesVar on a fixed-size tree");

  std::vector<std::pair<std::string, std::string>> out;
  for (rdma::GlobalAddress addr = DebugLeftmostLeaf(); !addr.is_null();) {
    NodeView view(self->fabric_.HostRaw(addr), &shape);
    SHERMAN_CHECK(view.is_leaf());
    for (uint32_t i = 0; i < view.count(); i++) {
      std::string k = view.VarFullKey(i);
      std::string v;
      VarPolicy rec(options_, k, {}, &v);
      // Out-of-line values materialize from their extent's own MS.
      if (rec.Read(view) == LeafRead::kRemote) {
        SHERMAN_CHECK(
            rec.HostFetch(self, vlog::VlogPtr::Ms(view.VarVlogPtr(i))));
      }
      out.emplace_back(std::move(k), std::move(v));
    }
    addr = view.sibling();
  }
  return out;
}

rdma::GlobalAddress ShermanSystem::DebugLeftmostLeaf() const {
  auto* self = const_cast<ShermanSystem*>(this);
  rdma::GlobalAddress addr = DebugRootAddr();
  while (true) {
    NodeView view(self->fabric_.HostRaw(addr), &options_.shape);
    if (view.is_leaf()) return addr;
    addr = view.leftmost_child();
  }
}

size_t ShermanSystem::DebugCountLeaves() const {
  auto* self = const_cast<ShermanSystem*>(this);
  const TreeShape& shape = options_.shape;
  size_t n = 0;
  for (rdma::GlobalAddress addr = DebugLeftmostLeaf(); !addr.is_null();) {
    NodeView view(self->fabric_.HostRaw(addr), &shape);
    n++;
    addr = view.sibling();
  }
  return n;
}

void ShermanSystem::DebugCheckInvariants() const {
  auto* self = const_cast<ShermanSystem*>(this);
  const TreeShape& shape = options_.shape;
  const rdma::GlobalAddress root = DebugRootAddr();
  NodeView root_view(self->fabric_.HostRaw(root), &shape);
  const uint8_t root_level = root_view.level();
  SHERMAN_CHECK(root_view.lo_fence() == 0);
  SHERMAN_CHECK(root_view.hi_fence() == kMaxKey);

  // Walk every level left-to-right; verify fences tile the key space, keys
  // stay inside fences and sorted, and levels/flags are coherent.
  rdma::GlobalAddress level_start = root;
  for (int level = root_level; level >= 0; level--) {
    rdma::GlobalAddress addr = level_start;
    Key expected_lo = 0;
    rdma::GlobalAddress next_level_start;
    while (!addr.is_null()) {
      NodeView view(self->fabric_.HostRaw(addr), &shape);
      SHERMAN_CHECK_MSG(view.level() == level, "level mismatch at %s",
                        addr.ToString().c_str());
      SHERMAN_CHECK(view.is_leaf() == (level == 0));
      SHERMAN_CHECK(!view.is_free());
      SHERMAN_CHECK_MSG(view.lo_fence() == expected_lo,
                        "fence gap at level %d: lo=%llu expected=%llu", level,
                        (unsigned long long)view.lo_fence(),
                        (unsigned long long)expected_lo);
      SHERMAN_CHECK(view.lo_fence() < view.hi_fence());
      SHERMAN_CHECK(view.NodeVersionsMatch());
      if (level == 0) {
        if (shape.varlen) {
          // Slotted leaf: byte keys strictly sorted, every ROUTING key in
          // fence, heap accounting within budget.
          std::string prev;
          for (uint32_t i = 0; i < view.count(); i++) {
            const std::string k = view.VarFullKey(i);
            SHERMAN_CHECK(!k.empty() && k.size() <= shape.max_key_len);
            SHERMAN_CHECK(view.InFence(RoutingKeyFor(k)));
            SHERMAN_CHECK(i == 0 || k > prev);
            prev = k;
          }
          SHERMAN_CHECK(view.VarLiveBytes() <= shape.var_usable_bytes());
        } else if (options_.two_level_versions) {
          for (uint32_t i = 0; i < shape.leaf_capacity(); i++) {
            const Key k = view.LeafKey(i);
            if (k == kNullKey) continue;
            SHERMAN_CHECK(view.InFence(k));
            SHERMAN_CHECK(view.LeafEntryVersionsMatch(i));
          }
        } else {
          Key prev = 0;
          for (uint32_t i = 0; i < view.count(); i++) {
            const Key k = view.LeafKey(i);
            SHERMAN_CHECK(view.InFence(k));
            SHERMAN_CHECK(i == 0 || k > prev);
            prev = k;
          }
        }
      } else {
        if (next_level_start.is_null()) {
          next_level_start = view.leftmost_child();
        }
        Key prev = view.lo_fence();
        for (uint32_t i = 0; i < view.count(); i++) {
          const Key k = view.InternalKey(i);
          SHERMAN_CHECK(k > prev || (i == 0 && k >= prev));
          SHERMAN_CHECK(k >= view.lo_fence() && k < view.hi_fence());
          prev = k;
          // Each child's lo fence equals its separator.
          const rdma::GlobalAddress child = view.InternalChild(i);
          NodeView cv(self->fabric_.HostRaw(child), &shape);
          SHERMAN_CHECK_MSG(cv.lo_fence() == k,
                            "child lo %llu != separator %llu",
                            (unsigned long long)cv.lo_fence(),
                            (unsigned long long)k);
          SHERMAN_CHECK(cv.level() == level - 1);
        }
        // Leftmost child starts at this node's lo fence.
        NodeView lm(self->fabric_.HostRaw(view.leftmost_child()), &shape);
        SHERMAN_CHECK(lm.lo_fence() == view.lo_fence());
        SHERMAN_CHECK(lm.level() == level - 1);
      }
      expected_lo = view.hi_fence();
      addr = view.sibling();
    }
    SHERMAN_CHECK_MSG(expected_lo == kMaxKey,
                      "level %d does not tile the key space", level);
    if (level > 0) level_start = next_level_start;
  }
}

}  // namespace sherman
