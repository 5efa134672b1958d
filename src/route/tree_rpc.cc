#include "route/tree_rpc.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <variant>

#include "alloc/layout.h"
#include "core/record_policy.h"
#include "lock/lock_table.h"
#include "obs/trace.h"
#include "sanitizer/dmsan.h"
#include "util/logging.h"

namespace sherman::route {

namespace {
// Bound on sibling chases / levels during a direct walk; anything deeper is
// a structural anomaly and the op declines to the one-sided path.
constexpr int kMaxHops = 64;
// Leaves an MS-side scan may walk before declining the remainder.
constexpr uint32_t kMaxScanLeaves = 64;

// Marks a host-side mutated node consistent for lock-free readers — the
// MS-side executor's counterpart of TreeClient::SealNode.
void SealHostNode(NodeView* node, const TreeOptions& o) {
  if (o.consistency == TreeOptions::Consistency::kChecksum) {
    node->UpdateChecksum();
  } else {
    node->BumpNodeVersions();
  }
}

// DMSan feed: the MS-side executor is about to mutate `node` through host
// memory. It only reaches this point after NodeLocked declined held lanes,
// so a shadow-held lane here is a genuine executor-vs-one-sided race.
void DmsanRpcMutate(ShermanSystem* system, rdma::GlobalAddress node) {
  if (!dmsan::Active()) return;
  if (dmsan::Checker* c = system->dmsan_checker()) {
    c->OnRpcMutate(node.node, node);
  }
}

// `out` for client stubs whose only result is the response word.
constexpr std::monostate* kNoResult = nullptr;

// An already-finished op, for stubs that answer without a round trip.
sim::Task<Status> Ready(Status st) { co_return st; }
}  // namespace

TreeRpcService::TreeRpcService(ShermanSystem* system)
    : system_(system),
      served_(system->registry().GetCounter("rpc.served")),
      declined_(system->registry().GetCounter("rpc.declined")),
      leaf_merges_(system->registry().GetCounter("rpc.leaf_merges")) {
  const int num_ms = system->fabric().num_memory_servers();
  for (int ms = 0; ms < num_ms; ms++) InstallOn(ms);
}

void TreeRpcService::InstallOn(int ms) {
  system_->fabric().ms(ms).ChainRpcHandler(
      kOpInsert, kOpMultiVarInsert,
      [this, ms](uint64_t opcode, uint64_t a, uint64_t b, uint16_t) {
        return Handle(ms, opcode, a, b);
      });
}

uint64_t TreeRpcService::Handle(int ms, uint64_t opcode, uint64_t a,
                                uint64_t b) {
  // The handler runs atomically at one simulated instant, so a frame-local
  // mutating scope on the executor's own ring is interleaving-safe.
  [[maybe_unused]] obs::TraceCtx trace = obs::TraceCtx::For(
      &system_->tracer(), obs::RingId::RpcExecutor(static_cast<uint16_t>(ms)));
  SHERMAN_TSPAN(&trace, "rpc.execute", opcode, a);
  using Kv = std::pair<Key, uint64_t>;
  using VarKv = std::pair<std::string, std::string>;
  const TreeOptions& o = system_->options();
  switch (opcode) {
    case kOpInsert:
      return Ack(HostPut(FixedPolicy(o, a, b)));
    case kOpLookup: {
      uint64_t value = 0;
      const Status st = HostGet(ms, FixedPolicy(o, a, 0, &value));
      if (st.ok()) Stage(b, value);
      return Ack(st);
    }
    case kOpDelete:
      return Ack(HostRemove(ms, FixedPolicy(o, a)));
    case kOpScan:
      return ServeScan(ms, FixedPolicy(o, a), static_cast<uint32_t>(b & 0xffff),
                       b >> 16);
    case kOpMultiGet:
      return ServeBatch<MultiGetResult, Key>(ms, a, [this, ms, &o](Key key) {
        MultiGetResult r;
        r.status = HostGet(ms, FixedPolicy(o, key, 0, &r.value));
        return r;
      });
    case kOpMultiInsert:
      return ServeBatch<Status, Kv>(ms, a, [this, &o](const Kv& kv) {
        return HostPut(FixedPolicy(o, kv.first, kv.second));
      });
    case kOpMultiDelete:
      return ServeBatch<Status, Key>(ms, a, [this, ms, &o](Key key) {
        return HostRemove(ms, FixedPolicy(o, key));
      });
    case kOpVarInsert: {
      const VarKv kv = Take<VarKv>(a);
      return Ack(HostPut(VarPolicy(o, kv.first, kv.second)));
    }
    case kOpVarLookup: {
      std::string value;
      const Status st =
          HostGet(ms, VarPolicy(o, Take<std::string>(a), {}, &value));
      if (st.ok()) Stage(a, std::move(value));
      return Ack(st);
    }
    case kOpVarDelete:
      return Ack(HostRemove(ms, VarPolicy(o, Take<std::string>(a))));
    case kOpVarScan: {
      const auto in = Take<std::pair<std::string, uint32_t>>(a);
      return ServeScan(ms, VarPolicy(o, in.first), in.second, a);
    }
    case kOpMultiVarGet:
      return ServeBatch<VarGetResult, std::string>(
          ms, a, [this, ms, &o](const std::string& key) {
            VarGetResult r;
            r.status = HostGet(ms, VarPolicy(o, key, {}, &r.value));
            return r;
          });
    case kOpMultiVarInsert:
      return ServeBatch<Status, VarKv>(ms, a, [this, &o](const VarKv& kv) {
        return HostPut(VarPolicy(o, kv.first, kv.second));
      });
    default:
      SHERMAN_CHECK(false);
      return 0;
  }
}

uint64_t TreeRpcService::Ack(const Status& st) {
  if (st.IsRetry()) {
    declined_->Inc();
    return kAckDeclined;
  }
  served_->Inc();
  return st.IsNotFound() ? kAckNotFound : kAckOk;
}

void TreeRpcService::ChargeExtraWalks(int ms, uint64_t walks) {
  if (walks > 1) {
    rdma::Fabric& fabric = system_->fabric();
    fabric.ms(ms).ChargeMemoryThread(static_cast<sim::SimTime>(walks - 1) *
                                     fabric.config().rpc_service_ns / 2);
  }
}

template <typename Res, typename Item, typename Fn>
uint64_t TreeRpcService::ServeBatch(int ms, uint64_t token, Fn one) {
  const std::vector<Item> in = Take<std::vector<Item>>(token);
  std::vector<Res> out;
  out.reserve(in.size());
  for (const Item& item : in) {
    Res r = one(item);
    if (StatusOf(r).IsRetry()) {
      declined_->Inc();
    } else {
      served_->Inc();
    }
    out.push_back(std::move(r));
  }
  ChargeExtraWalks(ms, in.size());
  Stage(token, std::move(out));
  return kAckOk;
}

template <class R>
uint64_t TreeRpcService::ServeScan(int ms, R from, uint32_t count,
                                   uint64_t token) {
  rdma::GlobalAddress addr = FindLeaf(from.route());
  if (addr.is_null() || count == 0) return Ack(Status::Retry());
  const TreeShape& shape = system_->options().shape;
  std::vector<typename R::ScanEntry> out;
  uint32_t leaves = 0;
  bool end_of_tree = false;
  bool anomaly = false;
  while (!addr.is_null() && out.size() < count && leaves < kMaxScanLeaves) {
    NodeView view(system_->fabric().HostRaw(addr), &shape);
    if (view.is_free() || !view.is_leaf()) {
      anomaly = true;
      break;
    }
    leaves++;
    if (!from.HostCollect(system_, ms, view, count, &out)) {
      anomaly = true;
      break;
    }
    if (view.hi_fence() == kMaxKey) {
      end_of_tree = true;
      break;
    }
    addr = view.sibling();
    if (addr.is_null()) {
      end_of_tree = true;
      break;
    }
  }
  ChargeExtraWalks(ms, leaves);
  if (out.size() < count && (anomaly || !end_of_tree)) {
    return Ack(Status::Retry());
  }
  Stage(token, std::move(out));
  return Ack(Status::OK());
}

rdma::GlobalAddress TreeRpcService::FindNode(Key key, uint8_t level) const {
  rdma::Fabric& fabric = system_->fabric();
  const TreeShape& shape = system_->options().shape;

  uint64_t packed = 0;
  std::memcpy(&packed, fabric.ms(0).host().raw(kRootPointerOffset), 8);
  rdma::GlobalAddress addr = rdma::GlobalAddress::FromU64(packed);
  if (addr.is_null()) return rdma::kNullAddress;

  for (int hop = 0; hop < kMaxHops; hop++) {
    NodeView view(fabric.HostRaw(addr), &shape);
    if (view.is_free() || view.level() < level || key < view.lo_fence()) {
      return rdma::kNullAddress;
    }
    if (key >= view.hi_fence()) {
      addr = view.sibling();
      if (addr.is_null()) return rdma::kNullAddress;
      continue;
    }
    if (view.level() == level) return addr;
    addr = view.InternalChildFor(key);
    if (addr.is_null()) return rdma::kNullAddress;
  }
  return rdma::kNullAddress;
}

bool TreeRpcService::NodeLocked(rdma::GlobalAddress addr) const {
  const bool onchip = system_->options().lock.onchip;
  const GlobalLockRef ref = LockFor(addr, onchip);
  rdma::MemoryServer& ms = system_->fabric().ms(ref.ms);
  rdma::MemoryRegion& region =
      ref.space == rdma::MemorySpace::kDevice ? ms.device() : ms.host();
  uint16_t lane = 0;
  std::memcpy(&lane, region.raw(ref.lane_offset()), sizeof(lane));
  return lane != 0;
}

template <class R>
Status TreeRpcService::HostPut(R rec) {
  if (!rec.HostCanPut()) return Status::Retry("ms-side insert: outline value");
  const rdma::GlobalAddress leaf = FindLeaf(rec.route());
  if (leaf.is_null() || NodeLocked(leaf)) {
    return Status::Retry("ms-side insert declined");
  }
  const TreeOptions& o = system_->options();
  NodeView view(system_->fabric().HostRaw(leaf), &o.shape);
  if (!rec.HostCanReplace(view)) {
    return Status::Retry("ms-side insert: outline slot");
  }
  DmsanRpcMutate(system_, leaf);
  // A full leaf declines: its split must go one-sided.
  LeafWrite w;
  if (!rec.Put(&view, &w)) return Status::Retry("ms-side insert: leaf full");
  if (w.seal) SealHostNode(&view, o);
  return Status::OK();
}

template <class R>
Status TreeRpcService::HostGet(int ms, R rec) {
  const rdma::GlobalAddress leaf = FindLeaf(rec.route());
  if (leaf.is_null()) return Status::Retry("ms-side lookup declined");
  NodeView view(system_->fabric().HostRaw(leaf), &system_->options().shape);
  const LeafRead got = rec.Read(view);
  if (got == LeafRead::kMiss) return Status::NotFound();
  if (got == LeafRead::kTorn) return Status::Retry("ms-side lookup: torn");
  if (got == LeafRead::kRemote && !rec.HostFetch(system_, ms)) {
    return Status::Retry("ms-side lookup: foreign extent");
  }
  return Status::OK();
}

template <class R>
Status TreeRpcService::HostRemove(int ms, R rec) {
  const rdma::GlobalAddress leaf = FindLeaf(rec.route());
  if (leaf.is_null() || NodeLocked(leaf)) {
    return Status::Retry("ms-side delete declined");
  }
  const TreeOptions& o = system_->options();
  NodeView view(system_->fabric().HostRaw(leaf), &o.shape);
  const Status removable = rec.HostCanRemove(view, ms);
  if (!removable.ok()) return removable;
  DmsanRpcMutate(system_, leaf);
  LeafWrite w;
  if (!rec.Remove(&view, &w)) return Status::NotFound();
  if (w.seal) SealHostNode(&view, o);
  rec.HostRetire(system_, ms);
  TryMergeHost(leaf);
  return Status::OK();
}

void TreeRpcService::TryMergeHost(rdma::GlobalAddress leaf) {
  const TreeOptions& o = system_->options();
  rdma::Fabric& fabric = system_->fabric();
  NodeView view(fabric.HostRaw(leaf), &o.shape);
  if (!LeafMergeCandidate(view, o.two_level_versions, o.merge_threshold)) {
    return;
  }
  const Key lo = view.lo_fence();
  const Key hi = view.hi_fence();

  // Resolve parent + left sibling through host memory; skip unless the
  // leaf appears as an explicit (lo -> leaf) entry (a leftmost child's
  // separator lives a level up).
  const rdma::GlobalAddress paddr = FindNode(lo, /*level=*/1);
  if (paddr.is_null()) return;
  NodeView pview(fabric.HostRaw(paddr), &o.shape);
  const uint32_t pn = pview.count();
  uint32_t ei = UINT32_MAX;
  for (uint32_t i = 0; i < pn; i++) {
    if (pview.InternalKey(i) == lo && pview.InternalChild(i) == leaf) {
      ei = i;
      break;
    }
  }
  if (ei == UINT32_MAX) return;
  const rdma::GlobalAddress saddr =
      ei == 0 ? pview.leftmost_child() : pview.InternalChild(ei - 1);
  if (saddr.is_null()) return;
  NodeView sview(fabric.HostRaw(saddr), &o.shape);
  if (!sview.is_leaf() || sview.is_free() || sview.hi_fence() != lo ||
      sview.sibling() != leaf) {
    return;
  }
  // One-sided writers hold their HOCL lock from read to write-back; a held
  // lane on any involved node means a mutation is in flight — skip (the
  // merge is opportunistic; the next underflowing delete retries).
  if (NodeLocked(leaf) || NodeLocked(saddr) || NodeLocked(paddr)) return;

  if (!LeafMergeFits(sview, view, o.two_level_versions, /*headroom=*/true)) {
    return;
  }

  DmsanRpcMutate(system_, leaf);
  DmsanRpcMutate(system_, saddr);
  DmsanRpcMutate(system_, paddr);
  // Move survivors, widen the sibling, drop the parent entry, tombstone.
  MoveLeafEntries(&sview, view, o.two_level_versions);
  sview.set_hi_fence(hi);
  sview.set_sibling(view.sibling());
  SealHostNode(&sview, o);
  SHERMAN_CHECK(pview.InternalRemove(lo, leaf));
  SealHostNode(&pview, o);
  view.set_free(true);
  SealHostNode(&view, o);
  system_->chunk_manager(leaf.node)
      .FreeNode(leaf.offset, o.shape.node_size);
  leaf_merges_->Inc();
}

// --- client stub -----------------------------------------------------------

template <typename Out>
sim::Task<Status> TreeRpcClient::Call(uint16_t ms, uint64_t opcode,
                                      uint64_t a, uint64_t b, uint64_t token,
                                      Out* out, const char* declined,
                                      OpStats* stats) {
  const uint64_t r =
      co_await service_->system()->fabric().qp(cs_id_, ms).Rpc(opcode, a, b);
  if (stats != nullptr) stats->round_trips++;
  if (r == TreeRpcService::kAckDeclined) co_return Status::Retry(declined);
  if (r == TreeRpcService::kAckNotFound) co_return Status::NotFound();
  if (out != nullptr) *out = service_->Take<Out>(token);
  co_return Status::OK();
}

template <typename In, typename Out>
sim::Task<Status> TreeRpcClient::Staged(uint16_t ms, uint64_t opcode, In in,
                                        Out* out, const char* declined,
                                        OpStats* stats) {
  const uint64_t token = service_->NewToken();
  service_->Stage(token, std::move(in));
  return Call(ms, opcode, token, 0, token, out, declined, stats);
}

template <typename Item, typename Res>
sim::Task<Status> TreeRpcClient::Batch(uint16_t ms, uint64_t opcode,
                                       std::vector<Item> items,
                                       std::vector<Res>* out, OpStats* stats) {
  const size_t n = items.size();
  out->clear();
  if (n == 0) co_return Status::OK();
  const Status st = co_await Staged(ms, opcode, std::move(items), out,
                                    "ms-side batch declined", stats);
  // A coalesced batch never declines as a whole; its keys do.
  SHERMAN_CHECK(st.ok() && out->size() == n);
  co_return st;
}

sim::Task<Status> TreeRpcClient::Insert(uint16_t ms, Key key, uint64_t value,
                                        OpStats* stats) {
  SHERMAN_CHECK(key != kNullKey && key != kMaxKey);
  return Call(ms, TreeRpcService::kOpInsert, key, value, 0, kNoResult,
              "ms-side insert declined", stats);
}

sim::Task<Status> TreeRpcClient::Lookup(uint16_t ms, Key key, uint64_t* value,
                                        OpStats* stats) {
  SHERMAN_CHECK(key != kNullKey && key != kMaxKey);
  const uint64_t token = service_->NewToken();
  return Call(ms, TreeRpcService::kOpLookup, key, token, token, value,
              "ms-side lookup declined", stats);
}

sim::Task<Status> TreeRpcClient::Delete(uint16_t ms, Key key, OpStats* stats) {
  SHERMAN_CHECK(key != kNullKey && key != kMaxKey);
  return Call(ms, TreeRpcService::kOpDelete, key, 0, 0, kNoResult,
              "ms-side delete declined", stats);
}

sim::Task<Status> TreeRpcClient::RangeQuery(
    uint16_t ms, Key from, uint32_t count,
    std::vector<std::pair<Key, uint64_t>>* out, OpStats* stats) {
  SHERMAN_CHECK(from != kNullKey && from != kMaxKey);
  out->clear();
  if (count == 0) return Ready(Status::OK());
  if (count >= (1u << 16)) {
    // The scan RPC packs the count into 16 bits; a scan this large would
    // blow the MS-side leaf budget anyway. Serve it one-sided.
    return Ready(Status::Retry("scan too large for ms-side execution"));
  }
  const uint64_t token = service_->NewToken();
  return Call(ms, TreeRpcService::kOpScan, from, (token << 16) | count, token,
              out, "ms-side scan declined", stats);
}

sim::Task<Status> TreeRpcClient::MultiGet(uint16_t ms, std::vector<Key> keys,
                                          std::vector<MultiGetResult>* out,
                                          OpStats* stats) {
  for (Key k : keys) SHERMAN_CHECK(k != kNullKey && k != kMaxKey);
  return Batch(ms, TreeRpcService::kOpMultiGet, std::move(keys), out, stats);
}

sim::Task<Status> TreeRpcClient::MultiInsert(
    uint16_t ms, std::vector<std::pair<Key, uint64_t>> kvs,
    std::vector<Status>* per_key, OpStats* stats) {
  for (const auto& [k, v] : kvs) SHERMAN_CHECK(k != kNullKey && k != kMaxKey);
  return Batch(ms, TreeRpcService::kOpMultiInsert, std::move(kvs), per_key,
               stats);
}

sim::Task<Status> TreeRpcClient::MultiDelete(uint16_t ms,
                                             std::vector<Key> keys,
                                             std::vector<Status>* per_key,
                                             OpStats* stats) {
  for (Key k : keys) SHERMAN_CHECK(k != kNullKey && k != kMaxKey);
  return Batch(ms, TreeRpcService::kOpMultiDelete, std::move(keys), per_key,
               stats);
}

sim::Task<Status> TreeRpcClient::InsertVar(uint16_t ms, const Slice& key,
                                           const Slice& value,
                                           OpStats* stats) {
  return Staged(ms, TreeRpcService::kOpVarInsert,
                std::pair(key.ToString(), value.ToString()), kNoResult,
                "ms-side var insert declined", stats);
}

sim::Task<Status> TreeRpcClient::LookupVar(uint16_t ms, const Slice& key,
                                           std::string* value,
                                           OpStats* stats) {
  return Staged(ms, TreeRpcService::kOpVarLookup, key.ToString(), value,
                "ms-side var lookup declined", stats);
}

sim::Task<Status> TreeRpcClient::DeleteVar(uint16_t ms, const Slice& key,
                                           OpStats* stats) {
  return Staged(ms, TreeRpcService::kOpVarDelete, key.ToString(), kNoResult,
                "ms-side var delete declined", stats);
}

sim::Task<Status> TreeRpcClient::ScanVar(
    uint16_t ms, const Slice& from, uint32_t count,
    std::vector<std::pair<std::string, std::string>>* out, OpStats* stats) {
  out->clear();
  if (count == 0) return Ready(Status::OK());
  return Staged(ms, TreeRpcService::kOpVarScan,
                std::pair(from.ToString(), count), out,
                "ms-side var scan declined", stats);
}

sim::Task<Status> TreeRpcClient::MultiGetVar(uint16_t ms,
                                             std::vector<std::string> keys,
                                             std::vector<VarGetResult>* out,
                                             OpStats* stats) {
  return Batch(ms, TreeRpcService::kOpMultiVarGet, std::move(keys), out,
               stats);
}

sim::Task<Status> TreeRpcClient::MultiInsertVar(
    uint16_t ms, std::vector<std::pair<std::string, std::string>> kvs,
    std::vector<Status>* per_key, OpStats* stats) {
  return Batch(ms, TreeRpcService::kOpMultiVarInsert, std::move(kvs),
               per_key, stats);
}

}  // namespace sherman::route
