#include "route/tree_rpc.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

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

// DMSan feed: the MS-side executor is about to mutate `node` through host
// memory. It only reaches this point after NodeLocked declined held lanes,
// so a shadow-held lane here is a genuine executor-vs-one-sided race.
void DmsanRpcMutate(ShermanSystem* system, rdma::GlobalAddress node) {
  if (!dmsan::Active()) return;
  if (dmsan::Checker* c = system->dmsan_checker()) {
    c->OnRpcMutate(node.node, node);
  }
}

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
      kOpPut, kOpMultiRemove,
      [this, ms](uint64_t opcode, uint64_t token, uint64_t, uint16_t) {
        return Handle(ms, opcode, token);
      });
}

uint64_t TreeRpcService::Handle(int ms, uint64_t opcode, uint64_t token) {
  // The handler runs atomically at one simulated instant, so a frame-local
  // mutating scope on the executor's own ring is interleaving-safe.
  [[maybe_unused]] obs::TraceCtx trace = obs::TraceCtx::For(
      &system_->tracer(), obs::RingId::RpcExecutor(static_cast<uint16_t>(ms)));
  SHERMAN_TSPAN(&trace, "rpc.execute", opcode, token);
  return system_->options().shape.varlen
             ? Serve<VarPolicy>(ms, opcode, token)
             : Serve<FixedPolicy>(ms, opcode, token);
}

template <class R>
uint64_t TreeRpcService::Serve(int ms, uint64_t opcode, uint64_t token) {
  using Kv = typename R::ScanEntry;  // a record: (key, value)
  using K = typename Kv::first_type;
  using Result = typename R::Result;
  const TreeOptions& o = system_->options();
  switch (opcode) {
    case kOpPut: {
      const Kv kv = Take<Kv>(token);
      return Ack(HostPut(R(o, kv.first, kv.second)));
    }
    case kOpGet: {
      typename R::Value value{};
      const Status st = HostGet(ms, R(o, Take<K>(token), {}, &value));
      if (st.ok()) Stage(token, std::move(value));
      return Ack(st);
    }
    case kOpRemove:
      return Ack(HostRemove(ms, R(o, Take<K>(token))));
    case kOpScan: {
      const auto [from, count] = Take<std::pair<K, uint32_t>>(token);
      return ServeScan(ms, R(o, from), count, token);
    }
    case kOpMultiGet:
      return ServeBatch<Result, K>(ms, token, [this, ms, &o](const K& key) {
        Result r;
        r.status = HostGet(ms, R(o, key, {}, &r.value));
        return r;
      });
    case kOpMultiPut:
      return ServeBatch<Status, Kv>(ms, token, [this, &o](const Kv& kv) {
        return HostPut(R(o, kv.first, kv.second));
      });
    case kOpMultiRemove:
      return ServeBatch<Status, K>(ms, token, [this, ms, &o](const K& key) {
        return HostRemove(ms, R(o, key));
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
  if (!from.CheckScan().ok() || count == 0) return Ack(Status::Retry());
  rdma::GlobalAddress addr = FindLeaf(from.route());
  if (addr.is_null()) return Ack(Status::Retry());
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
  // The op core's check first: the one-sided fallback answers a malformed
  // record with the op core's status.
  if (!rec.CheckPut().ok()) return Status::Retry("ms-side put: record check");
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
  if (w.seal) view.Seal(o.consistency);
  return Status::OK();
}

template <class R>
Status TreeRpcService::HostGet(int ms, R rec) {
  if (!rec.Check().ok()) return Status::Retry("ms-side get: record check");
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
  if (!rec.Check().ok()) return Status::Retry("ms-side remove: record check");
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
  if (w.seal) view.Seal(o.consistency);
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
  sview.Seal(o.consistency);
  SHERMAN_CHECK(pview.InternalRemove(lo, leaf));
  pview.Seal(o.consistency);
  view.set_free(true);
  view.Seal(o.consistency);
  system_->chunk_manager(leaf.node)
      .FreeNode(leaf.offset, o.shape.node_size);
  leaf_merges_->Inc();
}

}  // namespace sherman::route
