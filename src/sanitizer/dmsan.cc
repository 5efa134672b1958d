#include "sanitizer/dmsan.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <sstream>
#include <utility>

#include "alloc/layout.h"
#include "alloc/reclaim.h"
#include "util/logging.h"

namespace sherman::dmsan {

namespace {
// A taint older than this is stale: its buffer has left the op that read
// it (simulated reads complete and validate within a few microseconds),
// and heap reuse could otherwise alias an old taint onto an unrelated
// staging buffer. Evaluated lazily against the sim clock at check time,
// so it is deterministic.
constexpr uint64_t kTaintTtlNs = 100'000;

const char* RuleName(int rule) {
  switch (rule) {
    case 1: return "V1 unlocked-or-stale-lease remote write";
    case 2: return "V2 remote use-after-free";
    case 3: return "V3 crash-window (intent) violation";
    case 4: return "V4 unvalidated torn read consumed";
    case 5: return "V5 lock/root mutation bypassing blessed API";
    case 6: return "V6 node freed while a leaf hint maps to it";
    default: return "V? unknown";
  }
}
}  // namespace

Checker::Checker(Config cfg) : cfg_(cfg) {
  SHERMAN_CHECK(cfg_.node_size > 0);
  SHERMAN_CHECK(cfg_.sim != nullptr);
}

uint64_t Checker::tracked_nodes() const {
  uint64_t n = 0;
  for (const auto& m : nodes_) n += m.size();
  return n;
}

Checker::NodeShadow* Checker::FindNode(uint16_t ms, uint64_t offset,
                                       uint64_t* base) {
  if (ms >= nodes_.size()) return nullptr;
  std::map<uint64_t, NodeShadow>& per_ms = nodes_[ms];
  auto it = per_ms.upper_bound(offset);
  if (it == per_ms.begin()) return nullptr;
  --it;
  if (offset >= it->first + it->second.size) return nullptr;
  if (base != nullptr) *base = it->first;
  return &it->second;
}

std::map<uint64_t, Checker::NodeShadow>& Checker::NodesOn(uint16_t ms) {
  if (ms >= nodes_.size()) nodes_.resize(ms + 1);
  return nodes_[ms];
}

bool Checker::LaneExpired(uint16_t lane) const {
  // Replicates HoclClient::LaneExpired / LeaseStampNow so the checker
  // agrees with the protocol about what "expired" means.
  const uint16_t stamp = LockLaneStamp(lane);
  if (LockLaneOwner(lane) == 0 || stamp == 0) return false;
  if (cfg_.lock.release_with_faa) return false;
  const uint64_t period = static_cast<uint64_t>(cfg_.sim->now()) /
                          static_cast<uint64_t>(cfg_.lock.lease_period_ns);
  const uint16_t now = static_cast<uint16_t>(period % 255) + 1;
  const uint16_t age = static_cast<uint16_t>((now - stamp + 255) % 255);
  return age >= cfg_.lock.lease_expiry_periods && age <= 127;
}

bool Checker::HoldsLane(int cs, rdma::GlobalAddress node_base,
                        uint16_t* lane_out, int* owner_out) const {
  const GlobalLockRef ref = LockFor(node_base, cfg_.lock.onchip);
  const auto it = lanes_.find(LaneKey(ref));
  const uint16_t lane = it != lanes_.end() ? it->second.lane : 0;
  if (lane_out != nullptr) *lane_out = lane;
  const uint16_t owner = LockLaneOwner(lane);
  if (owner_out != nullptr) *owner_out = owner == 0 ? -1 : owner - 1;
  return owner != 0 && owner == static_cast<uint16_t>(cs) + 1;
}

bool Checker::InLockRegion(const rdma::WorkRequest& wr) const {
  if (wr.space == rdma::MemorySpace::kDevice) {
    return wr.remote.offset < kHostGltBytes;  // whole on-chip region is GLT
  }
  return wr.remote.offset >= kHostGltOffset &&
         wr.remote.offset < kHostGltOffset + kHostGltBytes;
}

bool Checker::OnRootWord(const rdma::WorkRequest& wr) const {
  if (wr.space != rdma::MemorySpace::kHost || wr.remote.node != 0) return false;
  const uint64_t begin = wr.remote.offset;
  const uint64_t end = begin + wr.length;
  return begin < kRootPointerOffset + 8 && end > kRootPointerOffset;
}

// --- feed ------------------------------------------------------------------

void Checker::OnNodeAllocated(int cs, rdma::GlobalAddress addr,
                              uint32_t size) {
  auto& per_ms = NodesOn(addr.node);
  // Drop any stale shadow overlapping the range (a recycled node re-enters
  // circulation; allocation geometry keeps live ranges disjoint).
  auto it = per_ms.lower_bound(addr.offset);
  if (it != per_ms.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second.size > addr.offset) per_ms.erase(prev);
  }
  while (true) {
    it = per_ms.lower_bound(addr.offset);
    if (it == per_ms.end() || it->first >= addr.offset + size) break;
    per_ms.erase(it);
  }
  NodeShadow s;
  s.state = NodeState::kPrivate;
  s.owner_cs = cs;
  s.size = size;
  per_ms[addr.offset] = s;
  // A recycled vlog segment can re-enter circulation as anything; its
  // extent/segment shadows are stale the moment the region is re-handed.
  if (!vexts_.empty() || !vsegs_.empty()) {
    auto drop = [&](auto& per_ms_map) {
      auto mit = per_ms_map.find(addr.node);
      if (mit == per_ms_map.end()) return;
      auto vit = mit->second.lower_bound(addr.offset);
      while (vit != mit->second.end() && vit->first < addr.offset + size) {
        vit = mit->second.erase(vit);
      }
    };
    drop(vexts_);
    drop(vsegs_);
  }
}

void Checker::PublishNode(rdma::GlobalAddress addr, uint8_t level) {
  NodeShadow* n = FindNode(addr.node, addr.offset);
  if (n == nullptr) {
    NodeShadow s;
    s.size = cfg_.node_size;
    NodesOn(addr.node)[addr.offset] = s;
    n = FindNode(addr.node, addr.offset);
  }
  n->state = NodeState::kLive;
  n->level = level;
  n->owner_cs = -1;
}

void Checker::OnNodeFreed(int ms, uint64_t offset, uint32_t size,
                          uint64_t epoch) {
  NodeShadow* n = FindNode(static_cast<uint16_t>(ms), offset);
  if (n == nullptr) {
    NodeShadow s;
    s.size = size;
    NodesOn(static_cast<uint16_t>(ms))[offset] = s;
    n = FindNode(static_cast<uint16_t>(ms), offset);
  }
  if (n->hinted) {
    const rdma::GlobalAddress addr(static_cast<uint16_t>(ms), offset);
    std::ostringstream os;
    os << "node " << addr.ToString()
       << " freed while a leaf-hint entry still maps to it (the hint "
          "sidecar must invalidate before the free)";
    n->hinted = false;
    Report(6, addr, -1, -1, os.str());
  }
  n->state = NodeState::kFreed;
  n->freed_epoch = epoch;
  n->owner_cs = -1;
}

void Checker::OnHintPublished(rdma::GlobalAddress addr) {
  NodeShadow* n = FindNode(addr.node, addr.offset);
  if (n == nullptr) {
    // Bulk-load seeding can run before the loader's PublishNode feed on
    // configurations without a checker-visible allocation; track lazily.
    NodeShadow s;
    s.state = NodeState::kLive;
    s.size = cfg_.node_size;
    NodesOn(addr.node)[addr.offset] = s;
    n = FindNode(addr.node, addr.offset);
  }
  n->hinted = true;
}

void Checker::OnHintInvalidated(rdma::GlobalAddress addr) {
  NodeShadow* n = FindNode(addr.node, addr.offset);
  if (n != nullptr) n->hinted = false;
}

Checker::VExtShadow* Checker::FindVExtent(uint16_t ms, uint64_t offset) {
  auto mit = vexts_.find(ms);
  if (mit == vexts_.end()) return nullptr;
  auto it = mit->second.upper_bound(offset);
  if (it == mit->second.begin()) return nullptr;
  --it;
  if (offset >= it->first + it->second.size) return nullptr;
  return &it->second;
}

void Checker::OnVlogSegment(int cs, rdma::GlobalAddress base,
                            uint32_t seg_bytes, uint32_t cls) {
  // A recycled region may carry stale extent shadows from its previous
  // life as a segment; drop anything overlapping.
  auto& per_ms = vexts_[base.node];
  auto it = per_ms.lower_bound(base.offset);
  while (it != per_ms.end() && it->first < base.offset + seg_bytes) {
    it = per_ms.erase(it);
  }
  VSegShadow s;
  s.seg_bytes = seg_bytes;
  s.cls = cls;
  s.owner_cs = cs;
  vsegs_[base.node][base.offset] = s;
}

void Checker::OnVlogAppend(int cs, rdma::GlobalAddress addr, uint32_t bytes) {
  VExtShadow s;
  s.state = VExtState::kAppending;
  s.owner_cs = cs;
  s.size = bytes;
  vexts_[addr.node][addr.offset] = s;
}

void Checker::OnVlogPublish(rdma::GlobalAddress addr) {
  VExtShadow* e = FindVExtent(addr.node, addr.offset);
  if (e == nullptr) return;
  e->state = VExtState::kLive;
  e->owner_cs = -1;
}

void Checker::OnVlogRetire(int ms, uint64_t offset, uint64_t epoch) {
  VExtShadow* e = FindVExtent(static_cast<uint16_t>(ms), offset);
  if (e == nullptr) return;
  e->state = VExtState::kDead;
  e->dead_epoch = epoch;
}

void Checker::OnLockAcquired(int cs, const GlobalLockRef& ref,
                             uint16_t lane_value) {
  (void)cs;
  lanes_[LaneKey(ref)].lane = lane_value;
}

void Checker::OnLockReleased(int cs, const GlobalLockRef& ref) {
  // Conditional: this arrives at completion time, after the release
  // actually applied, so another CS may already have re-acquired the lane
  // (and updated the shadow) in the response-latency window.
  const auto it = lanes_.find(LaneKey(ref));
  if (it != lanes_.end() &&
      LockLaneOwner(it->second.lane) == static_cast<uint16_t>(cs) + 1) {
    lanes_.erase(it);
  }
}

void Checker::OnLanesSwept(int ms, uint16_t owner_tag) {
  for (auto it = lanes_.begin(); it != lanes_.end();) {
    const uint16_t lane_ms = static_cast<uint16_t>(it->first >> 33);
    if (lane_ms == ms && LockLaneOwner(it->second.lane) == owner_tag) {
      it = lanes_.erase(it);
    } else {
      ++it;
    }
  }
}

void Checker::OnClientDead(int cs) {
  for (auto& per_ms : nodes_) {
    for (auto& [off, shadow] : per_ms) {
      if (shadow.state == NodeState::kPrivate && shadow.owner_cs == cs) {
        shadow.state = NodeState::kLive;
        shadow.owner_cs = -1;
      }
    }
  }
  taints_.clear();
}

void Checker::OnRpcMutate(int ms, rdma::GlobalAddress node) {
  // The executor declines locked nodes by reading the actual lane; the
  // shadow-held window [CAS completion, release post] is strictly inside
  // the actual-held window [CAS apply, release apply], so a shadow-held
  // lane here means the decline check and a one-sided writer raced.
  uint16_t lane = 0;
  int owner = -1;
  (void)HoldsLane(/*cs=*/-2, node, &lane, &owner);
  if (owner >= 0) {
    std::ostringstream os;
    os << "MS " << ms << " RPC executor mutating node " << node.node << ":"
       << node.offset << " while lock lane is held by cs " << owner;
    Report(1, node, -1, owner, os.str());
    return;
  }
  NodeShadow* n = FindNode(node.node, node.offset);
  if (n != nullptr && n->state == NodeState::kFreed) {
    std::ostringstream os;
    os << "MS " << ms << " RPC executor mutating freed node " << node.node
       << ":" << node.offset;
    Report(2, node, -1, -1, os.str());
  }
}

void Checker::NoteValidated(const void* buf, uint32_t len) {
  DropTaintOverlapping(reinterpret_cast<uintptr_t>(buf),
                       reinterpret_cast<uintptr_t>(buf) + len);
}

// --- taint -----------------------------------------------------------------

std::map<uintptr_t, Checker::Taint>::iterator Checker::TaintsFrom(
    uintptr_t begin) {
  // The ranges are disjoint, so of those starting before `begin` only the
  // last can reach past it.
  auto it = taints_.lower_bound(begin);
  if (it != taints_.begin() && std::prev(it)->second.end > begin) --it;
  return it;
}

void Checker::DropTaintOverlapping(uintptr_t begin, uintptr_t end) {
  for (auto it = TaintsFrom(begin); it != taints_.end() && it->first < end;) {
    it = taints_.erase(it);
  }
}

void Checker::AddTaint(int cs, const rdma::WorkRequest& wr) {
  (void)cs;
  const uintptr_t begin = reinterpret_cast<uintptr_t>(wr.local_buf);
  const uintptr_t end = begin + wr.length;
  DropTaintOverlapping(begin, end);
  // Lazy compaction keeps the list bounded without touching sim state.
  if (taints_.size() > 1024) {
    const uint64_t now = static_cast<uint64_t>(cfg_.sim->now());
    for (auto it = taints_.begin(); it != taints_.end();) {
      if (now - it->second.at > kTaintTtlNs) {
        it = taints_.erase(it);
      } else {
        ++it;
      }
    }
  }
  Taint t;
  t.src = wr.remote;
  t.end = end;
  t.at = static_cast<uint64_t>(cfg_.sim->now());
  taints_.emplace(begin, t);
}

// --- checks ----------------------------------------------------------------

void Checker::OnWr(int cs, const rdma::WorkRequest& wr) {
  checked_wrs_++;
  switch (wr.verb) {
    case rdma::Verb::kRead:
      CheckRead(cs, wr);
      return;
    case rdma::Verb::kWrite:
    case rdma::Verb::kCas:
    case rdma::Verb::kMaskedCas:
    case rdma::Verb::kFaa:
      CheckWrite(cs, wr);
      return;
  }
}

void Checker::CheckWrite(int cs, const rdma::WorkRequest& wr) {
  // Lock table: only HoclClient-tagged requests may mutate it (V5); the
  // tagged 2-byte lane writes additionally update the lane shadow.
  if (InLockRegion(wr)) {
    if (wr.origin != rdma::kWrOriginLock) {
      std::ostringstream os;
      os << "cs " << cs << " mutates lock table "
         << (wr.space == rdma::MemorySpace::kDevice ? "(device)" : "(host)")
         << " at " << wr.remote.node << ":" << wr.remote.offset
         << " bypassing HoclClient";
      Report(5, wr.remote, cs, -1, os.str());
      return;
    }
    if (wr.verb == rdma::Verb::kWrite) DecodeLaneWrite(cs, wr);
    return;
  }

  if (OnRootWord(wr)) {
    if (wr.origin != rdma::kWrOriginRoot) {
      std::ostringstream os;
      os << "cs " << cs << " mutates the root pointer bypassing the "
         << "root-swap API";
      Report(5, wr.remote, cs, -1, os.str());
    }
    return;
  }

  if (wr.space != rdma::MemorySpace::kHost) return;

  // Intent slab on MS 0: decode publishes/clears into the slot shadow.
  if (wr.remote.node == 0 && wr.verb == rdma::Verb::kWrite &&
      wr.remote.offset >= kIntentSlabOffset &&
      wr.remote.offset < kIntentSlabOffset + kIntentSlabBytes) {
    DecodeIntentWrite(wr);
    return;
  }

  if (wr.remote.offset < kChunkAreaOffset) return;  // meta / claim words

  // Value-log extents are write-once: private to the appender until the
  // publish, immutable afterwards, dead after retire.
  if (VExtShadow* e = FindVExtent(wr.remote.node, wr.remote.offset)) {
    switch (e->state) {
      case VExtState::kAppending:
        if (e->owner_cs != cs) {
          std::ostringstream os;
          os << "cs " << cs << " writes vlog extent " << wr.remote.node << ":"
             << wr.remote.offset << " still private to cs " << e->owner_cs;
          Report(1, wr.remote, cs, e->owner_cs, os.str());
        }
        return;
      case VExtState::kLive: {
        std::ostringstream os;
        os << "cs " << cs << " writes PUBLISHED vlog extent " << wr.remote.node
           << ":" << wr.remote.offset << " (extents are immutable)";
        Report(1, wr.remote, cs, -1, os.str());
        return;
      }
      case VExtState::kDead: {
        std::ostringstream os;
        os << "cs " << cs << " writes retired vlog extent " << wr.remote.node
           << ":" << wr.remote.offset << " (dead at epoch " << e->dead_epoch
           << ")";
        Report(2, wr.remote, cs, -1, os.str());
        return;
      }
    }
    return;
  }

  uint64_t base_offset = 0;
  NodeShadow* n = FindNode(wr.remote.node, wr.remote.offset, &base_offset);
  if (n == nullptr) return;  // not a tracked node region

  // V3: a structural write claiming intent coverage must have its slot
  // published (and not yet cleared) at post time.
  if (wr.intent_slot != rdma::kWrNoIntent) {
    const uint32_t live = intent_live_.count(cs) ? intent_live_[cs] : 0;
    if ((live & (1u << wr.intent_slot)) == 0) {
      std::ostringstream os;
      os << "cs " << cs << " structural write to " << wr.remote.node << ":"
         << wr.remote.offset << " tagged with intent slot "
         << static_cast<int>(wr.intent_slot)
         << " which is not published (write before publish or after clear)";
      Report(3, wr.remote, cs, -1, os.str());
    }
  }

  switch (n->state) {
    case NodeState::kFreed: {
      std::ostringstream os;
      os << "cs " << cs << " writes freed node " << wr.remote.node << ":"
         << wr.remote.offset << " (freed at epoch " << n->freed_epoch << ")";
      Report(2, wr.remote, cs, -1, os.str());
      return;
    }
    case NodeState::kPrivate: {
      if (n->owner_cs != cs) {
        std::ostringstream os;
        os << "cs " << cs << " writes node " << wr.remote.node << ":"
           << wr.remote.offset << " still private to cs " << n->owner_cs;
        Report(1, wr.remote, cs, n->owner_cs, os.str());
      }
      return;
    }
    case NodeState::kLive: {
      // The node's base address for the lane hash.
      const rdma::GlobalAddress base(wr.remote.node, base_offset);
      uint16_t lane = 0;
      int owner = -1;
      const bool holds = HoldsLane(cs, base, &lane, &owner);
      if (!holds) {
        std::ostringstream os;
        os << "cs " << cs << " writes live node " << wr.remote.node << ":"
           << wr.remote.offset << " without holding its lock lane"
           << (owner >= 0 ? " (held by cs " + std::to_string(owner) + ")"
                          : " (lane free)");
        Report(1, wr.remote, cs, owner, os.str());
      } else if (LaneExpired(lane)) {
        std::ostringstream os;
        os << "cs " << cs << " writes live node " << wr.remote.node << ":"
           << wr.remote.offset
           << " under an EXPIRED lease (stamp " << LockLaneStamp(lane)
           << ") — write-after-steal hazard";
        Report(1, wr.remote, cs, -1, os.str());
      }
      // V4: the write's source bytes must not come from an unvalidated
      // lock-free read.
      if (wr.verb == rdma::Verb::kWrite) {
        const uintptr_t sb = reinterpret_cast<uintptr_t>(wr.local_buf);
        const uintptr_t se = sb + wr.length;
        const uint64_t now = static_cast<uint64_t>(cfg_.sim->now());
        for (auto it = TaintsFrom(sb); it != taints_.end() && it->first < se;
             ++it) {
          const Taint& t = it->second;
          if (now - t.at <= kTaintTtlNs) {
            std::ostringstream os;
            os << "cs " << cs << " writes node " << wr.remote.node << ":"
               << wr.remote.offset
               << " from a buffer read lock-free from " << t.src.node << ":"
               << t.src.offset << " that was never version-validated";
            Report(4, wr.remote, cs, -1, os.str());
            break;
          }
        }
      }
      return;
    }
  }
}

void Checker::CheckRead(int cs, const rdma::WorkRequest& wr) {
  if (wr.space != rdma::MemorySpace::kHost) return;
  if (wr.remote.offset < kChunkAreaOffset) return;

  // Dead vlog extents past their grace window need an epoch pin, exactly
  // like freed nodes (V2 use-after-free over value extents).
  if (VExtShadow* e = FindVExtent(wr.remote.node, wr.remote.offset)) {
    if (e->state == VExtState::kDead && cfg_.reclaim != nullptr &&
        cfg_.reclaim->SafeToRecycle(e->dead_epoch) &&
        cfg_.reclaim->ActivePins(cs) == 0) {
      std::ostringstream os;
      os << "cs " << cs << " reads vlog extent " << wr.remote.node << ":"
         << wr.remote.offset << " retired at epoch " << e->dead_epoch
         << " past its grace window while holding no epoch pin";
      Report(2, wr.remote, cs, -1, os.str());
    }
    return;
  }

  NodeShadow* n = FindNode(wr.remote.node, wr.remote.offset);
  if (n == nullptr) return;

  if (n->state == NodeState::kFreed && cfg_.reclaim != nullptr &&
      cfg_.reclaim->SafeToRecycle(n->freed_epoch) &&
      cfg_.reclaim->ActivePins(cs) == 0) {
    // Reads of grace-parked tombstones are legal (stale translations
    // bounce and re-resolve); past the grace window the bytes may be
    // recycled at any instant, and only an epoch pin makes the read safe.
    std::ostringstream os;
    os << "cs " << cs << " reads node " << wr.remote.node << ":"
       << wr.remote.offset << " freed at epoch " << n->freed_epoch
       << " past its grace window while holding no epoch pin";
    Report(2, wr.remote, cs, -1, os.str());
    return;
  }

  // Taint full-node lock-free reads; validation helpers clear the taint.
  if (wr.length == cfg_.node_size && wr.local_buf != nullptr) {
    const bool safe =
        (n->state == NodeState::kLive &&
         HoldsLane(cs, rdma::GlobalAddress(wr.remote.node,
                                           wr.remote.offset),
                   nullptr, nullptr)) ||
        (n->state == NodeState::kPrivate && n->owner_cs == cs);
    if (!safe) {
      AddTaint(cs, wr);
    } else {
      DropTaintOverlapping(reinterpret_cast<uintptr_t>(wr.local_buf),
                           reinterpret_cast<uintptr_t>(wr.local_buf) +
                               wr.length);
    }
  }
}

void Checker::DecodeLaneWrite(int cs, const rdma::WorkRequest& wr) {
  if (wr.length != kLockBytes || wr.local_buf == nullptr) return;
  const uint64_t base =
      wr.space == rdma::MemorySpace::kDevice ? 0 : kHostGltOffset;
  GlobalLockRef ref;
  ref.ms = wr.remote.node;
  ref.index = static_cast<uint32_t>((wr.remote.offset - base) / kLockBytes);
  ref.space = wr.space;
  uint16_t lane = 0;
  std::memcpy(&lane, wr.local_buf, sizeof(lane));
  if (lane == 0) {
    // Release: the shadow-held window ends at release POST, before the
    // release applies — covered write-backs earlier in the same batch
    // were already checked against the held shadow.
    lanes_.erase(LaneKey(ref));
  } else {
    // Renew / handover re-stamp (or a test's direct encode).
    lanes_[LaneKey(ref)].lane = lane;
  }
  (void)cs;
}

void Checker::DecodeIntentWrite(const rdma::WorkRequest& wr) {
  if (wr.local_buf == nullptr || wr.length == 0) return;
  const uint64_t slot_index =
      (wr.remote.offset - kIntentSlabOffset) / kIntentSlotBytes;
  const int slab_cs = static_cast<int>(slot_index / kIntentSlotsPerClient);
  const int slot = static_cast<int>(slot_index % kIntentSlotsPerClient);
  // Byte 0 of an intent record is its op code; 0 == kNone == cleared.
  const uint8_t op = static_cast<const uint8_t*>(wr.local_buf)[0];
  if (op != 0) {
    intent_live_[slab_cs] |= 1u << slot;
  } else {
    intent_live_[slab_cs] &= ~(1u << slot);
  }
}

// --- reporting -------------------------------------------------------------

void Checker::Report(int rule, rdma::GlobalAddress addr, int actor, int other,
                     std::string message) {
  Violation v;
  v.rule = rule;
  v.message = std::move(message);
  v.addr = addr;
  v.actor_cs = actor;
  v.other_actor = other;
  v.sim_time = static_cast<uint64_t>(cfg_.sim->now());
  findings_.push_back(v);

  std::ostringstream os;
  os << "DMSan " << RuleName(rule) << " @t=" << v.sim_time << "ns: "
     << v.message;
  std::fprintf(stderr, "%s\n", os.str().c_str());
  if (cfg_.tracer != nullptr) {
    std::vector<uint32_t> rings;
    if (actor >= 0) rings.push_back(obs::RingId::Client(actor));
    if (other >= 0 && other != actor) {
      rings.push_back(obs::RingId::Client(other));
    }
    cfg_.tracer->DumpToStderr(os.str(), rings);
  }
  if (abort_on_violation_) {
    SHERMAN_CHECK_MSG(false, "DMSan violation (rule V%d): %s", rule,
                      v.message.c_str());
  }
}

// --- registry --------------------------------------------------------------

int g_active_count = 0;

namespace {
std::map<sim::Simulator*, Checker*>& Registry() {
  static std::map<sim::Simulator*, Checker*> registry;
  return registry;
}
}  // namespace

void Attach(sim::Simulator* sim, Checker* checker) {
  auto& reg = Registry();
  SHERMAN_CHECK(reg.find(sim) == reg.end());
  reg[sim] = checker;
  g_active_count = static_cast<int>(reg.size());
}

void Detach(sim::Simulator* sim) {
  Registry().erase(sim);
  g_active_count = static_cast<int>(Registry().size());
}

Checker* Find(sim::Simulator* sim) {
  auto& reg = Registry();
  auto it = reg.find(sim);
  return it != reg.end() ? it->second : nullptr;
}

void NoteValidatedAll(const void* buf, uint32_t len) {
  for (auto& [sim, checker] : Registry()) checker->NoteValidated(buf, len);
}

bool DefaultEnabled() {
  const char* env = std::getenv("SHERMAN_DMSAN");
  if (env != nullptr && env[0] != '\0') return env[0] == '1';
#ifdef SHERMAN_DMSAN_DEFAULT
  return SHERMAN_DMSAN_DEFAULT != 0;
#else
  return false;
#endif
}

}  // namespace sherman::dmsan
