#include "alloc/chunk_manager.h"

#include "sanitizer/dmsan.h"
#include "util/logging.h"

namespace sherman {

ChunkManager::ChunkManager(rdma::MemoryServer* ms, obs::Registry* registry,
                           const ReclaimEpoch* reclaim, bool vlog)
    : ms_(ms),
      reclaim_(reclaim),
      nodes_freed_(registry->GetCounter("alloc.nodes_freed")),
      nodes_recycled_(registry->GetCounter("alloc.nodes_recycled")),
      duplicate_frees_(registry->GetCounter("alloc.duplicate_frees")) {
  if (vlog) {
    vlog_retires_ = registry->GetCounter("vlog.retired_extents");
    vlog_segments_freed_ = registry->GetCounter("vlog.segments_freed");
    vlog_victims_ = registry->GetCounter("vlog.victims_claimed");
  }
  const uint64_t size = ms->host().size();
  SHERMAN_CHECK_MSG(size > kChunkAreaOffset + kChunkSize,
                    "MS memory too small for chunk area");
  next_fresh_ = kChunkAreaOffset;
  end_ = size - (size - kChunkAreaOffset) % kChunkSize;
  total_chunks_ = (end_ - kChunkAreaOffset) / kChunkSize;

  ms->set_rpc_handler([this](uint64_t opcode, uint64_t arg, uint64_t arg2,
                             uint16_t) {
    switch (opcode) {
      case kRpcAllocChunk:
        return AllocChunk();
      case kRpcFreeChunk:
        FreeChunk(arg);
        return uint64_t{0};
      case kRpcFreeNode:
        FreeNode(arg, static_cast<uint32_t>(arg2));
        return uint64_t{0};
      case kRpcAllocNode:
        return AllocNode(static_cast<uint32_t>(arg));
      case kRpcSweepLocks:
        return SweepLocks(static_cast<uint16_t>(arg));
      case kRpcVlogRegister:
        VlogRegister(arg, static_cast<uint32_t>(arg2 & 0xff),
                     static_cast<uint32_t>(arg2 >> 8));
        return uint64_t{0};
      case kRpcVlogRetire:
        return VlogRetire(arg);
      case kRpcVlogSeal:
        VlogSeal(arg, static_cast<uint32_t>(arg2));
        return uint64_t{0};
      case kRpcVlogVictim:
        return VlogVictim(arg);
      case kRpcVlogMask:
        return VlogMaskWord(arg, static_cast<uint32_t>(arg2));
      default:
        SHERMAN_CHECK_MSG(false, "unknown RPC opcode %llu",
                          static_cast<unsigned long long>(opcode));
        return uint64_t{0};
    }
  });
}

uint64_t ChunkManager::AllocChunk() {
  uint64_t offset = 0;
  if (!free_list_.empty()) {
    offset = free_list_.back();
    free_list_.pop_back();
  } else if (next_fresh_ + kChunkSize <= end_) {
    offset = next_fresh_;
    next_fresh_ += kChunkSize;
  } else {
    return 0;  // exhausted
  }
  allocated_++;
  return offset;
}

void ChunkManager::FreeChunk(uint64_t offset) {
  SHERMAN_CHECK(offset >= kChunkAreaOffset && offset < end_);
  SHERMAN_CHECK((offset - kChunkAreaOffset) % kChunkSize == 0);
  SHERMAN_CHECK(allocated_ > 0);
  allocated_--;
  free_list_.push_back(offset);
}

void ChunkManager::FreeNode(uint64_t offset, uint32_t size) {
  SHERMAN_CHECK(offset >= kChunkAreaOffset && offset + size <= end_);
  SHERMAN_CHECK(size > 0 && size < kChunkSize);
  // Idempotent: crash recovery re-frees any node whose original free may
  // or may not have landed before the client died (the intent record is
  // cleared only after the free). A node already parked stays parked once.
  if (!parked_.insert(offset).second) {
    duplicate_frees_->Inc();
    return;
  }
  const uint64_t epoch = reclaim_ != nullptr ? reclaim_->current() : 0;
  grace_.push_back(GraceNode{offset, size, epoch});
  nodes_freed_->Inc();
  if (dmsan::Active()) {
    if (dmsan::Checker* c = dmsan::Find(ms_->simulator())) {
      c->OnNodeFreed(ms_->id(), offset, size, epoch);
    }
  }
}

void ChunkManager::SweepGraceList() {
  while (!grace_.empty()) {
    const GraceNode& n = grace_.front();
    if (reclaim_ != nullptr && !reclaim_->SafeToRecycle(n.epoch)) break;
    pool_[n.size].push_back(n.offset);
    grace_.pop_front();
  }
}

uint64_t ChunkManager::AllocNode(uint32_t size) {
  SweepGraceList();
  auto it = pool_.find(size);
  if (it == pool_.end() || it->second.empty()) return 0;
  const uint64_t offset = it->second.back();
  it->second.pop_back();
  nodes_recycled_->Inc();
  parked_.erase(offset);
  return offset;
}

void ChunkManager::VlogRegister(uint64_t base, uint32_t cls,
                                uint32_t seg_bytes) {
  SHERMAN_CHECK_MSG(vlog_retires_ != nullptr, "no value log on this MS");
  SHERMAN_CHECK(base >= kChunkAreaOffset && base + seg_bytes <= end_);
  SHERMAN_CHECK(cls < 8 && seg_bytes > 0);
  const uint32_t extent = 64u << cls;
  SHERMAN_CHECK(seg_bytes >= extent);
  VlogSegment seg;
  seg.cls = cls;
  seg.seg_bytes = seg_bytes;
  seg.capacity = seg_bytes / extent;
  seg.dead.assign((seg.capacity + 63) / 64, 0);
  SHERMAN_CHECK(vlog_.emplace(base, std::move(seg)).second);
}

uint64_t ChunkManager::VlogRetire(uint64_t addr) {
  // Containing-segment lookup (addr may point anywhere inside the extent).
  auto it = vlog_.upper_bound(addr);
  if (it == vlog_.begin()) return 0;
  --it;
  VlogSegment& seg = it->second;
  if (addr >= it->first + seg.seg_bytes) return 0;  // freed/stale segment
  const uint32_t slot =
      static_cast<uint32_t>((addr - it->first) / (64u << seg.cls));
  uint64_t& word = seg.dead[slot / 64];
  const uint64_t bit = 1ull << (slot % 64);
  if (word & bit) return 0;  // idempotent (GC + delete can race benignly)
  word |= bit;
  seg.dead_count++;
  vlog_retires_->Inc();
  if (dmsan::Active()) {
    if (dmsan::Checker* c = dmsan::Find(ms_->simulator())) {
      const uint64_t ext_base =
          it->first + static_cast<uint64_t>(slot) * (64u << seg.cls);
      c->OnVlogRetire(ms_->id(), ext_base,
                      reclaim_ != nullptr ? reclaim_->current() : 0);
    }
  }
  VlogMaybeFree(it->first);
  return 1;
}

void ChunkManager::VlogSeal(uint64_t base, uint32_t used) {
  auto it = vlog_.find(base);
  SHERMAN_CHECK(it != vlog_.end());
  SHERMAN_CHECK(used <= it->second.capacity);
  it->second.sealed = true;
  it->second.used = used;
  // Stamp the epoch: an extent appended to this segment belongs to an op
  // whose pin predates the seal, so once every pin at or below this epoch
  // drains, each record here is either leaf-referenced or permanently
  // orphaned — never install-in-flight. Victim selection keys off this.
  it->second.sealed_epoch = reclaim_ != nullptr ? reclaim_->current() : 0;
  VlogMaybeFree(base);
}

void ChunkManager::VlogMaybeFree(uint64_t base) {
  auto it = vlog_.find(base);
  if (it == vlog_.end()) return;
  const VlogSegment& seg = it->second;
  if (!seg.sealed || seg.dead_count < seg.used) return;
  // Every written extent is dead: the whole segment goes back through the
  // node grace list (epoch-protected, recyclable for any same-size alloc).
  const uint32_t seg_bytes = seg.seg_bytes;
  vlog_.erase(it);
  vlog_segments_freed_->Inc();
  FreeNode(base, seg_bytes);
}

uint64_t ChunkManager::VlogVictim(uint64_t min_dead_permille) {
  for (auto& [base, seg] : vlog_) {
    if (!seg.sealed || seg.claimed || seg.used == 0) continue;
    // Grace gate: a record is appended BEFORE its leaf slot is published
    // (the extent is private until then), and the segment can be sealed
    // in that window by a concurrent rotation or a GC pre-seal. Handing
    // such a segment to GC would let the "no leaf references this record"
    // check retire an extent whose install is merely in flight — a
    // dangling pointer once the segment drains and recycles. Only offer
    // segments whose seal predates every live pin: then every record is
    // either referenced or a true orphan.
    if (reclaim_ != nullptr && !reclaim_->SafeToRecycle(seg.sealed_epoch)) {
      continue;
    }
    if (static_cast<uint64_t>(seg.dead_count) * 1000 <
        min_dead_permille * seg.used) {
      continue;
    }
    seg.claimed = true;
    vlog_victims_->Inc();
    return base | (static_cast<uint64_t>(seg.used) << 40) |
           (static_cast<uint64_t>(seg.cls) << 56);
  }
  return 0;
}

uint64_t ChunkManager::VlogMaskWord(uint64_t base, uint32_t word) const {
  auto it = vlog_.find(base);
  if (it == vlog_.end() || word >= it->second.dead.size()) return 0;
  return it->second.dead[word];
}

uint64_t ChunkManager::SweepLocks(uint16_t owner_tag) {
  SHERMAN_CHECK(owner_tag != 0);
  // Scan both lock tables (on-chip and the host-memory ablation copy) and
  // release every lane the dead client still owns, regardless of its
  // lease stamp. Writes go through MemoryRegion::Write so any in-flight
  // DMA read of the word observes the release with torn-read fidelity.
  sim::Simulator* sim = ms_->simulator();
  uint64_t swept = 0;
  const uint8_t zero[2] = {0, 0};
  struct Glt {
    rdma::MemoryRegion* region;
    uint64_t base;
  } tables[2] = {{&ms_->device(), 0}, {&ms_->host(), kHostGltOffset}};
  for (const Glt& t : tables) {
    for (uint32_t i = 0; i < kLocksPerMs; i++) {
      const uint64_t off = t.base + static_cast<uint64_t>(i) * kLockBytes;
      // Lane low byte = owner tag (lock_table.h encoding).
      if (t.region->raw(off)[0] == static_cast<uint8_t>(owner_tag)) {
        t.region->Write(sim->now(), off, zero, sizeof(zero));
        swept++;
      }
    }
  }
  // The scan touches 2 x 256 KB of lock words; charge the wimpy memory
  // thread for the extra work beyond its standard service slot.
  ms_->ChargeMemoryThread(20'000);
  if (dmsan::Active()) {
    if (dmsan::Checker* c = dmsan::Find(ms_->simulator())) {
      c->OnLanesSwept(ms_->id(), owner_tag);
    }
  }
  return swept;
}

}  // namespace sherman
