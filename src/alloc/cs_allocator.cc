#include "alloc/cs_allocator.h"

#include "sanitizer/dmsan.h"
#include "util/logging.h"

namespace sherman {

namespace {
// How many allocations ride the local bump chunk between probes of the
// MS-side recycle pool. The probe is one RPC; at 1/64 of the (already
// rare, split-driven) allocation rate its cost is noise, but it bounds
// how long delete-churn frees can sit unreused while fresh chunk bytes
// are still being consumed. A successful probe holds the allocator in
// "drain mode" (probe again next time), so while the pool has nodes the
// chunk footprint is frozen outright.
constexpr uint32_t kRecycleProbePeriod = 64;

// DMSan feed: a handed-out region is private to the allocating CS until
// the structural op that writes it publishes it into the tree. Covers the
// bump path, MS-side recycled nodes (the freed->private transition), and
// CS-local free-bin reuse alike.
void DmsanNodeAllocated(rdma::Fabric* fabric, int cs_id,
                        rdma::GlobalAddress addr, uint32_t size) {
  if (!dmsan::Active()) return;
  if (dmsan::Checker* c = dmsan::Find(&fabric->simulator())) {
    c->OnNodeAllocated(cs_id, addr, size);
  }
}
}  // namespace

CsAllocator::CsAllocator(rdma::Fabric* fabric, int cs_id)
    : fabric_(fabric), cs_id_(cs_id) {
  next_ms_ = cs_id % fabric->num_memory_servers();  // stagger CSs
  probe_ms_ = next_ms_;
}

sim::Task<rdma::GlobalAddress> CsAllocator::Alloc(uint32_t size) {
  SHERMAN_CHECK(size > 0 && size <= kChunkSize);
  // Reuse freed memory of the same size first.
  for (auto& bin : free_bins_) {
    if (bin.size == size && !bin.entries.empty()) {
      rdma::GlobalAddress addr = bin.entries.back();
      bin.entries.pop_back();
      DmsanNodeAllocated(fabric_, cs_id_, addr, size);
      co_return addr;
    }
  }
  // Periodic probe of the MS-side recycle pools (leaf merges, migration
  // tombstone retirement park nodes there after their epoch grace).
  if (++allocs_since_probe_ >= kRecycleProbePeriod) {
    allocs_since_probe_ = 0;
    const int ms = probe_ms_;
    probe_ms_ = (probe_ms_ + 1) % fabric_->num_memory_servers();
    const uint64_t off = co_await fabric_->qp(cs_id_, ms).Rpc(kRpcAllocNode,
                                                              size);
    if (off != 0) {
      allocs_since_probe_ = kRecycleProbePeriod;  // drain mode
      const rdma::GlobalAddress addr(static_cast<uint16_t>(ms), off);
      DmsanNodeAllocated(fabric_, cs_id_, addr, size);
      co_return addr;
    }
  }
  // Fast path: bump-allocate in the current chunk. The loop handles the
  // case where another coroutine of this CS replaced the chunk while we
  // were awaiting the RPC.
  for (int attempts = 0;
       attempts <= 2 * fabric_->num_memory_servers(); attempts++) {
    if (!chunk_base_.is_null() && chunk_used_ + size <= kChunkSize) {
      rdma::GlobalAddress addr = chunk_base_.Plus(chunk_used_);
      chunk_used_ += size;
      DmsanNodeAllocated(fabric_, cs_id_, addr, size);
      co_return addr;
    }
    // Slow path: prefer a recycled node over growing the chunk footprint
    // (delete-heavy churn feeds this pool; the chunk count plateaus as
    // long as recycling keeps up with demand), then fall back to a fresh
    // chunk from the same MS.
    const int ms = next_ms_;
    next_ms_ = (next_ms_ + 1) % fabric_->num_memory_servers();
    const uint64_t recycled =
        co_await fabric_->qp(cs_id_, ms).Rpc(kRpcAllocNode, size);
    if (recycled != 0) {
      const rdma::GlobalAddress addr(static_cast<uint16_t>(ms), recycled);
      DmsanNodeAllocated(fabric_, cs_id_, addr, size);
      co_return addr;
    }
    chunk_rpcs_++;
    const uint64_t offset =
        co_await fabric_->qp(cs_id_, ms).Rpc(kRpcAllocChunk, 0);
    if (offset != 0) {
      chunk_base_ = rdma::GlobalAddress(static_cast<uint16_t>(ms), offset);
      chunk_used_ = 0;
    }
  }
  co_return rdma::kNullAddress;  // all memory servers exhausted
}

void CsAllocator::Free(rdma::GlobalAddress addr, uint32_t size) {
  SHERMAN_CHECK(!addr.is_null());
  for (auto& bin : free_bins_) {
    if (bin.size == size) {
      bin.entries.push_back(addr);
      return;
    }
  }
  free_bins_.push_back(FreeBin{size, {addr}});
}

}  // namespace sherman
