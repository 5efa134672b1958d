// CsAllocator: the compute-server side of the two-stage allocation scheme
// (§4.2.4). A CS obtains 8 MB chunks from memory servers (chosen round-
// robin) over RPC, then serves node-sized allocations locally from the
// current chunk — avoiding network round trips for most allocations.
#ifndef SHERMAN_ALLOC_CS_ALLOCATOR_H_
#define SHERMAN_ALLOC_CS_ALLOCATOR_H_

#include <cstdint>
#include <vector>

#include "alloc/layout.h"
#include "rdma/fabric.h"
#include "rdma/global_address.h"
#include "sim/task.h"

namespace sherman {

class CsAllocator {
 public:
  CsAllocator(rdma::Fabric* fabric, int cs_id);

  // Allocates `size` bytes of disaggregated memory (size <= kChunkSize).
  // Fast path: bump allocation in the current chunk (no network). Slow
  // path: one RPC to the next memory server for a fresh chunk.
  // Returns the null address if every MS is exhausted.
  sim::Task<rdma::GlobalAddress> Alloc(uint32_t size);

  // Returns memory to a CS-local free list keyed by size.
  void Free(rdma::GlobalAddress addr, uint32_t size);

  uint64_t chunk_rpcs() const { return chunk_rpcs_; }

 private:
  struct FreeBin {
    uint32_t size;
    std::vector<rdma::GlobalAddress> entries;
  };

  rdma::Fabric* fabric_;
  int cs_id_;
  int next_ms_ = 0;   // round-robin cursor (fresh chunks)
  int probe_ms_ = 0;  // round-robin cursor (recycle-pool probes)
  uint32_t allocs_since_probe_ = 0;
  // Current chunk (single active chunk; a new one is fetched on exhaustion).
  rdma::GlobalAddress chunk_base_ = rdma::kNullAddress;
  uint64_t chunk_used_ = 0;
  std::vector<FreeBin> free_bins_;
  uint64_t chunk_rpcs_ = 0;
};

}  // namespace sherman

#endif  // SHERMAN_ALLOC_CS_ALLOCATOR_H_
