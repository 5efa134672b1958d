// MemoryRegion: a byte-addressable region on a memory server (host DRAM or
// NIC on-chip memory) with DMA-faithful read semantics.
//
// RDMA NICs transfer READ payloads in increasing address order (paper
// footnote 5). We model a READ as occupying a time window [start, end): the
// region snapshot is taken at `start`, and any WRITE executed inside the
// window patches only the suffix of the reader's buffer that the DMA has not
// yet passed. This reproduces torn reads — and their rarity (Figure 14a) —
// with the exact semantics Sherman's version checks rely on.
//
// The bytes are lazily zeroed: a fresh region reads 0 everywhere, but its
// pages are only backed by host memory once touched, so a deployment's
// simulated DRAM costs the host only what a run actually uses.
#ifndef SHERMAN_RDMA_MEMORY_REGION_H_
#define SHERMAN_RDMA_MEMORY_REGION_H_

#include <cstdint>
#include <cstdlib>
#include <list>
#include <memory>

#include "sim/event_queue.h"

namespace sherman::rdma {

class MemoryRegion {
 public:
  explicit MemoryRegion(uint64_t size);

  MemoryRegion(const MemoryRegion&) = delete;
  MemoryRegion& operator=(const MemoryRegion&) = delete;

  uint64_t size() const { return size_; }

  // Direct access for bulk loading and test inspection (no DMA modeling).
  uint8_t* raw(uint64_t offset);
  const uint8_t* raw(uint64_t offset) const;

  // --- DMA read window modeling ---
  // Registers an in-flight DMA read of [offset, offset+len) into dst lasting
  // [start, end); copies the current contents into dst. Returns a handle.
  uint64_t BeginRead(uint64_t offset, uint32_t len, uint8_t* dst,
                     sim::SimTime start, sim::SimTime end);
  // Unregisters the in-flight read. dst now holds the final (possibly torn)
  // payload.
  void EndRead(uint64_t handle);

  // Applies a write of [offset, offset+len) at simulated time `now`, patching
  // the not-yet-transferred suffix of every overlapping in-flight read.
  void Write(sim::SimTime now, uint64_t offset, const uint8_t* src,
             uint32_t len);

  // 8-byte accessors used by the atomic units (always aligned).
  uint64_t Read64(uint64_t offset) const;
  // Atomic write also patches in-flight readers.
  void Write64(sim::SimTime now, uint64_t offset, uint64_t value);

  size_t inflight_reads() const { return inflight_.size(); }

 private:
  struct InflightRead {
    uint64_t handle;
    uint64_t offset;
    uint32_t len;
    uint8_t* dst;
    sim::SimTime start;
    sim::SimTime end;
  };

  // First byte address the DMA has NOT yet transferred at time `now`.
  static uint64_t Progress(const InflightRead& r, sim::SimTime now);

  struct Free {
    void operator()(uint8_t* p) const { std::free(p); }
  };

  uint64_t size_;
  std::unique_ptr<uint8_t[], Free> data_;
  std::list<InflightRead> inflight_;
  uint64_t next_handle_ = 1;
};

}  // namespace sherman::rdma

#endif  // SHERMAN_RDMA_MEMORY_REGION_H_
