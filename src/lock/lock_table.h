// Global lock table (GLT) addressing (§4.3).
//
// Each memory server owns an array of 131072 16-bit exclusive locks —
// enough to fill the NIC's 256 KB on-chip memory. A tree node is guarded by
// the lock whose index is a hash of the node's offset, on the same MS as
// the node. Locks are acquired with a *masked* compare-and-swap selecting
// the 16-bit lane inside the aligned 64-bit word, and released by writing
// zero over the lane with a plain RDMA_WRITE.
#ifndef SHERMAN_LOCK_LOCK_TABLE_H_
#define SHERMAN_LOCK_LOCK_TABLE_H_

#include <cstdint>

#include "alloc/layout.h"
#include "rdma/global_address.h"
#include "rdma/verbs.h"

namespace sherman {

struct GlobalLockRef {
  uint16_t ms = 0;           // memory server owning the lock (== node's MS)
  uint32_t index = 0;        // lock index within the GLT
  rdma::MemorySpace space = rdma::MemorySpace::kDevice;

  // Same lane: two nodes that compare equal share one lock.
  bool operator==(const GlobalLockRef&) const = default;

  // Byte offset of the 16-bit lock within its region.
  uint64_t lane_offset() const {
    const uint64_t base =
        space == rdma::MemorySpace::kDevice ? 0 : kHostGltOffset;
    return base + static_cast<uint64_t>(index) * kLockBytes;
  }
  // Offset of the aligned 64-bit word containing the lane (CAS target).
  uint64_t word_offset() const { return lane_offset() & ~uint64_t{7}; }
  // Bit shift of the lane inside the word.
  int lane_shift() const {
    return static_cast<int>((lane_offset() & 7) * 8);
  }
  uint64_t lane_mask() const { return uint64_t{0xffff} << lane_shift(); }

  rdma::GlobalAddress word_address() const {
    return rdma::GlobalAddress(ms, word_offset());
  }
  rdma::GlobalAddress lane_address() const {
    return rdma::GlobalAddress(ms, lane_offset());
  }
};

// --- lock lane encoding (crash-fault tolerance) ----------------------------
//
// A held 16-bit lane carries the owner tag (cs_id + 1, low byte) and a
// LEASE STAMP (high byte): the fabric-wide lease id, quantized from the
// (loosely synchronized) clock, at acquisition/renewal time. A waiter that
// observes a stamp more than lease_expiry_periods behind the current lease
// id concludes the holder crashed, triggers recovery of the protected
// node(s), and steals the lane. Stamp 0 with the lease machinery off (or
// the FG FAA-release configuration, whose arithmetic release cannot carry
// a stamp) reproduces the original lease-free lock word.
inline constexpr uint16_t kLockOwnerMask = 0x00ff;

inline constexpr uint16_t LockLaneOwner(uint16_t lane) {
  return lane & kLockOwnerMask;
}
inline constexpr uint16_t LockLaneStamp(uint16_t lane) { return lane >> 8; }
inline constexpr uint16_t MakeLockLane(uint16_t owner, uint16_t stamp) {
  return static_cast<uint16_t>((stamp << 8) | (owner & kLockOwnerMask));
}

// Maps a tree-node address to the lock guarding it (line 5 of Figure 6).
// Distinct nodes may collide on one lock; that false sharing is inherent to
// the design and harmless for correctness.
GlobalLockRef LockFor(rdma::GlobalAddress node_addr, bool onchip);

// Hash used by LockFor; exposed for tests.
uint32_t LockIndexFor(rdma::GlobalAddress node_addr);

}  // namespace sherman

#endif  // SHERMAN_LOCK_LOCK_TABLE_H_
