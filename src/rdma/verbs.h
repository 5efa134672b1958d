// Work-request definitions for the simulated RDMA verbs.
#ifndef SHERMAN_RDMA_VERBS_H_
#define SHERMAN_RDMA_VERBS_H_

#include <cstdint>

#include "rdma/global_address.h"
#include "util/status.h"

namespace sherman::rdma {

enum class Verb : uint8_t {
  kRead,       // RDMA_READ
  kWrite,      // RDMA_WRITE
  kCas,        // RDMA_CAS (64-bit compare-and-swap)
  kMaskedCas,  // masked compare-and-swap (ConnectX extended atomics, §4.3)
  kFaa,        // RDMA_FAA (fetch-and-add)
};

// Which address space at the target MS the request operates on.
enum class MemorySpace : uint8_t {
  kHost,    // DRAM behind PCIe
  kDevice,  // NIC on-chip memory (no PCIe transactions)
};

// DMSan provenance tags (src/sanitizer/dmsan.h). Blessed wrappers mark
// their requests so the sanitizer can tell an API-mediated lock/root
// mutation from a rogue one; requests covered by a published intent
// record carry their slot. Plain data-path requests leave both defaults.
inline constexpr uint8_t kWrOriginNone = 0;
inline constexpr uint8_t kWrOriginLock = 1;  // HoclClient lock-table access
inline constexpr uint8_t kWrOriginRoot = 2;  // root-pointer swap API
inline constexpr uint8_t kWrNoIntent = 0xff;

struct WorkRequest {
  Verb verb = Verb::kRead;
  MemorySpace space = MemorySpace::kHost;
  GlobalAddress remote;

  // kRead: destination buffer (filled at completion time).
  // kWrite: source buffer (snapshotted when the WR is posted).
  void* local_buf = nullptr;
  uint32_t length = 0;

  // Atomics (operate on the 8 bytes at `remote`).
  uint64_t compare = 0;      // kCas / kMaskedCas
  uint64_t swap_or_add = 0;  // kCas / kMaskedCas: swap; kFaa: addend
  uint64_t mask = ~0ull;     // kMaskedCas: only masked bits compared/swapped
  // If non-null, receives the pre-operation value at `remote`.
  uint64_t* fetched = nullptr;

  // DMSan provenance (ignored by the fabric itself; see constants above).
  uint8_t origin = kWrOriginNone;
  uint8_t intent_slot = kWrNoIntent;

  static WorkRequest Read(GlobalAddress addr, void* dst, uint32_t len,
                          MemorySpace space = MemorySpace::kHost) {
    WorkRequest wr;
    wr.verb = Verb::kRead;
    wr.space = space;
    wr.remote = addr;
    wr.local_buf = dst;
    wr.length = len;
    return wr;
  }

  static WorkRequest Write(GlobalAddress addr, const void* src, uint32_t len,
                           MemorySpace space = MemorySpace::kHost) {
    WorkRequest wr;
    wr.verb = Verb::kWrite;
    wr.space = space;
    wr.remote = addr;
    wr.local_buf = const_cast<void*>(src);
    wr.length = len;
    return wr;
  }

  static WorkRequest Cas(GlobalAddress addr, uint64_t compare, uint64_t swap,
                         uint64_t* fetched,
                         MemorySpace space = MemorySpace::kHost) {
    WorkRequest wr;
    wr.verb = Verb::kCas;
    wr.space = space;
    wr.remote = addr;
    wr.compare = compare;
    wr.swap_or_add = swap;
    wr.fetched = fetched;
    wr.length = 8;
    return wr;
  }

  static WorkRequest MaskedCas(GlobalAddress addr, uint64_t compare,
                               uint64_t swap, uint64_t mask, uint64_t* fetched,
                               MemorySpace space = MemorySpace::kHost) {
    WorkRequest wr = Cas(addr, compare, swap, fetched, space);
    wr.verb = Verb::kMaskedCas;
    wr.mask = mask;
    return wr;
  }

  static WorkRequest Faa(GlobalAddress addr, uint64_t add, uint64_t* fetched,
                         MemorySpace space = MemorySpace::kHost) {
    WorkRequest wr;
    wr.verb = Verb::kFaa;
    wr.space = space;
    wr.remote = addr;
    wr.swap_or_add = add;
    wr.fetched = fetched;
    wr.length = 8;
    return wr;
  }
};

// Result of an RDMA operation (or a doorbell batch).
struct RdmaResult {
  Status status;
  // For kCas / kMaskedCas: whether the swap was performed.
  bool cas_success = false;
};

}  // namespace sherman::rdma

#endif  // SHERMAN_RDMA_VERBS_H_
