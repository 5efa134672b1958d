// Nic: the timing model of one RDMA NIC.
//
// Three kinds of resources are modeled, each as a FIFO server with a
// "free-at" timestamp:
//  - a TX engine (outbound work requests / responses),
//  - an RX engine (inbound requests / completions),
//  - 4096 atomic buckets implementing the NIC-internal concurrency control
//    for RDMA atomics (§3.2.2): atomics whose destination addresses share
//    their 12 LSBs serialize; a host-memory atomic holds its bucket for two
//    PCIe transactions, while a device-memory (on-chip) atomic holds it for
//    ~9 ns — the root of the HOCL on-chip speedup.
//
// Message costs are max(per-message engine cost, bytes / link bandwidth),
// which yields the Figure 3 IOPS-vs-bandwidth knee.
#ifndef SHERMAN_RDMA_NIC_H_
#define SHERMAN_RDMA_NIC_H_

#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "rdma/config.h"
#include "sim/event_queue.h"

namespace sherman::rdma {

class Nic {
 public:
  // Counts into `registry` as nic.<side>.* ("ms" or "cs"): every NIC of a
  // side shares those names.
  Nic(const FabricConfig* cfg, obs::Registry* registry, const char* side);

  // Reserves the TX engine for a message with `payload_bytes` of payload,
  // requested at time `earliest`. Returns the time the message has fully
  // left the NIC.
  sim::SimTime ReserveTx(sim::SimTime earliest, uint32_t payload_bytes);

  // Same for the RX engine; returns the time the NIC has fully processed the
  // inbound message.
  sim::SimTime ReserveRx(sim::SimTime earliest, uint32_t payload_bytes);

  // Reserves the atomic bucket for `offset` starting no earlier than
  // `earliest`, holding it for `hold_ns`. Returns the hold start time.
  sim::SimTime ReserveAtomicBucket(uint64_t offset, sim::SimTime earliest,
                                   sim::SimTime hold_ns);

  // Wire occupancy of a message (headers + payload), for tests.
  sim::SimTime MessageCost(uint32_t payload_bytes, sim::SimTime per_msg) const;

 private:
  const FabricConfig* cfg_;
  sim::SimTime tx_free_ = 0;
  sim::SimTime rx_free_ = 0;
  std::vector<sim::SimTime> bucket_free_;
  obs::Counter* tx_msgs_;
  obs::Counter* rx_msgs_;
  obs::Counter* tx_bytes_;
  obs::Counter* rx_bytes_;
  obs::Counter* atomics_;
  obs::Counter* atomic_stall_ns_;  // time atomics waited on busy buckets
  obs::Counter* tx_stall_ns_;  // time messages queued behind a busy TX engine
  obs::Counter* rx_stall_ns_;  // same for the RX engine
};

}  // namespace sherman::rdma

#endif  // SHERMAN_RDMA_NIC_H_
