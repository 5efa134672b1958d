#include "rdma/nic.h"

#include <algorithm>
#include <string>

namespace sherman::rdma {

Nic::Nic(const FabricConfig* cfg, obs::Registry* registry, const char* side)
    : cfg_(cfg), bucket_free_(cfg->atomic_buckets(), 0) {
  const std::string p = std::string("nic.") + side + ".";
  tx_msgs_ = registry->GetCounter(p + "tx_msgs");
  rx_msgs_ = registry->GetCounter(p + "rx_msgs");
  tx_bytes_ = registry->GetCounter(p + "tx_bytes");
  rx_bytes_ = registry->GetCounter(p + "rx_bytes");
  atomics_ = registry->GetCounter(p + "atomics");
  atomic_stall_ns_ = registry->GetCounter(p + "atomic_stall_ns");
  tx_stall_ns_ = registry->GetCounter(p + "tx_stall_ns");
  rx_stall_ns_ = registry->GetCounter(p + "rx_stall_ns");
}

sim::SimTime Nic::MessageCost(uint32_t payload_bytes,
                              sim::SimTime per_msg) const {
  const double wire_bytes =
      static_cast<double>(payload_bytes) + cfg_->wire_header_bytes;
  const auto serialize =
      static_cast<sim::SimTime>(wire_bytes / cfg_->link_bytes_per_ns);
  return std::max(per_msg, serialize);
}

sim::SimTime Nic::ReserveTx(sim::SimTime earliest, uint32_t payload_bytes) {
  const sim::SimTime start = std::max(earliest, tx_free_);
  tx_free_ = start + MessageCost(payload_bytes, cfg_->nic_tx_ns);
  tx_msgs_->Inc();
  tx_bytes_->Inc(payload_bytes);
  tx_stall_ns_->Inc(start - earliest);
  return tx_free_;
}

sim::SimTime Nic::ReserveRx(sim::SimTime earliest, uint32_t payload_bytes) {
  const sim::SimTime start = std::max(earliest, rx_free_);
  rx_free_ = start + MessageCost(payload_bytes, cfg_->nic_rx_ns);
  rx_msgs_->Inc();
  rx_bytes_->Inc(payload_bytes);
  rx_stall_ns_->Inc(start - earliest);
  return rx_free_;
}

sim::SimTime Nic::ReserveAtomicBucket(uint64_t offset, sim::SimTime earliest,
                                      sim::SimTime hold_ns) {
  const uint64_t bucket = offset & (cfg_->atomic_buckets() - 1);
  sim::SimTime& free_at = bucket_free_[bucket];
  const sim::SimTime start = std::max(earliest, free_at);
  atomics_->Inc();
  atomic_stall_ns_->Inc(start - earliest);
  free_at = start + hold_ns;
  return start;
}

}  // namespace sherman::rdma
