#include "rdma/fabric.h"

#include "util/logging.h"

namespace sherman::rdma {

Fabric::Fabric(FabricConfig cfg) : cfg_(cfg) {
  SHERMAN_CHECK(cfg_.num_memory_servers > 0);
  SHERMAN_CHECK(cfg_.num_compute_servers > 0);
  memory_.reserve(cfg_.num_memory_servers);
  for (int i = 0; i < cfg_.num_memory_servers; i++) {
    memory_.push_back(std::make_unique<MemoryServer>(
        static_cast<uint16_t>(i), &sim_, &cfg_, &registry_));
  }
  compute_.reserve(cfg_.num_compute_servers);
  for (int i = 0; i < cfg_.num_compute_servers; i++) {
    auto cs = std::make_unique<ComputeServer>(static_cast<uint16_t>(i), &sim_,
                                              &cfg_, &registry_);
    cs->ConnectQps(memory_);
    compute_.push_back(std::move(cs));
  }
}

MemoryServer& Fabric::AddMemoryServer() {
  const uint16_t id = static_cast<uint16_t>(memory_.size());
  memory_.push_back(
      std::make_unique<MemoryServer>(id, &sim_, &cfg_, &registry_));
  cfg_.num_memory_servers = static_cast<int>(memory_.size());
  for (auto& cs : compute_) cs->ConnectQp(*memory_.back());
  return *memory_.back();
}

}  // namespace sherman::rdma
