#include "rdma/compute_server.h"

#include "rdma/memory_server.h"
#include "rdma/qp.h"
#include "util/logging.h"

namespace sherman::rdma {

ComputeServer::ComputeServer(uint16_t id, sim::Simulator* sim,
                             const FabricConfig* cfg, obs::Registry* registry)
    : id_(id),
      sim_(sim),
      cfg_(cfg),
      registry_(registry),
      nic_(cfg, registry, "cs") {}

ComputeServer::~ComputeServer() = default;

void ComputeServer::ConnectQps(
    const std::vector<std::unique_ptr<MemoryServer>>& servers) {
  SHERMAN_CHECK(qps_.empty());
  qps_.reserve(servers.size());
  for (const auto& ms : servers) {
    qps_.push_back(std::make_unique<Qp>(this, ms.get(), sim_, cfg_, registry_));
  }
}

void ComputeServer::ConnectQp(MemoryServer& ms) {
  SHERMAN_CHECK(ms.id() == qps_.size());
  qps_.push_back(std::make_unique<Qp>(this, &ms, sim_, cfg_, registry_));
}

Qp& ComputeServer::qp(uint16_t ms_id) {
  SHERMAN_CHECK(ms_id < qps_.size());
  return *qps_[ms_id];
}

}  // namespace sherman::rdma
