// ComputeServer: one compute node. Owns a NIC and one RC queue pair per
// memory server; client threads (coroutines) of this CS share these QPs.
#ifndef SHERMAN_RDMA_COMPUTE_SERVER_H_
#define SHERMAN_RDMA_COMPUTE_SERVER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/metrics.h"
#include "rdma/config.h"
#include "rdma/nic.h"
#include "sim/simulator.h"

namespace sherman::rdma {

class Qp;
class MemoryServer;

class ComputeServer {
 public:
  // The NIC and QPs count into `registry`.
  ComputeServer(uint16_t id, sim::Simulator* sim, const FabricConfig* cfg,
                obs::Registry* registry);
  ~ComputeServer();

  ComputeServer(const ComputeServer&) = delete;
  ComputeServer& operator=(const ComputeServer&) = delete;

  uint16_t id() const { return id_; }
  Nic& nic() { return nic_; }
  sim::Simulator* simulator() { return sim_; }

  // Connects one RC QP to each memory server. Called by Fabric.
  void ConnectQps(const std::vector<std::unique_ptr<MemoryServer>>& servers);

  // Connects a QP to one additional memory server (elastic scale-out).
  // The server's id must equal the current QP count so qp(ms_id) indexing
  // stays dense.
  void ConnectQp(MemoryServer& ms);

  // The QP connected to memory server `ms_id`.
  Qp& qp(uint16_t ms_id);

 private:
  uint16_t id_;
  sim::Simulator* sim_;
  const FabricConfig* cfg_;
  obs::Registry* registry_;
  Nic nic_;
  std::vector<std::unique_ptr<Qp>> qps_;
};

}  // namespace sherman::rdma

#endif  // SHERMAN_RDMA_COMPUTE_SERVER_H_
