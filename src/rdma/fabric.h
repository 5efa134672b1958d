// Fabric: owns the simulator, the memory servers, and the compute servers,
// and wires up QPs. This is the root object of the simulated disaggregated
// memory architecture (Figure 1 / Figure 5 of the paper).
#ifndef SHERMAN_RDMA_FABRIC_H_
#define SHERMAN_RDMA_FABRIC_H_

#include <memory>
#include <vector>

#include "obs/metrics.h"
#include "rdma/compute_server.h"
#include "rdma/config.h"
#include "rdma/memory_server.h"
#include "rdma/qp.h"
#include "sim/simulator.h"

namespace sherman::rdma {

class Fabric {
 public:
  explicit Fabric(FabricConfig cfg);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  sim::Simulator& simulator() { return sim_; }
  const FabricConfig& config() const { return cfg_; }

  // The deployment's one metrics registry (obs/metrics.h): the fabric's
  // QPs and NICs and every component built on top of them count into it.
  obs::Registry& registry() { return registry_; }

  int num_memory_servers() const { return static_cast<int>(memory_.size()); }
  int num_compute_servers() const { return static_cast<int>(compute_.size()); }

  MemoryServer& ms(int i) { return *memory_[i]; }
  ComputeServer& cs(int i) { return *compute_[i]; }

  // The QP from compute server `cs_id` to memory server `ms_id`.
  Qp& qp(int cs_id, int ms_id) { return cs(cs_id).qp(static_cast<uint16_t>(ms_id)); }

  // Elastic scale-out: brings one more memory server online. The MS is
  // constructed with the fabric's standard geometry, and every compute
  // server connects a fresh RC QP to it, so one-sided ops and RPCs can
  // target it immediately. Callers layer the rest of the bring-up on top
  // (chunk manager, RPC services, shard migration — see ShermanSystem::
  // AddMemoryServer and migrate/migrator.h). Returns the new server; its
  // id is the previous num_memory_servers().
  MemoryServer& AddMemoryServer();

  // Direct host-memory access for bulk loading and verification (bypasses
  // the timing model; never use from simulated clients).
  uint8_t* HostRaw(GlobalAddress addr) {
    return ms(addr.node).host().raw(addr.offset);
  }

 private:
  FabricConfig cfg_;
  obs::Registry registry_;
  sim::Simulator sim_;
  std::vector<std::unique_ptr<MemoryServer>> memory_;
  std::vector<std::unique_ptr<ComputeServer>> compute_;
};

}  // namespace sherman::rdma

#endif  // SHERMAN_RDMA_FABRIC_H_
