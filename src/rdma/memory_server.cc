#include "rdma/memory_server.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace sherman::rdma {

void MemoryServer::ChainRpcHandler(uint64_t lo, uint64_t hi, RpcHandler fn) {
  RpcHandler prev = std::move(rpc_handler_);
  rpc_handler_ = [lo, hi, fn = std::move(fn), prev = std::move(prev)](
                     uint64_t opcode, uint64_t a, uint64_t b, uint16_t from) {
    if (opcode >= lo && opcode <= hi) return fn(opcode, a, b, from);
    SHERMAN_CHECK_MSG(prev != nullptr, "unknown RPC opcode %llu",
                      static_cast<unsigned long long>(opcode));
    return prev(opcode, a, b, from);
  };
}

MemoryServer::MemoryServer(uint16_t id, sim::Simulator* sim,
                           const FabricConfig* cfg, obs::Registry* registry)
    : id_(id),
      sim_(sim),
      cfg_(cfg),
      host_(cfg->ms_memory_bytes),
      device_(cfg->onchip_bytes),
      nic_(cfg, registry, "ms") {}

sim::SimTime MemoryServer::ReserveMemoryThread(sim::SimTime earliest) {
  const sim::SimTime start = std::max(earliest, mem_thread_free_);
  mem_thread_free_ = start + cfg_->rpc_service_ns;
  rpcs_served_++;
  return mem_thread_free_;
}

}  // namespace sherman::rdma
