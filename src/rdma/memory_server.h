// MemoryServer: one disaggregated-memory node. Hosts high-volume DRAM, a
// NIC with 256 KB on-chip device memory, and a single wimpy "memory thread"
// that serves lightweight management RPCs (chunk allocation, §4.2.4).
#ifndef SHERMAN_RDMA_MEMORY_SERVER_H_
#define SHERMAN_RDMA_MEMORY_SERVER_H_

#include <cstdint>
#include <functional>

#include "obs/metrics.h"
#include "rdma/config.h"
#include "rdma/memory_region.h"
#include "rdma/nic.h"
#include "sim/simulator.h"

namespace sherman::rdma {

class MemoryServer {
 public:
  // Handler for memory-thread RPCs: (opcode, arg1, arg2, caller CS id) ->
  // response word. Runs at the simulated service-completion instant.
  using RpcHandler =
      std::function<uint64_t(uint64_t, uint64_t, uint64_t, uint16_t)>;

  // The NIC counts into `registry`.
  MemoryServer(uint16_t id, sim::Simulator* sim, const FabricConfig* cfg,
               obs::Registry* registry);

  MemoryServer(const MemoryServer&) = delete;
  MemoryServer& operator=(const MemoryServer&) = delete;

  uint16_t id() const { return id_; }
  MemoryRegion& host() { return host_; }
  MemoryRegion& device() { return device_; }
  Nic& nic() { return nic_; }
  sim::Simulator* simulator() { return sim_; }

  void set_rpc_handler(RpcHandler handler) { rpc_handler_ = std::move(handler); }
  const RpcHandler& rpc_handler() const { return rpc_handler_; }

  // Reserves the memory thread's FIFO queue for one RPC arriving at
  // `earliest`; returns the service completion time.
  sim::SimTime ReserveMemoryThread(sim::SimTime earliest);

  // Extends the memory thread's busy period by `extra` ns without counting
  // an RPC — used by handlers whose work exceeds one service slot (e.g. an
  // MS-side range scan walking several leaves).
  void ChargeMemoryThread(sim::SimTime extra) {
    if (mem_thread_free_ < sim_->now()) mem_thread_free_ = sim_->now();
    mem_thread_free_ += extra;
  }

  // Outstanding work queued on the memory thread as of `now` — the FIFO
  // depth signal (in ns of backlog) the adaptive router feeds on.
  sim::SimTime MemoryThreadBacklog(sim::SimTime now) const {
    return mem_thread_free_ > now ? mem_thread_free_ - now : 0;
  }

  // PCIe/NIC ordering (§5.5.1 of the paper: "a PCIe read transaction is
  // strictly ordered after prior PCIe write transactions"): DMA reads and
  // atomics issued by the NIC may not begin before previously issued
  // (posted) DMA writes have landed. The NIC tracks, per address space, the
  // landing time of the latest posted write.
  void NoteWriteApply(bool device_space, sim::SimTime apply_time) {
    sim::SimTime& t = last_write_apply_[device_space ? 1 : 0];
    if (apply_time > t) t = apply_time;
  }
  sim::SimTime LastWriteApply(bool device_space) const {
    return last_write_apply_[device_space ? 1 : 0];
  }

  uint64_t rpcs_served() const { return rpcs_served_; }

  // Installs `fn` as this MS's handler for opcodes in [lo, hi], forwarding
  // any other opcode to the previously installed handler (aborts if a
  // foreign opcode arrives with no previous handler). Lets several RPC
  // services (chunk manager, leaf-hint directory, TreeRpcService) share
  // one memory thread.
  void ChainRpcHandler(uint64_t lo, uint64_t hi, RpcHandler fn);

 private:
  uint16_t id_;
  sim::Simulator* sim_;
  const FabricConfig* cfg_;
  MemoryRegion host_;
  MemoryRegion device_;
  Nic nic_;
  RpcHandler rpc_handler_;
  sim::SimTime mem_thread_free_ = 0;
  sim::SimTime last_write_apply_[2] = {0, 0};  // [host, device]
  uint64_t rpcs_served_ = 0;
};

}  // namespace sherman::rdma

#endif  // SHERMAN_RDMA_MEMORY_SERVER_H_
