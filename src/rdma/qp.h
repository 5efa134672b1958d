// Qp: a reliable-connected queue pair between one compute server and one
// memory server.
//
// Two hardware properties that Sherman exploits are modeled explicitly:
//  - in-order delivery/execution of the WRs inside one doorbell batch
//    (command combination, §4.5), plus the NIC/PCIe rule that reads and
//    atomics never pass previously posted writes at the same MS (the
//    paper's §5.5.1) — together these give Sherman its ordering guarantees
//    without extra round trips;
//  - doorbell batching: PostBatch() posts a linked list of WRs in one call;
//    only the last WR is signaled, so the whole batch costs one completed
//    round trip.
//
// One Qp object serves all client threads of a CS toward one MS. In the
// real system each thread owns a QP; accordingly, independent batches are
// NOT ordered against each other.
#ifndef SHERMAN_RDMA_QP_H_
#define SHERMAN_RDMA_QP_H_

#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "rdma/config.h"
#include "rdma/verbs.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace sherman::rdma {

class ComputeServer;
class MemoryServer;

class Qp {
 public:
  // Counts into `registry` as rdma.*, summed over every QP of the fabric.
  Qp(ComputeServer* cs, MemoryServer* ms, sim::Simulator* sim,
     const FabricConfig* cfg, obs::Registry* registry);

  Qp(const Qp&) = delete;
  Qp& operator=(const Qp&) = delete;

  // Posts a single signaled work request; resumes when its completion entry
  // would be polled from the CQ.
  sim::Task<RdmaResult> Post(WorkRequest wr);

  // Posts a doorbell-batched list; WRs execute in order at the target NIC;
  // a single completion (for the last WR) ends the call. READ or atomic WRs
  // may only appear in the last position (earlier ones would need their own
  // response; Sherman never batches them).
  sim::Task<RdmaResult> PostBatch(std::vector<WorkRequest> wrs);

  // Posts a doorbell-batched list of INDEPENDENT READs (op pipelining):
  // one doorbell ring, request headers leave the TX engine back to back,
  // the target executes each READ as soon as its header arrives (no
  // intra-batch ordering dependency), and the response payloads stream
  // back in posting order. Only the last WR is signaled, so the whole
  // batch costs one completed round trip — the wire/DMA legs of all reads
  // overlap instead of paying a full RTT each.
  sim::Task<RdmaResult> PostReadBatch(std::vector<WorkRequest> wrs);

  // Two-sided RPC to the memory server's memory thread (§4.2.4). Returns the
  // handler's response word.
  sim::Task<uint64_t> Rpc(uint64_t opcode, uint64_t arg, uint64_t arg2 = 0);
  // Rpc, posted without waiting for its response: the request is on the
  // wire when this returns, and the memory thread serves it even if the
  // client dies next, as a posted WRITE lands. RPCs to one MS are served
  // FIFO, in post order.
  void PostRpc(uint64_t opcode, uint64_t arg, uint64_t arg2 = 0);

 private:
  // Payload bytes carried by the request / response message of a WR.
  static uint32_t RequestPayload(const WorkRequest& wr);
  static uint32_t ResponsePayload(const WorkRequest& wr);

  // Schedules the MS-side DMA of one READ (PCIe ordering vs prior posted
  // writes, in-flight-read registration) and returns its completion time.
  sim::SimTime ScheduleReadDma(const WorkRequest& wr, sim::SimTime exec_ready);

  ComputeServer* cs_;
  MemoryServer* ms_;
  sim::Simulator* sim_;
  const FabricConfig* cfg_;
  obs::Counter* batches_;  // doorbell rings == round trips
  obs::Counter* wrs_;      // individual work requests
  obs::Counter* reads_;
  obs::Counter* writes_;
  obs::Counter* atomics_;
  obs::Counter* read_bytes_;
  obs::Counter* write_bytes_;
  obs::Counter* rpcs_;
};

}  // namespace sherman::rdma

#endif  // SHERMAN_RDMA_QP_H_
