#include "rdma/qp.h"

#include <algorithm>
#include <memory>

#include "fault/crash_point.h"
#include "rdma/compute_server.h"
#include "rdma/memory_server.h"
#include "sanitizer/dmsan.h"
#include "util/logging.h"

namespace sherman::rdma {

Qp::Qp(ComputeServer* cs, MemoryServer* ms, sim::Simulator* sim,
       const FabricConfig* cfg, obs::Registry* registry)
    : cs_(cs),
      ms_(ms),
      sim_(sim),
      cfg_(cfg),
      batches_(registry->GetCounter("rdma.batches")),
      wrs_(registry->GetCounter("rdma.wrs")),
      reads_(registry->GetCounter("rdma.reads")),
      writes_(registry->GetCounter("rdma.writes")),
      atomics_(registry->GetCounter("rdma.atomics")),
      read_bytes_(registry->GetCounter("rdma.read_bytes")),
      write_bytes_(registry->GetCounter("rdma.write_bytes")),
      rpcs_(registry->GetCounter("rdma.rpcs")) {}

uint32_t Qp::RequestPayload(const WorkRequest& wr) {
  switch (wr.verb) {
    case Verb::kWrite:
      return wr.length;
    case Verb::kRead:
      return 0;  // address/length ride in the header
    case Verb::kCas:
    case Verb::kMaskedCas:
      return 16;  // compare + swap operands
    case Verb::kFaa:
      return 8;
  }
  return 0;
}

uint32_t Qp::ResponsePayload(const WorkRequest& wr) {
  switch (wr.verb) {
    case Verb::kWrite:
      return 0;  // ack only
    case Verb::kRead:
      return wr.length;
    case Verb::kCas:
    case Verb::kMaskedCas:
    case Verb::kFaa:
      return 8;  // fetched value
  }
  return 0;
}

sim::Task<RdmaResult> Qp::Post(WorkRequest wr) {
  std::vector<WorkRequest> batch;
  batch.push_back(wr);
  co_return co_await PostBatch(std::move(batch));
}

sim::Task<RdmaResult> Qp::PostBatch(std::vector<WorkRequest> wrs) {
  // Crash-fault injection: a dead compute server issues nothing further —
  // any coroutine of a killed client freezes at its next doorbell.
  co_await fault::Injector().FreezeIfDead(cs_->id());
  SHERMAN_CHECK(!wrs.empty());
  batches_->Inc();
  wrs_->Inc(wrs.size());

  sim::Simulator* sim = sim_;
  const FabricConfig* cfg = cfg_;
  Nic& cs_nic = cs_->nic();
  Nic& ms_nic = ms_->nic();

  // Completion state lives in this coroutine frame. Every event scheduled
  // below fires no later than the completion event, and the frame is alive
  // until the completion resumes it, so plain pointers into the frame are
  // safe to capture.
  bool cas_success = false;

  sim::SimTime tx_prev = sim->now();
  sim::SimTime exec_done = sim->now();
  // In-order execution applies *within* a doorbell batch (its WRs are
  // dependent by construction, §4.5). Independent operations — in the real
  // system they ride distinct per-thread QPs — are ordered only by the
  // NIC/PCIe rules: reads and atomics never pass previously issued posted
  // writes (see MemoryServer::NoteWriteApply).
  sim::SimTime batch_prev_exec = 0;
  uint32_t last_resp_payload = 0;

  for (size_t i = 0; i < wrs.size(); i++) {
    WorkRequest& wr = wrs[i];
    const bool is_last = (i + 1 == wrs.size());
    SHERMAN_CHECK_MSG(is_last || wr.verb == Verb::kWrite,
                      "only WRITEs may precede the last WR in a batch");

    // DMSan observes every WR at post time: the simulator is single-
    // threaded, so post order IS the order protocol decisions were made in.
    if (dmsan::Active()) {
      if (dmsan::Checker* checker = dmsan::Find(sim)) {
        checker->OnWr(cs_->id(), wr);
      }
    }

    switch (wr.verb) {
      case Verb::kRead:
        reads_->Inc();
        read_bytes_->Inc(wr.length);
        break;
      case Verb::kWrite:
        writes_->Inc();
        write_bytes_->Inc(wr.length);
        break;
      default:
        atomics_->Inc();
        break;
    }

    // Request path: sender TX engine -> wire -> receiver RX engine.
    const uint32_t req_payload = RequestPayload(wr);
    const sim::SimTime tx_done = cs_nic.ReserveTx(tx_prev, req_payload);
    tx_prev = tx_done;
    const sim::SimTime arrive = tx_done + cfg->wire_latency_ns;
    const sim::SimTime rx_done = ms_nic.ReserveRx(arrive, req_payload);
    const sim::SimTime exec_ready = std::max(rx_done, batch_prev_exec);
    const bool device_space = wr.space == MemorySpace::kDevice;

    MemoryRegion& region =
        wr.space == MemorySpace::kHost ? ms_->host() : ms_->device();
    SHERMAN_CHECK_MSG(wr.remote.node == ms_->id(),
                      "WR for MS %u posted on QP to MS %u", wr.remote.node,
                      ms_->id());
    SHERMAN_CHECK(wr.remote.offset + wr.length <= region.size());

    switch (wr.verb) {
      case Verb::kWrite: {
        const sim::SimTime dma =
            wr.space == MemorySpace::kHost
                ? cfg->pcie_write_ns +
                      static_cast<sim::SimTime>(wr.length /
                                                cfg->pcie_bytes_per_ns)
                : cfg->onchip_access_ns;
        exec_done = exec_ready + dma;
        ms_->NoteWriteApply(device_space, exec_done);
        // Snapshot the payload now (the NIC DMAs it from the sender at post
        // time); apply it to remote memory at the execution instant.
        auto payload = std::make_shared<std::vector<uint8_t>>(
            static_cast<const uint8_t*>(wr.local_buf),
            static_cast<const uint8_t*>(wr.local_buf) + wr.length);
        const uint64_t off = wr.remote.offset;
        sim->At(exec_done, [&region, off, payload, sim] {
          region.Write(sim->now(), off, payload->data(),
                       static_cast<uint32_t>(payload->size()));
        });
        break;
      }
      case Verb::kRead: {
        exec_done = ScheduleReadDma(wr, exec_ready);
        break;
      }
      case Verb::kCas:
      case Verb::kMaskedCas:
      case Verb::kFaa: {
        // NIC-internal concurrency control (§3.2.2): the atomic holds its
        // bucket for the full read(+write-back) PCIe time in host memory, or
        // a few ns in on-chip memory.
        const bool on_host = wr.space == MemorySpace::kHost;
        const sim::SimTime hold = on_host
                                      ? cfg->pcie_read_ns + cfg->pcie_write_ns
                                      : cfg->onchip_access_ns;
        // Atomics read host memory too: ordered after prior posted writes.
        const sim::SimTime earliest =
            std::max(exec_ready, ms_->LastWriteApply(device_space));
        const sim::SimTime start =
            ms_nic.ReserveAtomicBucket(wr.remote.offset, earliest, hold);
        exec_done = start + hold;
        // Unlike plain writes, an atomic queued on its bucket has not yet
        // issued its PCIe write, so later reads may pass it — no
        // NoteWriteApply here.
        // The value is observed once the PCIe read returns.
        const sim::SimTime rmw_at = on_host ? start + cfg->pcie_read_ns : start;
        const WorkRequest w = wr;  // by value: wrs dies with the frame, but
                                   // events run before completion anyway
        bool* cas_flag = &cas_success;
        sim->At(rmw_at, [&region, w, cas_flag, sim] {
          const uint64_t old = region.Read64(w.remote.offset);
          if (w.fetched != nullptr) *w.fetched = old;
          switch (w.verb) {
            case Verb::kCas:
              if (old == w.compare) {
                region.Write64(sim->now(), w.remote.offset, w.swap_or_add);
                *cas_flag = true;
              }
              break;
            case Verb::kMaskedCas:
              if ((old & w.mask) == (w.compare & w.mask)) {
                const uint64_t next =
                    (old & ~w.mask) | (w.swap_or_add & w.mask);
                region.Write64(sim->now(), w.remote.offset, next);
                *cas_flag = true;
              }
              break;
            case Verb::kFaa:
              region.Write64(sim->now(), w.remote.offset, old + w.swap_or_add);
              break;
            default:
              break;
          }
        });
        break;
      }
    }
    batch_prev_exec = exec_done;
    if (is_last) last_resp_payload = ResponsePayload(wr);
  }

  // Response / completion path for the (only) signaled WR.
  const sim::SimTime resp_tx_done = ms_nic.ReserveTx(exec_done, last_resp_payload);
  const sim::SimTime resp_arrive = resp_tx_done + cfg->wire_latency_ns;
  const sim::SimTime resp_done = cs_nic.ReserveRx(resp_arrive, last_resp_payload);
  const sim::SimTime completion = resp_done + cfg->cq_poll_ns;

  sim::OneShot done;
  sim->At(completion, [&done] { done.Fire(); });
  co_await done;

  RdmaResult result;
  result.status = Status::OK();
  result.cas_success = cas_success;
  co_return result;
}

sim::SimTime Qp::ScheduleReadDma(const WorkRequest& wr,
                                 sim::SimTime exec_ready) {
  sim::Simulator* sim = sim_;
  const FabricConfig* cfg = cfg_;
  const bool device_space = wr.space == MemorySpace::kDevice;
  MemoryRegion& region = device_space ? ms_->device() : ms_->host();

  const sim::SimTime dma =
      wr.space == MemorySpace::kHost
          ? cfg->pcie_read_ns + static_cast<sim::SimTime>(
                                    wr.length / cfg->pcie_bytes_per_ns)
          : cfg->onchip_access_ns;
  // PCIe ordering: the read may not pass previously posted writes.
  const sim::SimTime dma_start =
      std::max(exec_ready, ms_->LastWriteApply(device_space));
  const sim::SimTime exec_done = dma_start + dma;
  // The DMA occupies [dma_start, exec_done): register an in-flight
  // read so concurrent writes patch only the unread suffix.
  auto handle = std::make_shared<uint64_t>(0);
  uint8_t* dst = static_cast<uint8_t*>(wr.local_buf);
  const uint64_t off = wr.remote.offset;
  const uint32_t len = wr.length;
  const sim::SimTime start = dma_start;
  const sim::SimTime end = exec_done;
  sim->At(start, [&region, handle, off, len, dst, start, end] {
    *handle = region.BeginRead(off, len, dst, start, end);
  });
  sim->At(end, [&region, handle] { region.EndRead(*handle); });
  return exec_done;
}

sim::Task<RdmaResult> Qp::PostReadBatch(std::vector<WorkRequest> wrs) {
  co_await fault::Injector().FreezeIfDead(cs_->id());
  SHERMAN_CHECK(!wrs.empty());
  batches_->Inc();
  wrs_->Inc(wrs.size());

  sim::Simulator* sim = sim_;
  const FabricConfig* cfg = cfg_;
  Nic& cs_nic = cs_->nic();
  Nic& ms_nic = ms_->nic();

  // Request headers ride the TX engine back to back (one doorbell); each
  // READ's DMA starts as soon as its own header clears the target RX —
  // unlike PostBatch there is no execute-after-predecessor chain, the
  // reads are independent by contract.
  sim::SimTime tx_prev = sim->now();
  sim::SimTime resp_prev = 0;
  sim::SimTime last_resp_done = 0;
  for (const WorkRequest& wr : wrs) {
    SHERMAN_CHECK_MSG(wr.verb == Verb::kRead,
                      "PostReadBatch accepts only READs");
    SHERMAN_CHECK_MSG(wr.remote.node == ms_->id(),
                      "WR for MS %u posted on QP to MS %u", wr.remote.node,
                      ms_->id());
    reads_->Inc();
    read_bytes_->Inc(wr.length);
    MemoryRegion& region =
        wr.space == MemorySpace::kHost ? ms_->host() : ms_->device();
    SHERMAN_CHECK(wr.remote.offset + wr.length <= region.size());
    if (dmsan::Active()) {
      if (dmsan::Checker* checker = dmsan::Find(sim)) {
        checker->OnWr(cs_->id(), wr);
      }
    }

    const sim::SimTime tx_done = cs_nic.ReserveTx(tx_prev, RequestPayload(wr));
    tx_prev = tx_done;
    const sim::SimTime arrive = tx_done + cfg->wire_latency_ns;
    const sim::SimTime rx_done = ms_nic.ReserveRx(arrive, RequestPayload(wr));
    const sim::SimTime exec_done = ScheduleReadDma(wr, rx_done);

    // Responses return in posting order on the RC channel.
    const sim::SimTime resp_ready = std::max(exec_done, resp_prev);
    const sim::SimTime resp_tx =
        ms_nic.ReserveTx(resp_ready, ResponsePayload(wr));
    resp_prev = resp_tx;
    const sim::SimTime resp_arrive = resp_tx + cfg->wire_latency_ns;
    last_resp_done = cs_nic.ReserveRx(resp_arrive, ResponsePayload(wr));
  }

  // One completion, polled after the last response lands.
  const sim::SimTime completion = last_resp_done + cfg->cq_poll_ns;
  sim::OneShot done;
  sim->At(completion, [&done] { done.Fire(); });
  co_await done;

  RdmaResult result;
  result.status = Status::OK();
  co_return result;
}

sim::Task<uint64_t> Qp::Rpc(uint64_t opcode, uint64_t arg, uint64_t arg2) {
  co_await fault::Injector().FreezeIfDead(cs_->id());
  rpcs_->Inc();
  sim::Simulator* sim = sim_;
  const FabricConfig* cfg = cfg_;
  constexpr uint32_t kRpcBytes = 32;

  // Request: SEND to the MS.
  const sim::SimTime tx_done = cs_->nic().ReserveTx(sim->now(), kRpcBytes);
  const sim::SimTime arrive = tx_done + cfg->wire_latency_ns;
  const sim::SimTime rx_done = ms_->nic().ReserveRx(arrive, kRpcBytes);

  // The memory thread serves requests FIFO with a fixed service time.
  const sim::SimTime svc_done = ms_->ReserveMemoryThread(rx_done);
  uint64_t response = 0;
  MemoryServer* ms = ms_;
  ComputeServer* cs = cs_;
  const uint16_t from = cs_->id();
  sim::OneShot done;

  // The response's NIC/wire legs are reserved at service-completion time,
  // not issue time: the NIC FIFO clocks advance in reservation order, so
  // reserving the TX engine for a far-future svc_done (a deep memory-thread
  // queue) would stall every later message on this MS — including one-sided
  // READ responses — behind a slot that is not actually occupied yet.
  sim->At(svc_done, [ms, cs, cfg, sim, opcode, arg, arg2, from, &response,
                     &done] {
    SHERMAN_CHECK_MSG(ms->rpc_handler() != nullptr,
                      "RPC to MS %u with no handler installed", ms->id());
    response = ms->rpc_handler()(opcode, arg, arg2, from);

    // Response: SEND back to the CS.
    const sim::SimTime resp_tx = ms->nic().ReserveTx(sim->now(), kRpcBytes);
    const sim::SimTime resp_arrive = resp_tx + cfg->wire_latency_ns;
    const sim::SimTime resp_done = cs->nic().ReserveRx(resp_arrive, kRpcBytes);
    sim->At(resp_done + cfg->cq_poll_ns, [&done] { done.Fire(); });
  });
  co_await done;
  co_return response;
}

void Qp::PostRpc(uint64_t opcode, uint64_t arg, uint64_t arg2) {
  sim::Spawn([](Qp* qp, uint64_t op, uint64_t a, uint64_t b)
                 -> sim::Task<void> { co_await qp->Rpc(op, a, b); }(
      this, opcode, arg, arg2));
}

}  // namespace sherman::rdma
