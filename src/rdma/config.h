// Calibration constants for the simulated RDMA fabric. Defaults model the
// paper's testbed: 100 Gbps Mellanox ConnectX-5 NICs, ~2 us small-message
// round trips, 256 KB NIC on-chip (device) memory, and the NIC-internal
// atomic bucket scheme described in §3.2.2.
#ifndef SHERMAN_RDMA_CONFIG_H_
#define SHERMAN_RDMA_CONFIG_H_

#include <cstdint>

#include "sim/event_queue.h"

namespace sherman::rdma {

struct FabricConfig {
  // Topology.
  int num_memory_servers = 8;
  int num_compute_servers = 8;
  // Host DRAM per memory server. The paper gives each MS 64 GB; we default
  // to 64 MB because the scaled dataset (4M keys at full size against the
  // paper's 1 billion; see bench/common.h) fits comfortably.
  uint64_t ms_memory_bytes = 64ull << 20;
  // NIC on-chip device memory per MS (ConnectX-5 exposes 256 KB).
  uint64_t onchip_bytes = 256 << 10;

  // --- Latency model (nanoseconds) ---
  // One-way propagation including the switch. 2 * 600 + NIC + PCIe lands a
  // small READ at ~1.8 us, matching the paper's "<= 2 us".
  sim::SimTime wire_latency_ns = 600;
  // Per-work-request NIC processing cost. 1/13 ns ~= 75 Mops outbound,
  // 1/10 ns ~= 100 Mops inbound; Figure 3 shows inbound > outbound.
  sim::SimTime nic_tx_ns = 13;
  sim::SimTime nic_rx_ns = 10;
  // Link bandwidth in bytes/ns (100 Gbps = 12.5 GB/s). The knee of Figure 3
  // (IOPS-bound below ~128-256 B, bandwidth-bound above) falls out of
  // max(per-message cost, bytes / bandwidth).
  double link_bytes_per_ns = 12.5;
  // Per-message wire overhead (transport headers), counted against bandwidth.
  uint32_t wire_header_bytes = 24;

  // PCIe DMA between the MS NIC and host DRAM.
  sim::SimTime pcie_read_ns = 500;    // latency of a DMA read transaction
  sim::SimTime pcie_write_ns = 400;   // latency of a posted DMA write
  double pcie_bytes_per_ns = 16.0;    // PCIe x16 payload bandwidth

  // NIC on-chip (device) memory access: no PCIe involved (§4.3); 9 ns per
  // atomic yields the ~110 Mops RDMA_CAS the paper measures on-chip.
  sim::SimTime onchip_access_ns = 9;

  // NIC-internal concurrency control for atomics (§3.2.2): commands whose
  // destination addresses share their 12 LSBs serialize on one of 4096
  // buckets; a host-memory atomic holds its bucket for two PCIe transactions.
  int atomic_bucket_bits = 12;

  // Completion-queue polling overhead at the sender after the response lands.
  sim::SimTime cq_poll_ns = 50;

  // The MS "memory thread" (1-2 wimpy cores, §2.1): FIFO service time per
  // allocation RPC.
  sim::SimTime rpc_service_ns = 3000;

  // --- Client-side simulated CPU costs (charged by upper layers) ---
  sim::SimTime cpu_cache_lookup_ns = 150;   // index-cache probe
  sim::SimTime cpu_node_search_ns = 200;    // binary search in a node
  sim::SimTime cpu_leaf_scan_ns = 300;      // full scan of an unsorted leaf
  sim::SimTime cpu_node_sort_ns = 1000;     // sorting a leaf before split
  sim::SimTime cpu_op_overhead_ns = 100;    // fixed per-operation cost

  int atomic_buckets() const { return 1 << atomic_bucket_bits; }
};

}  // namespace sherman::rdma

#endif  // SHERMAN_RDMA_CONFIG_H_
