#include "route/router.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.h"

namespace sherman::route {

namespace {
// Evict an admitted shard when its os_cost falls below this margin times
// its rpc_cost at the final planned load.
constexpr double kPruneMargin = 1.05;
// Max planned memory-thread utilization of any MS.
constexpr double kRpcUtilCap = 0.60;
// Closed-loop clients arrive in bursts, not as a smooth Poisson stream;
// scale the util/(1-util) queueing term accordingly.
constexpr double kQueueBurst = 2.0;
// An offloaded shard's measured one-sided cost goes stale (it only runs
// RPC); every kProbeEpochs epochs it runs one epoch one-sided to refresh
// the signal. Warmup-cold costs otherwise pin shards to RPC after the
// caches warm.
constexpr uint64_t kProbeEpochs = 4;
constexpr double kEwmaAlpha = 0.5;        // window smoothing
constexpr double kColdMissDefault = 0.7;  // miss ratio with no cache signal
}  // namespace

RouterModel ModelFromFabric(const rdma::FabricConfig& cfg,
                            bool cache_enabled) {
  RouterModel m;
  // A small one-sided READ: wire both ways, NIC processing, the PCIe DMA
  // read at the MS, and the sender's CQ poll (~1.8 us at defaults).
  m.rtt_ns = 2.0 * cfg.wire_latency_ns + cfg.nic_tx_ns + cfg.nic_rx_ns +
             cfg.pcie_read_ns + cfg.cq_poll_ns;
  // An RPC minus its service slot: wire both ways, NIC, CQ poll.
  m.rpc_wire_ns = 2.0 * cfg.wire_latency_ns + cfg.nic_tx_ns + cfg.nic_rx_ns +
                  cfg.cq_poll_ns;
  m.rpc_service_ns = static_cast<double>(cfg.rpc_service_ns);
  m.cache_enabled = cache_enabled;
  m.num_ms = cfg.num_memory_servers;
  m.cpu_op_ns = static_cast<double>(cfg.cpu_op_overhead_ns);
  m.cpu_search_ns = static_cast<double>(cfg.cpu_node_search_ns);
  m.cpu_leaf_ns = static_cast<double>(cfg.cpu_leaf_scan_ns);
  return m;
}

double EstimateOneSidedNs(const ShardEstimate& e, const RouterModel& m) {
  const double miss = m.cache_enabled ? e.miss_ratio : 1.0;
  // Round trips added per cache miss. With the index cache enabled, the
  // upper levels (type-2) are always resident, so a level-1 miss costs one
  // extra internal READ; with no cache at all, a lookup walks the full
  // descent.
  const double extra_levels =
      m.cache_enabled ? 1.0 : std::max(0.0, m.tree_height - 1.0);
  const double read_rtts = 1.0 + miss * extra_levels;
  // Writes: lock CAS + leaf read + combined write-back/release, plus one
  // round trip per failed CAS, minus what handover saves (no CAS and no
  // release round trip for handed-over acquisitions).
  double write_rtts = 3.0 + miss * extra_levels + e.cas_fails_per_write -
                      1.5 * e.handover_rate;
  write_rtts = std::max(write_rtts, 1.5);
  const double rtts =
      (1.0 - e.write_frac) * read_rtts + e.write_frac * write_rtts;
  // Local CPU: fixed overhead, a leaf scan, and a binary search per
  // internal level actually walked.
  const double cpu = m.cpu_op_ns + m.cpu_leaf_ns +
                     m.cpu_search_ns * (1.0 + miss * extra_levels);
  return rtts * m.rtt_ns + cpu;
}

double EstimateRpcNs(double planned_busy_ns, double epoch_ns,
                     const RouterModel& m) {
  const double util =
      epoch_ns <= 0 ? 0.0 : std::min(planned_busy_ns / epoch_ns, 0.95);
  const double queue_ns =
      kQueueBurst * m.rpc_service_ns * util / (1.0 - util);
  return m.rpc_wire_ns + m.rpc_service_ns + queue_ns + m.cpu_op_ns;
}

std::vector<Path> PlanAssignment(const std::vector<ShardEstimate>& shards,
                                 const std::vector<Path>& prev,
                                 const std::vector<double>& ms_backlog_ns,
                                 const RouterModel& model,
                                 const RouterOptions& opt,
                                 const std::vector<uint16_t>& homes) {
  const int n = static_cast<int>(shards.size());
  SHERMAN_CHECK(static_cast<int>(prev.size()) == n);
  SHERMAN_CHECK(homes.empty() || static_cast<int>(homes.size()) == n);
  const auto home_of = [&](int s) {
    return homes.empty() ? s % model.num_ms : static_cast<int>(homes[s]);
  };

  if (opt.policy == RouterOptions::Policy::kAllOneSided) {
    return std::vector<Path>(n, Path::kOneSided);
  }
  if (opt.policy == RouterOptions::Policy::kAllRpc) {
    return std::vector<Path>(n, Path::kRpc);
  }

  std::vector<Path> next(n, Path::kOneSided);
  std::vector<double> busy(ms_backlog_ns);
  size_t num_targets = static_cast<size_t>(model.num_ms);
  for (int s = 0; s < n; s++) {
    num_targets = std::max(num_targets, static_cast<size_t>(home_of(s)) + 1);
  }
  busy.resize(num_targets, 0.0);
  const double epoch_ns = static_cast<double>(opt.epoch_ns);

  // Consider the best per-op savings first, so the cheap queue headroom
  // goes to the shards that gain the most from offload.
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  // Prefer each shard's measured one-sided latency (it already folds in
  // cache locality, lock retries, and restarts); the model covers shards
  // with no recent one-sided traffic.
  std::vector<double> os_cost(n);
  for (int s = 0; s < n; s++) {
    os_cost[s] = shards[s].os_ns > 0 ? shards[s].os_ns
                                     : EstimateOneSidedNs(shards[s], model);
  }
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return os_cost[a] > os_cost[b];
  });

  for (const int s : order) {
    const ShardEstimate& e = shards[s];
    // No traffic, no information: keep the previous path (free either way).
    if (!e.warm || e.ops <= 0) {
      next[s] = prev[s];
      continue;
    }
    const int home = home_of(s);
    const double shard_busy_ns = e.ops * model.rpc_service_ns;
    const double util_after = (busy[home] + shard_busy_ns) / epoch_ns;
    if (util_after > kRpcUtilCap) continue;  // stays one-sided

    // Price the RPC path at the midpoint of this shard's own load.
    const double rpc_cost =
        EstimateRpcNs(busy[home] + shard_busy_ns / 2.0, epoch_ns, model);
    const double threshold =
        prev[s] == Path::kRpc ? kReturnMargin : kOffloadMargin;
    if (os_cost[s] > threshold * rpc_cost) {
      next[s] = Path::kRpc;
      busy[home] += shard_busy_ns;
    }
  }

  // Prune pass: greedy admission priced each shard at the load seen when
  // it was added, but every later admission to the same MS queues behind
  // it too. Re-price at the final planned load and evict the weakest
  // offloads until the remaining set is profitable end-to-end.
  for (int iter = 0; iter < n; iter++) {
    int worst = -1;
    double worst_ratio = 0;
    for (int s = 0; s < n; s++) {
      if (next[s] != Path::kRpc || !shards[s].warm || shards[s].ops <= 0) {
        continue;
      }
      const double rpc_cost = EstimateRpcNs(busy[home_of(s)], epoch_ns, model);
      // A smaller margin than admission: the shard already cleared the
      // offload bar at its own inclusion point; evict only if the final
      // load erases (nearly) all of the predicted benefit.
      const double threshold =
          prev[s] == Path::kRpc ? kReturnMargin : kPruneMargin;
      const double ratio = os_cost[s] / (threshold * rpc_cost);
      if (ratio < 1.0 && (worst == -1 || ratio < worst_ratio)) {
        worst = s;
        worst_ratio = ratio;
      }
    }
    if (worst == -1) break;
    next[worst] = Path::kOneSided;
    busy[home_of(worst)] -= shards[worst].ops * model.rpc_service_ns;
  }
  return next;
}

// --- AdaptiveRouter --------------------------------------------------------

AdaptiveRouter::AdaptiveRouter(RouterOptions options, RouterModel model,
                               HotnessTracker* tracker, rdma::Fabric* fabric)
    : options_(options),
      model_(model),
      tracker_(tracker),
      fabric_(fabric),
      assignment_(options.num_shards,
                  options.policy == RouterOptions::Policy::kAllRpc
                      ? Path::kRpc
                      : Path::kOneSided),
      smoothed_(options.num_shards),
      last_os_epoch_(options.num_shards, 0),
      epochs_(fabric->registry().GetCounter("route.epochs")),
      flips_(fabric->registry().GetCounter("route.shard_flips")) {
  SHERMAN_CHECK(options_.num_shards > 0);
  SHERMAN_CHECK(tracker_->num_shards() == options_.num_shards);
  for (ShardEstimate& e : smoothed_) {
    e.miss_ratio = kColdMissDefault;
  }
}

int AdaptiveRouter::ShardFor(Key key) const {
  // With one shard there is nothing to partition.
  if (options_.num_shards == 1) return 0;
  SHERMAN_CHECK_MSG(!boundaries_.empty(),
                    "router shards not cut (bulk load first)");
  return static_cast<int>(
      std::upper_bound(boundaries_.begin(), boundaries_.end(), key) -
      boundaries_.begin());
}

std::pair<Key, Key> AdaptiveRouter::ShardBounds(int shard) const {
  SHERMAN_CHECK(shard >= 0 && shard < options_.num_shards);
  const int n = options_.num_shards;
  if (n == 1) return {1, kMaxKey};
  SHERMAN_CHECK_MSG(!boundaries_.empty(),
                    "router shards not cut (bulk load first)");
  const Key lo = shard == 0 ? 1 : boundaries_[shard - 1];
  const Key hi = shard == n - 1 ? kMaxKey : boundaries_[shard];
  return {lo, hi};
}

void AdaptiveRouter::SetBoundaries(std::vector<Key> cuts) {
  SHERMAN_CHECK(static_cast<int>(cuts.size()) == options_.num_shards - 1);
  SHERMAN_CHECK(std::is_sorted(cuts.begin(), cuts.end()));
  boundaries_ = std::move(cuts);
}

void AdaptiveRouter::Start() {
  if (running_) return;
  running_ = true;
  // The generation token invalidates any tick still pending from a
  // previous Start/Stop cycle, so re-starting within an epoch cannot
  // create two concurrent timer chains.
  const uint64_t gen = ++timer_gen_;
  fabric_->simulator().After(options_.epoch_ns, [this, gen] { Tick(gen); });
}

void AdaptiveRouter::Tick(uint64_t gen) {
  if (!running_ || gen != timer_gen_) return;
  EndEpochNow();
  fabric_->simulator().After(options_.epoch_ns, [this, gen] { Tick(gen); });
}

void AdaptiveRouter::EndEpochNow() {
  const std::vector<ShardWindow> window = tracker_->TakeWindow();
  const double a = kEwmaAlpha;
  uint64_t window_ops = 0;
  uint64_t window_rpc = 0;

  for (int s = 0; s < options_.num_shards; s++) {
    const ShardWindow& w = window[s];
    ShardEstimate& e = smoothed_[s];
    window_ops += w.ops;
    window_rpc += w.ops_rpc;
    if (w.ops == 0) {
      e.ops *= (1.0 - a);  // decay toward cold
      continue;
    }
    const double ops = static_cast<double>(w.ops);
    e.ops = e.warm ? (1.0 - a) * e.ops + a * ops : ops;
    const double wf = static_cast<double>(w.writes) / ops;
    e.write_frac = e.warm ? (1.0 - a) * e.write_frac + a * wf : wf;
    const uint64_t probes = w.cache_hits + w.cache_misses;
    if (probes > 0) {  // only one-sided ops probe the cache
      const double miss = static_cast<double>(w.cache_misses) / probes;
      e.miss_ratio = (1.0 - a) * e.miss_ratio + a * miss;
    }
    if (w.writes > 0) {
      const double writes = static_cast<double>(w.writes);
      const double casf = static_cast<double>(w.lock_retries) / writes;
      const double ho = static_cast<double>(w.handovers) / writes;
      e.cas_fails_per_write =
          e.warm ? (1.0 - a) * e.cas_fails_per_write + a * casf : casf;
      e.handover_rate = e.warm ? (1.0 - a) * e.handover_rate + a * ho : ho;
    }
    const uint64_t os_ops = w.ops - w.ops_rpc;
    if (os_ops > 0) {
      const double measured = static_cast<double>(w.lat_one_sided_ns) /
                              static_cast<double>(os_ops);
      e.os_ns = e.os_ns > 0 ? (1.0 - a) * e.os_ns + a * measured : measured;
    }
    e.warm = true;
  }

  // The queue-depth signal: each memory thread's outstanding FIFO work.
  // Sized by the fabric's CURRENT server count — elastic scale-out can have
  // grown it past the founding model_.num_ms.
  const int num_ms = fabric_->num_memory_servers();
  std::vector<double> backlog(num_ms, 0.0);
  const sim::SimTime now = fabric_->simulator().now();
  double max_backlog = 0;
  for (int m = 0; m < num_ms; m++) {
    backlog[m] =
        static_cast<double>(fabric_->ms(m).MemoryThreadBacklog(now));
    max_backlog = std::max(max_backlog, backlog[m]);
  }

  std::vector<uint16_t> homes(options_.num_shards);
  for (int s = 0; s < options_.num_shards; s++) homes[s] = HomeMsFor(s);
  std::vector<Path> next = PlanAssignment(smoothed_, assignment_, backlog,
                                          model_, options_, homes);

  // Probing: an offloaded shard's one-sided cost estimate only refreshes
  // while it runs one-sided. Periodically send a long-offloaded shard back
  // for one epoch so a stale (e.g. warmup-cold) measurement cannot pin it
  // to RPC forever.
  const uint64_t epoch = epochs_->value() + 1;  // the epoch ending here
  for (int s = 0; s < options_.num_shards; s++) {
    const ShardWindow& w = window[s];
    if (w.ops > w.ops_rpc) last_os_epoch_[s] = epoch;
    if (options_.policy == RouterOptions::Policy::kAdaptive &&
        next[s] == Path::kRpc && epoch - last_os_epoch_[s] >= kProbeEpochs) {
      next[s] = Path::kOneSided;
    }
  }

  epochs_->Inc();
  EpochRecord rec;
  rec.epoch = epoch;
  rec.at_ns = now;
  for (int s = 0; s < options_.num_shards; s++) {
    if (next[s] != assignment_[s]) rec.flips++;
    if (next[s] == Path::kRpc) {
      rec.shards_rpc++;
    } else {
      rec.shards_one_sided++;
    }
  }
  flips_->Inc(static_cast<uint64_t>(rec.flips));
  rec.window_rpc_share =
      window_ops == 0 ? 0.0
                      : static_cast<double>(window_rpc) / window_ops;
  rec.max_ms_backlog_us = max_backlog / 1000.0;
  epoch_log_.push_back(rec);

  assignment_ = next;
}

void AdaptiveRouter::ForceAssignment(std::vector<Path> a) {
  SHERMAN_CHECK(static_cast<int>(a.size()) == options_.num_shards);
  assignment_ = std::move(a);
}

}  // namespace sherman::route
