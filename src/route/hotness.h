// HotnessTracker: per-logical-shard traffic and contention signals for the
// adaptive router.
//
// Every operation the HybridClient completes is folded into the shard's
// current epoch window: op/write counts plus the contention signals the
// simulator already produces elsewhere — HOCL lock CAS failures and
// handovers (OpStats), index-cache hits/misses (OpStats), and MS-side
// declines. The router drains the window at each epoch boundary
// (TakeWindow) and combines it with the MS memory-thread FIFO backlog to
// re-plan the shard assignment.
#ifndef SHERMAN_ROUTE_HOTNESS_H_
#define SHERMAN_ROUTE_HOTNESS_H_

#include <cstdint>
#include <vector>

#include "core/stats.h"
#include "obs/metrics.h"

namespace sherman::route {

enum class Path : uint8_t { kOneSided = 0, kRpc = 1 };

// Raw counters for one shard over one epoch window.
struct ShardWindow {
  uint64_t ops = 0;
  uint64_t writes = 0;        // inserts + deletes
  uint64_t ops_rpc = 0;       // ops served by the RPC path
  uint64_t cache_hits = 0;    // index-cache probes (one-sided ops only)
  uint64_t cache_misses = 0;
  uint64_t lock_retries = 0;  // failed global lock CAS attempts
  uint64_t handovers = 0;     // locks obtained via HOCL handover
  uint64_t rpc_fallbacks = 0; // MS declined, op re-ran one-sided
  uint64_t lat_one_sided_ns = 0;  // summed latency by serving path
  uint64_t lat_rpc_ns = 0;
};

class HotnessTracker {
 public:
  // Counts the cumulative path split into `registry` as route.*.
  HotnessTracker(int num_shards, obs::Registry* registry)
      : window_(num_shards),
        ops_one_sided_(registry->GetCounter("route.ops_one_sided")),
        ops_rpc_(registry->GetCounter("route.ops_rpc")),
        rpc_fallbacks_(registry->GetCounter("route.rpc_fallbacks")),
        lat_one_sided_ns_(registry->GetCounter("route.lat_one_sided_ns")),
        lat_rpc_ns_(registry->GetCounter("route.lat_rpc_ns")) {}

  HotnessTracker(const HotnessTracker&) = delete;
  HotnessTracker& operator=(const HotnessTracker&) = delete;

  int num_shards() const { return static_cast<int>(window_.size()); }

  // Folds one finished operation into its shard. `served` is the path
  // that actually completed the op — a declined RPC attempt retried
  // one-sided is a one-sided op (its latency includes the wasted RPC
  // round trip, the true cost of routing it to a shard that declined).
  void Record(int shard, Path served, bool is_write, const OpStats& op,
              bool rpc_fallback, uint64_t latency_ns) {
    ShardWindow& w = window_[shard];
    w.ops++;
    if (is_write) w.writes++;
    w.cache_hits += op.cache_hits;
    w.cache_misses += op.cache_misses;
    w.lock_retries += op.lock_retries;
    if (op.used_handover) w.handovers++;
    if (rpc_fallback) {
      w.rpc_fallbacks++;
      rpc_fallbacks_->Inc();
    }
    if (served == Path::kRpc) {
      w.ops_rpc++;
      w.lat_rpc_ns += latency_ns;
      ops_rpc_->Inc();
      lat_rpc_ns_->Inc(latency_ns);
    } else {
      w.lat_one_sided_ns += latency_ns;
      ops_one_sided_->Inc();
      lat_one_sided_ns_->Inc(latency_ns);
    }
  }

  // Returns the current window and resets it (epoch boundary).
  std::vector<ShardWindow> TakeWindow() {
    std::vector<ShardWindow> out(window_.size());
    out.swap(window_);
    return out;
  }

 private:
  std::vector<ShardWindow> window_;
  obs::Counter* ops_one_sided_;
  obs::Counter* ops_rpc_;
  obs::Counter* rpc_fallbacks_;  // MS declined, op re-ran one-sided
  obs::Counter* lat_one_sided_ns_;  // summed per-op latency by serving path
  obs::Counter* lat_rpc_ns_;
};

}  // namespace sherman::route

#endif  // SHERMAN_ROUTE_HOTNESS_H_
