// AdaptiveRouter: epoch-based steering of logical key-range shards between
// Sherman's one-sided path and MS-side RPC execution.
//
// The key space is range-partitioned into `num_shards` logical shards of
// equal population, cut at the loaded keys' quantiles (DEX-style); each
// shard is pinned to a home MS (shard % num_ms) and carries a path
// assignment. Every epoch the router drains the
// HotnessTracker window, smooths it into per-shard estimates, samples each
// MS's memory-thread FIFO backlog, and re-plans:
//
//   one-sided cost/op ~ round trips scaled by the shard's index-cache miss
//     ratio (misses re-walk the upper levels) and, for writes, lock CAS
//     retries net of HOCL handovers;
//   RPC cost/op       ~ one wire round trip + the wimpy core's service
//     time + a queueing term that grows as the home MS's planned
//     utilization rises.
//
// Shards are offloaded greedily, best savings first, until the marginal
// queueing delay erases the margin or the utilization cap is reached —
// so write-hot / contended shards stay one-sided (Sherman's strength)
// while cold / read-mostly / cache-missing shards move to RPC (FlexKV's
// insight), and the memory threads can never be driven past saturation.
// Hysteresis margins keep borderline shards from oscillating.
#ifndef SHERMAN_ROUTE_ROUTER_H_
#define SHERMAN_ROUTE_ROUTER_H_

#include <cstdint>
#include <vector>

#include <utility>

#include "core/node_layout.h"
#include "core/stats.h"
#include "migrate/shard_map.h"
#include "rdma/fabric.h"
#include "route/hotness.h"
#include "sim/simulator.h"

namespace sherman::route {

struct RouterOptions {
  enum class Policy { kAdaptive, kAllOneSided, kAllRpc };
  Policy policy = Policy::kAdaptive;

  // Cut by AdaptiveRouter::SetBoundaries (HybridSystem's bulk loads).
  int num_shards = 64;
  sim::SimTime epoch_ns = 2'000'000;  // re-plan every 2 ms of simulated time
};

// Fabric-derived constants for the planner's cost model.
struct RouterModel {
  double rtt_ns = 1800;       // one-sided small-op round trip
  double rpc_wire_ns = 1300;  // RPC wire+NIC+poll cost excluding service
  double rpc_service_ns = 3000;
  double tree_height = 3;     // levels walked on a full (cache-miss) descent
  bool cache_enabled = true;
  int num_ms = 1;
  // Client-side CPU charges (one-sided ops search nodes locally).
  double cpu_op_ns = 100;
  double cpu_search_ns = 200;
  double cpu_leaf_ns = 300;
};
RouterModel ModelFromFabric(const rdma::FabricConfig& cfg, bool cache_enabled);

// Smoothed per-shard estimates the planner consumes.
struct ShardEstimate {
  double ops = 0;                 // expected ops next epoch
  double write_frac = 0;
  double miss_ratio = 0.7;        // index-cache miss ratio when one-sided
  double cas_fails_per_write = 0; // failed lock CAS per write
  double handover_rate = 0;       // fraction of writes locked via handover
  double os_ns = 0;               // measured one-sided ns/op (0 = no signal;
                                  // preferred over the model when present)
  bool warm = false;              // has the shard seen traffic yet?
};

// The planner's hysteresis: a one-sided shard offloads when its cost
// exceeds kOffloadMargin x its RPC cost, and an offloaded shard returns
// when its cost falls below kReturnMargin x.
inline constexpr double kOffloadMargin = 1.25;
inline constexpr double kReturnMargin = 0.90;

// Cost model (exposed for tests). Estimates are ns/op.
double EstimateOneSidedNs(const ShardEstimate& e, const RouterModel& m);
double EstimateRpcNs(double planned_busy_ns, double epoch_ns,
                     const RouterModel& m);

// Pure planning function: given per-shard estimates, the previous
// assignment, and each MS's current FIFO backlog (ns), returns the next
// assignment. Deterministic; unit-tested directly. `homes` maps each shard
// to its home MS (elastic clusters re-home shards via the shard map);
// empty means the founding static rule (shard % num_ms).
std::vector<Path> PlanAssignment(const std::vector<ShardEstimate>& shards,
                                 const std::vector<Path>& prev,
                                 const std::vector<double>& ms_backlog_ns,
                                 const RouterModel& model,
                                 const RouterOptions& opt,
                                 const std::vector<uint16_t>& homes = {});

// One row of the router's epoch log (surfaced by bench reports).
struct EpochRecord {
  uint64_t epoch = 0;
  sim::SimTime at_ns = 0;
  int shards_one_sided = 0;
  int shards_rpc = 0;
  int flips = 0;           // shards whose path changed this epoch
  double window_rpc_share = 0;  // fraction of last window's ops served RPC
  double max_ms_backlog_us = 0; // deepest memory-thread FIFO seen (us)
};

class AdaptiveRouter {
 public:
  // Counts epochs and shard flips into the fabric's registry as
  // route.{epochs,shard_flips}; the epoch index IS that counter, so a
  // fabric runs one router.
  AdaptiveRouter(RouterOptions options, RouterModel model,
                 HotnessTracker* tracker, rdma::Fabric* fabric);

  AdaptiveRouter(const AdaptiveRouter&) = delete;
  AdaptiveRouter& operator=(const AdaptiveRouter&) = delete;

  int num_shards() const { return options_.num_shards; }
  const RouterOptions& options() const { return options_; }

  // Key -> logical shard (range partition; the cuts must be installed
  // first unless there is one shard), and the shard's home MS. With
  // a shard map installed (elastic clusters), the map is authoritative:
  // migrations re-home shards there and the static founding rule no longer
  // applies — in particular, growing the fabric must NOT remap unmigrated
  // shards, which `shard % current_num_ms` would.
  int ShardFor(Key key) const;
  uint16_t HomeMsFor(int shard) const {
    if (shard_map_ != nullptr) return shard_map_->home(shard);
    return static_cast<uint16_t>(shard % model_.num_ms);
  }
  Path PathOfShard(int shard) const { return assignment_[shard]; }

  // The key interval [lo, hi) shard `shard` covers (lo of shard 0 is 1,
  // hi of the last shard is kMaxKey: ShardFor maps every key below the
  // first cut or past the last into those edge shards). This is the unit
  // the migrator moves.
  std::pair<Key, Key> ShardBounds(int shard) const;

  // Installs the versioned shard map consulted by HomeMsFor. The map must
  // outlive the router.
  void InstallShardMap(const migrate::ShardMap* map) { shard_map_ = map; }
  const migrate::ShardMap* shard_map() const { return shard_map_; }

  // Installs the shard cut points (num_shards - 1 ascending keys; shard i
  // covers [cuts[i-1], cuts[i])). Cuts and height are learned at bulk
  // load time.
  void SetBoundaries(std::vector<Key> cuts);
  void SetTreeHeight(double height) { model_.tree_height = height; }

  // Starts/stops the epoch timer on the fabric's simulator. While running,
  // the router keeps one pending event alive; Stop() lets the sim drain.
  void Start();
  void Stop() { running_ = false; }
  bool running() const { return running_; }

  // Runs one epoch boundary immediately (also used by tests).
  void EndEpochNow();

  const std::vector<Path>& assignment() const { return assignment_; }
  void ForceAssignment(std::vector<Path> a);  // tests / forced policies
  const std::vector<EpochRecord>& epoch_log() const { return epoch_log_; }

 private:
  void Tick(uint64_t gen);

  RouterOptions options_;
  RouterModel model_;
  HotnessTracker* tracker_;
  rdma::Fabric* fabric_;
  const migrate::ShardMap* shard_map_ = nullptr;

  std::vector<Path> assignment_;
  std::vector<Key> boundaries_;  // the shard cuts; empty until installed
  std::vector<ShardEstimate> smoothed_;
  std::vector<uint64_t> last_os_epoch_;
  std::vector<EpochRecord> epoch_log_;
  obs::Counter* epochs_;  // epoch boundaries run so far
  obs::Counter* flips_;   // shard reassignments across all epochs
  uint64_t timer_gen_ = 0;
  bool running_ = false;
};

}  // namespace sherman::route

#endif  // SHERMAN_ROUTE_ROUTER_H_
