// HybridSystem: the whole adaptive hybrid deployment — a ShermanSystem
// (one-sided B-link tree) plus the route/ subsystem (MS-side tree executor,
// per-shard hotness tracking, epoch-based adaptive router) behind one
// facade. Both paths operate on the SAME tree in MS memory, so shard
// re-assignment is a control-plane flip with no data migration.
//
// Usage (see bench/bench_hybrid.cc):
//   HybridOptions opts;                  // tree + router configuration
//   HybridSystem system(fabric_cfg, opts);
//   system.BulkLoad(sorted_kvs, 0.8);    // also cuts the router's shards
//   route::HybridClient& c = system.client(0);
//   sim::Spawn(MyWorkload(&c));          // Insert/Lookup/RangeQuery/Delete
//   system.router().Start();             // begin epoch re-planning
//   system.simulator().RunUntil(...);
//   system.router().Stop();
#ifndef SHERMAN_CORE_HYBRID_SYSTEM_H_
#define SHERMAN_CORE_HYBRID_SYSTEM_H_

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "combine/rdwc.h"
#include "core/btree.h"
#include "migrate/shard_map.h"
#include "route/hybrid_client.h"
#include "route/router.h"
#include "route/tree_rpc.h"

namespace sherman {

struct HybridOptions {
  TreeOptions tree;
  route::RouterOptions router;
  // Hot-key delegation + read/write combining (src/combine/rdwc.h);
  // rdwc.enable_delegation = false keeps the layer entirely out of the
  // op path (the ablation baseline).
  combine::RdwcOptions rdwc;
};

class HybridSystem {
 public:
  HybridSystem(rdma::FabricConfig fabric_config, HybridOptions options);

  HybridSystem(const HybridSystem&) = delete;
  HybridSystem& operator=(const HybridSystem&) = delete;

  // Bulkloads the tree and cuts the router's shards at the loaded keys'
  // quantiles, so every shard holds an equal share of them (a load of
  // fewer keys than shards leaves some shards empty). Routing needs a
  // non-empty load, unless there is one shard.
  void BulkLoad(const std::vector<std::pair<Key, uint64_t>>& kvs, double fill);

  // Varlen twin: loads string records and cuts shards over the keys'
  // ROUTING projections (shards partition routing-key space).
  void BulkLoadVar(const std::vector<std::pair<std::string, std::string>>& kvs,
                   double fill);

  route::HybridClient& client(int cs_id) { return *clients_[cs_id]; }
  int num_clients() const { return static_cast<int>(clients_.size()); }

  // Elastic scale-out: brings one more memory server online (QPs, chunk
  // manager, MS-side tree executor) and returns its id. The shard map is
  // untouched — shards move to the new MS only when migrate::Migrator
  // copies their key range and flips their entry.
  int AddMemoryServer();

  ShermanSystem& sherman() { return sherman_; }
  rdma::Fabric& fabric() { return sherman_.fabric(); }
  sim::Simulator& simulator() { return sherman_.simulator(); }
  route::AdaptiveRouter& router() { return *router_; }
  route::HotnessTracker& tracker() { return tracker_; }
  route::TreeRpcService& rpc_service() { return rpc_service_; }
  migrate::ShardMap& shard_map() { return shard_map_; }
  // Null when rdwc.enable_delegation is off.
  combine::RdwcLayer* rdwc() { return rdwc_.get(); }

 private:
  // The cut both bulk loads share: `count` loaded records whose ascending
  // routing keys are route_of(i). Also sizes the router's tree height.
  void CutShards(size_t count, const std::function<Key(size_t)>& route_of);

  ShermanSystem sherman_;
  route::HotnessTracker tracker_;
  route::TreeRpcService rpc_service_;
  migrate::ShardMap shard_map_;
  std::unique_ptr<route::AdaptiveRouter> router_;
  std::unique_ptr<combine::RdwcLayer> rdwc_;
  std::vector<std::unique_ptr<route::HybridClient>> clients_;
};

}  // namespace sherman

#endif  // SHERMAN_CORE_HYBRID_SYSTEM_H_
