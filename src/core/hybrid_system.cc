#include "core/hybrid_system.h"

#include "util/logging.h"

namespace sherman {

HybridSystem::HybridSystem(rdma::FabricConfig fabric_config,
                           HybridOptions options)
    : sherman_(fabric_config, options.tree),
      tracker_(options.router.num_shards, &sherman_.registry()),
      rpc_service_(&sherman_),
      shard_map_(options.router.num_shards,
                 sherman_.fabric().num_memory_servers()) {
  router_ = std::make_unique<route::AdaptiveRouter>(
      options.router,
      route::ModelFromFabric(sherman_.fabric().config(),
                             options.tree.enable_cache),
      &tracker_, &sherman_.fabric());
  router_->InstallShardMap(&shard_map_);
  if (options.rdwc.enable_delegation) {
    rdwc_ = std::make_unique<combine::RdwcLayer>(
        &sherman_.simulator(), options.rdwc, &sherman_.registry());
  }
  for (int cs = 0; cs < sherman_.fabric().num_compute_servers(); cs++) {
    clients_.push_back(std::make_unique<route::HybridClient>(
        &sherman_, &rpc_service_, router_.get(), &tracker_, cs));
    if (rdwc_ != nullptr) clients_.back()->SetRdwc(rdwc_.get());
  }
}

void HybridSystem::BulkLoad(const std::vector<std::pair<Key, uint64_t>>& kvs,
                            double fill) {
  sherman_.BulkLoad(kvs, fill);
  CutShards(kvs.size(), [&kvs](size_t i) { return kvs[i].first; });
}

void HybridSystem::BulkLoadVar(
    const std::vector<std::pair<std::string, std::string>>& kvs, double fill) {
  sherman_.BulkLoadVar(kvs, fill);
  // Shards partition the ROUTING-key space.
  CutShards(kvs.size(),
            [&kvs](size_t i) { return RoutingKeyFor(Slice(kvs[i].first)); });
}

void HybridSystem::CutShards(size_t count,
                             const std::function<Key(size_t)>& route_of) {
  // DEX-style logical partitioning: cut the *loaded* keys into
  // equal-population shards. Equal-width cuts over the key space
  // degenerate when the loaded keys are sparse in it (e.g. multi-tenant
  // key bases), collapsing whole tenants into single shards. An empty load
  // cuts every shard but the first at kMaxKey: all keys route to shard 0.
  const int n = router_->num_shards();
  std::vector<Key> cuts;
  cuts.reserve(n - 1);
  for (int s = 1; s < n; s++) {
    cuts.push_back(count > 0 ? route_of(count * s / n) : kMaxKey);
  }
  router_->SetBoundaries(std::move(cuts));
  router_->SetTreeHeight(static_cast<double>(sherman_.DebugHeight()));
}

int HybridSystem::AddMemoryServer() {
  const int id = sherman_.AddMemoryServer();
  rpc_service_.InstallOn(id);
  return id;
}

}  // namespace sherman
