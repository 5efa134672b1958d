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
  const int n = router_->num_shards();
  if (static_cast<int>(kvs.size()) >= n && !kvs.empty()) {
    // DEX-style logical partitioning: cut the *loaded* keys into
    // equal-population shards. Equal-width cuts over the raw universe
    // degenerate when the loaded keys are sparse in it (e.g. multi-tenant
    // key bases), collapsing whole tenants into single shards.
    std::vector<Key> cuts;
    cuts.reserve(n - 1);
    for (int s = 1; s < n; s++) {
      cuts.push_back(kvs[kvs.size() * s / n].first);
    }
    router_->SetBoundaries(std::move(cuts));
  } else if (router_->options().universe_hi == 0 && !kvs.empty()) {
    // Cover the loaded keys and the odd insert keys between/after them.
    router_->SetUniverse(std::max<Key>(1, kvs.front().first),
                         kvs.back().first + 2);
  }
  router_->SetTreeHeight(static_cast<double>(sherman_.DebugHeight()));
}

void HybridSystem::BulkLoadVar(
    const std::vector<std::pair<std::string, std::string>>& kvs, double fill) {
  sherman_.BulkLoadVar(kvs, fill);
  const int n = router_->num_shards();
  if (static_cast<int>(kvs.size()) >= n && !kvs.empty()) {
    // Shards partition the ROUTING-key space (see BulkLoad): cut the
    // loaded keys' routing projections into equal-population shards.
    std::vector<Key> cuts;
    cuts.reserve(n - 1);
    for (int s = 1; s < n; s++) {
      cuts.push_back(RoutingKeyFor(Slice(kvs[kvs.size() * s / n].first)));
    }
    router_->SetBoundaries(std::move(cuts));
  } else if (router_->options().universe_hi == 0 && !kvs.empty()) {
    router_->SetUniverse(
        std::max<Key>(1, RoutingKeyFor(Slice(kvs.front().first))),
        RoutingKeyFor(Slice(kvs.back().first)) + 2);
  }
  router_->SetTreeHeight(static_cast<double>(sherman_.DebugHeight()));
}

int HybridSystem::AddMemoryServer() {
  const int id = sherman_.AddMemoryServer();
  rpc_service_.InstallOn(id);
  return id;
}

}  // namespace sherman
