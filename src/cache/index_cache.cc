#include "cache/index_cache.h"

#include <algorithm>

#include "util/logging.h"

namespace sherman {

IndexCache::IndexCache(uint64_t capacity_bytes, uint32_t node_bytes,
                       uint64_t seed, obs::Registry* registry)
    : capacity_bytes_(capacity_bytes),
      // A healthy tree has few level>=2 nodes, but stale entries pile up
      // across splits/root moves; give them a bounded side budget instead
      // of the historical "never charged, never evicted".
      upper_capacity_bytes_(
          capacity_bytes == 0
              ? 0
              : std::max<uint64_t>(capacity_bytes / 4,
                                   16ull * node_bytes)),
      node_bytes_(node_bytes),
      rng_(seed),
      hits_(registry->GetCounter("cache.l1_hits")),
      misses_(registry->GetCounter("cache.l1_misses")),
      upper_hits_(registry->GetCounter("cache.upper_hits")),
      upper_misses_(registry->GetCounter("cache.upper_misses")),
      evictions_(registry->GetCounter("cache.evictions")),
      invalidations_(registry->GetCounter("cache.invalidations")),
      registry_(registry) {}

IndexCache::Entry* IndexCache::Covering(Level& level, Key key) {
  auto it = level.upper_bound(key);  // first lo > key
  if (it == level.begin()) return nullptr;
  --it;
  return key < it->second.node.hi ? &it->second : nullptr;
}

const ParsedInternal* IndexCache::LookupLevel1(Key key) {
  if (Entry* e = Covering(levels_[1], key)) {
    e->last_used = ++tick_;
    hits_->Inc();
    return &e->node;
  }
  misses_->Inc();
  return nullptr;
}

void IndexCache::Insert(const ParsedInternal& node) {
  auto [it, inserted] = levels_[node.level].try_emplace(node.lo);
  Entry& e = it->second;
  e.node = node;
  e.last_used = ++tick_;
  if (!inserted) return;  // refreshed in place
  if (node.level == 1) {
    e.pool_index = pool_.size();
    pool_.push_back(&e);
    EvictIfNeeded();
  } else {
    upper_count_++;
    EvictUpperIfNeeded();
  }
}

const ParsedInternal* IndexCache::LookupUpper(Key key) {
  // Deepest (smallest level) upper node covering key.
  for (auto lv = levels_.upper_bound(1); lv != levels_.end(); ++lv) {
    if (Entry* e = Covering(lv->second, key)) {
      e->last_used = ++tick_;
      upper_hits_->Inc();
      return &e->node;
    }
  }
  upper_misses_->Inc();
  return nullptr;
}

void IndexCache::Invalidate(Key key, rdma::GlobalAddress addr) {
  // Level 1 first, then the upper levels from the deepest.
  for (auto& [level, nodes] : levels_) {
    Entry* e = Covering(nodes, key);
    if (e != nullptr && e->node.self == addr) {
      invalidations_->Inc();
      Erase(e);
      return;
    }
  }
}

void IndexCache::InvalidateLevel1Covering(Key key) {
  if (Entry* e = Covering(levels_[1], key)) {
    invalidations_->Inc();
    Erase(e);
  }
}

bool IndexCache::LearnSplit(Key key, rdma::GlobalAddress leaf, Key leaf_hi,
                            rdma::GlobalAddress sibling) {
  Entry* e = Covering(levels_[1], key);
  if (e == nullptr || sibling.is_null()) return false;
  ParsedInternal& n = e->node;
  if (leaf_hi <= n.lo || leaf_hi >= n.hi || n.ChildFor(leaf_hi) != leaf) {
    return false;
  }
  // A child of `leaf` that already starts at leaf_hi is no split but a
  // recycled address: the node is stale in a way no split explains.
  const size_t i = n.ChildIndex(leaf_hi);
  if (i > 0 && n.entries[i - 1].first == leaf_hi) return false;
  n.entries.insert(n.entries.begin() + i, {leaf_hi, sibling});
  if (splits_learned_ == nullptr) {
    splits_learned_ = registry_->GetCounter("cache.splits_learned");
  }
  splits_learned_->Inc();
  return true;
}

void IndexCache::InvalidateUpperCovering(Key key, rdma::GlobalAddress child) {
  for (auto lv = levels_.upper_bound(1); lv != levels_.end(); ++lv) {
    Entry* e = Covering(lv->second, key);
    if (e != nullptr && e->node.ChildFor(key) == child) {
      invalidations_->Inc();
      Erase(e);
    }
  }
}

void IndexCache::InvalidateKeyRange(Key lo, Key hi) {
  std::vector<Entry*> victims;  // in pool order
  for (Entry* e : pool_) {
    if (e->node.lo < hi && e->node.hi > lo) victims.push_back(e);
  }
  for (Entry* e : victims) {
    invalidations_->Inc();
    Erase(e);
  }
}

void IndexCache::Erase(Entry* entry) {
  const uint8_t level = entry->node.level;
  const Key lo = entry->node.lo;
  if (level == 1) {
    // Swap-remove from the sampling pool.
    const size_t idx = entry->pool_index;
    SHERMAN_CHECK(idx < pool_.size() && pool_[idx] == entry);
    pool_[idx] = pool_.back();
    pool_[idx]->pool_index = idx;
    pool_.pop_back();
  } else {
    upper_count_--;
  }
  levels_[level].erase(lo);
}

void IndexCache::EvictUpperIfNeeded() {
  // The population is small by construction (bounded by the budget), so a
  // full LRU scan per eviction is fine.
  while (upper_bytes_used() > upper_capacity_bytes_ && upper_count_ > 1) {
    Entry* victim = nullptr;
    for (auto lv = levels_.upper_bound(1); lv != levels_.end(); ++lv) {
      for (auto& [lo, e] : lv->second) {
        if (victim == nullptr || e.last_used < victim->last_used) victim = &e;
      }
    }
    evictions_->Inc();
    Erase(victim);
  }
}

void IndexCache::EvictIfNeeded() {
  // Power-of-two-choices (§4.2.3): sample two cached nodes, evict the one
  // least recently used.
  while (pool_.size() * node_bytes_ > capacity_bytes_ && pool_.size() > 1) {
    Entry* a = pool_[rng_.Uniform(pool_.size())];
    Entry* b = pool_[rng_.Uniform(pool_.size())];
    evictions_->Inc();
    Erase(a->last_used <= b->last_used ? a : b);
  }
}

}  // namespace sherman
