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
      invalidations_(registry->GetCounter("cache.invalidations")) {}

IndexCache::~IndexCache() = default;

const ParsedInternal* IndexCache::LookupLevel1(Key key) {
  uint64_t found_lo = 0;
  std::unique_ptr<Entry>* slot = level1_.FindLessOrEqual(key, &found_lo);
  if (slot != nullptr) {
    Entry* e = slot->get();
    if (key >= e->node.lo && key < e->node.hi) {
      e->last_used = ++tick_;
      hits_->Inc();
      return &e->node;
    }
  }
  misses_->Inc();
  return nullptr;
}

void IndexCache::Insert(const ParsedInternal& node) {
  if (node.level != 1) {
    std::map<Key, UpperEntry>& nodes = upper_[node.level];
    auto [it, inserted] = nodes.try_emplace(node.lo);
    it->second.node = node;
    it->second.last_used = ++tick_;
    if (inserted) {
      upper_count_++;
      upper_bytes_ += node_bytes_;
      EvictUpperIfNeeded();
    }
    return;
  }
  uint64_t found_lo = 0;
  std::unique_ptr<Entry>* slot = level1_.FindLessOrEqual(node.lo, &found_lo);
  if (slot != nullptr && found_lo == node.lo) {
    // Refresh in place.
    (*slot)->node = node;
    (*slot)->last_used = ++tick_;
    return;
  }
  auto entry = std::make_unique<Entry>();
  entry->node = node;
  entry->last_used = ++tick_;
  entry->pool_index = pool_.size();
  pool_.push_back(entry.get());
  level1_.Insert(node.lo, std::move(entry));
  bytes_used_ += node_bytes_;
  EvictIfNeeded();
}

const ParsedInternal* IndexCache::LookupUpper(Key key) {
  // Deepest (smallest level) upper node covering key.
  for (auto& [level, nodes] : upper_) {
    auto it = nodes.upper_bound(key);
    if (it == nodes.begin()) continue;
    --it;
    UpperEntry& e = it->second;
    if (key >= e.node.lo && key < e.node.hi) {
      e.last_used = ++tick_;
      upper_hits_->Inc();
      return &e.node;
    }
  }
  upper_misses_->Inc();
  return nullptr;
}

void IndexCache::Invalidate(Key key, rdma::GlobalAddress addr) {
  uint64_t found_lo = 0;
  std::unique_ptr<Entry>* slot = level1_.FindLessOrEqual(key, &found_lo);
  if (slot != nullptr) {
    Entry* e = slot->get();
    if (e->node.self == addr && key >= e->node.lo && key < e->node.hi) {
      invalidations_->Inc();
      RemoveEntry(e);
      return;
    }
  }
  for (auto& [level, nodes] : upper_) {
    auto it = nodes.upper_bound(key);
    if (it == nodes.begin()) continue;
    --it;
    const ParsedInternal& node = it->second.node;
    if (node.self == addr && key >= node.lo && key < node.hi) {
      invalidations_->Inc();
      nodes.erase(it);
      upper_count_--;
      upper_bytes_ -= node_bytes_;
      return;
    }
  }
}

void IndexCache::InvalidateLevel1Covering(Key key) {
  uint64_t found_lo = 0;
  std::unique_ptr<Entry>* slot = level1_.FindLessOrEqual(key, &found_lo);
  if (slot != nullptr) {
    Entry* e = slot->get();
    if (key >= e->node.lo && key < e->node.hi) {
      invalidations_->Inc();
      RemoveEntry(e);
    }
  }
}

void IndexCache::InvalidateUpperCovering(Key key, rdma::GlobalAddress child) {
  for (auto& [level, nodes] : upper_) {
    auto it = nodes.upper_bound(key);
    if (it == nodes.begin()) continue;
    --it;
    const ParsedInternal& node = it->second.node;
    if (key >= node.lo && key < node.hi && node.ChildFor(key) == child) {
      invalidations_->Inc();
      nodes.erase(it);
      upper_count_--;
      upper_bytes_ -= node_bytes_;
    }
  }
}

void IndexCache::InvalidateKeyRange(Key lo, Key hi) {
  std::vector<Entry*> victims;
  for (Entry* e : pool_) {
    if (e->node.lo < hi && e->node.hi > lo) victims.push_back(e);
  }
  for (Entry* e : victims) {
    invalidations_->Inc();
    RemoveEntry(e);
  }
}

void IndexCache::Clear() {
  while (!pool_.empty()) RemoveEntry(pool_.back());
  upper_.clear();
  upper_count_ = 0;
  upper_bytes_ = 0;
}

void IndexCache::RemoveEntry(Entry* entry) {
  // Swap-remove from the sampling pool, then drop from the skiplist.
  const size_t idx = entry->pool_index;
  SHERMAN_CHECK(idx < pool_.size() && pool_[idx] == entry);
  pool_[idx] = pool_.back();
  pool_[idx]->pool_index = idx;
  pool_.pop_back();
  const Key lo = entry->node.lo;
  SHERMAN_CHECK(level1_.Erase(lo));
  bytes_used_ -= node_bytes_;
}

void IndexCache::EvictUpperIfNeeded() {
  // The population is small by construction (bounded by the budget), so a
  // full LRU scan per eviction is fine.
  while (upper_bytes_ > upper_capacity_bytes_ && upper_count_ > 1) {
    uint8_t victim_level = 0;
    Key victim_lo = 0;
    uint64_t oldest = ~0ull;
    for (const auto& [level, nodes] : upper_) {
      for (const auto& [lo, e] : nodes) {
        if (e.last_used < oldest) {
          oldest = e.last_used;
          victim_level = level;
          victim_lo = lo;
        }
      }
    }
    upper_[victim_level].erase(victim_lo);
    upper_count_--;
    upper_bytes_ -= node_bytes_;
    evictions_->Inc();
  }
}

void IndexCache::EvictIfNeeded() {
  // Power-of-two-choices (§4.2.3): sample two cached nodes, evict the one
  // least recently used.
  while (bytes_used_ > capacity_bytes_ && pool_.size() > 1) {
    Entry* a = pool_[rng_.Uniform(pool_.size())];
    Entry* b = pool_[rng_.Uniform(pool_.size())];
    Entry* victim = (a->last_used <= b->last_used) ? a : b;
    evictions_->Inc();
    RemoveEntry(victim);
  }
}

}  // namespace sherman
