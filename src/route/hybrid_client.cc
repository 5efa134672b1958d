#include "route/hybrid_client.h"

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "combine/rdwc.h"
#include "util/logging.h"

namespace sherman::route {

namespace {

// Scans of this many entries or more decline before their RPC: they would
// outrun the executor's leaf budget anyway.
constexpr uint32_t kMaxRpcScan = 1u << 16;

// The u64 key the router shards a batch item on.
Key RouteOf(Key key) { return key; }
Key RouteOf(const std::string& key) { return RoutingKeyFor(Slice(key)); }
template <typename K, typename V>
Key RouteOf(const std::pair<K, V>& kv) {
  return RouteOf(kv.first);
}

// Plan-time dedupe shared by MultiGet and MultiDelete: the distinct keys
// (full byte keys for varlen: routing keys may collide without the keys
// being equal) in first-occurrence order, and for each input position
// its index among them.
template <typename K>
std::vector<size_t> Distinct(const std::vector<K>& keys,
                             std::vector<K>* uniq) {
  std::map<K, size_t> slot_of;
  std::vector<size_t> slot;
  slot.reserve(keys.size());
  for (const K& k : keys) {
    const auto [it, inserted] = slot_of.try_emplace(k, uniq->size());
    if (inserted) uniq->push_back(k);
    slot.push_back(it->second);
  }
  return slot;
}

// Detached worker the batch skeleton fans out to: runs one sub-batch
// (the task owns its operands) and arrives at the latch.
sim::Task<void> Arrive(sim::Task<Status> op, Status* st,
                       sim::CountdownLatch* latch) {
  *st = co_await std::move(op);
  latch->Arrive();
}

void FoldStats(const OpStats& local, OpStats* stats) {
  if (stats == nullptr) return;
  stats->round_trips += local.round_trips;
  stats->read_retries += local.read_retries;
  stats->lock_retries += local.lock_retries;
  stats->bytes_written += local.bytes_written;
  stats->used_handover |= local.used_handover;
  stats->cache_hits += local.cache_hits;
  stats->cache_misses += local.cache_misses;
}

}  // namespace

void HybridClient::Finish(int shard, Path path, bool is_write,
                          const OpStats& local, bool fallback,
                          sim::SimTime start, OpStats* stats) {
  tracker_->Record(shard, path, is_write, local, fallback,
                   sim_->now() - start);
  FoldStats(local, stats);
}

void HybridClient::RecordBatch(const std::vector<SlotView>& slots,
                               const std::vector<int>& shard_of,
                               const std::vector<uint8_t>& is_fb,
                               const std::vector<size_t>& os_idx,
                               const OpStats& os_local,
                               const OpStats& fb_local, bool is_write,
                               uint64_t per_key_ns, OpStats* stats) {
  bool first_fb = true;
  for (const SlotView& slot : slots) {
    bool first = true;
    for (size_t i : *slot.idxs) {
      OpStats local;
      if (first) FoldStats(*slot.local, &local);
      if (is_fb[i] && first_fb) {
        FoldStats(fb_local, &local);
        first_fb = false;
      }
      tracker_->Record(shard_of[i], is_fb[i] ? Path::kOneSided : Path::kRpc,
                       is_write, local, is_fb[i], per_key_ns);
      first = false;
    }
    FoldStats(*slot.local, stats);
  }
  bool first_os = true;
  for (size_t i : os_idx) {
    tracker_->Record(shard_of[i], Path::kOneSided, is_write,
                     first_os ? os_local : OpStats{}, false, per_key_ns);
    first_os = false;
  }
  FoldStats(os_local, stats);
  FoldStats(fb_local, stats);
}

// --- singleton ops -----------------------------------------------------------

sim::Task<Status> HybridClient::InsertDirect(Key key, uint64_t value,
                                             OpStats* stats,
                                             const PutBind<uint64_t>* bind) {
  return Dispatch(
      key, /*is_write=*/true,
      [this, key, value, bind](uint16_t ms, OpStats* s) {
        return rpc_.Call(ms, TreeRpcService::kOpPut,
                         std::pair(key, bind != nullptr ? (*bind)() : value),
                         s);
      },
      [this, key, value, bind](OpStats* s) {
        return tree_->Insert(key, value, s, bind);
      },
      stats);
}

sim::Task<Status> HybridClient::LookupDirect(Key key, uint64_t* value,
                                             OpStats* stats) {
  return Dispatch(
      key, /*is_write=*/false,
      [this, key, value](uint16_t ms, OpStats* s) {
        return rpc_.Call(ms, TreeRpcService::kOpGet, key, s, value);
      },
      [this, key, value](OpStats* s) { return tree_->Lookup(key, value, s); },
      stats);
}

// The varlen direct ops own their operands in this frame; the Slices the
// lazily started tree calls hold point into it and outlive every await.
// An RPC call owns copies of its operands, a bound value included.
sim::Task<Status> HybridClient::InsertDirect(std::string key,
                                             std::string value,
                                             OpStats* stats,
                                             const PutBind<std::string>* bind) {
  const Slice k(key);
  const Slice v(value);
  co_return co_await Dispatch(
      RoutingKeyFor(k), /*is_write=*/true,
      [this, &key, &value, bind](uint16_t ms, OpStats* s) {
        return rpc_.Call(ms, TreeRpcService::kOpPut,
                         std::pair(key, bind != nullptr ? (*bind)() : value),
                         s);
      },
      [this, &k, &v, bind](OpStats* s) {
        return tree_->InsertVar(k, v, s, bind);
      },
      stats);
}

sim::Task<Status> HybridClient::LookupDirect(std::string key,
                                             std::string* value,
                                             OpStats* stats) {
  const Slice k(key);
  co_return co_await Dispatch(
      RoutingKeyFor(k), /*is_write=*/false,
      [this, &key, value](uint16_t ms, OpStats* s) {
        return rpc_.Call(ms, TreeRpcService::kOpGet, key, s, value);
      },
      [this, &k, value](OpStats* s) { return tree_->LookupVar(k, value, s); },
      stats);
}

template <typename K, typename V>
sim::Task<Status> HybridClient::Put(Key routing_key, K key, V value,
                                    OpStats* stats) {
  if (rdwc_ != nullptr) {
    if (combine::RdwcEntry* e = rdwc_->Admit(routing_key)) {
      return rdwc_->RunWindow<K, V>(this, e, routing_key, std::move(key),
                                    /*is_put=*/true, std::move(value),
                                    /*get_value=*/nullptr, stats);
    }
  }
  return InsertDirect(std::move(key), std::move(value), stats);
}

template <typename K, typename V>
sim::Task<Status> HybridClient::Get(Key routing_key, K key, V* value,
                                    OpStats* stats) {
  if (rdwc_ != nullptr) {
    if (combine::RdwcEntry* e = rdwc_->Admit(routing_key)) {
      return rdwc_->RunWindow<K, V>(this, e, routing_key, std::move(key),
                                    /*is_put=*/false, V{}, value, stats);
    }
  }
  return LookupDirect(std::move(key), value, stats);
}

sim::Task<Status> HybridClient::Insert(Key key, uint64_t value,
                                       OpStats* stats) {
  return Put(key, key, value, stats);
}

sim::Task<Status> HybridClient::Lookup(Key key, uint64_t* value,
                                       OpStats* stats) {
  return Get(key, key, value, stats);
}

sim::Task<Status> HybridClient::InsertVar(const Slice& key, const Slice& value,
                                          OpStats* stats) {
  return Put(RoutingKeyFor(key), key.ToString(), value.ToString(), stats);
}

sim::Task<Status> HybridClient::LookupVar(const Slice& key, std::string* value,
                                          OpStats* stats) {
  return Get(RoutingKeyFor(key), key.ToString(), value, stats);
}

void HybridClient::RecordAbsorbed(Key key, bool is_write, sim::SimTime start,
                                  OpStats* stats) {
  Finish(router_->ShardFor(key), Path::kOneSided, is_write, OpStats{},
         /*fallback=*/false, start, stats);
}

sim::Task<Status> HybridClient::Delete(Key key, OpStats* stats) {
  return Dispatch(
      key, /*is_write=*/true,
      [this, key](uint16_t ms, OpStats* s) {
        return rpc_.Call(ms, TreeRpcService::kOpRemove, key, s);
      },
      [this, key](OpStats* s) { return tree_->Delete(key, s); }, stats);
}

sim::Task<Status> HybridClient::RangeQuery(
    Key from, uint32_t count, std::vector<std::pair<Key, uint64_t>>* out,
    OpStats* stats) {
  return Dispatch(
      from, /*is_write=*/false,
      [this, from, count, out](uint16_t ms, OpStats* s) {
        return RpcScan(ms, from, count, out, s);
      },
      [this, from, count, out](OpStats* s) {
        return tree_->RangeQuery(from, count, out, s);
      },
      stats);
}

// These copy their operands into the coroutine frame so the Dispatch
// lambdas (and the tree calls their Slices point into) stay valid across
// suspension.
sim::Task<Status> HybridClient::DeleteVar(const Slice& key, OpStats* stats) {
  const std::string k(key.data(), key.size());
  const Slice ks(k);
  co_return co_await Dispatch(
      RoutingKeyFor(ks), /*is_write=*/true,
      [this, &k](uint16_t ms, OpStats* s) {
        return rpc_.Call(ms, TreeRpcService::kOpRemove, k, s);
      },
      [this, &ks](OpStats* s) { return tree_->DeleteVar(ks, s); }, stats);
}

sim::Task<Status> HybridClient::ScanVar(
    const Slice& from, uint32_t count,
    std::vector<std::pair<std::string, std::string>>* out, OpStats* stats) {
  const std::string f(from.data(), from.size());
  const Slice fs(f);
  co_return co_await Dispatch(
      RoutingKeyFor(fs), /*is_write=*/false,
      [this, &f, count, out](uint16_t ms, OpStats* s) {
        return RpcScan(ms, f, count, out, s);
      },
      [this, &fs, count, out](OpStats* s) {
        return tree_->ScanVar(fs, count, out, s);
      },
      stats);
}

template <typename K, typename Entry>
sim::Task<Status> HybridClient::RpcScan(uint16_t ms, K from, uint32_t count,
                                        std::vector<Entry>* out,
                                        OpStats* stats) {
  out->clear();
  if (count == 0) co_return Status::OK();
  if (count >= kMaxRpcScan) {
    co_return Status::Retry("scan too large for ms-side execution");
  }
  co_return co_await rpc_.Call(ms, TreeRpcService::kOpScan,
                               std::pair(std::move(from), count), stats, out);
}

// --- batch ops ---------------------------------------------------------------

template <typename Item, typename Res, typename TreeFn>
sim::Task<Status> HybridClient::RunBatch(std::vector<Item> items,
                                         std::vector<Res>* out, bool is_write,
                                         uint64_t opcode, TreeFn tree,
                                         OpStats* stats) {
  const size_t n = items.size();
  out->assign(n, Res{});
  if (n == 0) co_return Status::OK();
  const sim::SimTime start = sim_->now();

  std::vector<int> shard_of(n);
  std::map<int, std::vector<size_t>> rpc_groups;
  std::vector<size_t> os_idx;
  for (size_t i = 0; i < n; i++) {
    shard_of[i] = router_->ShardFor(RouteOf(items[i]));
    if (router_->PathOfShard(shard_of[i]) == Path::kRpc) {
      rpc_groups[shard_of[i]].push_back(i);
    } else {
      os_idx.push_back(i);
    }
  }
  const auto gather = [&items](const std::vector<size_t>& idxs) {
    std::vector<Item> group;
    group.reserve(idxs.size());
    for (size_t i : idxs) group.push_back(items[i]);
    return group;
  };

  struct RpcSlot {
    int shard = 0;
    std::vector<size_t> idxs;
    std::vector<Res> res;
    OpStats local;
    Status st;
  };
  std::vector<RpcSlot> slots;
  slots.reserve(rpc_groups.size());
  for (auto& [shard, idxs] : rpc_groups) {
    slots.push_back(RpcSlot{shard, std::move(idxs), {}, {}, {}});
  }

  // The one-sided sub-batch and the fallback batch trace into the caller's
  // ctx. The RPC calls record no client spans, so while the caller waits
  // on the latch the one-sided sub-batch is the ctx's only user.
  obs::TraceCtx* const caller_trace = stats != nullptr ? stats->trace : nullptr;
  std::vector<Res> os_res;
  OpStats os_local;
  os_local.trace = caller_trace;
  Status os_st = Status::OK();
  {
    sim::CountdownLatch latch(slots.size() + (os_idx.empty() ? 0 : 1));
    for (RpcSlot& slot : slots) {
      sim::Spawn(Arrive(rpc_.Batch(router_->HomeMsFor(slot.shard), opcode,
                                   gather(slot.idxs), &slot.res, &slot.local),
                        &slot.st, &latch));
    }
    if (!os_idx.empty()) {
      sim::Spawn(Arrive(
          std::invoke(tree, tree_, gather(os_idx), &os_res, &os_local),
          &os_st, &latch));
    }
    co_await latch.Wait();
  }

  // Scatter; MS-declined keys fall back to one more one-sided batch.
  std::vector<size_t> fb_idx;
  std::vector<uint8_t> is_fb(n, 0);
  for (RpcSlot& slot : slots) {
    SHERMAN_CHECK(slot.st.ok());
    for (size_t j = 0; j < slot.idxs.size(); j++) {
      if (StatusOf(slot.res[j]).IsRetry()) {
        fb_idx.push_back(slot.idxs[j]);
        is_fb[slot.idxs[j]] = 1;
      } else {
        (*out)[slot.idxs[j]] = std::move(slot.res[j]);
      }
    }
  }
  for (size_t j = 0; j < os_idx.size(); j++) {
    (*out)[os_idx[j]] = std::move(os_res[j]);
  }

  OpStats fb_local;
  fb_local.trace = caller_trace;
  Status fb_st = Status::OK();
  if (!fb_idx.empty()) {
    std::vector<Res> fb_res;
    fb_st = co_await std::invoke(tree, tree_, gather(fb_idx), &fb_res,
                                 &fb_local);
    for (size_t j = 0; j < fb_idx.size(); j++) {
      (*out)[fb_idx[j]] = std::move(fb_res[j]);
    }
  }

  std::vector<SlotView> views;
  views.reserve(slots.size());
  for (const RpcSlot& s : slots) views.push_back(SlotView{&s.idxs, &s.local});
  RecordBatch(views, shard_of, is_fb, os_idx, os_local, fb_local, is_write,
              (sim_->now() - start) / n, stats);

  if (!os_st.ok()) co_return os_st;
  co_return fb_st;
}

template <typename K, typename Res>
sim::Task<Status> HybridClient::GetBatch(std::vector<K> keys,
                                         std::vector<Res>* out,
                                         TreeBatch<K, Res> tree,
                                         OpStats* stats) {
  // Serve each distinct key once, fan the result to every instance.
  std::vector<K> uniq;
  const std::vector<size_t> slot = Distinct(keys, &uniq);
  std::vector<Res> res;
  const Status st =
      co_await RunBatch(std::move(uniq), &res, /*is_write=*/false,
                        TreeRpcService::kOpMultiGet, tree, stats);
  out->assign(keys.size(), Res{});
  for (size_t i = 0; i < keys.size(); i++) (*out)[i] = res[slot[i]];
  co_return st;
}

template <typename K, typename V>
sim::Task<Status> HybridClient::PutBatch(
    std::vector<std::pair<K, V>> kvs,
    sim::Task<Status> (TreeClient::*tree)(std::vector<std::pair<K, V>>,
                                          OpStats*),
    OpStats* stats) {
  // Last writer wins: keep one instance per key (in first-occurrence
  // position) carrying the LAST instance's value. This pins the duplicate
  // order BEFORE the batch fans out, so a declined earlier instance can
  // never be re-applied by the fallback batch after a later instance
  // already landed at the MS.
  std::map<K, size_t> slot_of;
  std::vector<std::pair<K, V>> uniq;
  uniq.reserve(kvs.size());
  for (auto& kv : kvs) {
    const auto [it, inserted] = slot_of.try_emplace(kv.first, uniq.size());
    if (inserted) {
      uniq.push_back(std::move(kv));
    } else {
      uniq[it->second].second = std::move(kv.second);
    }
  }
  // The one-sided batch reports one status for the whole batch.
  const auto one_sided = [tree](TreeClient* t, std::vector<std::pair<K, V>> b,
                                std::vector<Status>* per_key, OpStats* s) {
    per_key->assign(b.size(), Status::OK());
    return (t->*tree)(std::move(b), s);
  };
  std::vector<Status> per_key;
  co_return co_await RunBatch(std::move(uniq), &per_key, /*is_write=*/true,
                              TreeRpcService::kOpMultiPut, one_sided, stats);
}

sim::Task<Status> HybridClient::MultiGet(std::vector<Key> keys,
                                         std::vector<MultiGetResult>* out,
                                         OpStats* stats) {
  return GetBatch(std::move(keys), out, &TreeClient::MultiGet, stats);
}

sim::Task<Status> HybridClient::MultiGetVar(std::vector<std::string> keys,
                                            std::vector<VarGetResult>* out,
                                            OpStats* stats) {
  return GetBatch(std::move(keys), out, &TreeClient::MultiGetVar, stats);
}

sim::Task<Status> HybridClient::MultiInsert(
    std::vector<std::pair<Key, uint64_t>> kvs, OpStats* stats) {
  return PutBatch(std::move(kvs), &TreeClient::MultiInsert, stats);
}

sim::Task<Status> HybridClient::MultiInsertVar(
    std::vector<std::pair<std::string, std::string>> kvs, OpStats* stats) {
  return PutBatch(std::move(kvs), &TreeClient::MultiInsertVar, stats);
}

sim::Task<Status> HybridClient::MultiDelete(std::vector<Key> keys,
                                            std::vector<Status>* out,
                                            OpStats* stats) {
  // First delete wins: the first instance of each key gets the real
  // status; later instances report NotFound (the key is already gone
  // within the batch).
  std::vector<Key> uniq;
  const std::vector<size_t> slot = Distinct(keys, &uniq);
  std::vector<Status> res;
  const Status st =
      co_await RunBatch(std::move(uniq), &res, /*is_write=*/true,
                        TreeRpcService::kOpMultiRemove,
                        &TreeClient::MultiDelete, stats);
  out->assign(keys.size(), Status::NotFound());
  std::vector<uint8_t> claimed(res.size(), 0);
  for (size_t i = 0; i < keys.size(); i++) {
    if (claimed[slot[i]] == 0) {
      (*out)[i] = res[slot[i]];
      claimed[slot[i]] = 1;
    }
  }
  co_return st;
}

}  // namespace sherman::route
