// HybridClient: the per-compute-server entry point of the hybrid system.
// Each operation is mapped to its logical shard, dispatched to the path the
// AdaptiveRouter currently assigns that shard, and its OpStats folded into
// the HotnessTracker so the next epoch can re-plan. When the MS-side
// executor declines an op (locked leaf, split needed, structural anomaly),
// the client transparently retries it on the one-sided path.
#ifndef SHERMAN_ROUTE_HYBRID_CLIENT_H_
#define SHERMAN_ROUTE_HYBRID_CLIENT_H_

#include <string>
#include <utility>
#include <vector>

#include "core/btree.h"
#include "route/hotness.h"
#include "route/router.h"
#include "route/tree_rpc.h"

namespace sherman::combine {
class RdwcLayer;
}  // namespace sherman::combine

namespace sherman::route {

class HybridClient final {
 public:
  HybridClient(ShermanSystem* sherman, TreeRpcService* service,
               AdaptiveRouter* router, HotnessTracker* tracker, int cs_id)
      : tree_(&sherman->client(cs_id)),
        rpc_(service, cs_id),
        router_(router),
        tracker_(tracker),
        sim_(&sherman->simulator()),
        cs_id_(cs_id) {}

  // Singleton Insert/Lookup consult the RDWC delegation table when one
  // is installed (hot keys run through a write window); cold keys and
  // everything else fall through to the direct paths below.
  sim::Task<Status> Insert(Key key, uint64_t value, OpStats* stats = nullptr);
  sim::Task<Status> Lookup(Key key, uint64_t* value, OpStats* stats = nullptr);
  sim::Task<Status> Delete(Key key, OpStats* stats = nullptr);
  sim::Task<Status> RangeQuery(Key from, uint32_t count,
                               std::vector<std::pair<Key, uint64_t>>* out,
                               OpStats* stats = nullptr);

  // Batched ops: keys are split by logical shard, the RPC-path sub-batches
  // coalesce into ONE TreeRpcService request per shard, the one-sided
  // remainder goes through TreeClient's doorbell-batched path, and both
  // halves run concurrently. MS-declined keys transparently fall back to
  // a one-sided batch, like the singleton fallback.
  //
  // Duplicate keys in one batch (the degenerate single-client case of
  // combining) are deduped at plan time, BEFORE the batch fans out
  // across paths — so the decline->fallback path can never re-apply an
  // earlier duplicate after a later one landed. Semantics: MultiGet
  // serves each distinct key once and fans the result to every
  // instance; MultiInsert applies the LAST instance's value
  // (last-writer-wins); MultiDelete resolves the FIRST instance (it
  // gets the real status) and reports NotFound for the rest.
  sim::Task<Status> MultiGet(std::vector<Key> keys,
                             std::vector<MultiGetResult>* out,
                             OpStats* stats = nullptr);
  sim::Task<Status> MultiInsert(std::vector<std::pair<Key, uint64_t>> kvs,
                                OpStats* stats = nullptr);
  sim::Task<Status> MultiDelete(std::vector<Key> keys,
                                std::vector<Status>* out,
                                OpStats* stats = nullptr);

  // Varlen ops (shape.varlen trees): dispatched on the ROUTING key's
  // shard, with the same decline->one-sided fallback as the fixed ops.
  // InsertVar/LookupVar consult the RDWC table on the routing key exactly
  // like the fixed singletons (hot-key contention is per leaf, and leaves
  // group by routing key); the write window additionally pins the
  // FULL byte key, so results are never shared across distinct keys that
  // collide on one routing key. DeleteVar/ScanVar always bypass.
  sim::Task<Status> InsertVar(const Slice& key, const Slice& value,
                              OpStats* stats = nullptr);
  sim::Task<Status> LookupVar(const Slice& key, std::string* value,
                              OpStats* stats = nullptr);
  sim::Task<Status> DeleteVar(const Slice& key, OpStats* stats = nullptr);
  sim::Task<Status> ScanVar(
      const Slice& from, uint32_t count,
      std::vector<std::pair<std::string, std::string>>* out,
      OpStats* stats = nullptr);
  sim::Task<Status> MultiGetVar(std::vector<std::string> keys,
                                std::vector<VarGetResult>* out,
                                OpStats* stats = nullptr);
  sim::Task<Status> MultiInsertVar(
      std::vector<std::pair<std::string, std::string>> kvs,
      OpStats* stats = nullptr);

  const char* name() const { return "hybrid"; }

  int cs_id() const { return cs_id_; }

  // RDWC (src/combine/): installed by HybridSystem when delegation is
  // enabled; the table is shared by every client of the deployment.
  // Delete/RangeQuery always BYPASS it.
  void SetRdwc(combine::RdwcLayer* rdwc) { rdwc_ = rdwc; }

  // The un-delegated dispatch paths, one overload per record kind. An
  // RDWC window's write runs through these, its value bound late by
  // `bind` (core/btree.h: on the RPC path as the request is built, on the
  // one-sided path once the leaf is locked and read; a declined RPC binds
  // again on the fallback, so the hook must return the same value then).
  // With no layer installed Insert/Lookup and InsertVar/LookupVar are
  // exactly these. The operands are owned, so a lazily started call can
  // never outlive them; `bind` must outlive the returned task.
  sim::Task<Status> InsertDirect(Key key, uint64_t value, OpStats* stats,
                                 const PutBind<uint64_t>* bind = nullptr);
  sim::Task<Status> LookupDirect(Key key, uint64_t* value, OpStats* stats);
  sim::Task<Status> InsertDirect(std::string key, std::string value,
                                 OpStats* stats,
                                 const PutBind<std::string>* bind = nullptr);
  sim::Task<Status> LookupDirect(std::string key, std::string* value,
                                 OpStats* stats);

  // Folds one window-served follower op into its shard's hotness window
  // (an absorbed op is real demand the router must still see) and the
  // caller's OpStats. No remote work happened, so the OpStats fold is
  // empty; the latency is the op's true park-to-serve time.
  void RecordAbsorbed(Key key, bool is_write, sim::SimTime start,
                      OpStats* stats);

 private:
  void Finish(int shard, Path path, bool is_write, const OpStats& local,
              bool fallback, sim::SimTime start, OpStats* stats);

  // Insert/Lookup for either record kind: hot routing keys run through
  // an RDWC window, everything else dispatches directly.
  template <typename K, typename V>
  sim::Task<Status> Put(Key routing_key, K key, V value, OpStats* stats);
  template <typename K, typename V>
  sim::Task<Status> Get(Key routing_key, K key, V* value, OpStats* stats);

  // The batch skeleton all five batch ops share. `Item` is one key's
  // operand (a key or a key/value pair), `Res` its per-key outcome (a get
  // result or a Status). Keys are split by logical shard; each RPC-path
  // shard gets ONE coalesced `opcode` request, the one-sided rest ONE
  // doorbell-batched tree(tree_, items, &res, &stats), both concurrently;
  // keys the MS declined (Retry) go through one more one-sided batch; then
  // RecordBatch.
  template <typename Item, typename Res, typename TreeFn>
  sim::Task<Status> RunBatch(std::vector<Item> items, std::vector<Res>* out,
                             bool is_write, uint64_t opcode, TreeFn tree,
                             OpStats* stats);
  // A TreeClient batch call with per-key outcomes (MultiGet, MultiGetVar,
  // MultiDelete): the one-sided half of a hybrid batch.
  template <typename Item, typename Res>
  using TreeBatch = sim::Task<Status> (TreeClient::*)(std::vector<Item>,
                                                       std::vector<Res>*,
                                                       OpStats*);
  // MultiGet for either record kind (its dedupe rule: serve each distinct
  // key once, fan the result out) and MultiInsert (last writer wins), each
  // given the record kind's one-sided batch call.
  template <typename K, typename Res>
  sim::Task<Status> GetBatch(std::vector<K> keys, std::vector<Res>* out,
                             TreeBatch<K, Res> tree, OpStats* stats);
  template <typename K, typename V>
  sim::Task<Status> PutBatch(
      std::vector<std::pair<K, V>> kvs,
      sim::Task<Status> (TreeClient::*tree)(std::vector<std::pair<K, V>>,
                                            OpStats*),
      OpStats* stats);
  // The RPC arm of RangeQuery and ScanVar: an empty scan answers without a
  // round trip, and one of 2^16 entries or more declines at once (it would
  // outrun the executor's leaf budget).
  template <typename K, typename Entry>
  sim::Task<Status> RpcScan(uint16_t ms, K from, uint32_t count,
                            std::vector<Entry>* out, OpStats* stats);

  // One RPC sub-batch's accounting view (its key indices + stats; the
  // per-key shard comes from shard_of).
  struct SlotView {
    const std::vector<size_t>* idxs;
    const OpStats* local;
  };
  // The batch skeleton's single-pass accounting: every key is recorded
  // exactly once — fallback keys with served = one-sided and the
  // fallback flag, so a fully-declined slot still charges its wasted RPC
  // attempt. A slot's OpStats ride its first key, the fallback batch's
  // OpStats the first fallback key, the one-sided pool's its first key;
  // per-key latency is the batch's amortized cost (what the router should
  // compare against singletons).
  void RecordBatch(const std::vector<SlotView>& slots,
                   const std::vector<int>& shard_of,
                   const std::vector<uint8_t>& is_fb,
                   const std::vector<size_t>& os_idx, const OpStats& os_local,
                   const OpStats& fb_local, bool is_write, uint64_t per_key_ns,
                   OpStats* stats);

  // The dispatch skeleton every singleton op shares: map the key to its
  // shard, take the assigned path, fall back one-sided when the MS
  // declines, and fold the op into the tracker. `rpc` is invoked as
  // rpc(home_ms, &local_stats), `tree` as tree(&local_stats); both must
  // capture their operands by value, or by reference into the coroutine
  // frame that awaits this one (a plain caller's frame is gone by the
  // time this coroutine runs). The op's trace context rides `local`, so
  // the spans of whichever path serves it nest under the caller's.
  template <typename RpcFn, typename TreeFn>
  sim::Task<Status> Dispatch(Key routing_key, bool is_write, RpcFn rpc,
                             TreeFn tree, OpStats* stats) {
    const int shard = router_->ShardFor(routing_key);
    const Path path = router_->PathOfShard(shard);
    const sim::SimTime start = sim_->now();
    OpStats local;
    local.trace = stats != nullptr ? stats->trace : nullptr;
    bool fallback = false;
    Status st;
    if (path == Path::kRpc) {
      st = co_await rpc(router_->HomeMsFor(shard), &local);
      if (st.IsRetry()) {
        fallback = true;
        st = co_await tree(&local);
      }
    } else {
      st = co_await tree(&local);
    }
    // Stats are attributed to the path that actually served the op.
    const Path served = fallback ? Path::kOneSided : path;
    Finish(shard, served, is_write, local, fallback, start, stats);
    co_return st;
  }

  TreeClient* tree_;
  TreeRpcClient rpc_;
  AdaptiveRouter* router_;
  HotnessTracker* tracker_;
  sim::Simulator* sim_;
  int cs_id_;
  combine::RdwcLayer* rdwc_ = nullptr;
};

}  // namespace sherman::route

#endif  // SHERMAN_ROUTE_HYBRID_CLIENT_H_
