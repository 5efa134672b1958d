// TreeRpcService: near-memory execution of Sherman tree operations.
//
// The hybrid router's offload path does NOT keep a second index: it ships
// the *operation* to a memory server's wimpy memory thread, which executes
// it directly against the same B-link tree in MS host memory. One RPC
// round trip replaces the one-sided path's 2-4 cache-miss round trips — at
// the price of the memory thread's FIFO service-time ceiling (the trade
// FlexKV exploits; cold / read-mostly shards win, hot shards lose).
//
// Consistency with concurrent one-sided clients:
//  - The simulator is discrete-event, so a handler executes atomically at
//    one instant; readers on either path always observe a consistent node.
//  - One-sided writers hold the HOCL global lock from before they read a
//    leaf until their write-back is applied. The executor therefore checks
//    the node's global lock lane before mutating and DECLINES if it is
//    held; a mutation that lands while the lane is free is ordered either
//    before the one-sided writer's lock CAS (and thus observed by its
//    subsequent read) or after its release. Declined ops fall back to the
//    one-sided path at the caller.
//  - Structural changes (leaf splits) are never performed MS-side; a full
//    leaf also DECLINES to the one-sided path.
//
// Opcode space 200+ chains on top of whatever handler the MS already has
// (chunk-allocation RPCs), so the service coexists with ShermanSystem.
#ifndef SHERMAN_ROUTE_TREE_RPC_H_
#define SHERMAN_ROUTE_TREE_RPC_H_

#include <any>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/btree.h"
#include "core/stats.h"
#include "sim/task.h"
#include "util/logging.h"
#include "util/status.h"

namespace sherman::route {

class TreeRpcService {
 public:
  static constexpr uint64_t kOpInsert = 200;
  static constexpr uint64_t kOpLookup = 201;
  static constexpr uint64_t kOpDelete = 202;
  static constexpr uint64_t kOpScan = 203;
  // Coalesced batches: one RPC carries a token under which the caller
  // staged the key/kv list; per-key outcomes are staged back. Each key
  // beyond the first charges the memory thread half a service slot (a
  // root-to-leaf walk per key), so batches are cheaper than op-at-a-time
  // RPCs but still show up in the FIFO backlog the router watches.
  static constexpr uint64_t kOpMultiGet = 204;
  static constexpr uint64_t kOpMultiInsert = 205;
  static constexpr uint64_t kOpMultiDelete = 206;
  // Varlen (slotted-leaf) ops. Byte keys/values cannot ride the fixed-size
  // RPC words, so EVERY var op stages its operands under a token like the
  // coalesced batches. The executor serves inline records only: values
  // above kInlineThreshold need the client's value-log appender, and
  // out-of-line values whose extent lives on a FOREIGN MS are not
  // near-memory — both decline to the one-sided path.
  static constexpr uint64_t kOpVarInsert = 207;
  static constexpr uint64_t kOpVarLookup = 208;
  static constexpr uint64_t kOpVarDelete = 209;
  static constexpr uint64_t kOpVarScan = 210;
  static constexpr uint64_t kOpMultiVarGet = 211;
  static constexpr uint64_t kOpMultiVarInsert = 212;

  // Response words for write ops; lookups/scans return found counts and
  // stage values out-of-band under a token (the sim's RPC messages are
  // fixed-size, matching rdma::Qp).
  static constexpr uint64_t kAckNotFound = 0;
  static constexpr uint64_t kAckOk = 1;
  static constexpr uint64_t kAckDeclined = ~0ull;

  // Installs handlers on every MS of the system's fabric, chaining to the
  // previously installed handler for foreign opcodes. Counts into the
  // system's registry as rpc.*.
  explicit TreeRpcService(ShermanSystem* system);

  TreeRpcService(const TreeRpcService&) = delete;
  TreeRpcService& operator=(const TreeRpcService&) = delete;

  ShermanSystem* system() { return system_; }

  // Installs this service's handler on one MS — used when a memory server
  // joins after construction (elastic scale-out). Must run after the MS's
  // chunk manager installed its base handler (ChainRpcHandler forwards
  // foreign opcodes to it).
  void InstallOn(int ms);

  // The token mailbox every out-of-band operand and result rides: the
  // client stages an op's operands under a fresh token, the executor
  // takes them and stages its result back under the same token, and the
  // client takes that. Take() of an absent token or a mistyped payload is
  // a protocol bug.
  uint64_t NewToken() { return next_token_++; }
  template <typename T>
  void Stage(uint64_t token, T value) {
    mailbox_[token] = std::move(value);
  }
  template <typename T>
  T Take(uint64_t token) {
    auto it = mailbox_.find(token);
    SHERMAN_CHECK(it != mailbox_.end());
    T* v = std::any_cast<T>(&it->second);
    SHERMAN_CHECK(v != nullptr);
    T out = std::move(*v);
    mailbox_.erase(it);
    return out;
  }


 private:
  uint64_t Handle(int ms, uint64_t opcode, uint64_t a, uint64_t b);
  // Counts one singleton op as served or declined and maps its outcome
  // (OK / NotFound / Retry = declined) to the response word.
  uint64_t Ack(const Status& st);

  // Descends from the root to the level-`level` node covering `key`
  // through raw host memory. Returns null on any structural anomaly
  // (caller declines). Height-1 trees have no level-1 node.
  rdma::GlobalAddress FindNode(Key key, uint8_t level) const;
  rdma::GlobalAddress FindLeaf(Key key) const { return FindNode(key, 0); }
  // Is the HOCL global lock lane guarding `addr` currently held?
  bool NodeLocked(rdma::GlobalAddress addr) const;

  // Per-key executors shared by the singleton and coalesced ops, each
  // written once over a record policy (core/record_policy.h: the same
  // leaf-local ops the one-sided path runs). Each returns OK, NotFound, or
  // Retry naming the decline reason (locked or full leaf, structural
  // anomaly; for varlen records also an outline value or an extent on a
  // foreign MS).
  template <class R>
  Status HostPut(R rec);
  template <class R>
  Status HostGet(int ms, R rec);
  template <class R>
  Status HostRemove(int ms, R rec);

  // The loop every coalesced op shares: takes the item list staged under
  // `token`, runs `one` per item, counts each outcome, charges the extra
  // root-to-leaf walks, and stages the per-item results back.
  template <typename Res, typename Item, typename Fn>
  uint64_t ServeBatch(int ms, uint64_t token, Fn one);
  // The leaf walk both scans share, from the leaf covering `from`'s key:
  // the policy's HostCollect appends one leaf's entries (false = the rest
  // must resolve one-sided). A result cut short by anything but the end of
  // the tree declines, so a query never returns a different set depending
  // on the router's assignment.
  template <class R>
  uint64_t ServeScan(int ms, R from, uint32_t count, uint64_t token);
  // Each root-to-leaf walk (or scanned leaf) beyond the first costs the
  // wimpy core half a service slot, so batches and long scans show up in
  // the FIFO backlog the router watches.
  void ChargeExtraWalks(int ms, uint64_t walks);

  // Opportunistic MS-side mirror of TreeClient::TryMergeLeafLocked: the
  // handler runs atomically at one simulated instant, so instead of taking
  // the three locks it simply skips the merge unless the leaf's, the left
  // sibling's, and the parent's lock lanes are all free. The freed leaf
  // goes to its MS's epoch-keyed grace list like any client-side merge.
  void TryMergeHost(rdma::GlobalAddress leaf);

  ShermanSystem* system_;
  std::map<uint64_t, std::any> mailbox_;
  uint64_t next_token_ = 1;
  // rpc.*: ops served / declined, and leaves merged + reclaimed by the
  // MS-side delete executor (same merge logic as the one-sided path;
  // skipped when any involved lock is held).
  obs::Counter* served_;
  obs::Counter* declined_;
  obs::Counter* leaf_merges_;
};

// A batch result's per-key status (the executors' and the hybrid batch
// skeleton's view of "was this key declined").
inline const Status& StatusOf(const Status& st) { return st; }
template <typename Result>
const Status& StatusOf(const Result& r) {
  return r.status;
}

// Per-compute-server client stub for TreeRpcService. The caller names the
// target MS (the shard's home, per the router's DEX-style pinning); a Retry
// status means the MS declined and the op must be retried one-sided.
class TreeRpcClient {
 public:
  TreeRpcClient(TreeRpcService* service, int cs_id)
      : service_(service), cs_id_(cs_id) {}

  sim::Task<Status> Insert(uint16_t ms, Key key, uint64_t value,
                           OpStats* stats);
  sim::Task<Status> Lookup(uint16_t ms, Key key, uint64_t* value,
                           OpStats* stats);
  sim::Task<Status> Delete(uint16_t ms, Key key, OpStats* stats);
  sim::Task<Status> RangeQuery(uint16_t ms, Key from, uint32_t count,
                               std::vector<std::pair<Key, uint64_t>>* out,
                               OpStats* stats);

  // Coalesced batches against one MS (the shard's home): ONE RPC carries
  // the whole sub-batch. Per-key statuses are OK / NotFound / Retry; a
  // Retry key was declined MS-side and must fall back one-sided.
  sim::Task<Status> MultiGet(uint16_t ms, std::vector<Key> keys,
                             std::vector<MultiGetResult>* out, OpStats* stats);
  sim::Task<Status> MultiInsert(uint16_t ms,
                                std::vector<std::pair<Key, uint64_t>> kvs,
                                std::vector<Status>* per_key, OpStats* stats);
  sim::Task<Status> MultiDelete(uint16_t ms, std::vector<Key> keys,
                                std::vector<Status>* per_key, OpStats* stats);

  // Varlen ops against one MS; operands stage under a token (the RPC
  // words carry only the token). Retry = declined, retry one-sided.
  sim::Task<Status> InsertVar(uint16_t ms, const Slice& key,
                              const Slice& value, OpStats* stats);
  sim::Task<Status> LookupVar(uint16_t ms, const Slice& key,
                              std::string* value, OpStats* stats);
  sim::Task<Status> DeleteVar(uint16_t ms, const Slice& key, OpStats* stats);
  sim::Task<Status> ScanVar(
      uint16_t ms, const Slice& from, uint32_t count,
      std::vector<std::pair<std::string, std::string>>* out, OpStats* stats);
  sim::Task<Status> MultiGetVar(uint16_t ms, std::vector<std::string> keys,
                                std::vector<VarGetResult>* out,
                                OpStats* stats);
  sim::Task<Status> MultiInsertVar(
      uint16_t ms, std::vector<std::pair<std::string, std::string>> kvs,
      std::vector<Status>* per_key, OpStats* stats);

 private:
  // The round trip every stub shares: sends `opcode` with words (a, b),
  // counts it, and maps the response — kAckDeclined to Retry(`declined`),
  // kAckNotFound to NotFound — taking the result staged under `token`
  // into *out on OK (when `out` is non-null).
  template <typename Out>
  sim::Task<Status> Call(uint16_t ms, uint64_t opcode, uint64_t a, uint64_t b,
                         uint64_t token, Out* out, const char* declined,
                         OpStats* stats);
  // Call for ops whose operands ride the mailbox: stages `in` under a
  // fresh token, which becomes the request's word.
  template <typename In, typename Out>
  sim::Task<Status> Staged(uint16_t ms, uint64_t opcode, In in, Out* out,
                           const char* declined, OpStats* stats);
  // The coalesced batches: one Staged call per non-empty sub-batch.
  template <typename Item, typename Res>
  sim::Task<Status> Batch(uint16_t ms, uint64_t opcode,
                          std::vector<Item> items, std::vector<Res>* out,
                          OpStats* stats);

  TreeRpcService* service_;
  int cs_id_;
};

}  // namespace sherman::route

#endif  // SHERMAN_ROUTE_TREE_RPC_H_
