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
//  - The executor runs the op core's record checks first (the policy's
//    Check / CheckPut / CheckScan): a malformed record declines, so the
//    one-sided fallback answers it exactly as a one-sided deployment would.
//
// The wire protocol is one opcode per op for both record kinds: the
// executor serves a fixed tree over FixedPolicy and a varlen tree over
// VarPolicy (core/record_policy.h). Every operand rides the token mailbox:
// the client stages it under a fresh token, the token is the request's one
// word, and the result comes back under the same token (a simulated RPC
// message is 32 bytes whatever it carries, as in rdma::Qp).
//
// Opcode space 200+ chains on top of whatever handler the MS already has
// (chunk-allocation RPCs), so the service coexists with ShermanSystem.
#ifndef SHERMAN_ROUTE_TREE_RPC_H_
#define SHERMAN_ROUTE_TREE_RPC_H_

#include <any>
#include <cstdint>
#include <map>
#include <utility>
#include <variant>
#include <vector>

#include "core/btree.h"
#include "core/stats.h"
#include "sim/task.h"
#include "util/logging.h"
#include "util/status.h"

namespace sherman::route {

class TreeRpcService {
 public:
  // Operands (staged by the client) -> result (staged back on OK). K and V
  // are the record kind's key and value: u64s on a fixed tree, byte
  // strings on a varlen one.
  static constexpr uint64_t kOpPut = 200;     // (K, V)
  static constexpr uint64_t kOpGet = 201;     // K -> V
  static constexpr uint64_t kOpRemove = 202;  // K
  static constexpr uint64_t kOpScan = 203;    // (K from, u32 count) -> entries
  // Coalesced batches: one RPC carries a key (or key/value) list, and the
  // per-key outcomes come back as one list. Each key beyond the first
  // charges the memory thread half a service slot (a root-to-leaf walk per
  // key), so batches are cheaper than op-at-a-time RPCs but still show up
  // in the FIFO backlog the router watches.
  static constexpr uint64_t kOpMultiGet = 204;     // [K] -> [get result]
  static constexpr uint64_t kOpMultiPut = 205;     // [(K, V)] -> [Status]
  static constexpr uint64_t kOpMultiRemove = 206;  // [K] -> [Status]

  // Response words: a singleton op's outcome (a batch always answers
  // kAckOk; its keys carry their own statuses).
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

  // The token mailbox every operand and result rides: the client stages an
  // op's operands under a fresh token, the executor takes them and stages
  // its result back under the same token, and the client takes that.
  // Take() of an absent token or a mistyped payload is a protocol bug.
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
  uint64_t Handle(int ms, uint64_t opcode, uint64_t token);
  // One case per op, over record policy R (FixedPolicy on a fixed tree,
  // VarPolicy on a varlen one): takes the operands staged under `token`,
  // runs the per-key executors below, and stages the result back.
  template <class R>
  uint64_t Serve(int ms, uint64_t opcode, uint64_t token);
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
  // record checks and leaf-local ops the one-sided path runs). Each
  // returns OK, NotFound, or Retry naming the decline reason (a record the
  // op core rejects, a locked or full leaf, a structural anomaly; for
  // varlen records also an outline value or an extent on a foreign MS).
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
  // The leaf walk of a scan, from the leaf covering `from`'s key: the
  // policy's HostCollect appends one leaf's entries (false = the rest must
  // resolve one-sided). A result cut short by anything but the end of the
  // tree declines, so a query never returns a different set depending on
  // the router's assignment.
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

// Per-compute-server client of TreeRpcService. The caller names the target
// MS (the shard's home, per the router's DEX-style pinning) and the opcode;
// a Retry status means the MS declined and the op must run one-sided.
class TreeRpcClient {
 public:
  TreeRpcClient(TreeRpcService* service, int cs_id)
      : service_(service), cs_id_(cs_id) {}

  // One op, one round trip: stages `in` under a fresh token, sends
  // `opcode` with the token as its word, and maps the response word:
  // kAckDeclined to Retry, kAckNotFound to NotFound, kAckOk to OK, taking
  // the result staged back under the token into *out when `out` is
  // non-null. The task owns `in`, so it never outlives its operands.
  template <typename In, typename Out = std::monostate>
  sim::Task<Status> Call(uint16_t ms, uint64_t opcode, In in, OpStats* stats,
                         Out* out = nullptr) {
    const uint64_t token = service_->NewToken();
    service_->Stage(token, std::move(in));
    const uint64_t r =
        co_await service_->system()->fabric().qp(cs_id_, ms).Rpc(opcode, token);
    if (stats != nullptr) stats->round_trips++;
    if (r == TreeRpcService::kAckDeclined) {
      co_return Status::Retry("ms-side op declined");
    }
    if (r == TreeRpcService::kAckNotFound) co_return Status::NotFound();
    if (out != nullptr) *out = service_->Take<Out>(token);
    co_return Status::OK();
  }

  // A coalesced batch against one MS: ONE Call carries every item, and
  // *out gets one outcome per item (OK / NotFound / Retry: declined MS-side,
  // fall back one-sided). A batch never declines as a whole.
  template <typename Item, typename Res>
  sim::Task<Status> Batch(uint16_t ms, uint64_t opcode,
                          std::vector<Item> items, std::vector<Res>* out,
                          OpStats* stats) {
    const size_t n = items.size();
    const Status st = co_await Call(ms, opcode, std::move(items), stats, out);
    SHERMAN_CHECK(st.ok() && out->size() == n);
    co_return st;
  }

 private:
  TreeRpcService* service_;
  int cs_id_;
};

}  // namespace sherman::route

#endif  // SHERMAN_ROUTE_TREE_RPC_H_
