// Sherman: a write-optimized distributed B+Tree on disaggregated memory.
//
// The tree is a B-link tree (§4.2.1): every node carries fence keys, its
// level, and a sibling pointer, so traversals remain correct under
// concurrent splits by chasing siblings. Values live in leaves; internal
// nodes are sorted; leaves are unsorted with per-entry version pairs in
// Sherman mode (§4.4) or sorted with a checksum in FG mode (§3.1.1).
//
// Concurrency control (§4.2.2): exclusive per-node HOCL locks resolve
// write-write conflicts; lock-free reads with (two-level) version or
// checksum validation resolve read-write conflicts.
//
// Every paper technique is a TreeOptions toggle, so the FG+ baseline and
// each ablation stage of Figures 10/11/16 are ordinary configurations (see
// core/presets.h).
//
// Usage (see examples/quickstart.cc):
//   rdma::FabricConfig fcfg;            // topology + NIC model
//   TreeOptions topts = ShermanOptions();
//   ShermanSystem system(fcfg, topts);
//   system.BulkLoad(sorted_kvs, 0.8);
//   TreeClient& client = system.client(/*cs_id=*/0);
//   sim::Spawn(RunMyWorkload(&client));  // coroutines issue Insert/Lookup/...
//   system.fabric().simulator().Run();
#ifndef SHERMAN_CORE_BTREE_H_
#define SHERMAN_CORE_BTREE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "alloc/chunk_manager.h"
#include "alloc/cs_allocator.h"
#include "alloc/reclaim.h"
#include "cache/index_cache.h"
#include "cache/leaf_hints.h"
#include "core/node_layout.h"
#include "core/stats.h"
#include "lock/hocl.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rdma/fabric.h"
#include "recover/intent.h"
#include "sanitizer/dmsan.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace sherman {

namespace migrate {
class Migrator;  // drives live shard migration through TreeClient internals
}
namespace recover {
class Recoverer;  // replays/rolls back in-doubt intents of crashed clients
}

struct TreeOptions {
  TreeShape shape;

  // Command combination (§4.5): doorbell-batch dependent writes (write-back
  // + lock release) instead of awaiting each round trip.
  bool combine_commands = true;

  // Two-level versions (§4.4): unsorted leaves with per-entry version
  // pairs; plain insert/delete writes back only the touched entry. When
  // false, leaves are sorted and whole nodes are written back (FG).
  bool two_level_versions = true;

  // How lock-free readers validate a fetched node (core/node_layout.h).
  using Consistency = sherman::Consistency;
  Consistency consistency = Consistency::kVersions;

  // HOCL configuration (§4.3) — on-chip / hierarchical / wait-queue /
  // handover toggles.
  HoclOptions lock;

  // Index cache (§4.2.3).
  bool enable_cache = true;
  uint64_t cache_bytes = 4ull << 20;

  // Leaf-hint sidecar (src/cache/leaf_hints.h): per-MS hint tables that
  // let a client with no cached path serve a cold point lookup with ONE
  // fingerprint-validated leaf READ. Advisory only — a stale or missing
  // hint falls back to full traversal; correctness never depends on it.
  bool enable_leaf_hints = false;
  // After this many stale/chased hints since the last mirror fetch, the
  // client refetches the MS tables (cheap: one header READ per MS plus
  // the entry array of any MS whose generation moved).
  uint32_t hint_refresh_miss_threshold = 8;

  // Space reclamation under delete churn: when a delete leaves a leaf with
  // fewer than merge_threshold * leaf_capacity live entries, the deleter
  // merges the survivors into the left sibling (under leaf + sibling +
  // parent HOCL locks), tombstones the empty leaf, and returns its memory
  // to the owning MS's epoch-protected grace list (alloc/reclaim.h).
  // 0 disables merging (the released Sherman artifact's behaviour: deletes
  // only null the slot and leaves are never reclaimed).
  double merge_threshold = 0.25;

  // --- variable-length records (shape.varlen mode) ---
  // Values above kInlineThreshold (core/node_layout.h) go to the value log.
  // Segment size the value log carves from the chunk allocator (one open
  // segment and at most one spare per size class per client). Must hold at least one extent of
  // the largest class (8 KB) and at most 65535 of the smallest (64 B).
  uint32_t vlog_segment_bytes = 64 << 10;

  void Validate() const;
};

class ShermanSystem;
class FixedPolicy;
class VarPolicy;
struct LeafWrite;

namespace vlog {
class VlogClient;
}

// Late value binding for one put (RDWC write windows, src/combine/): the
// put calls the hook once, at the last instant its path allows — on the
// one-sided path once the leaf is locked and read, on the RPC path as the
// request is built — and writes the value it returns instead of its own.
// A null hook writes the put's own value.
template <typename V>
using PutBind = std::function<V()>;

// Per-key answer of MultiGetVar.
struct VarGetResult {
  Status status = Status::NotFound();
  std::string value;
};

// Per-compute-server tree handle, shared by that CS's client threads
// (coroutines). All operations are coroutines driven by the fabric's
// simulator.
class TreeClient {
 public:
  TreeClient(ShermanSystem* system, int cs_id);
  ~TreeClient();

  TreeClient(const TreeClient&) = delete;
  TreeClient& operator=(const TreeClient&) = delete;

  // Inserts or updates (the paper folds updates into inserts). `bind`, if
  // set, must outlive the returned task.
  sim::Task<Status> Insert(Key key, uint64_t value, OpStats* stats = nullptr,
                           const PutBind<uint64_t>* bind = nullptr);

  // Point lookup. Returns NotFound if absent.
  sim::Task<Status> Lookup(Key key, uint64_t* value, OpStats* stats = nullptr);

  // Deletes `key` (clears the entry). When the leaf drops below the merge
  // threshold the deleter additionally merges the survivors into the left
  // sibling and reclaims the leaf (see TreeOptions::merge_threshold).
  // Returns NotFound if absent.
  sim::Task<Status> Delete(Key key, OpStats* stats = nullptr);

  // Returns up to `count` key-ordered pairs with key >= from. Not atomic
  // with concurrent writes (§4.4, "Range query").
  sim::Task<Status> RangeQuery(Key from, uint32_t count,
                               std::vector<std::pair<Key, uint64_t>>* out,
                               OpStats* stats = nullptr);

  // Batched point lookups (doorbell batching §4.5 applied to independent
  // ops): plans every key to its leaf through the index cache — cache-
  // missing keys traverse concurrently, overlapping their descents — then
  // fetches all distinct target leaves with one doorbell-batched READ list
  // per memory server, validates each leaf locally, and re-serves any key
  // whose leaf failed validation (stale plan, torn read, concurrent split)
  // via the op-at-a-time path. out->at(i) answers keys[i]; per-key status
  // is OK or NotFound. Returns the first hard error, else OK.
  sim::Task<Status> MultiGet(std::vector<Key> keys,
                             std::vector<MultiGetResult>* out,
                             OpStats* stats = nullptr);

  // Batched inserts/updates: plans leaves like MultiGet, groups keys by
  // target leaf, and applies each group under a single lock acquisition
  // with the entry write-backs and the lock release combined into one
  // doorbell batch. Keys the planned leaf cannot serve (split needed,
  // fence moved) fall back to Insert(). Groups for distinct leaves
  // proceed concurrently, pipelining their lock/read/write round trips.
  sim::Task<Status> MultiInsert(std::vector<std::pair<Key, uint64_t>> kvs,
                                OpStats* stats = nullptr);

  // Batched deletes: plans leaves like MultiInsert, groups keys by target
  // leaf, and clears each group's entries under a single lock acquisition
  // with the entry writes and the lock release combined into one doorbell
  // batch. A group that leaves its leaf under the merge threshold runs the
  // same merge/reclaim logic as the singleton path. out->at(i) is OK or
  // NotFound for keys[i]; keys the planned leaf cannot serve fall back to
  // Delete().
  sim::Task<Status> MultiDelete(std::vector<Key> keys,
                                std::vector<Status>* out,
                                OpStats* stats = nullptr);

  // --- variable-length operations (shape.varlen mode only) ---
  // Keys are byte strings (1..shape.max_key_len bytes) routed through the
  // fixed u64 tree on RoutingKeyFor(key); values are byte strings up to
  // 64 KB. Values above kInlineThreshold live in the value log (src/vlog/).
  // Each fixed op and its *Var twin run the same op core (see the private
  // section) over a different record policy (core/record_policy.h).

  // Inserts or updates `key`. An update that crosses the inline threshold
  // in either direction relocates the value and retires the old extent.
  // A bound value (`bind`) must be inline, like the put's own.
  sim::Task<Status> InsertVar(const Slice& key, const Slice& value,
                              OpStats* stats = nullptr,
                              const PutBind<std::string>* bind = nullptr);
  // Point lookup; NotFound if absent. Out-of-line values cost one extra
  // READ, except on the swizzle fast path (cached leaf + cached pointer:
  // the leaf READ and the value READ are issued together and the leaf
  // validates the speculation).
  sim::Task<Status> LookupVar(const Slice& key, std::string* value,
                              OpStats* stats = nullptr);
  // Deletes `key`; retires its extent if out-of-line. NotFound if absent.
  sim::Task<Status> DeleteVar(const Slice& key, OpStats* stats = nullptr);
  // Up to `count` key-ordered pairs with key >= from (byte order). Not
  // atomic with concurrent writes, like RangeQuery.
  sim::Task<Status> ScanVar(const Slice& from, uint32_t count,
                            std::vector<std::pair<std::string, std::string>>* out,
                            OpStats* stats = nullptr);
  // Batched variable-length lookups: plans/fetches distinct leaves with
  // doorbell-batched READ lists (like MultiGet), then resolves out-of-line
  // values concurrently. out->at(i) answers keys[i].
  sim::Task<Status> MultiGetVar(std::vector<std::string> keys,
                                std::vector<VarGetResult>* out,
                                OpStats* stats = nullptr);
  // Batched variable-length inserts: reserves every out-of-line value's
  // extent up front and posts all their WRITEs at once, then groups keys
  // by target leaf and applies each group under one lock (like
  // MultiInsert) once the WRITEs have landed. Unservable keys fall back to
  // InsertVar. A failed reservation retires the batch's extents and
  // writes no leaf.
  sim::Task<Status> MultiInsertVar(
      std::vector<std::pair<std::string, std::string>> kvs,
      OpStats* stats = nullptr);
  // One segment-GC pass: seals this client's open segments, claims at most
  // one victim per MS above vlog::kGcDeadPermille, and relocates each live
  // record copy-then-flip (reserve fresh -> write it and repoint the leaf
  // under its lock -> retire the old extent). `relocated` (optional)
  // counts moved records.
  sim::Task<Status> VlogGcOnce(uint64_t* relocated = nullptr,
                               OpStats* stats = nullptr);
  // This client's value-log handle (valid only in varlen mode).
  vlog::VlogClient& vlog() { return *vlog_; }

  int cs_id() const { return cs_id_; }
  IndexCache& cache() { return cache_; }
  HoclClient& hocl() { return hocl_; }
  CsAllocator& allocator() { return allocator_; }
  // This client's crash recoverer. Wired as the HOCL recovery hook (lease
  // steals trigger it); also callable directly by an operator / failure
  // detector once a client is known dead.
  recover::Recoverer& recoverer() { return *recoverer_; }

 private:
  friend class ShermanSystem;
  // The migrator reuses the traversal/lock primitives below so its copy
  // passes pay the same simulated round trips as any other client.
  friend class migrate::Migrator;
  // The recoverer replays/rolls back crashed clients' structural ops with
  // the same primitives (and the same simulated round-trip costs).
  friend class recover::Recoverer;
  // The record policies' value-log hooks use the client's vlog handle,
  // swizzle cache and raw reads (core/record_policy.h).
  friend class FixedPolicy;
  friend class VarPolicy;

  struct LeafRef {
    rdma::GlobalAddress addr;
    bool via_hint = false;  // served by the leaf-hint mirror (advisory)
  };
  // A node locked by LockChasing. HOCL hashes node addresses into a finite
  // lock table, so a node locked while others are held can collide onto a
  // lane the caller already owns. It is then already exclusively ours
  // (owned = false): it is not re-acquired, since waiting on our own lane
  // would self-deadlock, and Release leaves the lane to its holder.
  struct Locked {
    rdma::GlobalAddress addr;
    LockGuard guard;
    bool owned = true;
  };
  // How LockChasing acquires a lane the caller does not hold yet.
  enum class Acquire {
    kWait,  // HoclClient::Lock: waits, recovering an expired holder inline
    kTry,   // bounded TryLock; contention or a dead holder aborts as Retry
  };

  const TreeOptions& opt() const;
  rdma::Qp& QpFor(rdma::GlobalAddress addr);
  uint32_t node_size() const { return opt().shape.node_size; }

  // One RDMA_READ of `len` bytes; counts a round trip.
  sim::Task<Status> ReadRaw(rdma::GlobalAddress addr, uint8_t* buf,
                            uint32_t len, OpStats* stats);
  // Lock-free node read with consistency validation + wraparound guard;
  // retries internally (bounded by kMaxReadRetries).
  sim::Task<Status> ReadNodeChecked(rdma::GlobalAddress addr, uint8_t* buf,
                                    OpStats* stats);
  // The 4-bit version wraparound guard (§4.4): under node versions, a READ
  // that took `read_ns` may span a full version cycle, so matching
  // versions prove nothing and the node must be re-read (checksums do not
  // wrap). Shared by every validated read; see the threshold's derivation
  // at its definition.
  bool WrapGuardTrips(sim::SimTime read_ns) const;
  bool NodeConsistent(const uint8_t* buf) const;

  // Root discovery: reads the root pointer from MS 0's meta region and the
  // root node itself.
  sim::Task<Status> LoadRoot(OpStats* stats);

  // Reads+parses the internal node at `addr` expected to (transitively)
  // cover `key`: retries torn reads, chases siblings when key >= hi fence.
  // Returns Retry when the caller must restart from the root (key fell
  // left of the node or the node was freed).
  sim::Task<Status> ReadInternalContaining(rdma::GlobalAddress addr, Key key,
                                           ParsedInternal* out,
                                           OpStats* stats);

  // Address of the node at `target_level` covering `key` (level 0 = leaf).
  // Requires target_level <= current root level.
  sim::Task<StatusOr<rdma::GlobalAddress>> FindNodeAddr(Key key,
                                                        uint8_t target_level,
                                                        OpStats* stats);
  // Leaf address via the index cache, falling back to the leaf-hint
  // mirror, falling back to traversal. Ops pass allow_hint=false on retry
  // attempts: a hint that already misled this op (validation failure,
  // sibling-chase exhaustion) must not be re-consulted, or an incomplete
  // hint table (entries dropped when full) livelocks the restart loop —
  // every re-resolution re-serves a mirror "predecessor" that is really
  // the entry left of a table hole.
  sim::Task<StatusOr<LeafRef>> FindLeafAddr(Key key, OpStats* stats,
                                            bool allow_hint = true);

  // The one locked B-link chase (§4.2.1, §4.3): locks `addr`, reads it into
  // `buf`, and chases siblings until the node's fence interval contains
  // `key` AND the node is at the expected `level` (0 = leaf). Returns
  // Retry if traversal must restart. The level check is load-bearing under
  // reclamation: a freed node's address can be recycled into a node of a
  // DIFFERENT role, so a stale cached address may resolve to an internal
  // node where a leaf once lived (or vice versa) — fences alone cannot
  // tell them apart. A hop that does not cover the key wrote nothing, so
  // its release is posted and the chase goes on without awaiting it.
  //
  // `held` names the locks the caller already holds (null = none). A
  // first lock (nothing held) waits and traces tree.lock_read, and a leaf
  // hop of it drops the level-1 translation unless a learned split
  // explains the hop (IndexCache::LearnSplit, which every validated leaf
  // calls). A lock taken while holding others
  // checks each hop's lane against `held` (see Locked) and acquires as
  // `how` says; HOCL's multi-lock rule (lock/hocl.h) asks for kTry.
  sim::Task<StatusOr<Locked>> LockChasing(
      rdma::GlobalAddress addr, Key key, uint8_t* buf, OpStats* stats,
      uint8_t level = 0, std::array<rdma::GlobalAddress, 2> held = {},
      Acquire how = Acquire::kWait);
  // One attempt of a locked resolve (the repair lock step of the internal
  // ascent, the migrator and the recoverer): resolves the level-`level`
  // node covering `key` — `hint` when one is given, else FindLeafAddr
  // without the hint mirror at level 0 and FindNodeAddr above — and locks
  // it through LockChasing. A failed lock drops the translation that
  // steered it (InvalidateLevel1Covering at level 0, InvalidateUpperCovering
  // above), or every retry would resolve to the same dead end. The caller
  // owns the attempt bound, backoff and lease renewal.
  sim::Task<StatusOr<Locked>> LockCovering(
      Key key, uint8_t level, uint8_t* buf, OpStats* stats,
      std::array<rdma::GlobalAddress, 2> held = {},
      Acquire how = Acquire::kWait,
      rdma::GlobalAddress hint = rdma::kNullAddress);
  // Releases a LockChasing lock, its write-backs riding the release
  // (§4.5). A node on a lane another held lock owns (owned = false) stays
  // protected by that lock: only the write-backs are posted.
  sim::Task<void> Release(Locked locked,
                          std::vector<rdma::WorkRequest> write_backs,
                          OpStats* stats);

  // --- the op core (core/btree.cc) ---
  // Every point and batch op is written once, over a record policy R
  // (FixedPolicy or VarPolicy, core/record_policy.h) that supplies only
  // what the leaf layout changes. The public ops are one-line adapters.

  // The locked-leaf restart loop of every writer (and of value-log GC
  // relocation): resolves the leaf covering `rk` (the hint mirror only on
  // the first attempt), locks and reads it into `buf`, and restarts from
  // a fresh resolution on dead ends — dropping a misleading hint, and
  // refreshing the root after repeated dead ends.
  sim::Task<StatusOr<Locked>> LockLeaf(Key rk, uint8_t* buf, OpStats* stats);
  // The validated-leaf chase loop of the lock-free point read: resolves
  // the leaf covering `rk`, reads it validated into `buf`, chases B-link
  // siblings (each validated leaf teaches the cached parent its split, as
  // in LockChasing), bounces off dead ends (restarting, refreshing a stale
  // root, probing a repeatedly met tombstone's lock for recovery), and
  // hands the leaf covering `rk` to `visit(view, &done)`, which returns
  // true when the op finished (its status in *done) and false to re-read
  // the leaf.
  template <class Fn>
  sim::Task<Status> ReadLeafChasing(Key rk, uint8_t* buf, Fn& visit,
                                    OpStats* stats);
  // Writes back a locked leaf's dirtied ranges (LeafWrite) with the lock
  // release in one doorbell batch (§4.5). Without command combination the
  // ranges still share one batch, and the release follows it.
  sim::Task<void> WriteBackAndUnlock(const Locked& locked, uint8_t* buf,
                                     const LeafWrite& w, OpStats* stats);
  // Ends a locked leaf's removals: merges the leaf into its left sibling
  // when it underflowed (TryMergeLeafLocked), else writes back `w`.
  sim::Task<void> MergeOrWriteBack(const Locked& locked, uint8_t* buf,
                                   const LeafWrite& w, OpStats* stats);

  template <class R>
  sim::Task<Status> Put(R rec, OpStats* stats,
                        const PutBind<typename R::Value>* bind = nullptr);
  template <class R>
  sim::Task<Status> Get(R rec, OpStats* stats);
  template <class R>
  sim::Task<Status> Remove(R rec, OpStats* stats);
  // Up to `count` entries from `rec`'s key on (§4.4, "Range query"): plans
  // each READ batch from the cached level-1 nodes' child fences and the
  // observed leaf fill (scan_fill_), just the leaves the rest of the range
  // needs (up to 16, across adjacent cached level-1 nodes), fetches them
  // with parallel READs, validates each as its own READ lands, chases
  // siblings, and re-reads torn or slow leaves; the policy collects each
  // leaf (R::ScanLeaf) and reports its live entries. A restart or return
  // first waits for the batch's READs still in flight.
  template <class R>
  sim::Task<Status> Scan(R rec, uint32_t count,
                         std::vector<typename R::ScanEntry>* out,
                         OpStats* stats);
  // The batched ops, over the caller's items (keys or key/value pairs).
  template <class R, class K>
  sim::Task<Status> MultiGetRecords(std::vector<K> keys,
                                    std::vector<typename R::Result>* out,
                                    OpStats* stats);
  template <class R, class K, class V>
  sim::Task<Status> MultiPut(std::vector<std::pair<K, V>> kvs,
                             OpStats* stats);
  template <class R, class K>
  sim::Task<Status> MultiRemove(std::vector<K> keys, std::vector<Status>* out,
                                OpStats* stats);

  // Leaf split under lock (Figure 7, lines 18-35): the policy cuts the
  // live entries plus the pending record into two halves, and the shared
  // split commit publishes them. The put returns at the commit: a linker
  // (LinkLeafSplit) inserts the separator into the parent after the ack.
  template <class R>
  sim::Task<Status> SplitLeafAndUnlock(R& rec, Locked locked,
                                       std::vector<uint8_t> buf,
                                       OpStats* stats);
  // The linker of a committed leaf split, spawned on this client: links
  // sep -> sib_addr into the parent (LinkSplit, including any internal
  // split or new root it cascades into), then publishes the sibling's
  // hint. It holds its own epoch pin, charges no op's OpStats, and counts
  // a failed link in tree.link_failures.
  sim::Task<void> LinkLeafSplit(Key sep, rdma::GlobalAddress sib_addr,
                                int intent_slot);
  // The split commit of leaf and internal splits: the caller claimed
  // `intent_slot` and staged the lower half in `buf` (sibling pointer ->
  // sib_addr) and the upper half in `sib_buf`. Publishes the intent and
  // writes both nodes (the sibling rides the release batch when it shares
  // the MS, and its WRITE is posted beside the intent's when it does
  // not). The intent stays published until LinkSplit. Crash sites:
  // split.* at level 0, isplit.* above.
  sim::Task<void> CommitSplit(const Locked& locked, uint8_t level, Key lo,
                              Key hi, Key sep, rdma::GlobalAddress sib_addr,
                              uint8_t new_version, uint8_t* buf,
                              uint8_t* sib_buf, int intent_slot,
                              OpStats* stats);
  // Ascent of a committed split at `level`: inserts sep -> child one level
  // up, then clears the split's intent.
  sim::Task<Status> LinkSplit(uint8_t level, Key sep, rdma::GlobalAddress child,
                              int intent_slot, OpStats* stats);

  // Batch plumbing. PlanLeaves resolves every distinct routing key to its
  // leaf, the descents running concurrently so their upper-level READs
  // overlap; it returns each item's leaf (null where planning failed or
  // the item's route is kNullKey, i.e. skipped).
  sim::Task<std::vector<rdma::GlobalAddress>> PlanLeaves(
      const std::vector<Key>& routes, OpStats* stats);
  sim::Task<void> PlanLeafInto(Key key, LeafRef* ref, Status* st,
                               OpStats* stats, sim::CountdownLatch* latch);
  // Fetches `leaves` into `bufs` with one doorbell-batched READ list per
  // memory server (chunked at the NIC postlist cap), all concurrently.
  // Returns true when the fetch outlasted the version wraparound guard, so
  // no version-matching leaf of it may be trusted.
  sim::Task<bool> FetchLeaves(const std::vector<rdma::GlobalAddress>& leaves,
                              std::vector<std::vector<uint8_t>>* bufs,
                              OpStats* stats);
  sim::Task<void> PostReadsInto(uint16_t ms_node,
                                std::vector<rdma::WorkRequest> wrs,
                                OpStats* stats, sim::CountdownLatch* latch);
  // Resolves one batched read's out-of-line value concurrently.
  template <class R>
  sim::Task<void> FetchInto(R* rec, Status* st, OpStats* stats,
                            sim::CountdownLatch* latch);
  // Groups planned items by leaf (unplanned ones get `defer` set) and runs
  // apply(addr, idxs, latch), which spawns one group apply, concurrently.
  template <class Apply>
  sim::Task<void> ApplyGroups(const std::vector<rdma::GlobalAddress>& planned,
                              std::vector<uint8_t>* defer, OpStats* stats,
                              Apply apply);
  // Applies one batch group (the items planned to one leaf) under a single
  // lock, the write-back riding the release; items the leaf cannot serve
  // (fence moved, leaf full) get `defer` set for the singleton fallback.
  // The group applies only once the batch's value WRITEs have landed
  // (`written`).
  template <class R>
  sim::Task<void> ApplyPutGroup(rdma::GlobalAddress addr,
                                std::vector<size_t> idxs, std::vector<R>* recs,
                                sim::CountdownLatch* written,
                                std::vector<uint8_t>* defer, OpStats* stats,
                                sim::CountdownLatch* latch);
  template <class R>
  sim::Task<void> ApplyRemoveGroup(rdma::GlobalAddress addr,
                                   std::vector<size_t> idxs,
                                   std::vector<R>* recs,
                                   std::vector<Status>* out,
                                   std::vector<uint8_t>* defer, OpStats* stats,
                                   sim::CountdownLatch* latch);

  // --- delete-path leaf merging (space reclamation) ---

  // Abort throttling: an aborted merge (leftmost child, unfit sibling, a
  // race) would otherwise re-attempt — and re-abort, at several round
  // trips a try — on every subsequent delete of the still-underflowed
  // leaf. After an abort the leaf backs off for a window of deletes.
  bool MergeBackoffExpired(rdma::GlobalAddress addr);
  void RecordMergeAbort(rdma::GlobalAddress addr);

  // Attempts to merge the LOCKED underflowed leaf (content staged in
  // `buf`, deletions already applied locally) into its left sibling:
  // locks sibling + parent (lane-collision aware), moves survivors, writes
  // the widened sibling, removes the parent entry, tombstones the leaf,
  // posts the free that parks it on the owning MS's grace list, and
  // releases everything. Returns true on success (the leaf lock is released); on any
  // race the secondary locks are released, nothing remote has changed,
  // the leaf stays locked, and the caller falls back to the plain
  // write-back + unlock.
  sim::Task<bool> TryMergeLeafLocked(const Locked& locked, uint8_t* buf,
                                     OpStats* stats);

  // --- the two tails of a migration flip ---
  // A flip (migrate::Migrator) commits when the parent's child pointer
  // swaps from the locked source `src` (content in `buf`) to its `copy`.
  // Each side of that point has one tail, run by the migrator and by a
  // survivor replaying a dead migrator's intent alike, as InsertInternal
  // serves both a split's linker and its replay. `intent_tag` tags the
  // source writes for DMSan (rdma::kWrNoIntent in a replay).

  // After the commit: points the left neighbour at the copy while it
  // still links the source (`sibling_hint`, if set, names it for the
  // first attempt; *relinked, if non-null, says it was rewritten),
  // tombstones an internal source (a leaf source already is), drops a
  // leaf source's hints and frees it; `src` stays locked. On an error
  // (TimedOut when the neighbour stays out of reach) the source is unfreed.
  sim::Task<Status> FinishFlip(const Locked& src, uint8_t* buf,
                               rdma::GlobalAddress copy,
                               rdma::GlobalAddress sibling_hint, Acquire how,
                               uint8_t intent_tag, OpStats* stats,
                               bool* relinked);
  // Before the commit: revives a tombstoned source (the parent still names
  // it), the write riding the release of `src`, then frees the copy.
  sim::Task<void> RollBackFlip(Locked src, uint8_t* buf,
                               rdma::GlobalAddress copy, uint8_t intent_tag,
                               OpStats* stats);

  // Inserts (sep -> child) into the internal level `level`, splitting and
  // recursing upward as needed.
  sim::Task<Status> InsertInternal(Key sep, rdma::GlobalAddress child,
                                   uint8_t level, OpStats* stats);

  // Installs a new root (level `level`) pointing at [old_root | sep ->
  // child] via CAS on the meta root pointer.
  sim::Task<Status> MakeNewRoot(Key sep, rdma::GlobalAddress child,
                                uint8_t level, OpStats* stats);

  // Parallel leaf fetch used by scans; `*duration` (if non-null) receives
  // the READ's latency for the wraparound guard.
  sim::Task<void> ReadInto(rdma::GlobalAddress addr, uint8_t* buf,
                           uint32_t len, sim::SimTime* duration,
                           sim::CountdownLatch* latch);

  // Reader escape hatch for crash recovery: lock-free readers never touch
  // lock lanes, so a reader bouncing off a node torn by a crashed writer
  // (a tombstoned leaf whose merge/flip never completed) would burn its
  // whole restart budget without ever triggering the lease machinery.
  // So at the end of every 8th restart `attempt` a reader that bounced
  // off the tombstone at *addr locks-and-releases it (and clears *addr):
  // the acquisition path observes the dead holder's expired lease and runs
  // recovery, and the next restart resolves freshly. Against a LIVE
  // structural op the probe merely waits out the holder's release — a few
  // extra round trips on an already-pathological path.
  sim::Task<void> ProbeLockForRecovery(rdma::GlobalAddress* addr,
                                       uint32_t attempt, OpStats* stats);

  // GC of one claimed victim segment on `ms` (core/record_policy.cc).
  sim::Task<Status> GcVictimSegment(uint16_t ms, uint64_t base, uint32_t cls,
                                    uint32_t used, uint64_t* relocated,
                                    OpStats* stats);
  // Bounded key -> (vlog ptr, vlen) map behind the swizzle fast path.
  void RememberVptr(const std::string& key, uint64_t ptr, uint16_t vlen);
  void ForgetVptr(const std::string& key);

  // --- leaf-hint sidecar (cache/leaf_hints.cc) ---

  // Consults the CS's hint mirror (refetching the MS tables when never
  // fetched or gone stale); true + *out when a hinted leaf address is
  // available for `key`, false while another op's refetch is in flight.
  // The caller MUST validate the leaf it reads there and fall back to
  // traversal on failure — hints are advisory.
  sim::Task<bool> HintLeafAddr(Key key, rdma::GlobalAddress* out,
                               OpStats* stats);
  // Refetches every MS's hint table whose generation moved.
  sim::Task<void> HintRefresh(OpStats* stats);
  // Publishes (lo fence -> leaf) to the leaf's home MS. Called after a
  // structural commit (split sibling, migration copy, bulk-load seed).
  sim::Task<void> HintPublish(rdma::GlobalAddress leaf, Key lo,
                              OpStats* stats);
  // Removes every hint entry pointing at `leaf` on its home MS. MUST
  // complete before the leaf's kRpcFreeNode (DMSan rule V6). Idempotent.
  sim::Task<void> HintInvalidate(rdma::GlobalAddress leaf, OpStats* stats);
  // A hinted leaf failed validation: drop the mirror entry covering `key`
  // so restart loops do not re-serve it.
  void NoteHintStale(Key key);
  // A hinted leaf was valid but the key had split off to its right.
  void NoteHintChase();

  ShermanSystem* system_;
  int cs_id_;
  HoclClient hocl_;
  CsAllocator allocator_;
  IndexCache cache_;
  recover::IntentTable intents_;
  std::unique_ptr<recover::Recoverer> recoverer_;
  // reclaim.* of the delete path.
  obs::Counter* leaf_merges_;   // leaves merged into their left sibling
  obs::Counter* merge_aborts_;  // merge attempts abandoned to a race
  obs::Counter* nodes_freed_;   // node frees handed to the grace list
  uint64_t delete_ops_ = 0;  // clock for the merge-abort backoff
  std::map<uint64_t, uint64_t> merge_backoff_;  // leaf addr -> retry deadline

  // Varlen mode only: the value-log client and the pointer-swizzle cache
  // (key -> last observed out-of-line pointer + value length; speculative,
  // validated against the leaf on every use).
  std::unique_ptr<vlog::VlogClient> vlog_;
  struct VptrHint {
    uint64_t ptr = 0;
    uint16_t vlen = 0;
  };
  std::map<std::string, VptrHint> vptr_cache_;

  // Leaf-hint mirror (enable_leaf_hints mode), one per CS and shared by
  // its client coroutines: merged lo fence -> leaf address across every
  // MS table, plus the per-MS generation observed at the last fetch.
  // hint_staleness_ counts stale/chased hints since then;
  // hint_refreshing_ is set while one op runs HintRefresh for the CS.
  std::map<Key, rdma::GlobalAddress> hint_mirror_;
  std::vector<uint64_t> hint_gen_;
  bool hint_fetched_ = false;
  bool hint_refreshing_ = false;
  uint32_t hint_staleness_ = 0;
  // hint.* mirror outcomes; null unless enable_leaf_hints.
  obs::Counter* hint_consults_ = nullptr;     // asked for a leaf address
  obs::Counter* hint_served_ = nullptr;       // supplied one
  obs::Counter* hint_stale_ = nullptr;        // hinted leaf failed validation
  obs::Counter* hint_chases_ = nullptr;       // valid, key split off right
  obs::Counter* hint_refreshes_ = nullptr;    // mirror fetches from MS tables
  obs::Counter* hint_publishes_ = nullptr;    // structural publishes issued
  obs::Counter* hint_invalidates_ = nullptr;  // structural invalidates issued

  bool root_known_ = false;
  rdma::GlobalAddress root_addr_;
  uint8_t root_level_ = 0;
  // Running mean of live entries per leaf over the leaves this CS's scans
  // collected, which Scan plans its batches by; negative until the first.
  double scan_fill_ = -1;
};

// The whole deployment: fabric + per-MS chunk managers + per-CS clients.
class ShermanSystem {
 public:
  ShermanSystem(rdma::FabricConfig fabric_config, TreeOptions tree_options);
  ~ShermanSystem();

  ShermanSystem(const ShermanSystem&) = delete;
  ShermanSystem& operator=(const ShermanSystem&) = delete;

  rdma::Fabric& fabric() { return fabric_; }
  sim::Simulator& simulator() { return fabric_.simulator(); }
  const TreeOptions& options() const { return options_; }

  // The deployment's metrics registry (obs/metrics.h), owned by the
  // fabric: every component counts into it where the work happens, and
  // the constructor adds collectors for the levels (cache bytes, grace
  // list, epoch, live segments and hint entries, allocated bytes), so
  // registry().Snapshot() is one consistent view of the whole deployment.
  obs::Registry& registry() { return fabric_.registry(); }

  // Per-op tracer (obs/trace.h). Always constructed; whether spans are
  // recorded follows TraceOptions/SHERMAN_TRACE, and whether call sites
  // exist at all follows the SHERMAN_TRACING build option.
  obs::Tracer& tracer() { return *tracer_; }

  TreeClient& client(int cs_id) { return *clients_[cs_id]; }
  int num_clients() const { return static_cast<int>(clients_.size()); }
  ChunkManager& chunk_manager(int ms_id) { return *chunks_[ms_id]; }
  // Leaf-hint directory of `ms_id`, or null when enable_leaf_hints is off.
  LeafHintDirectory* hint_directory(int ms_id) {
    return ms_id < static_cast<int>(hints_.size()) ? hints_[ms_id].get()
                                                   : nullptr;
  }

  // Fabric-wide reclamation epoch: every index operation pins it for its
  // duration; freed nodes recycle only once every operation pinned at or
  // before the free has retired.
  ReclaimEpoch& reclaim_epoch() { return reclaim_; }

  // DMSan shadow-state checker (sanitizer/dmsan.h). Non-null only when the
  // sanitizer is switched on (SHERMAN_DMSAN env var or -DSHERMAN_DMSAN
  // build default); a pure observer of the fabric, so behavior with it on
  // is simulation-identical to behavior with it off.
  dmsan::Checker* dmsan_checker() { return dmsan_.get(); }

  // Sum over all memory servers of chunk bytes handed out — the footprint
  // metric bench_churn watches for a plateau (node recycling keeps it
  // flat; chunks are never returned once split into nodes).
  uint64_t TotalAllocatedBytes() const {
    uint64_t total = 0;
    for (const auto& c : chunks_) total += c->allocated_bytes();
    return total;
  }

  // Builds the tree directly in MS memory (no simulated traffic) from
  // sorted, unique-key pairs; leaves are `fill` full. Installs the root
  // pointer. Call once, before running clients. In varlen mode only an
  // EMPTY bulk load is allowed (one empty slotted leaf as the root);
  // string records go through BulkLoadVar or client inserts.
  void BulkLoad(const std::vector<std::pair<Key, uint64_t>>& kvs, double fill);

  // Varlen bulk load from sorted, unique string pairs. Values must fit
  // inline (<= kInlineThreshold): the value log is client-owned state and
  // cannot be staged offline; longer values load through InsertVar.
  // Leaves are filled to ~`fill` of their byte budget, never splitting a
  // routing-key group across leaves.
  void BulkLoadVar(const std::vector<std::pair<std::string, std::string>>& kvs,
                   double fill);

  // Elastic scale-out: brings one more memory server online (QPs from every
  // CS, chunk manager installed) and returns its id. The new MS serves
  // allocations immediately; key ranges move to it only via explicit
  // migration (migrate::Migrator).
  int AddMemoryServer();

  // --- test/debug helpers (direct memory, not simulated) ---
  rdma::GlobalAddress DebugRootAddr() const;
  uint32_t DebugHeight() const;
  // All live entries in key order, by walking the leaf sibling chain.
  std::vector<std::pair<Key, uint64_t>> DebugScanLeaves() const;
  // Varlen edition: full string keys -> value bytes (out-of-line values
  // are materialized by reading MS memory directly).
  std::vector<std::pair<std::string, std::string>> DebugScanLeavesVar() const;
  // Length of the live leaf chain — the node-granular footprint metric
  // (chunk accounting hides node-level leaks; without reclamation the
  // chain grows with every delete-churn generation).
  size_t DebugCountLeaves() const;
  // Structural invariant checks (fence continuity, sorted internals, level
  // consistency). Aborts on violation.
  void DebugCheckInvariants() const;

 private:
  friend class TreeClient;

  rdma::GlobalAddress AllocBulk(uint32_t size);
  // The leftmost leaf, found by descending leftmost pointers.
  rdma::GlobalAddress DebugLeftmostLeaf() const;
  // Builds the internal levels bottom-up over `children` ((addr, lo) pairs
  // in key order) and returns the root address. Shared by BulkLoad and
  // BulkLoadVar.
  rdma::GlobalAddress BuildUpperLevels(
      std::vector<std::pair<rdma::GlobalAddress, Key>> children, double fill);
  void RegisterCollectors();

  TreeOptions options_;
  rdma::Fabric fabric_;
  std::unique_ptr<obs::Tracer> tracer_;
  ReclaimEpoch reclaim_;  // before chunks_: managers hold a pointer to it
  // Before chunks_ and clients_: both feed shadow events into the checker
  // and the Qp hooks find it through the simulator registry; it must
  // outlive everything that can post work requests.
  std::unique_ptr<dmsan::Checker> dmsan_;
  std::vector<std::unique_ptr<ChunkManager>> chunks_;
  // Per-MS leaf-hint directories (empty when enable_leaf_hints is off).
  std::vector<std::unique_ptr<LeafHintDirectory>> hints_;
  std::vector<std::unique_ptr<TreeClient>> clients_;

  // Bulk-load cursors: nodes are spread round-robin over MSs (§4.2), each
  // MS filling 8 MB chunks obtained from its ChunkManager.
  int bulk_next_ms_ = 0;
  std::vector<rdma::GlobalAddress> bulk_chunk_;
  std::vector<uint64_t> bulk_used_;
};

}  // namespace sherman

#endif  // SHERMAN_CORE_BTREE_H_
