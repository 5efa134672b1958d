// Record policies: what fixed u64 records and variable-length records do
// differently, for the one set of op skeletons in core/btree.cc (the op
// core) and the MS-side executors in route/tree_rpc.cc.
//
// Sherman runs one write protocol for every leaf (§4.2-4.5): B-link
// traversal, the HOCL lock, and a write-back combined with the release.
// The leaf layout only decides how a key is found and what gets written
// back: one entry under two-level versions (§4.4), or the whole node for
// sorted FG leaves and slotted varlen leaves. A policy instance carries
// one record's operands (key, value or result slot) and the per-op state
// its hooks keep, and supplies:
//   - the routing key and the key check;
//   - the leaf-local Read / Put / Remove, reporting the bytes they dirtied
//     as a LeafWrite (btree.cc turns those ranges into WRITEs);
//   - the per-key CPU delay;
//   - value resolution: Fetch, and a speculative read (Speculate);
//   - the split cut (Cut + Fill);
//   - the scan's start check and per-leaf collect step (ScanLeaf);
//   - the value-log hooks: Reserve before the lock, PostWrite beside it
//     (awaited before the leaf write), Abandon on failure, Published /
//     Removed after the leaf write.
// FixedPolicy serves both fixed layouts (unsorted two-level-version leaves
// and sorted FG leaves, switched on TreeOptions::two_level_versions); its
// value-log hooks do nothing. VarPolicy serves slotted leaves holding
// inline or value-log values.
#ifndef SHERMAN_CORE_RECORD_POLICY_H_
#define SHERMAN_CORE_RECORD_POLICY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/btree.h"

namespace sherman {

// The byte ranges a leaf-local op dirtied, in write-back order.
struct LeafWrite {
  bool seal = false;  // a node-level field changed: Seal before writing
  std::vector<std::pair<uint32_t, uint32_t>> ranges;  // (offset, length)

  void Add(uint32_t off, uint32_t len) { ranges.emplace_back(off, len); }
  void WholeNode(uint32_t node_size) {
    seal = true;
    ranges.assign(1, {0, node_size});
  }
  uint64_t bytes() const {
    uint64_t n = 0;
    for (const auto& r : ranges) n += r.second;
    return n;
  }
};

// What a validated leaf says about a record's key.
enum class LeafRead {
  kMiss,    // absent
  kHit,     // present; the value was copied to the result
  kTorn,    // the entry's two-level versions disagree: re-read the leaf
  kRemote,  // present, value in the value log: Fetch resolves it
};

class FixedPolicy {
 public:
  using Value = uint64_t;
  using Result = MultiGetResult;
  using ScanEntry = std::pair<Key, uint64_t>;

  FixedPolicy(const TreeOptions& o, Key key, uint64_t value = 0,
              uint64_t* out = nullptr)
      : o_(&o), key_(key), value_(value), out_(out) {}

  Key route() const { return key_; }
  // The two fence sentinels are caller bugs, not input errors: abort.
  Status Check() const;
  Status CheckPut() const { return Check(); }
  // Per-key CPU cost of finding the key in a leaf: a full scan of an
  // unsorted leaf, a binary search of a sorted one.
  sim::SimTime SearchNs(const rdma::FabricConfig& f) const;

  // --- leaf-local ops (client staging copies and MS host memory alike) ---
  LeafRead Read(const NodeView& v) const;
  // Inserts or updates; false when the leaf is full (split needed).
  bool Put(NodeView* v, LeafWrite* w) const;
  // Replaces the value the put writes (TreeClient::Put's bind hook).
  void Bind(uint64_t value) { value_ = value; }
  // False when the key is absent. A sorted leaf writes back its header,
  // the shifted suffix and (under versions) the rear version byte;
  // repeated removals under one lock widen that one suffix.
  bool Remove(NodeView* v, LeafWrite* w) const;
  // Split: Cut stages the live entries plus this record, sorted, and
  // returns the separator (the middle key); Fill writes the lower and the
  // upper half into InitLeaf-fresh nodes.
  StatusOr<Key> Cut(const NodeView& v);
  void Fill(NodeView* lower, NodeView* upper) const;
  // Appends the leaf's live entries with key >= from, in key order, until
  // `out` holds `count`, and returns how many live entries the leaf holds;
  // nullopt (nothing appended) when an entry is torn and the leaf must be
  // re-read.
  std::optional<uint32_t> Collect(const NodeView& v, Key from, uint32_t count,
                                  std::vector<ScanEntry>* out) const;

  // --- the client scan (TreeClient::Scan), this record's key its start ---
  Status CheckScan() const { return Check(); }
  // Collects the validated leaf from the routing cursor `from` on until
  // `out` holds `count`, and sets *live to the leaf's live-entry count:
  // OK when done with the leaf, Retry when it must be re-read, anything
  // else fails the scan.
  sim::Task<Status> ScanLeaf(TreeClient&, const NodeView& v, Key from,
                             uint32_t count, std::vector<ScanEntry>* out,
                             uint32_t* live, OpStats*) const {
    const std::optional<uint32_t> n = Collect(v, from, count, out);
    if (!n.has_value()) co_return Status::Retry("torn leaf entry");
    *live = *n;
    co_return Status::OK();
  }

  // --- client hooks: fixed records have no value log ---
  sim::Task<Status> Reserve(TreeClient&, OpStats*) { co_return Status::OK(); }
  void PostWrite(TreeClient&, sim::CountdownLatch*, OpStats*) {}
  sim::Task<void> Abandon(TreeClient&, OpStats*) { co_return; }
  void Published(TreeClient&) {}
  void Removed(TreeClient&) {}
  sim::Task<std::optional<Status>> Speculate(TreeClient&, uint8_t*,
                                             OpStats*) {
    co_return std::nullopt;
  }
  sim::Task<Status> Fetch(TreeClient&, OpStats*) {
    co_return Status::Internal("fixed records have no remote values");
  }

  // --- MS-side executor hooks (route/tree_rpc.cc) ---
  bool HostCanPut() const { return true; }
  bool HostCanReplace(const NodeView&) const { return true; }
  Status HostCanRemove(const NodeView&, int) const { return Status::OK(); }
  bool HostFetch(ShermanSystem*, int) { return false; }
  void HostRetire(ShermanSystem*, int) const {}
  // Collect from this record's key; false when the rest of the scan must
  // resolve one-sided.
  bool HostCollect(ShermanSystem*, int, const NodeView& v, uint32_t count,
                   std::vector<ScanEntry>* out) const {
    return Collect(v, key_, count, out).has_value();
  }

 private:
  bool two_level() const { return o_->two_level_versions; }

  const TreeOptions* o_;
  Key key_;
  uint64_t value_;
  uint64_t* out_;
  std::vector<ScanEntry> staged_;  // split staging
};

class VarPolicy {
 public:
  using Value = std::string;
  using Result = VarGetResult;
  using ScanEntry = std::pair<std::string, std::string>;

  VarPolicy(const TreeOptions& o, const Slice& key, const Slice& value = {},
            std::string* out = nullptr);

  Key route() const { return rk_; }
  // Rejects malformed keys (length, routing onto a fence sentinel).
  Status Check() const;
  // Check() plus the value limits: the u16 length field and the largest
  // value-log extent.
  Status CheckPut() const;
  sim::SimTime SearchNs(const rdma::FabricConfig& f) const;

  LeafRead Read(const NodeView& v);
  // Remembers the slot's previous out-of-line extent (retired once the
  // leaf publishes) even when the leaf is full.
  bool Put(NodeView* v, LeafWrite* w);
  // Replaces the value the put writes. Binding happens under the leaf
  // lock, after Reserve, so both values must be inline: an out-of-line one
  // would need its value-log extent reserved before the lock.
  void Bind(std::string value);
  bool Remove(NodeView* v, LeafWrite* w);
  // Split cut at the most byte-balanced ROUTING-key boundary (keys sharing
  // a routing key must share a leaf, since fences are u64); fails when no
  // legal cut leaves both halves within budget.
  StatusOr<Key> Cut(const NodeView& v);
  void Fill(NodeView* lower, NodeView* upper);

  // Reserves an out-of-line value's value-log extent, before the lock: a
  // reservation may call memory threads, and it is the only value-log
  // step that can fail.
  sim::Task<Status> Reserve(TreeClient& t, OpStats* stats);
  // Posts the reserved extent's WRITE, which counts `written` down once it
  // has landed. The skeleton posts it beside its lock and awaits `written`
  // before the pointer reaches a leaf (Put, Cut/Fill) and before it
  // returns: the WRITE's coroutine points into the skeleton's frame.
  void PostWrite(TreeClient& t, sim::CountdownLatch* written, OpStats* stats);
  // The reserved extent was never published: retire it.
  sim::Task<void> Abandon(TreeClient& t, OpStats* stats);
  // After a put's leaf write: post the superseded extent's retire (readers
  // that hold it are epoch-pinned; the put does not wait for it), then
  // update the swizzle cache.
  void Published(TreeClient& t);
  // After a remove's leaf write: forget the key, post its extent's retire.
  void Removed(TreeClient& t);
  // The pointer-swizzle fast path: with a cached leaf translation and a
  // cached value pointer, the leaf READ and the value READ go out together
  // and the leaf validates the speculation. Returns the op's result, or
  // nullopt to take the validated-leaf path.
  sim::Task<std::optional<Status>> Speculate(TreeClient& t, uint8_t* buf,
                                             OpStats* stats);
  // Reads the value Read() found out-of-line. Corruption = the extent was
  // relocated meanwhile; the caller re-reads the leaf.
  sim::Task<Status> Fetch(TreeClient& t, OpStats* stats);

  // Any byte string up to max_key_len starts a scan, the empty one and
  // one routing onto a fence sentinel included.
  Status CheckScan() const;
  // FixedPolicy::ScanLeaf for byte keys, which the cursor tracks itself:
  // keys from this record's on, or past the last one emitted, so re-reads
  // and restarts never repeat one (`from` only routes). Resolves values
  // from the value log as it goes; a relocated one asks for a re-read.
  sim::Task<Status> ScanLeaf(TreeClient& t, const NodeView& v, Key from,
                             uint32_t count, std::vector<ScanEntry>* out,
                             uint32_t* live, OpStats* stats) const;

  // Values above the threshold need the client's value-log appender.
  bool HostCanPut() const { return !outline_; }
  // Replacing an out-of-line record retires its extent, a liveness
  // transition the client's value-log path owns.
  bool HostCanReplace(const NodeView& v) const;
  // NotFound, or Retry when the extent's dead bit lives on another MS.
  Status HostCanRemove(const NodeView& v, int ms) const;
  // Reads the value Read() found out-of-line from `ms`'s memory; false when
  // the extent lives on another MS.
  bool HostFetch(ShermanSystem* system, int ms);
  // Retires the extent the last Remove superseded (HostCanRemove proved it
  // lives on `ms`).
  void HostRetire(ShermanSystem* system, int ms) const;
  bool HostCollect(ShermanSystem* system, int ms, const NodeView& v,
                   uint32_t count, std::vector<ScanEntry>* out) const;

 private:
  // The slot's heap payload: the inline value bytes, or the 8-byte packed
  // pointer to the reserved extent.
  Slice payload() const;

  const TreeOptions* o_;
  std::string key_;
  std::string value_;
  std::string* out_;
  Key rk_;
  bool outline_;
  uint64_t vptr_ = 0;     // reserved out-of-line extent
  uint64_t old_ptr_ = 0;  // extent the last Put/Remove superseded
  uint64_t read_ptr_ = 0;  // out-of-line extent Read() found
  uint16_t read_vlen_ = 0;
  std::vector<VarEntry> staged_;  // split staging
  size_t cut_ = 0;
};

}  // namespace sherman

#endif  // SHERMAN_CORE_RECORD_POLICY_H_
