// On-disaggregated-memory node formats (Figure 8).
//
// Common 48-byte header + a trailing rear-node-version byte:
//   [0]      front node version FNV (4 bits used)
//   [1]      level (leaf = 0)
//   [2]      flags: bit0 is_leaf, bit1 free
//   [3]      reserved
//   [4,8)    checksum (CRC32-C; used by the FG checksum mode, else 0)
//   [8,16)   lo fence key (inclusive)
//   [16,24)  hi fence key (exclusive; kMaxKey = +inf)
//   [24,32)  sibling pointer (packed GlobalAddress)
//   [32,34)  entry count (sorted layouts only)
//   [34,48)  reserved
//   ...      entries
//   [size-1] rear node version RNV
//
// Leaf entries (entry size = 2 + key_size + value_size):
//   [FEV(1)] [key bytes] [value bytes] [REV(1)]
// In Sherman mode leaves are UNSORTED and only the touched entry is written
// back (two-level versions, §4.4). In FG mode leaves are sorted, `count` is
// maintained, and whole nodes are written back.
//
// Internal nodes are always sorted:
//   [48,56)  leftmost child
//   then `count` entries of [key bytes][child(8)]
// Child i covers keys in [key_i, key_{i+1}); leftmost covers [lo, key_0).
//
// Keys are logical uint64 values serialized into the first 8 bytes of the
// key field; key_size > 8 pads with zeros (only the moved bytes matter for
// the Figure 15 key-size sensitivity study). Key 0 (kNullKey) marks an
// empty leaf slot; kMaxKey is reserved as +infinity.
//
// Varlen mode (TreeShape::varlen): leaves become SLOTTED PAGES.
//   [34,36)  heap watermark (u16: offset of the lowest used heap byte)
//   [36]     page key prefix length (u8)
//   [38,40)  dead heap bytes (u16: reclaimable by compaction)
//   [48...)  slot array growing up: 8-byte slots, sorted by full key
//   ...free space...
//   [watermark, size-1-plen)  entry heap growing down
//   [size-1-plen, size-1)     the shared key prefix bytes
//   [size-1] rear node version RNV (unchanged)
// Each slot: [0,2) entry offset (u16, absolute), [2] key-suffix length,
// [3] key fingerprint (FNV-1a low byte), [4,6) full value length,
// [6] flags (bit0: value stored out-of-line), [7] reserved. A heap entry
// is [suffix bytes][inline value bytes | 8-byte vlog pointer]. Every key
// in the page shares the prefix; traversal routes on RoutingKeyFor (the
// first 8 key bytes, big-endian), so internal nodes keep fixed u64
// separators and stay one READ. Torn reads over the variable region are
// caught by the same node-level FNV/RNV pair (whole-node write-back, as
// in FG sorted mode) or the checksum.
#ifndef SHERMAN_CORE_NODE_LAYOUT_H_
#define SHERMAN_CORE_NODE_LAYOUT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "rdma/global_address.h"
#include "util/slice.h"
#include "util/status.h"

namespace sherman {

using Key = uint64_t;
inline constexpr Key kNullKey = 0;
inline constexpr Key kMaxKey = ~0ull;

// How lock-free readers validate a fetched node (TreeOptions::consistency):
// the node-level version pair (§4.4) or a whole-node checksum (FG, §3.1.1).
enum class Consistency { kVersions, kChecksum };

struct TreeShape {
  uint32_t node_size = 1024;
  uint32_t key_size = 8;    // serialized bytes per key (>= 8)
  uint32_t value_size = 8;  // serialized bytes per value (>= 8)

  // Variable-length mode: leaves become slotted pages (slot indirection
  // array growing from the front, prefix-truncated keys in a heap growing
  // from the back); internal nodes keep fixed u64 separators over the
  // routing key, so traversal stays one READ. When false the original
  // fixed u64 layout is byte-identical to pre-varlen builds — the fast
  // path every existing bench/test runs on.
  bool varlen = false;
  uint32_t max_key_len = 64;  // varlen only; <= 255 (slots store u8 lengths)

  uint32_t leaf_entry_size() const { return 2 + key_size + value_size; }
  uint32_t internal_entry_size() const { return key_size + 8; }
  uint32_t leaf_capacity() const;
  uint32_t internal_capacity() const;
  // Varlen leaves: bytes available to slots + heap entries + prefix.
  uint32_t var_usable_bytes() const;
};

// Header field offsets.
inline constexpr uint32_t kOffFnv = 0;
inline constexpr uint32_t kOffLevel = 1;
inline constexpr uint32_t kOffFlags = 2;
inline constexpr uint32_t kOffChecksum = 4;
inline constexpr uint32_t kOffLoFence = 8;
inline constexpr uint32_t kOffHiFence = 16;
inline constexpr uint32_t kOffSibling = 24;
inline constexpr uint32_t kOffCount = 32;
// Varlen slotted-leaf header fields (inside the [34,48) reserved range,
// so fixed-layout nodes are untouched).
inline constexpr uint32_t kOffHeapWatermark = 34;  // u16
inline constexpr uint32_t kOffPrefixLen = 36;      // u8
inline constexpr uint32_t kOffDeadBytes = 38;      // u16
inline constexpr uint32_t kHeaderSize = 48;
inline constexpr uint32_t kOffLeftmostChild = kHeaderSize;  // internal only

inline constexpr uint8_t kFlagLeaf = 0x1;
inline constexpr uint8_t kFlagFree = 0x2;

// Varlen slot layout.
inline constexpr uint32_t kVarSlotSize = 8;
// Values longer than this go out-of-line into the value log (src/vlog/):
// the slot keeps an 8-byte packed pointer. Shorter values stay inline in
// the leaf heap.
inline constexpr uint32_t kInlineThreshold = 64;
inline constexpr uint8_t kVarFlagOutline = 0x1;  // value lives in the vlog

// Routing key for a variable-length key: its first 8 bytes, big-endian,
// zero-padded. Monotone w.r.t. lexicographic key order, so the fixed u64
// separators/fences of internal nodes route string keys correctly. Keys
// sharing a routing key must share a leaf (splits only cut at routing-key
// boundaries). Keys routing to kNullKey or kMaxKey are rejected up front
// (both u64s are reserved sentinels).
Key RoutingKeyFor(const Slice& key);

// A typed view over a node buffer (a local staging copy or raw MS memory).
// The view does not own the buffer.
class NodeView {
 public:
  NodeView(uint8_t* data, const TreeShape* shape)
      : data_(data), shape_(shape) {}

  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }
  const TreeShape& shape() const { return *shape_; }

  // --- node-level versions (4-bit pairs, §4.4) ---
  uint8_t front_version() const { return data_[kOffFnv] & 0xf; }
  uint8_t rear_version() const { return data_[shape_->node_size - 1] & 0xf; }
  void BumpNodeVersions();
  bool NodeVersionsMatch() const { return front_version() == rear_version(); }

  // --- header fields ---
  uint8_t level() const { return data_[kOffLevel]; }
  void set_level(uint8_t level) { data_[kOffLevel] = level; }
  bool is_leaf() const { return data_[kOffFlags] & kFlagLeaf; }
  bool is_free() const { return data_[kOffFlags] & kFlagFree; }
  void set_free(bool free);
  Key lo_fence() const { return Load64(kOffLoFence); }
  Key hi_fence() const { return Load64(kOffHiFence); }
  void set_lo_fence(Key k) { Store64(kOffLoFence, k); }
  void set_hi_fence(Key k) { Store64(kOffHiFence, k); }
  rdma::GlobalAddress sibling() const {
    return rdma::GlobalAddress::FromU64(Load64(kOffSibling));
  }
  void set_sibling(rdma::GlobalAddress a) { Store64(kOffSibling, a.ToU64()); }
  uint16_t count() const;
  void set_count(uint16_t c);

  // --- checksum consistency check (FG mode, Figure 4a) ---
  uint32_t stored_checksum() const;
  uint32_t ComputeChecksum() const;  // over the node minus the crc field
  void UpdateChecksum();
  bool VerifyChecksum() const { return stored_checksum() == ComputeChecksum(); }

  // --- sealing: the one place a consistency mode picks its mark ---
  // Every agent that writes a node (client, MS-side executor, bulk loader,
  // recoverer, migrator) seals it through these two; a lint rule
  // (scripts/check_protocol.py) keeps UpdateChecksum and BumpNodeVersions
  // to this file and the tests.
  // After a write: bumps the node versions or recomputes the checksum.
  void Seal(Consistency mode);
  // After a change that must keep the node versions as they are (a flag
  // flip, a fresh build, versions the caller set): recomputes the
  // checksum in kChecksum mode, and does nothing under versions.
  void Reseal(Consistency mode);

  // Does `key` fall within this node's fence interval [lo, hi)?
  bool InFence(Key key) const { return key >= lo_fence() && key < hi_fence(); }

  // --- leaf entries ---
  uint32_t LeafEntryOffset(uint32_t i) const {
    return kHeaderSize + i * shape_->leaf_entry_size();
  }
  Key LeafKey(uint32_t i) const {
    return Load64(LeafEntryOffset(i) + 1);
  }
  uint64_t LeafValue(uint32_t i) const {
    return Load64(LeafEntryOffset(i) + 1 + shape_->key_size);
  }
  uint8_t LeafFrontVersion(uint32_t i) const {
    return data_[LeafEntryOffset(i)] & 0xf;
  }
  uint8_t LeafRearVersion(uint32_t i) const {
    return data_[LeafEntryOffset(i) + shape_->leaf_entry_size() - 1] & 0xf;
  }
  bool LeafEntryVersionsMatch(uint32_t i) const {
    return LeafFrontVersion(i) == LeafRearVersion(i);
  }
  // Sets key/value and increments both entry versions (lines 13-15 of
  // Figure 7).
  void SetLeafEntry(uint32_t i, Key key, uint64_t value);
  // Writes key/value without touching versions (bulk load / sorted mode).
  void SetLeafEntryRaw(uint32_t i, Key key, uint64_t value);

  // Unsorted-leaf helpers. Returns the entry count scanned (capacity).
  // Finds the entry holding `key`, else an empty slot, else capacity.
  struct SlotResult {
    uint32_t match = UINT32_MAX;  // index holding key, or UINT32_MAX
    uint32_t empty = UINT32_MAX;  // first empty slot, or UINT32_MAX
  };
  SlotResult FindLeafSlot(Key key) const;

  // Sorted-leaf helpers (FG mode): entries [0, count) sorted by key.
  // Returns the index of `key` or UINT32_MAX.
  uint32_t SortedLeafFind(Key key) const;
  // Inserts/updates keeping order; returns false if full (split needed).
  bool SortedLeafInsert(Key key, uint64_t value);
  // Removes the entry at sorted index `i` (from SortedLeafFind), shifting
  // the tail left.
  void SortedLeafRemoveAt(uint32_t i);

  // Live entries in this leaf: non-null slots over the capacity in the
  // unsorted (two-level-versions) layout, `count()` in the sorted one.
  // The merge-threshold decision on every delete path (client and
  // MS-side) keys off this.
  uint32_t LiveLeafEntries(bool two_level) const;

  // --- internal entries ---
  rdma::GlobalAddress leftmost_child() const {
    return rdma::GlobalAddress::FromU64(Load64(kOffLeftmostChild));
  }
  void set_leftmost_child(rdma::GlobalAddress a) {
    Store64(kOffLeftmostChild, a.ToU64());
  }
  uint32_t InternalEntryOffset(uint32_t i) const {
    return kOffLeftmostChild + 8 + i * shape_->internal_entry_size();
  }
  Key InternalKey(uint32_t i) const { return Load64(InternalEntryOffset(i)); }
  rdma::GlobalAddress InternalChild(uint32_t i) const {
    return rdma::GlobalAddress::FromU64(
        Load64(InternalEntryOffset(i) + shape_->key_size));
  }
  void SetInternalEntry(uint32_t i, Key key, rdma::GlobalAddress child);
  // Child covering `key` per the fence discipline above.
  rdma::GlobalAddress InternalChildFor(Key key) const;
  // Sorted insert with shift; returns false if full.
  bool InternalInsert(Key key, rdma::GlobalAddress child);
  // Removes the entry (key -> child), shifting; returns false if no such
  // entry exists. Used by leaf merging to drop the merged leaf from its
  // parent (the preceding child then covers the merged range).
  bool InternalRemove(Key key, rdma::GlobalAddress child);

  // --- varlen slotted leaves (shape.varlen mode) ---
  // count() doubles as the live slot count.
  uint16_t heap_watermark() const;
  void set_heap_watermark(uint16_t w);
  uint8_t prefix_len() const { return data_[kOffPrefixLen]; }
  void set_prefix_len(uint8_t p) { data_[kOffPrefixLen] = p; }
  uint16_t dead_bytes() const;
  void set_dead_bytes(uint16_t d);
  // One past the top usable heap byte (the shared prefix sits above it,
  // just under the RNV byte).
  uint32_t VarHeapTop() const {
    return shape_->node_size - 1 - prefix_len();
  }
  Slice VarPrefix() const {
    return Slice(reinterpret_cast<const char*>(data_ + VarHeapTop()),
                 prefix_len());
  }
  uint32_t VarSlotOffset(uint32_t i) const {
    return kHeaderSize + i * kVarSlotSize;
  }
  uint16_t VarEntryOff(uint32_t i) const;
  uint8_t VarSuffixLen(uint32_t i) const {
    return data_[VarSlotOffset(i) + 2];
  }
  uint8_t VarFp(uint32_t i) const { return data_[VarSlotOffset(i) + 3]; }
  uint16_t VarVlen(uint32_t i) const;
  bool VarOutline(uint32_t i) const {
    return data_[VarSlotOffset(i) + 6] & kVarFlagOutline;
  }
  Slice VarSuffix(uint32_t i) const {
    return Slice(reinterpret_cast<const char*>(data_ + VarEntryOff(i)),
                 VarSuffixLen(i));
  }
  std::string VarFullKey(uint32_t i) const;
  // Inline value bytes (valid only when !VarOutline(i); vlen may be 0).
  Slice VarInlineValue(uint32_t i) const {
    return Slice(reinterpret_cast<const char*>(data_ + VarEntryOff(i) +
                                               VarSuffixLen(i)),
                 VarVlen(i));
  }
  // Packed vlog pointer (valid only when VarOutline(i)).
  uint64_t VarVlogPtr(uint32_t i) const;
  // Rewrites the vlog pointer in place (GC relocation; entry size is
  // unchanged, so no heap motion).
  void VarSetVlogPtr(uint32_t i, uint64_t ptr);
  // Heap bytes entry i occupies: suffix + inline value (or 8-byte ptr).
  uint32_t VarEntryBytes(uint32_t i) const {
    return VarSuffixLen(i) +
           (VarOutline(i) ? 8u : static_cast<uint32_t>(VarVlen(i)));
  }
  // Live payload bytes: slots + heap entries + prefix (the merge/split
  // byte-budget metric).
  uint32_t VarLiveBytes() const;
  // Contiguous free gap between the slot array and the heap.
  uint32_t VarFreeBytes() const;
  // First slot whose full key >= key.
  uint32_t VarLowerBound(const Slice& key) const;
  // Slot holding exactly `key`, or UINT32_MAX.
  uint32_t VarFind(const Slice& key) const;
  // Inserts or updates `key`. payload is the heap payload: the inline
  // value bytes (outline=false) or the 8-byte packed vlog pointer
  // (outline=true); vlen is the FULL value length either way. Shrinks the
  // page prefix and/or compacts in place as needed; returns false when the
  // entry cannot fit even after compaction (caller splits).
  bool VarInsert(const Slice& key, const uint8_t* payload,
                 uint32_t payload_len, uint16_t vlen, bool outline);
  // Removes slot i (shifting the slot array; the heap entry goes dead).
  void VarRemoveAt(uint32_t i);
  // In-place defragmentation: rewrites the heap densely under the CURRENT
  // prefix and zeroes dead_bytes.
  void VarCompact();
  static uint8_t VarFingerprint(const Slice& key);

  // --- init ---
  void InitLeaf(Key lo, Key hi, rdma::GlobalAddress sibling);
  void InitInternal(uint8_t level, Key lo, Key hi, rdma::GlobalAddress sibling,
                    rdma::GlobalAddress leftmost);

 private:
  uint64_t Load64(uint32_t off) const;
  void Store64(uint32_t off, uint64_t v);
  // Rewrites all live entries under prefix length new_p (<= current).
  // Returns false (page unchanged) if the grown suffixes do not fit.
  bool VarRebuildWithPrefix(uint32_t new_p);

  uint8_t* data_;
  const TreeShape* shape_;
};

// A materialized varlen leaf entry (split/merge/bulk-load staging form).
struct VarEntry {
  std::string key;                   // full key
  std::vector<uint8_t> payload;      // inline value or 8-byte vlog pointer
  uint16_t vlen = 0;                 // full value length
  bool outline = false;

  uint32_t heap_bytes(uint32_t prefix) const {
    return static_cast<uint32_t>(key.size()) - prefix +
           static_cast<uint32_t>(payload.size());
  }
};

// All live entries of a varlen leaf, in key order.
std::vector<VarEntry> ExtractVarEntries(const NodeView& v);

// Longest common prefix over a sorted entry run (= LCP of first and last),
// capped at 255.
uint32_t VarCommonPrefix(const std::vector<VarEntry>& entries);

// Total bytes `entries` need in a leaf under prefix p (slots + heap +
// prefix bytes).
uint32_t VarBytesNeeded(const std::vector<VarEntry>& entries, uint32_t p);

// Populates an InitLeaf-fresh varlen leaf from sorted entries, computing
// the maximal shared prefix. Returns false if they do not fit.
bool BuildVarLeaf(NodeView* v, const std::vector<VarEntry>& entries);

// Would src's entries (all keys > dst's) fit into dst under the merged
// prefix? Exact (accounts for suffix growth when the prefix shrinks).
bool VarLeafFits(const NodeView& dst, const NodeView& src);

// Appends every entry of `src` to `dst` (varlen leaf merge; src keys all
// exceed dst keys). Caller guarantees VarLeafFits.
void MoveVarLeafEntries(NodeView* dst, const NodeView& src);

// --- leaf merges, for every leaf layout ---
// The client-side merge, the MS-side executor's merge and crash recovery
// all decide and move through these, so their semantics cannot diverge.
// `two_level` selects the unsorted fixed layout (TreeOptions::
// two_level_versions); slotted leaves are told by their shape.

// Should the leaf in `v` merge into its left sibling? True when its live
// size (entries, or bytes for a slotted leaf) is below `threshold` of the
// leaf's capacity. The leftmost leaf (lo fence 0, a root leaf too) never
// merges, so merging never shrinks the tree height; threshold 0 disables
// merging.
bool LeafMergeCandidate(const NodeView& v, bool two_level, double threshold);

// Do src's live entries (all above dst's) fit into dst? With `headroom`
// the merged leaf must also keep a quarter of its capacity free: a merge
// whose result is nearly full would be split right back apart by the next
// inserts, paying both structural ops for nothing.
bool LeafMergeFits(const NodeView& dst, const NodeView& src, bool two_level,
                   bool headroom);

// Moves every live entry of `src` into `dst` (two-level: fills empty
// slots, bumping entry versions; sorted: appends with fresh entry
// versions — valid only when every src key exceeds every dst key, i.e.
// the leaves are adjacent; slotted: MoveVarLeafEntries). The caller
// guarantees capacity (LeafMergeFits).
void MoveLeafEntries(NodeView* dst, const NodeView& src, bool two_level);

// A parsed internal node: the form cached by the index cache and used
// during traversal.
struct ParsedInternal {
  rdma::GlobalAddress self;
  uint8_t level = 0;
  Key lo = 0;
  Key hi = 0;
  rdma::GlobalAddress sibling;
  rdma::GlobalAddress leftmost;
  std::vector<std::pair<Key, rdma::GlobalAddress>> entries;  // sorted

  // Index of the child covering `key`: 0 is leftmost, i > 0 is
  // entries[i - 1].
  size_t ChildIndex(Key key) const;
  rdma::GlobalAddress ChildFor(Key key) const;
};

// Parses an internal node buffer. Fails with Status::Retry on version
// mismatch (torn read) and Status::Corruption on malformed structure.
Status ParseInternal(const uint8_t* buf, const TreeShape& shape,
                     rdma::GlobalAddress self, ParsedInternal* out);

}  // namespace sherman

#endif  // SHERMAN_CORE_NODE_LAYOUT_H_
