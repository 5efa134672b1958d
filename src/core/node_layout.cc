#include "core/node_layout.h"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "sanitizer/dmsan.h"
#include "util/crc32.h"
#include "util/logging.h"

namespace sherman {

uint32_t TreeShape::leaf_capacity() const {
  return (node_size - kHeaderSize - 1) / leaf_entry_size();
}

uint32_t TreeShape::internal_capacity() const {
  return (node_size - kOffLeftmostChild - 8 - 1) / internal_entry_size();
}

uint32_t TreeShape::var_usable_bytes() const {
  return node_size - kHeaderSize - 1;
}

Key RoutingKeyFor(const Slice& key) {
  uint64_t rk = 0;
  for (size_t i = 0; i < 8; i++) {
    const uint8_t b =
        i < key.size() ? static_cast<uint8_t>(key.data()[i]) : 0;
    rk = (rk << 8) | b;
  }
  return rk;
}

uint64_t NodeView::Load64(uint32_t off) const {
  uint64_t v;
  std::memcpy(&v, data_ + off, 8);
  return v;
}

void NodeView::Store64(uint32_t off, uint64_t v) {
  std::memcpy(data_ + off, &v, 8);
}

void NodeView::BumpNodeVersions() {
  data_[kOffFnv] = (front_version() + 1) & 0xf;
  data_[shape_->node_size - 1] = (rear_version() + 1) & 0xf;
}

void NodeView::set_free(bool free) {
  if (free) {
    data_[kOffFlags] |= kFlagFree;
  } else {
    data_[kOffFlags] &= static_cast<uint8_t>(~kFlagFree);
  }
}

uint16_t NodeView::count() const {
  uint16_t c;
  std::memcpy(&c, data_ + kOffCount, 2);
  return c;
}

void NodeView::set_count(uint16_t c) { std::memcpy(data_ + kOffCount, &c, 2); }

uint32_t NodeView::stored_checksum() const {
  uint32_t c;
  std::memcpy(&c, data_ + kOffChecksum, 4);
  return c;
}

uint32_t NodeView::ComputeChecksum() const {
  // Everything before and after the 4-byte checksum field.
  uint32_t crc = Crc32c(data_, kOffChecksum);
  crc = Crc32c(data_ + kOffChecksum + 4, shape_->node_size - kOffChecksum - 4,
               crc);
  return crc;
}

void NodeView::UpdateChecksum() {
  const uint32_t crc = ComputeChecksum();
  std::memcpy(data_ + kOffChecksum, &crc, 4);
}

void NodeView::Seal(Consistency mode) {
  if (mode == Consistency::kChecksum) {
    UpdateChecksum();
  } else {
    BumpNodeVersions();
  }
}

void NodeView::Reseal(Consistency mode) {
  if (mode == Consistency::kChecksum) UpdateChecksum();
}

void NodeView::SetLeafEntryRaw(uint32_t i, Key key, uint64_t value) {
  const uint32_t off = LeafEntryOffset(i);
  Store64(off + 1, key);
  // Zero-pad wide keys so serialized bytes are deterministic.
  if (shape_->key_size > 8) {
    std::memset(data_ + off + 1 + 8, 0, shape_->key_size - 8);
  }
  Store64(off + 1 + shape_->key_size, value);
  if (shape_->value_size > 8) {
    std::memset(data_ + off + 1 + shape_->key_size + 8, 0,
                shape_->value_size - 8);
  }
}

void NodeView::SetLeafEntry(uint32_t i, Key key, uint64_t value) {
  SetLeafEntryRaw(i, key, value);
  const uint32_t off = LeafEntryOffset(i);
  data_[off] = (data_[off] + 1) & 0xf;  // FEV
  const uint32_t rear = off + shape_->leaf_entry_size() - 1;
  data_[rear] = (data_[rear] + 1) & 0xf;  // REV
}

NodeView::SlotResult NodeView::FindLeafSlot(Key key) const {
  SlotResult r;
  const uint32_t cap = shape_->leaf_capacity();
  for (uint32_t i = 0; i < cap; i++) {
    const Key k = LeafKey(i);
    if (k == key) {
      r.match = i;
      return r;
    }
    if (k == kNullKey && r.empty == UINT32_MAX) r.empty = i;
  }
  return r;
}

uint32_t NodeView::SortedLeafFind(Key key) const {
  uint32_t lo = 0, hi = count();
  while (lo < hi) {
    const uint32_t mid = (lo + hi) / 2;
    const Key k = LeafKey(mid);
    if (k == key) return mid;
    if (k < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return UINT32_MAX;
}

bool NodeView::SortedLeafInsert(Key key, uint64_t value) {
  const uint32_t n = count();
  // Update in place if present.
  const uint32_t found = SortedLeafFind(key);
  if (found != UINT32_MAX) {
    SetLeafEntryRaw(found, key, value);
    return true;
  }
  if (n >= shape_->leaf_capacity()) return false;
  // Find insertion point and shift the tail right by one entry.
  uint32_t pos = 0;
  while (pos < n && LeafKey(pos) < key) pos++;
  const uint32_t esz = shape_->leaf_entry_size();
  std::memmove(data_ + LeafEntryOffset(pos + 1), data_ + LeafEntryOffset(pos),
               static_cast<size_t>(n - pos) * esz);
  SetLeafEntryRaw(pos, key, value);
  data_[LeafEntryOffset(pos)] = 0;  // fresh entry versions
  data_[LeafEntryOffset(pos) + esz - 1] = 0;
  set_count(static_cast<uint16_t>(n + 1));
  return true;
}

void NodeView::SortedLeafRemoveAt(uint32_t i) {
  const uint32_t n = count();
  const uint32_t esz = shape_->leaf_entry_size();
  std::memmove(data_ + LeafEntryOffset(i), data_ + LeafEntryOffset(i + 1),
               static_cast<size_t>(n - i - 1) * esz);
  set_count(static_cast<uint16_t>(n - 1));
}

uint32_t NodeView::LiveLeafEntries(bool two_level) const {
  if (!two_level) return count();
  uint32_t live = 0;
  const uint32_t cap = shape_->leaf_capacity();
  for (uint32_t i = 0; i < cap; i++) {
    if (LeafKey(i) != kNullKey) live++;
  }
  return live;
}

// --- varlen slotted leaves ---

uint16_t NodeView::heap_watermark() const {
  uint16_t w;
  std::memcpy(&w, data_ + kOffHeapWatermark, 2);
  return w;
}

void NodeView::set_heap_watermark(uint16_t w) {
  std::memcpy(data_ + kOffHeapWatermark, &w, 2);
}

uint16_t NodeView::dead_bytes() const {
  uint16_t d;
  std::memcpy(&d, data_ + kOffDeadBytes, 2);
  return d;
}

void NodeView::set_dead_bytes(uint16_t d) {
  std::memcpy(data_ + kOffDeadBytes, &d, 2);
}

uint16_t NodeView::VarEntryOff(uint32_t i) const {
  uint16_t off;
  std::memcpy(&off, data_ + VarSlotOffset(i), 2);
  return off;
}

uint16_t NodeView::VarVlen(uint32_t i) const {
  uint16_t v;
  std::memcpy(&v, data_ + VarSlotOffset(i) + 4, 2);
  return v;
}

std::string NodeView::VarFullKey(uint32_t i) const {
  std::string k;
  const Slice p = VarPrefix();
  const Slice s = VarSuffix(i);
  k.reserve(p.size() + s.size());
  k.append(p.data(), p.size());
  k.append(s.data(), s.size());
  return k;
}

uint64_t NodeView::VarVlogPtr(uint32_t i) const {
  return Load64(VarEntryOff(i) + VarSuffixLen(i));
}

void NodeView::VarSetVlogPtr(uint32_t i, uint64_t ptr) {
  Store64(VarEntryOff(i) + VarSuffixLen(i), ptr);
}

uint32_t NodeView::VarLiveBytes() const {
  const uint32_t n = count();
  uint32_t bytes = n * kVarSlotSize + prefix_len();
  for (uint32_t i = 0; i < n; i++) bytes += VarEntryBytes(i);
  return bytes;
}

uint32_t NodeView::VarFreeBytes() const {
  const uint32_t slots_end = kHeaderSize + count() * kVarSlotSize;
  const uint32_t w = heap_watermark();
  return w > slots_end ? w - slots_end : 0;
}

namespace {

// memcmp order with shorter-is-smaller ties (Slice::compare semantics,
// restated here so slot searches cannot drift from Slice's contract).
int CompareBytes(const char* a, size_t alen, const char* b, size_t blen) {
  const size_t n = alen < blen ? alen : blen;
  const int c = n == 0 ? 0 : std::memcmp(a, b, n);
  if (c != 0) return c;
  if (alen == blen) return 0;
  return alen < blen ? -1 : 1;
}

}  // namespace

uint32_t NodeView::VarLowerBound(const Slice& key) const {
  const uint32_t n = count();
  const uint32_t p = prefix_len();
  // Compare the query against the shared page prefix first.
  const Slice pfx = VarPrefix();
  const size_t head = key.size() < p ? key.size() : p;
  const int c = head == 0 ? 0 : std::memcmp(key.data(), pfx.data(), head);
  if (c < 0) return 0;
  if (c > 0) return n;
  if (key.size() < p) return 0;  // strict prefix of the page prefix
  const char* suffix = key.data() + p;
  const size_t slen = key.size() - p;
  uint32_t lo = 0, hi = n;
  while (lo < hi) {
    const uint32_t mid = (lo + hi) / 2;
    const Slice s = VarSuffix(mid);
    if (CompareBytes(s.data(), s.size(), suffix, slen) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

uint32_t NodeView::VarFind(const Slice& key) const {
  const uint32_t i = VarLowerBound(key);
  if (i >= count()) return UINT32_MAX;
  const uint32_t p = prefix_len();
  if (key.size() < p ||
      (p > 0 && std::memcmp(key.data(), VarPrefix().data(), p) != 0)) {
    return UINT32_MAX;
  }
  const Slice s = VarSuffix(i);
  if (s.size() != key.size() - p) return UINT32_MAX;
  if (s.size() > 0 && std::memcmp(s.data(), key.data() + p, s.size()) != 0) {
    return UINT32_MAX;
  }
  return i;
}

uint8_t NodeView::VarFingerprint(const Slice& key) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over the full key
  for (size_t i = 0; i < key.size(); i++) {
    h ^= static_cast<uint8_t>(key.data()[i]);
    h *= 0x100000001b3ull;
  }
  return static_cast<uint8_t>(h);
}

bool NodeView::VarRebuildWithPrefix(uint32_t new_p) {
  SHERMAN_CHECK(new_p <= prefix_len());
  std::vector<VarEntry> entries = ExtractVarEntries(*this);
  // An empty page has no key to take a prefix from (VarInsert empties one
  // when it re-inserts a page's only entry).
  if (entries.empty()) new_p = 0;
  if (VarBytesNeeded(entries, new_p) > shape_->var_usable_bytes()) {
    return false;
  }
  const uint32_t top = shape_->node_size - 1 - new_p;
  if (new_p > 0) {
    // All keys share the first new_p bytes; take them from any entry.
    std::memcpy(data_ + top, entries.front().key.data(), new_p);
  }
  uint32_t w = top;
  for (uint32_t i = 0; i < entries.size(); i++) {
    const VarEntry& e = entries[i];
    const uint32_t slen = static_cast<uint32_t>(e.key.size()) - new_p;
    const uint32_t eb = slen + static_cast<uint32_t>(e.payload.size());
    w -= eb;
    std::memcpy(data_ + w, e.key.data() + new_p, slen);
    // An empty value's payload vector may hold a null data().
    if (!e.payload.empty()) {
      std::memcpy(data_ + w + slen, e.payload.data(), e.payload.size());
    }
    uint8_t* slot = data_ + VarSlotOffset(i);
    const uint16_t off16 = static_cast<uint16_t>(w);
    std::memcpy(slot, &off16, 2);
    slot[2] = static_cast<uint8_t>(slen);
    slot[3] = VarFingerprint(Slice(e.key.data(), e.key.size()));
    std::memcpy(slot + 4, &e.vlen, 2);
    slot[6] = e.outline ? kVarFlagOutline : 0;
    slot[7] = 0;
  }
  set_prefix_len(static_cast<uint8_t>(new_p));
  set_heap_watermark(static_cast<uint16_t>(w));
  set_dead_bytes(0);
  return true;
}

void NodeView::VarCompact() {
  // Defragment under the CURRENT prefix: a mid-insert compaction must not
  // grow the prefix out from under a key that shares less of it.
  SHERMAN_CHECK(VarRebuildWithPrefix(prefix_len()));
}

bool NodeView::VarInsert(const Slice& key, const uint8_t* payload,
                         uint32_t payload_len, uint16_t vlen, bool outline) {
  SHERMAN_CHECK(key.size() > 0 && key.size() <= shape_->max_key_len);
  uint32_t p = prefix_len();
  if (count() == 0) {
    if (p != 0) {
      set_prefix_len(0);
      set_heap_watermark(static_cast<uint16_t>(shape_->node_size - 1));
      p = 0;
    }
  } else if (p > 0) {
    // Shrink the page prefix to what the new key shares with it.
    uint32_t shared = 0;
    const Slice pfx = VarPrefix();
    while (shared < p && shared < key.size() &&
           key.data()[shared] == pfx.data()[shared]) {
      shared++;
    }
    if (shared < p) {
      if (!VarRebuildWithPrefix(shared)) return false;
      p = shared;
    }
  }
  const uint32_t slen = static_cast<uint32_t>(key.size()) - p;
  SHERMAN_CHECK(slen <= 255);
  const uint32_t eb = slen + payload_len;
  const uint32_t i = VarFind(key);
  if (i != UINT32_MAX) {
    // Update. Same-size payload rewrites in place; otherwise the old heap
    // entry goes dead and a fresh one is carved.
    const uint32_t old_payload = VarEntryBytes(i) - VarSuffixLen(i);
    uint8_t* slot = data_ + VarSlotOffset(i);
    if (old_payload == payload_len) {
      std::memcpy(data_ + VarEntryOff(i) + slen, payload, payload_len);
      std::memcpy(slot + 4, &vlen, 2);
      slot[6] = outline ? kVarFlagOutline : 0;
      return true;
    }
    const uint32_t dead = VarEntryBytes(i);
    if (VarFreeBytes() < eb) {
      if (VarFreeBytes() + dead_bytes() + dead < eb) return false;
      set_dead_bytes(static_cast<uint16_t>(dead_bytes() + dead));
      // Park the slot's length so compaction skips the old entry bytes:
      // compaction rebuilds from full keys + payloads, so just compact
      // after re-pointing the slot at a zero-length payload is unsound —
      // instead drop the slot and fall through to a fresh insert.
      VarRemoveAt(i);
      VarCompact();
      return VarInsert(key, payload, payload_len, vlen, outline);
    }
    set_dead_bytes(static_cast<uint16_t>(dead_bytes() + dead));
    const uint16_t w = static_cast<uint16_t>(heap_watermark() - eb);
    std::memcpy(data_ + w, key.data() + p, slen);
    std::memcpy(data_ + w + slen, payload, payload_len);
    std::memcpy(slot, &w, 2);
    slot[2] = static_cast<uint8_t>(slen);
    std::memcpy(slot + 4, &vlen, 2);
    slot[6] = outline ? kVarFlagOutline : 0;
    set_heap_watermark(w);
    return true;
  }
  // Fresh insert: needs a slot + a heap entry.
  const uint32_t need = kVarSlotSize + eb;
  if (VarFreeBytes() < need) {
    if (VarFreeBytes() + dead_bytes() < need) return false;
    VarCompact();
    if (VarFreeBytes() < need) return false;
  }
  const uint32_t pos = VarLowerBound(key);
  const uint32_t n = count();
  const uint16_t w = static_cast<uint16_t>(heap_watermark() - eb);
  std::memcpy(data_ + w, key.data() + p, slen);
  std::memcpy(data_ + w + slen, payload, payload_len);
  std::memmove(data_ + VarSlotOffset(pos + 1), data_ + VarSlotOffset(pos),
               static_cast<size_t>(n - pos) * kVarSlotSize);
  uint8_t* slot = data_ + VarSlotOffset(pos);
  std::memcpy(slot, &w, 2);
  slot[2] = static_cast<uint8_t>(slen);
  slot[3] = VarFingerprint(key);
  std::memcpy(slot + 4, &vlen, 2);
  slot[6] = outline ? kVarFlagOutline : 0;
  slot[7] = 0;
  set_heap_watermark(w);
  set_count(static_cast<uint16_t>(n + 1));
  return true;
}

void NodeView::VarRemoveAt(uint32_t i) {
  const uint32_t n = count();
  SHERMAN_CHECK(i < n);
  set_dead_bytes(static_cast<uint16_t>(dead_bytes() + VarEntryBytes(i)));
  std::memmove(data_ + VarSlotOffset(i), data_ + VarSlotOffset(i + 1),
               static_cast<size_t>(n - i - 1) * kVarSlotSize);
  set_count(static_cast<uint16_t>(n - 1));
}

std::vector<VarEntry> ExtractVarEntries(const NodeView& v) {
  std::vector<VarEntry> out;
  const uint32_t n = v.count();
  out.reserve(n);
  for (uint32_t i = 0; i < n; i++) {
    VarEntry e;
    e.key = v.VarFullKey(i);
    const uint32_t payload = v.VarEntryBytes(i) - v.VarSuffixLen(i);
    const uint8_t* base = v.data() + v.VarEntryOff(i) + v.VarSuffixLen(i);
    e.payload.assign(base, base + payload);
    e.vlen = v.VarVlen(i);
    e.outline = v.VarOutline(i);
    out.push_back(std::move(e));
  }
  return out;
}

uint32_t VarCommonPrefix(const std::vector<VarEntry>& entries) {
  if (entries.empty()) return 0;
  const std::string& a = entries.front().key;
  const std::string& b = entries.back().key;
  uint32_t p = 0;
  const uint32_t max =
      static_cast<uint32_t>(a.size() < b.size() ? a.size() : b.size());
  while (p < max && a[p] == b[p]) p++;
  return p < 255 ? p : 255;
}

uint32_t VarBytesNeeded(const std::vector<VarEntry>& entries, uint32_t p) {
  uint32_t bytes = p;
  for (const VarEntry& e : entries) bytes += kVarSlotSize + e.heap_bytes(p);
  return bytes;
}

bool BuildVarLeaf(NodeView* v, const std::vector<VarEntry>& entries) {
  const uint32_t p = VarCommonPrefix(entries);
  if (VarBytesNeeded(entries, p) > v->shape().var_usable_bytes()) {
    return false;
  }
  for (size_t i = 0; i < entries.size(); i++) {
    const VarEntry& e = entries[i];
    // Per-entry suffixes must respect the u8 length field, including after
    // a later diverging insert shrinks the prefix back to 0.
    if (e.key.size() > 255) return false;
    // Direct construction below assumes sorted unique input (every caller
    // passes extracted-in-slot-order or loader-verified entries).
    if (i > 0 && !(entries[i - 1].key < e.key)) return false;
  }
  // Write the final compressed layout directly under the maximal prefix.
  // Staging through VarInsert (prefix 0, full keys) can overflow a page
  // whose entries only fit WITH the shared prefix factored out — the
  // budget check above is against the compressed size.
  const uint32_t top = v->shape().node_size - 1 - p;
  if (p > 0) std::memcpy(v->data() + top, entries.front().key.data(), p);
  v->set_prefix_len(static_cast<uint8_t>(p));
  v->set_dead_bytes(0);
  uint32_t w = top;
  for (uint32_t i = 0; i < entries.size(); i++) {
    const VarEntry& e = entries[i];
    const uint32_t slen = static_cast<uint32_t>(e.key.size()) - p;
    const uint32_t eb = slen + static_cast<uint32_t>(e.payload.size());
    w -= eb;
    std::memcpy(v->data() + w, e.key.data() + p, slen);
    if (!e.payload.empty()) {
      std::memcpy(v->data() + w + slen, e.payload.data(), e.payload.size());
    }
    uint8_t* slot = v->data() + v->VarSlotOffset(i);
    const uint16_t off16 = static_cast<uint16_t>(w);
    std::memcpy(slot, &off16, 2);
    slot[2] = static_cast<uint8_t>(slen);
    slot[3] = NodeView::VarFingerprint(Slice(e.key.data(), e.key.size()));
    std::memcpy(slot + 4, &e.vlen, 2);
    slot[6] = e.outline ? kVarFlagOutline : 0;
    slot[7] = 0;
  }
  v->set_count(static_cast<uint16_t>(entries.size()));
  v->set_heap_watermark(static_cast<uint16_t>(w));
  return true;
}

bool VarLeafFits(const NodeView& dst, const NodeView& src) {
  if (dst.count() == 0) return src.VarLiveBytes() <= src.shape().var_usable_bytes();
  if (src.count() == 0) return true;
  // Merged prefix = LCP(dst's first key, src's last key); exact total
  // under that prefix (suffixes grow when the prefix shrinks).
  const std::string lo = dst.VarFullKey(0);
  const std::string hi = src.VarFullKey(src.count() - 1);
  uint32_t p = 0;
  const uint32_t max =
      static_cast<uint32_t>(lo.size() < hi.size() ? lo.size() : hi.size());
  while (p < max && lo[p] == hi[p]) p++;
  if (p > 255) p = 255;
  uint64_t bytes = p;
  for (uint32_t i = 0; i < dst.count(); i++) {
    bytes += kVarSlotSize + dst.VarFullKey(i).size() - p +
             (dst.VarEntryBytes(i) - dst.VarSuffixLen(i));
  }
  for (uint32_t i = 0; i < src.count(); i++) {
    bytes += kVarSlotSize + src.VarFullKey(i).size() - p +
             (src.VarEntryBytes(i) - src.VarSuffixLen(i));
  }
  return bytes <= dst.shape().var_usable_bytes();
}

void MoveVarLeafEntries(NodeView* dst, const NodeView& src) {
  std::vector<VarEntry> merged = ExtractVarEntries(*dst);
  std::vector<VarEntry> tail = ExtractVarEntries(src);
  merged.insert(merged.end(), std::make_move_iterator(tail.begin()),
                std::make_move_iterator(tail.end()));
  SHERMAN_CHECK(BuildVarLeaf(dst, merged));
}

void NodeView::SetInternalEntry(uint32_t i, Key key,
                                rdma::GlobalAddress child) {
  const uint32_t off = InternalEntryOffset(i);
  Store64(off, key);
  if (shape_->key_size > 8) {
    std::memset(data_ + off + 8, 0, shape_->key_size - 8);
  }
  Store64(off + shape_->key_size, child.ToU64());
}

rdma::GlobalAddress NodeView::InternalChildFor(Key key) const {
  // Largest entry key <= key; below all entry keys -> leftmost child.
  const uint32_t n = count();
  uint32_t lo = 0, hi = n;
  while (lo < hi) {
    const uint32_t mid = (lo + hi) / 2;
    if (InternalKey(mid) <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo == 0 ? leftmost_child() : InternalChild(lo - 1);
}

bool NodeView::InternalInsert(Key key, rdma::GlobalAddress child) {
  const uint32_t n = count();
  uint32_t pos = 0;
  while (pos < n && InternalKey(pos) < key) pos++;
  if (pos < n && InternalKey(pos) == key) {
    SetInternalEntry(pos, key, child);  // idempotent re-insert after retry
    return true;
  }
  if (n >= shape_->internal_capacity()) return false;
  const uint32_t esz = shape_->internal_entry_size();
  std::memmove(data_ + InternalEntryOffset(pos + 1),
               data_ + InternalEntryOffset(pos),
               static_cast<size_t>(n - pos) * esz);
  SetInternalEntry(pos, key, child);
  set_count(static_cast<uint16_t>(n + 1));
  return true;
}

bool NodeView::InternalRemove(Key key, rdma::GlobalAddress child) {
  const uint32_t n = count();
  for (uint32_t i = 0; i < n; i++) {
    if (InternalKey(i) == key && InternalChild(i) == child) {
      const uint32_t esz = shape_->internal_entry_size();
      std::memmove(data_ + InternalEntryOffset(i),
                   data_ + InternalEntryOffset(i + 1),
                   static_cast<size_t>(n - i - 1) * esz);
      set_count(static_cast<uint16_t>(n - 1));
      return true;
    }
  }
  return false;
}

void NodeView::InitLeaf(Key lo, Key hi, rdma::GlobalAddress sibling) {
  std::memset(data_, 0, shape_->node_size);
  data_[kOffFlags] = kFlagLeaf;
  set_level(0);
  set_lo_fence(lo);
  set_hi_fence(hi);
  set_sibling(sibling);
  if (shape_->varlen) {
    // Empty slotted page: heap starts at the RNV byte, no prefix yet.
    set_heap_watermark(static_cast<uint16_t>(shape_->node_size - 1));
  }
}

void NodeView::InitInternal(uint8_t level, Key lo, Key hi,
                            rdma::GlobalAddress sibling,
                            rdma::GlobalAddress leftmost) {
  std::memset(data_, 0, shape_->node_size);
  set_level(level);
  set_lo_fence(lo);
  set_hi_fence(hi);
  set_sibling(sibling);
  set_leftmost_child(leftmost);
}

bool LeafMergeCandidate(const NodeView& v, bool two_level, double threshold) {
  if (threshold <= 0) return false;
  if (!v.is_leaf() || v.is_free() || v.lo_fence() == 0) return false;
  const TreeShape& shape = v.shape();
  if (shape.varlen) {
    return static_cast<double>(v.VarLiveBytes()) <
           threshold * static_cast<double>(shape.var_usable_bytes());
  }
  return static_cast<double>(v.LiveLeafEntries(two_level)) <
         threshold * static_cast<double>(shape.leaf_capacity());
}

bool LeafMergeFits(const NodeView& dst, const NodeView& src, bool two_level,
                   bool headroom) {
  const TreeShape& shape = dst.shape();
  if (shape.varlen) {
    return VarLeafFits(dst, src) &&
           (!headroom || (dst.VarLiveBytes() + src.VarLiveBytes()) * 4 <=
                             3 * shape.var_usable_bytes());
  }
  const uint32_t cap = shape.leaf_capacity();
  return dst.LiveLeafEntries(two_level) + src.LiveLeafEntries(two_level) <=
         (headroom ? 3 * cap / 4 : cap);
}

void MoveLeafEntries(NodeView* dst, const NodeView& src, bool two_level) {
  const TreeShape& shape = src.shape();
  if (shape.varlen) {
    MoveVarLeafEntries(dst, src);
  } else if (two_level) {
    const uint32_t cap = shape.leaf_capacity();
    uint32_t di = 0;
    for (uint32_t i = 0; i < cap; i++) {
      const Key k = src.LeafKey(i);
      if (k == kNullKey) continue;
      while (dst->LeafKey(di) != kNullKey) di++;
      dst->SetLeafEntry(di, k, src.LeafValue(i));
    }
  } else {
    const uint32_t esz = shape.leaf_entry_size();
    uint32_t n = dst->count();
    const uint32_t sn = src.count();
    for (uint32_t i = 0; i < sn; i++) {
      dst->SetLeafEntryRaw(n, src.LeafKey(i), src.LeafValue(i));
      dst->data()[dst->LeafEntryOffset(n)] = 0;  // fresh entry versions
      dst->data()[dst->LeafEntryOffset(n) + esz - 1] = 0;
      n++;
    }
    dst->set_count(static_cast<uint16_t>(n));
  }
}

size_t ParsedInternal::ChildIndex(Key key) const {
  // Entries whose key is <= key.
  size_t lo_i = 0, hi_i = entries.size();
  while (lo_i < hi_i) {
    const size_t mid = (lo_i + hi_i) / 2;
    if (entries[mid].first <= key) {
      lo_i = mid + 1;
    } else {
      hi_i = mid;
    }
  }
  return lo_i;
}

rdma::GlobalAddress ParsedInternal::ChildFor(Key key) const {
  const size_t i = ChildIndex(key);
  return i == 0 ? leftmost : entries[i - 1].second;
}

Status ParseInternal(const uint8_t* buf, const TreeShape& shape,
                     rdma::GlobalAddress self, ParsedInternal* out) {
  NodeView view(const_cast<uint8_t*>(buf), &shape);
  if (!view.NodeVersionsMatch()) {
    return Status::Retry("internal node version mismatch");
  }
  if (view.is_leaf()) {
    return Status::Corruption("expected internal node, found leaf");
  }
  if (view.is_free()) {
    return Status::Retry("internal node freed");
  }
  const uint32_t n = view.count();
  if (n > shape.internal_capacity()) {
    return Status::Corruption("internal count out of range");
  }
  out->self = self;
  out->level = view.level();
  out->lo = view.lo_fence();
  out->hi = view.hi_fence();
  out->sibling = view.sibling();
  out->leftmost = view.leftmost_child();
  out->entries.clear();
  out->entries.reserve(n);
  Key prev = 0;
  for (uint32_t i = 0; i < n; i++) {
    const Key k = view.InternalKey(i);
    if (i > 0 && k <= prev) {
      return Status::Retry("internal keys out of order (torn read)");
    }
    prev = k;
    out->entries.emplace_back(k, view.InternalChild(i));
  }
  // The node-version match above IS this buffer's torn-read validation;
  // tell DMSan its taint (if any) is discharged.
  if (dmsan::Active()) dmsan::NoteValidatedAll(buf, shape.node_size);
  return Status::OK();
}

}  // namespace sherman
