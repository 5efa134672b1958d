#include "core/record_policy.h"

#include <algorithm>
#include <cstring>

#include "util/logging.h"
#include "vlog/vlog.h"

namespace sherman {

namespace {
// Swizzle-hint map bound; overflow clears (hints are speculative and
// re-validated against the leaf on every use, so losing them only costs
// the second round trip they would have saved).
constexpr size_t kVptrCacheCap = 4096;

uint32_t LcpLen(const std::string& a, const std::string& b) {
  const size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  while (i < n && a[i] == b[i]) i++;
  return static_cast<uint32_t>(std::min<size_t>(i, 255));
}
}  // namespace

// --- FixedPolicy -------------------------------------------------------------

Status FixedPolicy::Check() const {
  SHERMAN_CHECK(key_ != kNullKey && key_ != kMaxKey);
  return Status::OK();
}

sim::SimTime FixedPolicy::SearchNs(const rdma::FabricConfig& f) const {
  return two_level() ? f.cpu_leaf_scan_ns : f.cpu_node_search_ns;
}

LeafRead FixedPolicy::Read(const NodeView& v) const {
  const uint32_t i =
      two_level() ? v.FindLeafSlot(key_).match : v.SortedLeafFind(key_);
  if (i == UINT32_MAX) return LeafRead::kMiss;
  // Unsorted leaves validate the entry itself (Figure 9).
  if (two_level() && !v.LeafEntryVersionsMatch(i)) return LeafRead::kTorn;
  *out_ = v.LeafValue(i);
  return LeafRead::kHit;
}

bool FixedPolicy::Put(NodeView* v, LeafWrite* w) const {
  if (!two_level()) {
    // Sorted leaf (FG): shift-insert, write back the whole node.
    if (!v->SortedLeafInsert(key_, value_)) return false;
    w->WholeNode(o_->shape.node_size);
    return true;
  }
  // Unsorted leaf: update in place or fill an empty slot; only the
  // touched entry is written back (Figure 7, lines 11-17).
  const NodeView::SlotResult slot = v->FindLeafSlot(key_);
  const uint32_t i = slot.match != UINT32_MAX ? slot.match : slot.empty;
  if (i == UINT32_MAX) return false;
  v->SetLeafEntry(i, key_, value_);
  w->Add(v->LeafEntryOffset(i), o_->shape.leaf_entry_size());
  return true;
}

bool FixedPolicy::Remove(NodeView* v, LeafWrite* w) const {
  if (two_level()) {
    // Clear the entry (key = null) and bump its versions (§4.4, "Delete
    // operation"); only the entry is written back.
    const uint32_t i = v->FindLeafSlot(key_).match;
    if (i == UINT32_MAX) return false;
    v->SetLeafEntry(i, kNullKey, 0);
    w->Add(v->LeafEntryOffset(i), o_->shape.leaf_entry_size());
    return true;
  }
  // Sorted leaf: shift-remove, then write back only what changed — the
  // header (count, seal) and the left-shifted suffix; remote bytes past
  // the suffix still equal the local staging copy, so checksum validation
  // stays exact.
  const uint32_t n = v->count();
  const uint32_t i = v->SortedLeafFind(key_);
  if (i == UINT32_MAX) return false;
  v->SortedLeafRemoveAt(i);
  const uint32_t from = v->LeafEntryOffset(i);
  if (w->ranges.empty()) {
    w->seal = true;
    w->Add(0, kHeaderSize);
    w->Add(from, v->LeafEntryOffset(n) - from);
    // The rear node version lives in the last byte, outside both ranges.
    if (o_->consistency == TreeOptions::Consistency::kVersions) {
      w->Add(o_->shape.node_size - 1, 1);
    }
  } else {
    // One suffix write covers every entry shifted under this lock.
    auto& suffix = w->ranges[1];
    const uint32_t end = suffix.first + suffix.second;
    suffix.first = std::min(suffix.first, from);
    suffix.second = end - suffix.first;
  }
  return true;
}

StatusOr<Key> FixedPolicy::Cut(const NodeView& v) {
  // Collect live entries plus the new pair, sorted (Figure 7, line 21).
  staged_.clear();
  const uint32_t n = two_level() ? o_->shape.leaf_capacity() : v.count();
  for (uint32_t i = 0; i < n; i++) {
    const Key k = v.LeafKey(i);
    if (k != kNullKey) staged_.emplace_back(k, v.LeafValue(i));
  }
  auto it = std::find_if(staged_.begin(), staged_.end(),
                         [this](const auto& e) { return e.first == key_; });
  if (it != staged_.end()) {
    it->second = value_;
  } else {
    staged_.emplace_back(key_, value_);
  }
  std::sort(staged_.begin(), staged_.end());
  return staged_[staged_.size() / 2].first;
}

void FixedPolicy::Fill(NodeView* lower, NodeView* upper) const {
  const size_t mid = staged_.size() / 2;
  for (size_t j = 0; j < staged_.size(); j++) {
    NodeView* half = j < mid ? lower : upper;
    half->SetLeafEntryRaw(static_cast<uint32_t>(j < mid ? j : j - mid),
                          staged_[j].first, staged_[j].second);
  }
  if (!two_level()) {
    lower->set_count(static_cast<uint16_t>(mid));
    upper->set_count(static_cast<uint16_t>(staged_.size() - mid));
  }
}

std::optional<uint32_t> FixedPolicy::Collect(
    const NodeView& v, Key from, uint32_t count,
    std::vector<ScanEntry>* out) const {
  std::vector<ScanEntry> got;
  uint32_t live = 0;
  const uint32_t n = two_level() ? o_->shape.leaf_capacity() : v.count();
  for (uint32_t i = 0; i < n; i++) {
    const Key k = v.LeafKey(i);
    if (k == kNullKey) continue;
    if (two_level() && !v.LeafEntryVersionsMatch(i)) return std::nullopt;
    live++;
    if (k >= from) got.emplace_back(k, v.LeafValue(i));
  }
  std::sort(got.begin(), got.end());
  for (const ScanEntry& kv : got) {
    if (out->size() >= count) break;
    out->push_back(kv);
  }
  return live;
}

// --- VarPolicy ---------------------------------------------------------------

VarPolicy::VarPolicy(const TreeOptions& o, const Slice& key,
                     const Slice& value, std::string* out)
    : o_(&o),
      key_(key.data(), key.size()),
      value_(value.data(), value.size()),
      out_(out),
      rk_(RoutingKeyFor(key)),
      outline_(value.size() > kInlineThreshold) {}

Status VarPolicy::Check() const {
  SHERMAN_CHECK_MSG(o_->shape.varlen, "var op on a fixed-size tree");
  if (key_.empty() || key_.size() > o_->shape.max_key_len) {
    return Status::InvalidArgument("varlen key length out of range");
  }
  // kNullKey / kMaxKey are fence sentinels in the routing tree; a key whose
  // first 8 bytes are all-zero or all-0xff would be unroutable.
  if (rk_ == kNullKey || rk_ == kMaxKey) {
    return Status::InvalidArgument("key routes to a reserved sentinel");
  }
  return Status::OK();
}

Status VarPolicy::CheckPut() const {
  Status st = Check();
  if (!st.ok()) return st;
  if (value_.size() > 0xffff) {
    return Status::InvalidArgument("value exceeds the u16 length field");
  }
  if (outline_ && vlog::VlogClient::RecordBytes(key_, value_) >
                      (vlog::kMinExtentBytes << (vlog::kNumClasses - 1))) {
    return Status::InvalidArgument("value too large for the value log");
  }
  return Status::OK();
}

sim::SimTime VarPolicy::SearchNs(const rdma::FabricConfig& f) const {
  return f.cpu_node_search_ns;
}

LeafRead VarPolicy::Read(const NodeView& v) {
  const uint32_t at = v.VarFind(key_);
  if (at == UINT32_MAX) return LeafRead::kMiss;
  if (!v.VarOutline(at)) {
    const Slice inl = v.VarInlineValue(at);
    out_->assign(inl.data(), inl.size());
    return LeafRead::kHit;
  }
  read_ptr_ = v.VarVlogPtr(at);
  read_vlen_ = v.VarVlen(at);
  return LeafRead::kRemote;
}

Slice VarPolicy::payload() const {
  return outline_ ? Slice(reinterpret_cast<const char*>(&vptr_), 8)
                  : Slice(value_);
}

bool VarPolicy::Put(NodeView* v, LeafWrite* w) {
  const uint32_t at = v->VarFind(key_);
  old_ptr_ = (at != UINT32_MAX && v->VarOutline(at)) ? v->VarVlogPtr(at) : 0;
  const Slice p = payload();
  if (!v->VarInsert(key_, reinterpret_cast<const uint8_t*>(p.data()),
                    static_cast<uint32_t>(p.size()),
                    static_cast<uint16_t>(value_.size()), outline_)) {
    return false;
  }
  w->WholeNode(o_->shape.node_size);
  return true;
}

void VarPolicy::Bind(std::string value) {
  SHERMAN_CHECK(!outline_ && value.size() <= kInlineThreshold);
  value_ = std::move(value);
}

bool VarPolicy::Remove(NodeView* v, LeafWrite* w) {
  const uint32_t at = v->VarFind(key_);
  if (at == UINT32_MAX) return false;
  old_ptr_ = v->VarOutline(at) ? v->VarVlogPtr(at) : 0;
  v->VarRemoveAt(at);
  w->WholeNode(o_->shape.node_size);
  return true;
}

StatusOr<Key> VarPolicy::Cut(const NodeView& v) {
  // Materialize the live entries and apply the pending insert (replace or
  // sorted insert).
  staged_ = ExtractVarEntries(v);
  VarEntry pending;
  pending.key = key_;
  const Slice p = payload();
  pending.payload.assign(p.data(), p.data() + p.size());
  pending.vlen = static_cast<uint16_t>(value_.size());
  pending.outline = outline_;
  auto it = std::lower_bound(
      staged_.begin(), staged_.end(), pending,
      [](const VarEntry& a, const VarEntry& b) { return a.key < b.key; });
  if (it != staged_.end() && it->key == pending.key) {
    *it = std::move(pending);
  } else {
    staged_.insert(it, std::move(pending));
  }

  // Pick the cut: only a ROUTING-key boundary is legal, both halves must
  // fit under their own maximal prefix, and among legal cuts we take the
  // most byte-balanced one. Per-candidate byte costs come from prefix
  // sums: half bytes = slots + (raw key+payload bytes - n*prefix) + prefix.
  const size_t n = staged_.size();
  std::vector<uint64_t> raw(n + 1, 0);  // cumulative key+payload bytes
  for (size_t i = 0; i < n; i++) {
    raw[i + 1] = raw[i] + staged_[i].key.size() + staged_[i].payload.size();
  }
  const uint64_t budget = o_->shape.var_usable_bytes();
  cut_ = 0;
  uint64_t best = UINT64_MAX;
  for (size_t i = 1; i < n; i++) {
    if (RoutingKeyFor(staged_[i].key) == RoutingKeyFor(staged_[i - 1].key)) {
      continue;
    }
    const uint64_t pl = LcpLen(staged_[0].key, staged_[i - 1].key);
    const uint64_t pr = LcpLen(staged_[i].key, staged_[n - 1].key);
    const uint64_t left = i * kVarSlotSize + (raw[i] - i * pl) + pl;
    const uint64_t right =
        (n - i) * kVarSlotSize + (raw[n] - raw[i] - (n - i) * pr) + pr;
    if (left > budget || right > budget) continue;
    const uint64_t diff = left > right ? left - right : right - left;
    if (diff < best) {
      best = diff;
      cut_ = i;
    }
  }
  if (cut_ == 0) {
    // Either every key routes identically, or the one legal boundary
    // leaves an oversize half. Validate() guarantees two maximal entries
    // fit, so this takes max-length keys differing only past byte 8 — a
    // clean error beats a wedged retry loop.
    return Status::InvalidArgument(
        "keys sharing one routing key exceed leaf capacity");
  }
  return RoutingKeyFor(staged_[cut_].key);
}

void VarPolicy::Fill(NodeView* lower, NodeView* upper) {
  SHERMAN_CHECK(BuildVarLeaf(
      upper, std::vector<VarEntry>(staged_.begin() + cut_, staged_.end())));
  staged_.resize(cut_);
  SHERMAN_CHECK(BuildVarLeaf(lower, staged_));
}

sim::Task<Status> VarPolicy::Reserve(TreeClient& t, OpStats* stats) {
  if (!outline_) co_return Status::OK();
  StatusOr<uint64_t> p = co_await t.vlog_->Reserve(
      key_, value_, NodeView::VarFingerprint(key_), stats);
  if (!p.ok()) co_return p.status();
  vptr_ = *p;
  co_return Status::OK();
}

void VarPolicy::PostWrite(TreeClient& t, sim::CountdownLatch* written,
                          OpStats* stats) {
  if (!outline_) return;
  written->Add();
  sim::Spawn(t.vlog_->Write(vptr_, key_, value_, stats, written));
}

sim::Task<void> VarPolicy::Abandon(TreeClient& t, OpStats* stats) {
  if (outline_) co_await t.vlog_->Retire(vptr_, stats);
}

void VarPolicy::Published(TreeClient& t) {
  if (old_ptr_ != 0) t.vlog_->RetireAsync(old_ptr_);
  if (outline_) {
    t.RememberVptr(key_, vptr_, static_cast<uint16_t>(value_.size()));
  } else {
    t.ForgetVptr(key_);
  }
}

void VarPolicy::Removed(TreeClient& t) {
  // Retire only after the delete (or merge) published: readers that
  // fetched the old leaf meanwhile finish under their epoch pin.
  t.ForgetVptr(key_);
  if (old_ptr_ != 0) t.vlog_->RetireAsync(old_ptr_);
}

sim::Task<Status> VarPolicy::Fetch(TreeClient& t, OpStats* stats) {
  Status st = co_await t.vlog_->Read(read_ptr_, key_, read_vlen_, out_, stats);
  if (st.ok()) t.RememberVptr(key_, read_ptr_, read_vlen_);
  co_return st;
}

sim::Task<std::optional<Status>> VarPolicy::Speculate(TreeClient& t,
                                                      uint8_t* buf,
                                                      OpStats* stats) {
  // Collapses the two dependent round trips of an out-of-line read into
  // one (one doorbell when leaf and extent share an MS, concurrent posts
  // otherwise). The op's EpochPin makes the speculative extent READ safe
  // even against a concurrent retire.
  auto hint_it = t.vptr_cache_.find(key_);
  if (!t.opt().enable_cache || hint_it == t.vptr_cache_.end()) {
    co_return std::nullopt;
  }
  TreeClient::VptrHint hint = hint_it->second;
  const rdma::FabricConfig& f = t.system_->fabric().config();
  sim::Simulator& sim = t.system_->simulator();
  co_await sim.Delay(f.cpu_cache_lookup_ns);
  // Another op of this CS may have updated the hint meanwhile: use the
  // fresh one. If it dropped the hint, the copy still serves (a held
  // iterator would dangle): the fetched leaf validates any speculation.
  hint_it = t.vptr_cache_.find(key_);
  if (hint_it != t.vptr_cache_.end()) hint = hint_it->second;
  const ParsedInternal* p = t.cache_.LookupLevel1(rk_);
  const uint32_t rec_len = vlog::kRecordHeader +
                           static_cast<uint32_t>(key_.size()) + hint.vlen;
  if (p == nullptr || rec_len > vlog::VlogPtr::ExtentBytes(hint.ptr)) {
    co_return std::nullopt;
  }
  const rdma::GlobalAddress leaf_addr = p->ChildFor(rk_);
  const rdma::GlobalAddress vaddr = vlog::VlogPtr::Addr(hint.ptr);
  const uint32_t node_size = o_->shape.node_size;
  std::vector<uint8_t> vbuf(rec_len);
  if (stats != nullptr) stats->cache_hits++;
  sim::SimTime leaf_ns = 0;  // the leaf READ's latency
  if (vaddr.node == leaf_addr.node) {
    std::vector<rdma::WorkRequest> wrs;
    wrs.push_back(rdma::WorkRequest::Read(leaf_addr, buf, node_size));
    wrs.push_back(rdma::WorkRequest::Read(vaddr, vbuf.data(), rec_len));
    const sim::SimTime start = sim.now();
    rdma::RdmaResult r =
        co_await t.QpFor(leaf_addr).PostReadBatch(std::move(wrs));
    SHERMAN_CHECK(r.status.ok());
    leaf_ns = sim.now() - start;
  } else {
    sim::CountdownLatch latch(2);
    sim::Spawn(t.ReadInto(leaf_addr, buf, node_size, &leaf_ns, &latch));
    sim::Spawn(t.ReadInto(vaddr, vbuf.data(), rec_len, nullptr, &latch));
    co_await latch.Wait();
  }
  if (stats != nullptr) stats->round_trips++;
  // 4-bit wraparound guard (§4.4): a leaf READ slower than a full version
  // cycle proves nothing by matching versions; the validated path
  // re-reads it.
  const bool slow = t.WrapGuardTrips(leaf_ns);
  NodeView view(buf, &o_->shape);
  if (!slow && t.NodeConsistent(buf) && !view.is_free() && view.is_leaf() &&
      view.InFence(rk_)) {
    co_await sim.Delay(f.cpu_node_search_ns);
    const LeafRead got = Read(view);
    if (got != LeafRead::kRemote) {
      t.ForgetVptr(key_);
      co_return got == LeafRead::kHit ? Status::OK() : Status::NotFound();
    }
    if (read_ptr_ == hint.ptr && read_vlen_ == hint.vlen) {
      // Speculation confirmed by the leaf: parse the record fetched
      // alongside. A header/key mismatch means our extent READ raced the
      // append that published this pointer — resolve freshly.
      uint16_t klen = 0;
      uint16_t got_vlen = 0;
      std::memcpy(&klen, vbuf.data(), 2);
      std::memcpy(&got_vlen, vbuf.data() + 2, 2);
      if (klen == key_.size() && got_vlen == hint.vlen &&
          std::memcmp(vbuf.data() + vlog::kRecordHeader, key_.data(), klen) ==
              0) {
        out_->assign(reinterpret_cast<const char*>(vbuf.data()) +
                         vlog::kRecordHeader + klen,
                     got_vlen);
        co_return Status::OK();
      }
    }
    // Pointer moved since the hint (update or GC relocation): the fetched
    // leaf is valid, so resolve from it.
    t.ForgetVptr(key_);
    Status st = co_await Fetch(t, stats);
    if (!st.IsCorruption()) co_return st;
    // Relocated between leaf and value read; take the slow loop.
  }
  if (stats != nullptr) stats->read_retries++;
  co_return std::nullopt;
}

Status VarPolicy::CheckScan() const {
  SHERMAN_CHECK_MSG(o_->shape.varlen, "var op on a fixed-size tree");
  if (key_.size() > o_->shape.max_key_len) {
    return Status::InvalidArgument("scan start key too long");
  }
  return Status::OK();
}

sim::Task<Status> VarPolicy::ScanLeaf(TreeClient& t, const NodeView& v, Key,
                                      uint32_t count,
                                      std::vector<ScanEntry>* out,
                                      uint32_t* live, OpStats* stats) const {
  for (uint32_t s = 0; s < v.count() && out->size() < count; s++) {
    std::string k = v.VarFullKey(s);
    if (out->empty() ? k < key_ : k <= out->back().first) continue;
    std::string value;
    VarPolicy rec(*o_, k, {}, &value);
    if (rec.Read(v) == LeafRead::kRemote) {
      const Status st = co_await rec.Fetch(t, stats);
      if (st.IsCorruption()) co_return Status::Retry("value relocated");
      if (!st.ok()) co_return st;
    }
    out->emplace_back(std::move(k), std::move(value));
  }
  *live = v.count();
  co_return Status::OK();
}

bool VarPolicy::HostCanReplace(const NodeView& v) const {
  const uint32_t at = v.VarFind(key_);
  return at == UINT32_MAX || !v.VarOutline(at);
}

Status VarPolicy::HostCanRemove(const NodeView& v, int ms) const {
  const uint32_t at = v.VarFind(key_);
  if (at == UINT32_MAX) return Status::NotFound();
  // The extent's dead bit lives on another MS; retiring it there would
  // be a remote call. The one-sided delete owns that.
  if (v.VarOutline(at) && vlog::VlogPtr::Ms(v.VarVlogPtr(at)) != ms) {
    return Status::Retry("ms-side var delete: foreign extent");
  }
  return Status::OK();
}

bool VarPolicy::HostFetch(ShermanSystem* system, int ms) {
  // Near-memory means THIS server's memory: a record whose extent lives on
  // a foreign MS would need a remote read the wimpy core doesn't have.
  if (vlog::VlogPtr::Ms(read_ptr_) != ms) return false;
  const uint8_t* rec = system->fabric().HostRaw(vlog::VlogPtr::Addr(read_ptr_));
  uint16_t klen = 0;
  uint16_t vlen = 0;
  std::memcpy(&klen, rec, 2);
  std::memcpy(&vlen, rec + 2, 2);
  // The handler runs atomically at one simulated instant and the slot
  // references this extent, so the record must parse back to the key.
  SHERMAN_CHECK(klen == key_.size() &&
                std::memcmp(rec + vlog::kRecordHeader, key_.data(), klen) == 0);
  out_->assign(reinterpret_cast<const char*>(rec) + vlog::kRecordHeader + klen,
               vlen);
  return true;
}

void VarPolicy::HostRetire(ShermanSystem* system, int ms) const {
  if (old_ptr_ != 0) {
    system->chunk_manager(ms).VlogRetire(vlog::VlogPtr::Off(old_ptr_));
  }
}

bool VarPolicy::HostCollect(ShermanSystem* system, int ms, const NodeView& v,
                            uint32_t count,
                            std::vector<ScanEntry>* out) const {
  for (uint32_t i = 0; i < v.count() && out->size() < count; i++) {
    std::string k = v.VarFullKey(i);
    if (k < key_) continue;
    std::string value;
    VarPolicy rec(*o_, k, {}, &value);
    if (rec.Read(v) == LeafRead::kRemote && !rec.HostFetch(system, ms)) {
      return false;
    }
    out->emplace_back(std::move(k), std::move(value));
  }
  return true;
}

// --- swizzle cache and value-log GC (TreeClient) -----------------------------

void TreeClient::RememberVptr(const std::string& key, uint64_t ptr,
                              uint16_t vlen) {
  if (vptr_cache_.size() >= kVptrCacheCap &&
      vptr_cache_.find(key) == vptr_cache_.end()) {
    vptr_cache_.clear();
  }
  vptr_cache_[key] = VptrHint{ptr, vlen};
}

void TreeClient::ForgetVptr(const std::string& key) { vptr_cache_.erase(key); }

sim::Task<Status> TreeClient::VlogGcOnce(uint64_t* relocated, OpStats* stats) {
  SHERMAN_CHECK_MSG(opt().shape.varlen, "vlog GC on a fixed-size tree");
  EpochPin pin(&system_->reclaim_, cs_id_);
  // Open segments are invisible to victim selection; seal them so this
  // pass sees the current generation.
  co_await vlog_->SealOpen(stats);
  uint64_t moved = 0;
  Status overall = Status::OK();
  for (int ms = 0; ms < system_->fabric_.num_memory_servers(); ms++) {
    const uint64_t v = co_await system_->fabric_.qp(cs_id_, ms)
                           .Rpc(kRpcVlogVictim, vlog::kGcDeadPermille, 0);
    if (stats != nullptr) stats->round_trips++;
    if (v == 0) continue;
    const uint64_t base = v & ((1ull << 40) - 1);
    const uint32_t used = static_cast<uint32_t>((v >> 40) & 0xffff);
    const uint32_t cls = static_cast<uint32_t>(v >> 56);
    Status st = co_await GcVictimSegment(static_cast<uint16_t>(ms), base, cls,
                                         used, &moved, stats);
    if (!st.ok() && overall.ok()) overall = st;
  }
  vlog_->CountGcPass();
  if (relocated != nullptr) *relocated = moved;
  co_return overall;
}

sim::Task<Status> TreeClient::GcVictimSegment(uint16_t ms, uint64_t base,
                                              uint32_t cls, uint32_t used,
                                              uint64_t* relocated,
                                              OpStats* stats) {
  const TreeOptions& o = opt();
  const uint32_t extent = vlog::kMinExtentBytes << cls;
  rdma::Qp& qp = system_->fabric_.qp(cs_id_, ms);

  // Dead-bitmap snapshot. Concurrent retires only ADD dead bits, so a bit
  // set after this read just means one extra stale-relocation check below
  // (the leaf pointer comparison catches it).
  std::vector<uint64_t> mask((used + 63) / 64, 0);
  for (uint32_t w = 0; w < mask.size(); w++) {
    mask[w] = co_await qp.Rpc(kRpcVlogMask, base, w);
    if (stats != nullptr) stats->round_trips++;
  }

  std::vector<uint8_t> rec_buf(extent);
  std::vector<uint8_t> leaf_buf(node_size());
  for (uint32_t slot = 0; slot < used; slot++) {
    if ((mask[slot / 64] >> (slot % 64)) & 1) continue;  // already dead
    const uint64_t off = base + static_cast<uint64_t>(slot) * extent;
    const uint64_t old_ptr = vlog::VlogPtr::Pack(0, static_cast<uint8_t>(cls),
                                                 ms, off);
    Status st = co_await ReadRaw(rdma::GlobalAddress(ms, off), rec_buf.data(),
                                 extent, stats);
    SHERMAN_CHECK(st.ok());
    uint16_t klen = 0;
    uint16_t vlen = 0;
    std::memcpy(&klen, rec_buf.data(), 2);
    std::memcpy(&vlen, rec_buf.data() + 2, 2);
    if (klen == 0 || klen > o.shape.max_key_len ||
        vlog::kRecordHeader + klen + vlen > extent) {
      // Unparseable (the owner died mid-append): no leaf can reference it;
      // retire so the segment can drain.
      co_await vlog_->Retire(old_ptr, stats);
      vlog_->CountGcStale();
      continue;
    }
    const std::string key(
        reinterpret_cast<const char*>(rec_buf.data()) + vlog::kRecordHeader,
        klen);
    const Slice value(
        reinterpret_cast<const char*>(rec_buf.data()) + vlog::kRecordHeader +
            klen,
        vlen);

    // Tree-guided relocation, copy-then-flip under the leaf lock. The
    // fresh extent (in a new open segment, never this sealed victim) is
    // reserved before the lock, as a put's is: a reservation may wait on
    // memory-thread RPCs, and a leaf lock held past its lease reads as a
    // crash to the next waiter.
    StatusOr<uint64_t> fresh = co_await vlog_->Reserve(
        key, value, NodeView::VarFingerprint(key), stats);
    if (!fresh.ok()) co_return fresh.status();
    StatusOr<Locked> locked_r =
        co_await LockLeaf(RoutingKeyFor(key), leaf_buf.data(), stats);
    if (!locked_r.ok()) {
      vlog_->RetireAsync(*fresh);
      co_return locked_r.status();
    }
    NodeView view(leaf_buf.data(), &o.shape);
    const uint32_t at = view.VarFind(key);
    const uint64_t cur =
        (at != UINT32_MAX && view.VarOutline(at)) ? view.VarVlogPtr(at) : 0;
    if (cur == 0 || vlog::VlogPtr::Cls(cur) != cls ||
        vlog::VlogPtr::Ms(cur) != ms || vlog::VlogPtr::Off(cur) != off) {
      // The leaf no longer references this extent (deleted, updated, or
      // retired after the bitmap snapshot): the fresh one goes unwritten.
      co_await Release(*locked_r, {}, stats);
      vlog_->RetireAsync(*fresh);
      vlog_->CountGcStale();
    } else {
      // Copy: write the fresh record. Flip: repoint the slot and publish
      // the node.
      co_await vlog_->Write(*fresh, key, value, stats);
      view.VarSetVlogPtr(at, *fresh);
      LeafWrite w;
      w.WholeNode(node_size());
      view.Seal(o.consistency);
      co_await WriteBackAndUnlock(*locked_r, leaf_buf.data(), w, stats);
      RememberVptr(key, *fresh, vlen);
      vlog_->CountGcRelocated();
      (*relocated)++;
    }
    // Retire AFTER the repoint (or the staleness proof) published; pinned
    // readers of the old extent drain under the grace epoch.
    co_await vlog_->Retire(old_ptr, stats);
  }
  co_return Status::OK();
}

}  // namespace sherman
