// Variable-length record operations of TreeClient (shape.varlen mode):
// string-keyed point/batch/scan ops over slotted-page leaves, the
// pointer-swizzle read fast path, and the value-log GC driver.
//
// The fixed-size ops live in core/btree.cc; this file reuses every
// traversal, lock, intent, and crash-site primitive so varlen trees pay
// the same simulated round trips and recover through the same machinery.
// Routing is unchanged u64 B-link traversal on RoutingKeyFor(key): keys
// sharing a routing key always share a leaf, so internal nodes, fences,
// the index cache, and the recoverer never see a byte string.
#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/btree.h"
#include "fault/crash_point.h"
#include "util/logging.h"
#include "vlog/vlog.h"

namespace sherman {

namespace {
constexpr int kMaxSiblingChase = 64;  // matches btree.cc
// Cap on READs per doorbell ring (real NIC postlists are bounded).
constexpr size_t kMaxReadBatch = 16;
// Swizzle-hint map bound; overflow clears (hints are speculative and
// re-validated against the leaf on every use, so losing them only costs
// the second round trip they would have saved).
constexpr size_t kVptrCacheCap = 4096;

// Varlen leaf splits hit the same remote-write milestones as fixed ones;
// RegisterCrashSite is idempotent by name, so these resolve to the ids
// btree.cc registered and the recover_test sweep / SHERMAN_CRASH_AT cover
// both paths with one site set.
const int kCrashSplitIntent = fault::RegisterCrashSite("split.intent");
const int kCrashSplitSibling = fault::RegisterCrashSite("split.sibling");
const int kCrashSplitLeaf = fault::RegisterCrashSite("split.leaf");
const int kCrashSplitLinked = fault::RegisterCrashSite("split.linked");

uint32_t LcpLen(const std::string& a, const std::string& b) {
  const size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  while (i < n && a[i] == b[i]) i++;
  return static_cast<uint32_t>(std::min<size_t>(i, 255));
}
}  // namespace

Status TreeClient::CheckVarKey(const Slice& key, Key* rk) const {
  const TreeShape& shape = opt().shape;
  SHERMAN_CHECK_MSG(shape.varlen, "var op on a fixed-size tree");
  if (key.empty() || key.size() > shape.max_key_len) {
    return Status::InvalidArgument("varlen key length out of range");
  }
  const Key r = RoutingKeyFor(key);
  // kNullKey / kMaxKey are fence sentinels in the routing tree; a key whose
  // first 8 bytes are all-zero or all-0xff would be unroutable.
  if (r == kNullKey || r == kMaxKey) {
    return Status::InvalidArgument("key routes to a reserved sentinel");
  }
  *rk = r;
  return Status::OK();
}

void TreeClient::RememberVptr(const std::string& key, uint64_t ptr,
                              uint16_t vlen) {
  if (vptr_cache_.size() >= kVptrCacheCap &&
      vptr_cache_.find(key) == vptr_cache_.end()) {
    vptr_cache_.clear();
  }
  vptr_cache_[key] = VptrHint{ptr, vlen};
}

void TreeClient::ForgetVptr(const std::string& key) { vptr_cache_.erase(key); }

// --- InsertVar --------------------------------------------------------------

sim::Task<Status> TreeClient::InsertVar(const Slice& key, const Slice& value,
                                        OpStats* stats) {
  Key rk = 0;
  Status st = CheckVarKey(key, &rk);
  if (!st.ok()) co_return st;
  const TreeOptions& o = opt();
  if (value.size() > 0xffff) {
    co_return Status::InvalidArgument("value exceeds the u16 length field");
  }
  const bool outline = value.size() > o.inline_threshold;
  if (outline && vlog::VlogClient::RecordBytes(key, value) >
                     (vlog::kMinExtentBytes << (vlog::kNumClasses - 1))) {
    co_return Status::InvalidArgument("value too large for the value log");
  }
  const rdma::FabricConfig& f = system_->fabric_.config();
  EpochPin pin(&system_->reclaim_, cs_id_);
  co_await system_->fabric_.simulator().Delay(f.cpu_op_overhead_ns);

  // Out-of-line values append BEFORE the leaf lock: the extent is private
  // until a leaf slot points at it, so a failed insert just retires it and
  // the append's round trip stays outside the lock hold time.
  const uint16_t vlen = static_cast<uint16_t>(value.size());
  uint64_t vptr = 0;
  uint8_t ptr_buf[8];
  const uint8_t* payload = reinterpret_cast<const uint8_t*>(value.data());
  uint32_t payload_len = vlen;
  if (outline) {
    StatusOr<uint64_t> p = co_await vlog_->Append(
        key, value, NodeView::VarFingerprint(key), stats);
    if (!p.ok()) co_return p.status();
    vptr = *p;
    std::memcpy(ptr_buf, &vptr, 8);
    payload = ptr_buf;
    payload_len = 8;
  }

  const std::string key_str(key.data(), key.size());
  for (uint32_t attempt = 0; attempt < o.max_restarts; attempt++) {
    StatusOr<LeafRef> leaf_r =
        co_await FindLeafAddr(rk, stats, /*allow_hint=*/attempt == 0);
    if (!leaf_r.ok()) {
      if (outline) co_await vlog_->Retire(vptr, stats);
      co_return leaf_r.status();
    }
    std::vector<uint8_t> buf(node_size());
    StatusOr<Locked> locked_r =
        co_await LockAndRead(leaf_r->addr, rk, buf.data(), stats);
    if (!locked_r.ok()) {
      if (locked_r.status().IsRetry()) {
        if (leaf_r->via_hint) NoteHintStale(rk);
        if (attempt >= 2) root_known_ = false;  // stale root (see Insert)
        continue;
      }
      if (outline) co_await vlog_->Retire(vptr, stats);
      co_return locked_r.status();
    }
    Locked locked = *locked_r;
    NodeView view(buf.data(), &o.shape);

    co_await system_->fabric_.simulator().Delay(f.cpu_node_search_ns);
    // An update replacing an out-of-line value must retire the old extent
    // — but only AFTER the repointed leaf has published (readers holding
    // the old pointer are epoch-pinned).
    uint64_t old_ptr = 0;
    {
      const uint32_t at = view.VarFind(key);
      if (at != UINT32_MAX && view.VarOutline(at)) {
        old_ptr = view.VarVlogPtr(at);
      }
    }
    if (view.VarInsert(key, payload, payload_len, vlen, outline)) {
      SealNode(view, /*structural_change=*/false);
      if (stats != nullptr) stats->bytes_written += node_size();
      std::vector<rdma::WorkRequest> wrs;
      wrs.push_back(  // protocol-ok: leaf write-back under the held HOCL lane
          rdma::WorkRequest::Write(locked.addr, buf.data(), node_size()));
      co_await hocl_.Unlock(locked.guard, std::move(wrs), o.combine_commands,
                            stats);
      if (old_ptr != 0) co_await vlog_->Retire(old_ptr, stats);
      if (outline) {
        RememberVptr(key_str, vptr, vlen);
      } else {
        ForgetVptr(key_str);
      }
      co_return Status::OK();
    }
    st = co_await SplitVarLeafAndUnlock(locked, std::move(buf), key, payload,
                                        payload_len, vlen, outline, stats);
    if (st.ok()) {
      if (old_ptr != 0) co_await vlog_->Retire(old_ptr, stats);
      if (outline) {
        RememberVptr(key_str, vptr, vlen);
      } else {
        ForgetVptr(key_str);
      }
    } else if (outline) {
      co_await vlog_->Retire(vptr, stats);  // orphan: never referenced
    }
    co_return st;
  }
  if (outline) co_await vlog_->Retire(vptr, stats);
  co_return Status::Internal("insert restarts exhausted");
}

sim::Task<Status> TreeClient::SplitVarLeafAndUnlock(
    Locked locked, std::vector<uint8_t> buf, const Slice& key,
    const uint8_t* payload, uint32_t payload_len, uint16_t vlen, bool outline,
    OpStats* stats) {
  SHERMAN_TEVENT(stats != nullptr ? stats->trace : nullptr, "tree.split_leaf");
  const TreeOptions& o = opt();
  const rdma::FabricConfig& f = system_->fabric_.config();
  NodeView view(buf.data(), &o.shape);
  co_await system_->fabric_.simulator().Delay(f.cpu_node_sort_ns);

  // Materialize the live entries and apply the pending insert (replace or
  // sorted insert) — mirrors the fixed split's collect step.
  std::vector<VarEntry> entries = ExtractVarEntries(view);
  VarEntry pending;
  pending.key.assign(key.data(), key.size());
  pending.payload.assign(payload, payload + payload_len);
  pending.vlen = vlen;
  pending.outline = outline;
  bool replaced = false;
  for (auto& e : entries) {
    if (e.key == pending.key) {
      e = pending;
      replaced = true;
      break;
    }
  }
  if (!replaced) {
    auto it = std::lower_bound(
        entries.begin(), entries.end(), pending,
        [](const VarEntry& a, const VarEntry& b) { return a.key < b.key; });
    entries.insert(it, std::move(pending));
  }

  // Pick the cut: only a ROUTING-KEY boundary is legal (the u64 fences
  // cannot separate keys sharing a routing key), both halves must fit
  // under their own maximal prefix, and among legal cuts we take the most
  // byte-balanced one. Per-candidate byte costs come from prefix sums:
  // half bytes = slots + (raw key+payload bytes - n*prefix) + prefix.
  const size_t n = entries.size();
  std::vector<uint64_t> raw(n + 1, 0);  // cumulative key+payload bytes
  for (size_t i = 0; i < n; i++) {
    raw[i + 1] =
        raw[i] + entries[i].key.size() + entries[i].payload.size();
  }
  const uint64_t budget = o.shape.var_usable_bytes();
  size_t cut = 0;
  uint64_t best = UINT64_MAX;
  for (size_t i = 1; i < n; i++) {
    if (RoutingKeyFor(entries[i].key) == RoutingKeyFor(entries[i - 1].key)) {
      continue;
    }
    const uint64_t pl = LcpLen(entries[0].key, entries[i - 1].key);
    const uint64_t pr = LcpLen(entries[i].key, entries[n - 1].key);
    const uint64_t left =
        i * kVarSlotSize + (raw[i] - i * pl) + pl;
    const uint64_t right =
        (n - i) * kVarSlotSize + (raw[n] - raw[i] - (n - i) * pr) + pr;
    if (left > budget || right > budget) continue;
    const uint64_t diff = left > right ? left - right : right - left;
    if (diff < best) {
      best = diff;
      cut = i;
    }
  }
  if (cut == 0) {
    // Either every key routes identically, or the one legal boundary
    // leaves an oversize half. Validate() guarantees two maximal entries
    // fit, so this takes max-length keys differing only past byte 8 — a
    // clean error beats a wedged retry loop.
    co_await hocl_.Unlock(locked.guard, {}, o.combine_commands, stats);
    co_return Status::InvalidArgument(
        "keys sharing one routing key exceed leaf capacity");
  }
  const Key split_key = RoutingKeyFor(entries[cut].key);

  const rdma::GlobalAddress sib_addr = co_await allocator_.Alloc(node_size());
  if (sib_addr.is_null()) {
    co_await hocl_.Unlock(locked.guard, {}, o.combine_commands, stats);
    co_return Status::OutOfMemory("disaggregated memory exhausted");
  }

  const Key old_lo = view.lo_fence();
  const Key old_hi = view.hi_fence();
  const rdma::GlobalAddress old_sibling = view.sibling();
  const uint8_t new_version = (view.front_version() + 1) & 0xf;

  // Anchor the split before its first remote write (see SplitLeafAndUnlock;
  // RecoverSplit replays the u64 separator, which is all it needs — the
  // byte keys live only inside the two leaves).
  recover::IntentRecord intent;
  intent.op = recover::IntentOp::kSplit;
  intent.level = 0;
  intent.lo = old_lo;
  intent.hi = old_hi;
  intent.primary = locked.addr;
  intent.second = sib_addr;
  intent.aux = split_key;
  const int intent_slot = co_await intents_.Publish(intent, stats);
  co_await fault::Injector().AtSite(kCrashSplitIntent, cs_id_);

  // Build the sibling: upper part, fences [split_key, old_hi).
  std::vector<uint8_t> sib_buf(node_size());
  NodeView sib(sib_buf.data(), &o.shape);
  sib.InitLeaf(split_key, old_hi, old_sibling);
  SHERMAN_CHECK(BuildVarLeaf(
      &sib, std::vector<VarEntry>(entries.begin() + cut, entries.end())));
  if (o.consistency == TreeOptions::Consistency::kChecksum) {
    sib.UpdateChecksum();
  }

  // Rebuild this node: lower part, fences [old_lo, split_key).
  view.InitLeaf(old_lo, split_key, sib_addr);
  entries.resize(cut);
  SHERMAN_CHECK(BuildVarLeaf(&view, entries));
  buf[kOffFnv] = new_version;
  buf[o.shape.node_size - 1] = new_version;
  if (o.consistency == TreeOptions::Consistency::kChecksum) {
    view.UpdateChecksum();
  }
  if (stats != nullptr) stats->bytes_written += 2ull * node_size();

  // Same-MS siblings ride the commit batch; cross-MS ones publish with
  // their own awaited WRITE (see the fixed split's rationale).
  std::vector<rdma::WorkRequest> wrs;
  if (sib_addr.node == locked.addr.node) {
    wrs.push_back(  // protocol-ok: intent-tagged split write, lane held
        rdma::WorkRequest::Write(sib_addr, sib_buf.data(), node_size()));
    wrs.back().intent_slot = static_cast<uint8_t>(intent_slot);
  } else {
    rdma::WorkRequest sw =  // protocol-ok: intent-tagged split write, lane held
        rdma::WorkRequest::Write(sib_addr, sib_buf.data(), node_size());
    sw.intent_slot = static_cast<uint8_t>(intent_slot);
    rdma::RdmaResult r = co_await QpFor(sib_addr).Post(sw);
    if (stats != nullptr) stats->round_trips++;
    SHERMAN_CHECK(r.status.ok());
    co_await fault::Injector().AtSite(kCrashSplitSibling, cs_id_);
  }
  wrs.push_back(  // protocol-ok: intent-tagged split write, lane held
      rdma::WorkRequest::Write(locked.addr, buf.data(), node_size()));
  wrs.back().intent_slot = static_cast<uint8_t>(intent_slot);
  co_await hocl_.Unlock(locked.guard, std::move(wrs), o.combine_commands,
                        stats);
  if (dmsan::Active()) {
    if (dmsan::Checker* dc = dmsan::Find(&system_->fabric_.simulator())) {
      dc->PublishNode(sib_addr, /*level=*/0);
    }
  }
  co_await fault::Injector().AtSite(kCrashSplitLeaf, cs_id_);

  Status st = co_await InsertInternal(split_key, sib_addr,
                                      static_cast<uint8_t>(view.level() + 1),
                                      stats);
  co_await fault::Injector().AtSite(kCrashSplitLinked, cs_id_);
  intents_.ClearAsync(intent_slot);
  // Advisory hint for the new sibling, after the intent clears (mirrors
  // the fixed-size split; a crash mid-publish leaves the committed split
  // merely unhinted).
  co_await HintPublish(sib_addr, split_key, stats);
  co_return st;
}

// --- LookupVar --------------------------------------------------------------

sim::Task<Status> TreeClient::ResolveVarValue(const NodeView& view, uint32_t i,
                                              const Slice& key,
                                              std::string* value,
                                              OpStats* stats) {
  if (!view.VarOutline(i)) {
    const Slice v = view.VarInlineValue(i);
    value->assign(v.data(), v.size());
    co_return Status::OK();
  }
  const uint64_t ptr = view.VarVlogPtr(i);
  const uint16_t vlen = view.VarVlen(i);
  Status st = co_await vlog_->Read(ptr, key, vlen, value, stats);
  if (st.ok()) RememberVptr(std::string(key.data(), key.size()), ptr, vlen);
  co_return st;
}

sim::Task<Status> TreeClient::LookupVar(const Slice& key, std::string* value,
                                        OpStats* stats) {
  Key rk = 0;
  Status st = CheckVarKey(key, &rk);
  if (!st.ok()) co_return st;
  const TreeOptions& o = opt();
  const rdma::FabricConfig& f = system_->fabric_.config();
  EpochPin pin(&system_->reclaim_, cs_id_);
  co_await system_->fabric_.simulator().Delay(f.cpu_op_overhead_ns);
  const std::string key_str(key.data(), key.size());

  std::vector<uint8_t> buf(node_size());

  // Swizzle fast path: with a cached leaf translation AND a cached value
  // pointer, the leaf READ and the value READ go out together (one
  // doorbell when same-MS, concurrent posts otherwise) and the fetched
  // leaf validates the speculation — collapsing the two dependent round
  // trips of an out-of-line read into one. The EpochPin makes the
  // speculative extent READ safe even against a concurrent retire.
  auto hint_it = vptr_cache_.find(key_str);
  if (o.enable_cache && hint_it != vptr_cache_.end()) {
    co_await system_->fabric_.simulator().Delay(f.cpu_cache_lookup_ns);
    const ParsedInternal* p = cache_.LookupLevel1(rk);
    const VptrHint hint = hint_it->second;
    const uint32_t rec_len = vlog::kRecordHeader +
                             static_cast<uint32_t>(key.size()) + hint.vlen;
    if (p != nullptr && rec_len <= vlog::VlogPtr::ExtentBytes(hint.ptr)) {
      const rdma::GlobalAddress leaf_addr = p->ChildFor(rk);
      const rdma::GlobalAddress vaddr = vlog::VlogPtr::Addr(hint.ptr);
      std::vector<uint8_t> vbuf(rec_len);
      if (stats != nullptr) stats->cache_hits++;
      if (vaddr.node == leaf_addr.node) {
        std::vector<rdma::WorkRequest> wrs;
        wrs.push_back(
            rdma::WorkRequest::Read(leaf_addr, buf.data(), node_size()));
        wrs.push_back(rdma::WorkRequest::Read(vaddr, vbuf.data(), rec_len));
        rdma::RdmaResult r =
            co_await QpFor(leaf_addr).PostReadBatch(std::move(wrs));
        SHERMAN_CHECK(r.status.ok());
        if (stats != nullptr) stats->round_trips++;
      } else {
        sim::CountdownLatch latch(2);
        sim::Spawn(ReadInto(leaf_addr, buf.data(), node_size(), &latch));
        sim::Spawn(ReadInto(vaddr, vbuf.data(), rec_len, &latch));
        co_await latch.Wait();
        if (stats != nullptr) stats->round_trips++;
      }
      NodeView view(buf.data(), &o.shape);
      if (NodeConsistent(buf.data()) && !view.is_free() && view.is_leaf() &&
          view.InFence(rk)) {
        co_await system_->fabric_.simulator().Delay(f.cpu_node_search_ns);
        const uint32_t at = view.VarFind(key);
        if (at == UINT32_MAX) {
          ForgetVptr(key_str);
          co_return Status::NotFound();
        }
        if (!view.VarOutline(at)) {
          ForgetVptr(key_str);
          const Slice v = view.VarInlineValue(at);
          value->assign(v.data(), v.size());
          co_return Status::OK();
        }
        if (view.VarVlogPtr(at) == hint.ptr && view.VarVlen(at) == hint.vlen) {
          // Speculation confirmed by the leaf: parse the record fetched
          // alongside. A header/key mismatch means our extent READ raced
          // the append that published this pointer — resolve freshly.
          uint16_t klen = 0;
          uint16_t got_vlen = 0;
          std::memcpy(&klen, vbuf.data(), 2);
          std::memcpy(&got_vlen, vbuf.data() + 2, 2);
          if (klen == key.size() && got_vlen == hint.vlen &&
              std::memcmp(vbuf.data() + vlog::kRecordHeader, key.data(),
                          klen) == 0) {
            value->assign(reinterpret_cast<const char*>(vbuf.data()) +
                              vlog::kRecordHeader + klen,
                          got_vlen);
            co_return Status::OK();
          }
        }
        // Pointer moved since the hint (update or GC relocation): the
        // fetched leaf is valid, so resolve from it.
        ForgetVptr(key_str);
        st = co_await ResolveVarValue(view, at, key, value, stats);
        if (!st.IsCorruption()) co_return st;
        // Relocated between leaf and value read; take the slow loop.
      }
      if (stats != nullptr) stats->read_retries++;
    }
  }

  rdma::GlobalAddress probe_addr;  // last tombstone this lookup bounced off
  for (uint32_t attempt = 0; attempt < o.max_restarts; attempt++) {
    StatusOr<LeafRef> leaf_r =
        co_await FindLeafAddr(rk, stats, /*allow_hint=*/attempt == 0);
    if (!leaf_r.ok()) co_return leaf_r.status();
    rdma::GlobalAddress addr = leaf_r->addr;

    bool restart = false;
    uint32_t entry_retries = 0;
    for (int chase = 0; chase < kMaxSiblingChase && !restart; chase++) {
      Status rst = co_await ReadNodeChecked(addr, buf.data(), stats);
      if (!rst.ok()) co_return rst;
      NodeView view(buf.data(), &o.shape);
      if (view.is_free() || !view.is_leaf() || rk < view.lo_fence()) {
        cache_.InvalidateLevel1Covering(rk);
        if (leaf_r->via_hint && chase == 0) NoteHintStale(rk);
        if (view.is_free()) probe_addr = addr;
        if (attempt >= 2) root_known_ = false;  // stale root (see Insert)
        restart = true;
        break;
      }
      if (rk >= view.hi_fence()) {
        cache_.InvalidateLevel1Covering(rk);
        if (leaf_r->via_hint && chase == 0) NoteHintChase();
        if (view.sibling().is_null()) {
          restart = true;
          break;
        }
        addr = view.sibling();
        continue;
      }
      co_await system_->fabric_.simulator().Delay(f.cpu_node_search_ns);
      const uint32_t at = view.VarFind(key);
      if (at == UINT32_MAX) co_return Status::NotFound();
      rst = co_await ResolveVarValue(view, at, key, value, stats);
      if (rst.IsCorruption()) {
        // The extent moved between the leaf read and the value read (an
        // update or GC); the re-read leaf carries the fresh pointer.
        if (stats != nullptr) stats->read_retries++;
        if (++entry_retries > o.max_read_retries) {
          co_return Status::TimedOut("vlog read retries exhausted");
        }
        chase--;
        continue;
      }
      co_return rst;
    }
    if (!restart) {
      // Chase bound exhausted from a hinted start: the mirror predecessor
      // was across a hint-table hole, not this key's leaf (see Lookup).
      if (leaf_r->via_hint) NoteHintStale(rk);
      if (attempt >= 2) root_known_ = false;
    }
    if (!probe_addr.is_null() && (attempt & 7) == 7) {
      co_await ProbeLockForRecovery(probe_addr, stats);
      probe_addr = rdma::GlobalAddress();
    }
  }
  co_return Status::Internal("lookup restarts exhausted");
}

// --- DeleteVar --------------------------------------------------------------

sim::Task<Status> TreeClient::DeleteVar(const Slice& key, OpStats* stats) {
  Key rk = 0;
  Status st = CheckVarKey(key, &rk);
  if (!st.ok()) co_return st;
  const TreeOptions& o = opt();
  const rdma::FabricConfig& f = system_->fabric_.config();
  EpochPin pin(&system_->reclaim_, cs_id_);
  co_await system_->fabric_.simulator().Delay(f.cpu_op_overhead_ns);
  const std::string key_str(key.data(), key.size());

  for (uint32_t attempt = 0; attempt < o.max_restarts; attempt++) {
    StatusOr<LeafRef> leaf_r =
        co_await FindLeafAddr(rk, stats, /*allow_hint=*/attempt == 0);
    if (!leaf_r.ok()) co_return leaf_r.status();

    std::vector<uint8_t> buf(node_size());
    StatusOr<Locked> locked_r =
        co_await LockAndRead(leaf_r->addr, rk, buf.data(), stats);
    if (!locked_r.ok()) {
      if (locked_r.status().IsRetry()) {
        if (leaf_r->via_hint) NoteHintStale(rk);
        if (attempt >= 2) root_known_ = false;  // stale root (see Insert)
        continue;
      }
      co_return locked_r.status();
    }
    Locked locked = *locked_r;
    NodeView view(buf.data(), &o.shape);

    co_await system_->fabric_.simulator().Delay(f.cpu_node_search_ns);
    const uint32_t at = view.VarFind(key);
    if (at == UINT32_MAX) {
      co_await hocl_.Unlock(locked.guard, {}, o.combine_commands, stats);
      co_return Status::NotFound();
    }
    const uint64_t old_ptr = view.VarOutline(at) ? view.VarVlogPtr(at) : 0;
    view.VarRemoveAt(at);
    SealNode(view, /*structural_change=*/false);

    delete_ops_++;
    bool merged = false;
    if (MergeCandidate(view, view.count()) && MergeBackoffExpired(locked.addr)) {
      merged = co_await TryMergeLeafLocked(locked, buf.data(), stats);
    }
    if (!merged) {
      if (stats != nullptr) stats->bytes_written += node_size();
      std::vector<rdma::WorkRequest> wrs;
      wrs.push_back(  // protocol-ok: leaf write-back under the held HOCL lane
          rdma::WorkRequest::Write(locked.addr, buf.data(), node_size()));
      co_await hocl_.Unlock(locked.guard, std::move(wrs), o.combine_commands,
                            stats);
    }
    // Retire only after the delete (or merge) published: readers that
    // fetched the old leaf meanwhile finish under their epoch pin.
    ForgetVptr(key_str);
    if (old_ptr != 0) co_await vlog_->Retire(old_ptr, stats);
    co_return Status::OK();
  }
  co_return Status::Internal("delete restarts exhausted");
}

// --- ScanVar ----------------------------------------------------------------

sim::Task<Status> TreeClient::ScanVar(
    const Slice& from, uint32_t count,
    std::vector<std::pair<std::string, std::string>>* out, OpStats* stats) {
  const TreeOptions& o = opt();
  SHERMAN_CHECK_MSG(o.shape.varlen, "var op on a fixed-size tree");
  const rdma::FabricConfig& f = system_->fabric_.config();
  out->clear();
  if (count == 0) co_return Status::OK();
  if (from.size() > o.shape.max_key_len) {
    co_return Status::InvalidArgument("scan start key too long");
  }
  EpochPin pin(&system_->reclaim_, cs_id_);
  co_await system_->fabric_.simulator().Delay(f.cpu_op_overhead_ns);

  std::vector<uint8_t> buf(node_size());
  // Byte cursor: the smallest key not yet emitted. Emitted keys never
  // repeat across restarts (strictly-greater filter once anything was
  // emitted), mirroring RangeQuery's cursor discipline.
  std::string cursor(from.data(), from.size());
  bool cursor_inclusive = true;
  rdma::GlobalAddress probe_addr;
  for (uint32_t attempt = 0; attempt < o.max_restarts; attempt++) {
    if (!probe_addr.is_null() && attempt > 0 && (attempt & 7) == 0) {
      co_await ProbeLockForRecovery(probe_addr, stats);
      probe_addr = rdma::GlobalAddress();
    }
    Key rk = RoutingKeyFor(cursor);
    if (rk == kMaxKey) co_return Status::OK();  // nothing can sort >= cursor
    StatusOr<LeafRef> leaf_r =
        co_await FindLeafAddr(rk, stats, /*allow_hint=*/attempt == 0);
    if (!leaf_r.ok()) co_return leaf_r.status();
    rdma::GlobalAddress addr = leaf_r->addr;

    bool restart = false;
    uint32_t entry_retries = 0;
    for (int chase = 0; chase < kMaxSiblingChase && !restart; chase++) {
      Status st = co_await ReadNodeChecked(addr, buf.data(), stats);
      if (!st.ok()) co_return st;
      NodeView view(buf.data(), &o.shape);
      if (view.is_free() || !view.is_leaf() || rk < view.lo_fence()) {
        cache_.InvalidateLevel1Covering(rk);
        if (view.is_free()) probe_addr = addr;
        if (attempt >= 2) root_known_ = false;
        restart = true;
        break;
      }
      if (rk >= view.hi_fence()) {
        cache_.InvalidateLevel1Covering(rk);
        if (view.sibling().is_null()) {
          restart = true;
          break;
        }
        addr = view.sibling();
        continue;
      }
      co_await system_->fabric_.simulator().Delay(f.cpu_node_search_ns);
      // Emit this leaf's entries past the cursor, resolving out-of-line
      // values as we go; a Corruption (extent relocated under us) re-reads
      // the leaf, and the advancing cursor skips what was already emitted.
      bool reread = false;
      const uint32_t slots = view.count();
      for (uint32_t s = 0; s < slots && out->size() < count; s++) {
        std::string k = view.VarFullKey(s);
        if (cursor_inclusive ? k < cursor : k <= cursor) continue;
        std::string v;
        Status rst = co_await ResolveVarValue(view, s, Slice(k), &v, stats);
        if (rst.IsCorruption()) {
          reread = true;
          break;
        }
        if (!rst.ok()) co_return rst;
        out->emplace_back(std::move(k), std::move(v));
        cursor = out->back().first;
        cursor_inclusive = false;
      }
      if (reread) {
        if (stats != nullptr) stats->read_retries++;
        if (++entry_retries > o.max_read_retries) {
          co_return Status::TimedOut("scan vlog retries exhausted");
        }
        chase--;
        continue;
      }
      if (out->size() >= count || view.hi_fence() == kMaxKey) {
        co_return Status::OK();
      }
      // Next leaf: keys there are > everything emitted; advance the
      // routing cursor to the fence so the chase checks stay coherent.
      rk = view.hi_fence();
      if (view.sibling().is_null()) {
        restart = true;
        break;
      }
      addr = view.sibling();
    }
  }
  co_return Status::Internal("scan restarts exhausted");
}

// --- MultiGetVar ------------------------------------------------------------

sim::Task<void> TreeClient::ResolveVarInto(uint64_t ptr,
                                           const std::string* key,
                                           uint16_t vlen, VarGetResult* out,
                                           OpStats* stats,
                                           sim::CountdownLatch* latch) {
  out->status = co_await vlog_->Read(ptr, *key, vlen, &out->value, stats);
  if (out->status.ok()) RememberVptr(*key, ptr, vlen);
  latch->Arrive();
}

sim::Task<Status> TreeClient::MultiGetVar(std::vector<std::string> keys,
                                          std::vector<VarGetResult>* out,
                                          OpStats* stats) {
  const TreeOptions& o = opt();
  const rdma::FabricConfig& f = system_->fabric_.config();
  sim::Simulator& sim = system_->fabric_.simulator();
  out->assign(keys.size(), VarGetResult{});
  if (keys.empty()) co_return Status::OK();
  EpochPin pin(&system_->reclaim_, cs_id_);
  co_await sim.Delay(f.cpu_op_overhead_ns);

  const size_t n = keys.size();
  std::vector<Key> rks(n, 0);
  std::vector<uint8_t> bad(n, 0);
  for (size_t i = 0; i < n; i++) {
    Status st = CheckVarKey(keys[i], &rks[i]);
    if (!st.ok()) {
      (*out)[i].status = st;
      bad[i] = 1;
    }
  }

  // Phase 1 — plan distinct ROUTING keys (string duplicates and
  // same-routing-group keys share one descent and one leaf fetch).
  std::map<Key, size_t> plan_of;
  std::vector<Key> uniq;
  for (size_t i = 0; i < n; i++) {
    if (bad[i]) continue;
    auto [it, inserted] = plan_of.try_emplace(rks[i], uniq.size());
    if (inserted) uniq.push_back(rks[i]);
  }
  std::vector<LeafRef> refs(uniq.size());
  std::vector<Status> plan_st(uniq.size(), Status::OK());
  {
    SHERMAN_TSPAN(stats != nullptr ? stats->trace : nullptr, "batch.plan",
                  uniq.size());
    sim::CountdownLatch latch(uniq.size());
    for (size_t j = 0; j < uniq.size(); j++) {
      sim::Spawn(PlanLeafInto(uniq[j], &refs[j], &plan_st[j], stats, &latch));
    }
    co_await latch.Wait();
  }

  // Phase 2 — fetch distinct leaves, doorbell-batched per MS.
  std::map<uint64_t, size_t> buf_of;
  std::vector<rdma::GlobalAddress> leaves;
  std::vector<size_t> key_buf(n, SIZE_MAX);
  for (size_t i = 0; i < n; i++) {
    if (bad[i]) continue;
    const size_t j = plan_of[rks[i]];
    if (!plan_st[j].ok()) continue;
    const rdma::GlobalAddress addr = refs[j].addr;
    auto [it, inserted] = buf_of.try_emplace(addr.ToU64(), leaves.size());
    if (inserted) leaves.push_back(addr);
    key_buf[i] = it->second;
  }
  std::vector<std::vector<uint8_t>> bufs(leaves.size(),
                                         std::vector<uint8_t>(node_size()));
  std::map<uint16_t, std::vector<rdma::WorkRequest>> per_ms;
  for (size_t j = 0; j < leaves.size(); j++) {
    per_ms[leaves[j].node].push_back(
        rdma::WorkRequest::Read(leaves[j], bufs[j].data(), node_size()));
  }
  std::vector<std::pair<uint16_t, std::vector<rdma::WorkRequest>>> rings;
  for (auto& [ms, wrs] : per_ms) {
    for (size_t at = 0; at < wrs.size(); at += kMaxReadBatch) {
      const size_t end = std::min(at + kMaxReadBatch, wrs.size());
      rings.emplace_back(ms, std::vector<rdma::WorkRequest>(
                                 wrs.begin() + at, wrs.begin() + end));
    }
  }
  const sim::SimTime fetch_start = sim.now();
  if (!rings.empty()) {
    SHERMAN_TSPAN(stats != nullptr ? stats->trace : nullptr, "multiget.fetch",
                  rings.size());
    sim::CountdownLatch latch(rings.size());
    for (auto& [ms, wrs] : rings) {
      sim::Spawn(PostReadsInto(ms, std::move(wrs), stats, &latch));
    }
    co_await latch.Wait();
  }
  const bool slow_fetch =
      o.consistency == TreeOptions::Consistency::kVersions &&
      sim.now() - fetch_start > WrapGuardNs();

  // Phase 3 — validate; inline values serve locally, out-of-line ones are
  // collected and resolved concurrently (one latch over all vlog READs).
  struct Job {
    size_t idx;
    uint64_t ptr;
    uint16_t vlen;
  };
  std::vector<Job> jobs;
  std::vector<size_t> retry;
  for (size_t i = 0; i < n; i++) {
    if (bad[i]) continue;
    if (key_buf[i] == SIZE_MAX) {
      retry.push_back(i);
      continue;
    }
    uint8_t* b = bufs[key_buf[i]].data();
    NodeView view(b, &o.shape);
    if (slow_fetch || !NodeConsistent(b)) {
      if (stats != nullptr) stats->read_retries++;
      retry.push_back(i);
      continue;
    }
    if (view.is_free() || !view.is_leaf() || !view.InFence(rks[i])) {
      cache_.InvalidateLevel1Covering(rks[i]);
      retry.push_back(i);
      continue;
    }
    co_await sim.Delay(f.cpu_node_search_ns);
    const uint32_t at = view.VarFind(keys[i]);
    if (at == UINT32_MAX) {
      (*out)[i].status = Status::NotFound();
      continue;
    }
    if (!view.VarOutline(at)) {
      const Slice v = view.VarInlineValue(at);
      (*out)[i].status = Status::OK();
      (*out)[i].value.assign(v.data(), v.size());
      continue;
    }
    jobs.push_back(Job{i, view.VarVlogPtr(at), view.VarVlen(at)});
  }
  if (!jobs.empty()) {
    SHERMAN_TSPAN(stats != nullptr ? stats->trace : nullptr,
                  "multiget.vlog_fetch", jobs.size());
    sim::CountdownLatch latch(jobs.size());
    for (const Job& j : jobs) {
      sim::Spawn(ResolveVarInto(j.ptr, &keys[j.idx], j.vlen, &(*out)[j.idx],
                                stats, &latch));
    }
    co_await latch.Wait();
    for (const Job& j : jobs) {
      // Relocated mid-flight: the singleton path re-reads leaf + value.
      if ((*out)[j.idx].status.IsCorruption()) retry.push_back(j.idx);
    }
  }

  // Phase 4 — re-serve stragglers op-at-a-time.
  SHERMAN_TSPAN(stats != nullptr ? stats->trace : nullptr,
                "multiget.fallback", retry.size());
  Status overall = Status::OK();
  for (size_t i : retry) {
    std::string v;
    Status st = co_await LookupVar(keys[i], &v, stats);
    (*out)[i].status = st;
    if (st.ok()) {
      (*out)[i].value = std::move(v);
    } else if (!st.IsNotFound() && overall.ok()) {
      overall = st;
    }
  }
  co_return overall;
}

// --- MultiInsertVar ---------------------------------------------------------

sim::Task<void> TreeClient::ApplyVarInsertGroup(
    rdma::GlobalAddress addr, std::vector<size_t> idxs,
    const std::vector<std::pair<std::string, std::string>>* kvs,
    const std::vector<uint64_t>* vptrs, std::vector<uint8_t>* defer,
    std::vector<uint64_t>* retired, OpStats* stats,
    sim::CountdownLatch* latch) {
  const TreeOptions& o = opt();
  const rdma::FabricConfig& f = system_->fabric_.config();
  std::vector<uint8_t> buf(node_size());
  const Key first_rk = RoutingKeyFor((*kvs)[idxs[0]].first);
  StatusOr<Locked> locked_r =
      co_await LockAndRead(addr, first_rk, buf.data(), stats);
  if (!locked_r.ok()) {
    for (size_t idx : idxs) (*defer)[idx] = 1;
    latch->Arrive();
    co_return;
  }
  Locked locked = *locked_r;
  NodeView view(buf.data(), &o.shape);

  bool dirty = false;
  for (size_t idx : idxs) {
    const std::string& key = (*kvs)[idx].first;
    const std::string& value = (*kvs)[idx].second;
    if (!view.InFence(RoutingKeyFor(key))) {  // sibling chase moved us off
      (*defer)[idx] = 1;
      continue;
    }
    co_await system_->fabric_.simulator().Delay(f.cpu_node_search_ns);
    const bool outline = (*vptrs)[idx] != 0;
    uint8_t ptr_buf[8];
    const uint8_t* payload;
    uint32_t payload_len;
    if (outline) {
      std::memcpy(ptr_buf, &(*vptrs)[idx], 8);
      payload = ptr_buf;
      payload_len = 8;
    } else {
      payload = reinterpret_cast<const uint8_t*>(value.data());
      payload_len = static_cast<uint32_t>(value.size());
    }
    uint64_t old_ptr = 0;
    {
      const uint32_t at = view.VarFind(key);
      if (at != UINT32_MAX && view.VarOutline(at)) {
        old_ptr = view.VarVlogPtr(at);
      }
    }
    if (!view.VarInsert(key, payload, payload_len,
                        static_cast<uint16_t>(value.size()), outline)) {
      (*defer)[idx] = 1;  // full: the split goes through InsertVar()
      continue;
    }
    if (old_ptr != 0) retired->push_back(old_ptr);
    if (outline) {
      RememberVptr(key, (*vptrs)[idx], static_cast<uint16_t>(value.size()));
    } else {
      ForgetVptr(key);
    }
    dirty = true;
  }
  std::vector<rdma::WorkRequest> wrs;
  if (dirty) {
    SealNode(view, /*structural_change=*/false);
    if (stats != nullptr) stats->bytes_written += node_size();
    wrs.push_back(  // protocol-ok: leaf write-back under the held HOCL lane
        rdma::WorkRequest::Write(locked.addr, buf.data(), node_size()));
  }
  co_await hocl_.Unlock(locked.guard, std::move(wrs), o.combine_commands,
                        stats);
  latch->Arrive();
}

sim::Task<Status> TreeClient::MultiInsertVar(
    std::vector<std::pair<std::string, std::string>> kvs, OpStats* stats) {
  const TreeOptions& o = opt();
  const rdma::FabricConfig& f = system_->fabric_.config();
  if (kvs.empty()) co_return Status::OK();
  const size_t n = kvs.size();
  std::vector<Key> rks(n, 0);
  for (size_t i = 0; i < n; i++) {
    Status st = CheckVarKey(kvs[i].first, &rks[i]);
    if (!st.ok()) co_return st;
    if (kvs[i].second.size() > 0xffff) {
      co_return Status::InvalidArgument("value exceeds the u16 length field");
    }
    if (kvs[i].second.size() > o.inline_threshold &&
        vlog::VlogClient::RecordBytes(kvs[i].first, kvs[i].second) >
            (vlog::kMinExtentBytes << (vlog::kNumClasses - 1))) {
      co_return Status::InvalidArgument("value too large for the value log");
    }
  }
  EpochPin pin(&system_->reclaim_, cs_id_);
  co_await system_->fabric_.simulator().Delay(f.cpu_op_overhead_ns);

  // Phase 0 — append every out-of-line value up front; extents stay
  // private until a leaf slot points at them. SEQUENTIAL on purpose:
  // Append mutates the per-class open segment between awaits, and two
  // concurrent rotations of one class would leak a segment.
  std::vector<uint64_t> vptrs(n, 0);
  for (size_t i = 0; i < n; i++) {
    if (kvs[i].second.size() <= o.inline_threshold) continue;
    StatusOr<uint64_t> p = co_await vlog_->Append(
        kvs[i].first, kvs[i].second, NodeView::VarFingerprint(kvs[i].first),
        stats);
    if (!p.ok()) co_return p.status();
    vptrs[i] = *p;
  }

  // Phase 1 — plan distinct routing keys concurrently.
  std::map<Key, size_t> plan_of;
  std::vector<Key> uniq;
  for (size_t i = 0; i < n; i++) {
    auto [it, inserted] = plan_of.try_emplace(rks[i], uniq.size());
    if (inserted) uniq.push_back(rks[i]);
  }
  std::vector<LeafRef> refs(uniq.size());
  std::vector<Status> plan_st(uniq.size(), Status::OK());
  {
    SHERMAN_TSPAN(stats != nullptr ? stats->trace : nullptr, "batch.plan",
                  uniq.size());
    sim::CountdownLatch latch(uniq.size());
    for (size_t j = 0; j < uniq.size(); j++) {
      sim::Spawn(PlanLeafInto(uniq[j], &refs[j], &plan_st[j], stats, &latch));
    }
    co_await latch.Wait();
  }

  // Phase 2 — group by target leaf; one lock + whole-node write per group.
  // Duplicate keys stay in one group (same routing plan), applied in batch
  // order: a later duplicate replaces the earlier one in the staged leaf
  // and queues the superseded extent on `retired`.
  std::vector<uint8_t> defer(n, 0);
  std::vector<uint64_t> retired;
  std::map<uint64_t, std::vector<size_t>> groups;
  for (size_t i = 0; i < n; i++) {
    const size_t j = plan_of[rks[i]];
    if (plan_st[j].ok()) {
      groups[refs[j].addr.ToU64()].push_back(i);
    } else {
      defer[i] = 1;
    }
  }
  if (!groups.empty()) {
    SHERMAN_TSPAN(stats != nullptr ? stats->trace : nullptr, "batch.apply",
                  groups.size());
    sim::CountdownLatch latch(groups.size());
    for (auto& [addr_u64, idxs] : groups) {
      sim::Spawn(ApplyVarInsertGroup(rdma::GlobalAddress::FromU64(addr_u64),
                                     std::move(idxs), &kvs, &vptrs, &defer,
                                     &retired, stats, &latch));
    }
    co_await latch.Wait();
  }
  // Old extents replaced by the group applies: retire once every group's
  // write-back (publish) has landed.
  for (uint64_t p : retired) co_await vlog_->Retire(p, stats);

  // Phase 3 — deferred keys. A deferred OUT-OF-LINE value already has a
  // private extent; InsertVar appends its own copy, so retire the orphan
  // and let the singleton path own the value end to end.
  for (size_t i = 0; i < n; i++) {
    if (!defer[i]) continue;
    if (vptrs[i] != 0) co_await vlog_->Retire(vptrs[i], stats);
    Status st = co_await InsertVar(kvs[i].first, kvs[i].second, stats);
    if (!st.ok()) co_return st;
  }
  co_return Status::OK();
}

// --- Value-log GC -----------------------------------------------------------

sim::Task<Status> TreeClient::VlogGcOnce(uint64_t* relocated, OpStats* stats) {
  const TreeOptions& o = opt();
  SHERMAN_CHECK_MSG(o.shape.varlen, "vlog GC on a fixed-size tree");
  EpochPin pin(&system_->reclaim_, cs_id_);
  // Open segments are invisible to victim selection; seal them so this
  // pass sees the current generation.
  co_await vlog_->SealOpen(stats);
  uint64_t moved = 0;
  Status overall = Status::OK();
  for (int ms = 0; ms < system_->fabric_.num_memory_servers(); ms++) {
    const uint64_t v = co_await system_->fabric_.qp(cs_id_, ms)
                           .Rpc(kRpcVlogVictim, o.vlog_gc_dead_permille, 0);
    if (stats != nullptr) stats->round_trips++;
    if (v == 0) continue;
    const uint64_t base = v & ((1ull << 40) - 1);
    const uint32_t used = static_cast<uint32_t>((v >> 40) & 0xffff);
    const uint32_t cls = static_cast<uint32_t>(v >> 56);
    Status st = co_await GcVictimSegment(static_cast<uint16_t>(ms), base, cls,
                                         used, &moved, stats);
    if (!st.ok() && overall.ok()) overall = st;
  }
  vlog_->mutable_stats().gc_passes++;
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
      vlog_->mutable_stats().gc_stale++;
      continue;
    }
    const std::string key(
        reinterpret_cast<const char*>(rec_buf.data()) + vlog::kRecordHeader,
        klen);
    const Slice value(
        reinterpret_cast<const char*>(rec_buf.data()) + vlog::kRecordHeader +
            klen,
        vlen);
    const Key rk = RoutingKeyFor(key);

    // Tree-guided relocation, copy-then-flip under the leaf lock.
    bool done = false;
    for (uint32_t attempt = 0; attempt < o.max_restarts && !done; attempt++) {
      StatusOr<LeafRef> leaf_r =
          co_await FindLeafAddr(rk, stats, /*allow_hint=*/attempt == 0);
      if (!leaf_r.ok()) co_return leaf_r.status();
      StatusOr<Locked> locked_r =
          co_await LockAndRead(leaf_r->addr, rk, leaf_buf.data(), stats);
      if (!locked_r.ok()) {
        if (locked_r.status().IsRetry()) {
          if (leaf_r->via_hint) NoteHintStale(rk);
          if (attempt >= 2) root_known_ = false;
          continue;
        }
        co_return locked_r.status();
      }
      Locked locked = *locked_r;
      NodeView view(leaf_buf.data(), &o.shape);
      const uint32_t at = view.VarFind(key);
      const uint64_t cur =
          (at != UINT32_MAX && view.VarOutline(at)) ? view.VarVlogPtr(at) : 0;
      if (cur == 0 || vlog::VlogPtr::Cls(cur) != cls ||
          vlog::VlogPtr::Ms(cur) != ms || vlog::VlogPtr::Off(cur) != off) {
        // The leaf no longer references this extent (deleted, updated, or
        // retired after the bitmap snapshot).
        co_await hocl_.Unlock(locked.guard, {}, o.combine_commands, stats);
        vlog_->mutable_stats().gc_stale++;
        done = true;
        break;
      }
      // Copy: append the fresh record (lands in a new open segment, never
      // this sealed victim). Flip: repoint the slot and publish the node.
      StatusOr<uint64_t> fresh = co_await vlog_->Append(
          key, value, NodeView::VarFingerprint(key), stats);
      if (!fresh.ok()) {
        co_await hocl_.Unlock(locked.guard, {}, o.combine_commands, stats);
        co_return fresh.status();
      }
      view.VarSetVlogPtr(at, *fresh);
      SealNode(view, /*structural_change=*/false);
      if (stats != nullptr) stats->bytes_written += node_size();
      std::vector<rdma::WorkRequest> wrs;
      wrs.push_back(  // protocol-ok: leaf write-back under the held HOCL lane
          rdma::WorkRequest::Write(locked.addr, leaf_buf.data(), node_size()));
      co_await hocl_.Unlock(locked.guard, std::move(wrs), o.combine_commands,
                            stats);
      RememberVptr(key, *fresh, vlen);
      vlog_->mutable_stats().gc_relocated++;
      (*relocated)++;
      done = true;
    }
    if (!done) co_return Status::Internal("gc relocation restarts exhausted");
    // Retire AFTER the repoint (or the staleness proof) published; pinned
    // readers of the old extent drain under the grace epoch.
    co_await vlog_->Retire(old_ptr, stats);
  }
  co_return Status::OK();
}

}  // namespace sherman
