#include "cache/leaf_hints.h"

#include <cstring>
#include <vector>

#include "core/btree.h"
#include "fault/crash_point.h"
#include "sanitizer/dmsan.h"
#include "util/logging.h"

namespace sherman {

namespace {

// Registered at static init so the recover_test sweep sees the sites even
// in runs where no hint is ever published.
const int kSiteHintPublish = fault::RegisterCrashSite("hint.publish");
const int kSiteHintInvalidate = fault::RegisterCrashSite("hint.invalidate");

// The directory mutation is host-side bookkeeping beyond the standard RPC
// service slot; charge the wimpy memory thread a flat slice per op.
constexpr sim::SimTime kHintOpCostNs = 300;

uint64_t LoadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

}  // namespace

// --- MS-side directory ------------------------------------------------------

LeafHintDirectory::LeafHintDirectory(rdma::MemoryServer* ms,
                                     dmsan::Checker* checker,
                                     obs::Registry* registry)
    : ms_(ms),
      checker_(checker),
      published_(registry->GetCounter("hint.published")),
      invalidated_(registry->GetCounter("hint.invalidated")),
      dropped_full_(registry->GetCounter("hint.dropped_full")) {
  ms->ChainRpcHandler(
      kRpcHintPublish, kRpcHintInvalidate,
      [this](uint64_t opcode, uint64_t arg, uint64_t arg2, uint16_t) {
        ms_->ChargeMemoryThread(kHintOpCostNs);
        return opcode == kRpcHintPublish ? Publish(arg, arg2)
                                         : Invalidate(arg);
      });
}

uint64_t LeafHintDirectory::live_entries() const {
  return ms_->host().Read64(kHintAreaOffset + 8);
}

uint64_t LeafHintDirectory::generation() const {
  return ms_->host().Read64(kHintAreaOffset);
}

void LeafHintDirectory::BumpGeneration() {
  ms_->host().Write64(ms_->simulator()->now(), kHintAreaOffset,
                      generation() + 1);
}

uint64_t LeafHintDirectory::Insert(uint64_t lo, uint64_t packed_addr) {
  const sim::SimTime now = ms_->simulator()->now();
  const uint64_t count = live_entries();
  const uint8_t* entries = ms_->host().raw(kHintAreaOffset + kHintHeaderBytes);

  // Binary search for the first entry with key >= lo.
  uint64_t a = 0;
  uint64_t b = count;
  while (a < b) {
    const uint64_t mid = (a + b) / 2;
    if (LoadU64(entries + mid * kHintSlotBytes) < lo) {
      a = mid + 1;
    } else {
      b = mid;
    }
  }

  uint8_t rec[kHintSlotBytes];
  std::memcpy(rec, &lo, 8);
  std::memcpy(rec + 8, &packed_addr, 8);
  const uint64_t fp = HintFingerprint(lo, packed_addr);
  std::memcpy(rec + 16, &fp, 8);

  const uint64_t pos_off =
      kHintAreaOffset + kHintHeaderBytes + a * kHintSlotBytes;
  if (a < count && LoadU64(entries + a * kHintSlotBytes) == lo) {
    // Same lo fence re-published (e.g. a migration copy before the old
    // address is retired): overwrite in place, releasing the old
    // address's hinted mark.
    const uint64_t old_packed = LoadU64(entries + a * kHintSlotBytes + 8);
    if (old_packed != packed_addr) {
      if (checker_ != nullptr) {
        checker_->OnHintInvalidated(rdma::GlobalAddress::FromU64(old_packed));
      }
      invalidated_->Inc();
    }
    ms_->host().Write(now, pos_off, rec, kHintSlotBytes);
    return 1;
  }
  if (count >= kHintSlots) {
    dropped_full_->Inc();
    return 0;  // advisory table: dropping is always safe
  }
  // Shift [a, count) one slot right, then place the new entry.
  if (a < count) {
    std::vector<uint8_t> tail((count - a) * kHintSlotBytes);
    std::memcpy(tail.data(), entries + a * kHintSlotBytes, tail.size());
    ms_->host().Write(now, pos_off + kHintSlotBytes, tail.data(),
                      static_cast<uint32_t>(tail.size()));
  }
  ms_->host().Write(now, pos_off, rec, kHintSlotBytes);
  ms_->host().Write64(now, kHintAreaOffset + 8, count + 1);
  return 1;
}

uint64_t LeafHintDirectory::Publish(uint64_t lo, uint64_t packed_addr) {
  const uint64_t stored = Insert(lo, packed_addr);
  if (stored != 0) {
    published_->Inc();
    if (checker_ != nullptr) {
      checker_->OnHintPublished(rdma::GlobalAddress::FromU64(packed_addr));
    }
    BumpGeneration();
  }
  return stored;
}

uint64_t LeafHintDirectory::Invalidate(uint64_t packed_addr) {
  const sim::SimTime now = ms_->simulator()->now();
  uint64_t count = live_entries();
  const uint8_t* entries = ms_->host().raw(kHintAreaOffset + kHintHeaderBytes);
  uint64_t removed = 0;
  for (uint64_t i = 0; i < count;) {
    if (LoadU64(entries + i * kHintSlotBytes + 8) != packed_addr) {
      i++;
      continue;
    }
    // Shift [i+1, count) one slot left.
    if (i + 1 < count) {
      std::vector<uint8_t> tail((count - i - 1) * kHintSlotBytes);
      std::memcpy(tail.data(), entries + (i + 1) * kHintSlotBytes,
                  tail.size());
      ms_->host().Write(now, kHintAreaOffset + kHintHeaderBytes +
                                 i * kHintSlotBytes,
                        tail.data(), static_cast<uint32_t>(tail.size()));
    }
    count--;
    removed++;
  }
  if (removed != 0) {
    ms_->host().Write64(now, kHintAreaOffset + 8, count);
    invalidated_->Inc(removed);
    if (checker_ != nullptr) {
      checker_->OnHintInvalidated(rdma::GlobalAddress::FromU64(packed_addr));
    }
    BumpGeneration();
  }
  return removed;
}

void LeafHintDirectory::SeedDirect(uint64_t lo, rdma::GlobalAddress addr) {
  if (Insert(lo, addr.ToU64()) != 0) {
    published_->Inc();
    if (checker_ != nullptr) checker_->OnHintPublished(addr);
    BumpGeneration();
  }
}

// --- TreeClient mirror + publication hooks ----------------------------------

sim::Task<void> TreeClient::HintPublish(rdma::GlobalAddress leaf, Key lo,
                                        OpStats* stats) {
  if (!opt().enable_leaf_hints) co_return;
  co_await fault::Injector().AtSite(kSiteHintPublish, cs_id_);
  co_await QpFor(leaf).Rpc(kRpcHintPublish, lo, leaf.ToU64());
  if (stats != nullptr) stats->round_trips++;
  hint_publishes_->Inc();
  // This client's own mirror learns the new leaf for free.
  if (hint_fetched_) hint_mirror_[lo] = leaf;
}

sim::Task<void> TreeClient::HintInvalidate(rdma::GlobalAddress leaf,
                                           OpStats* stats) {
  if (!opt().enable_leaf_hints) co_return;
  co_await fault::Injector().AtSite(kSiteHintInvalidate, cs_id_);
  co_await QpFor(leaf).Rpc(kRpcHintInvalidate, leaf.ToU64());
  if (stats != nullptr) stats->round_trips++;
  hint_invalidates_->Inc();
  for (auto it = hint_mirror_.begin(); it != hint_mirror_.end();) {
    it = it->second == leaf ? hint_mirror_.erase(it) : std::next(it);
  }
}

sim::Task<void> TreeClient::HintRefresh(OpStats* stats) {
  // Single flight: the CS's other ops traverse while this runs (see
  // HintLeafAddr). The loop below has no early exit, so the flag always
  // clears.
  hint_refreshing_ = true;
  const int num_ms = system_->fabric_.num_memory_servers();
  if (static_cast<int>(hint_gen_.size()) < num_ms) hint_gen_.resize(num_ms, 0);
  for (int ms = 0; ms < num_ms; ms++) {
    const rdma::GlobalAddress header(static_cast<uint16_t>(ms),
                                     kHintAreaOffset);
    uint8_t hdr[16];
    Status st = co_await ReadRaw(header, hdr, sizeof(hdr), stats);
    if (!st.ok()) continue;
    const uint64_t gen = LoadU64(hdr);
    uint64_t count = LoadU64(hdr + 8);
    if (hint_fetched_ && gen == hint_gen_[ms]) continue;
    if (count > kHintSlots) count = kHintSlots;  // torn header: best effort

    // Rebuild this MS's slice of the mirror (entries are homed by leaf
    // address, so lo keys never collide across MSs).
    for (auto it = hint_mirror_.begin(); it != hint_mirror_.end();) {
      it = it->second.node == ms ? hint_mirror_.erase(it) : std::next(it);
    }
    if (count > 0) {
      std::vector<uint8_t> buf(count * kHintSlotBytes);
      st = co_await ReadRaw(header.Plus(kHintHeaderBytes), buf.data(),
                            static_cast<uint32_t>(buf.size()), stats);
      if (!st.ok()) continue;
      for (uint64_t i = 0; i < count; i++) {
        const uint8_t* e = buf.data() + i * kHintSlotBytes;
        const uint64_t lo = LoadU64(e);
        const uint64_t packed = LoadU64(e + 8);
        // The fingerprint check drops entries torn by a concurrent table
        // mutation under the in-flight READ.
        if (LoadU64(e + 16) != HintFingerprint(lo, packed)) continue;
        const rdma::GlobalAddress addr = rdma::GlobalAddress::FromU64(packed);
        if (addr.is_null() || addr.node >= num_ms) continue;
        hint_mirror_[lo] = addr;
      }
    }
    hint_gen_[ms] = gen;
  }
  hint_fetched_ = true;
  hint_staleness_ = 0;
  hint_refreshing_ = false;
  hint_refreshes_->Inc();
}

sim::Task<bool> TreeClient::HintLeafAddr(Key key, rdma::GlobalAddress* out,
                                         OpStats* stats) {
  if (!opt().enable_leaf_hints) co_return false;
  // Another op is refreshing the mirror, whose slices are missing while
  // their READs are in flight: traverse without waiting or consulting.
  if (hint_refreshing_) co_return false;
  if (!hint_fetched_ ||
      hint_staleness_ >= opt().hint_refresh_miss_threshold) {
    co_await HintRefresh(stats);
  }
  hint_consults_->Inc();
  auto it = hint_mirror_.upper_bound(key);
  if (it == hint_mirror_.begin()) co_return false;
  --it;
  *out = it->second;
  hint_served_->Inc();
  co_return true;
}

void TreeClient::NoteHintStale(Key key) {
  if (!opt().enable_leaf_hints) return;
  hint_stale_->Inc();
  hint_staleness_++;
  auto it = hint_mirror_.upper_bound(key);
  if (it != hint_mirror_.begin()) hint_mirror_.erase(std::prev(it));
}

void TreeClient::NoteHintChase() {
  if (!opt().enable_leaf_hints) return;
  // The hinted leaf was valid but the key had split off to the right: the
  // entry stays (it still covers its own range) but the mirror is behind —
  // nudge it toward a refresh.
  hint_chases_->Inc();
  hint_staleness_++;
}

}  // namespace sherman
