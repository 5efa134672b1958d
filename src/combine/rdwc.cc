#include "combine/rdwc.h"

#include <algorithm>
#include <string>
#include <type_traits>
#include <utility>

#include "core/btree.h"
#include "fault/crash_point.h"
#include "route/hybrid_client.h"
#include "util/logging.h"
#include "util/random.h"

namespace sherman::combine {

namespace {

// Crash sites at a window's three milestones: opened, value bound, write
// done (recover_test sweeps them; see crash_point.h).
const int kSiteOpen = fault::RegisterCrashSite("rdwc.open");
const int kSiteBound = fault::RegisterCrashSite("rdwc.bound");
const int kSiteWritten = fault::RegisterCrashSite("rdwc.written");

// Delegation table shards (keys hash onto them), and the candidate entries
// one shard tracks beyond its hot keys and open windows.
constexpr size_t kTableShards = 64;
constexpr size_t kMaxTrackedPerShard = 64;
// The CS-to-CS delegation hop charged to a follower served by another
// CS's delegate.
constexpr sim::SimTime kCrossCsHopNs = 600;
// Consecutive cold windows that demote a hot key.
constexpr uint32_t kDemoteWindows = 2;

}  // namespace

RdwcLayer::RdwcLayer(sim::Simulator* sim, RdwcOptions options,
                     obs::Registry* registry)
    : sim_(sim),
      options_(options),
      promotions_(registry->GetCounter("rdwc.promotions")),
      demotions_(registry->GetCounter("rdwc.demotions")),
      windows_opened_(registry->GetCounter("rdwc.windows_opened")),
      followers_queued_(registry->GetCounter("rdwc.followers_queued")),
      gets_shared_(registry->GetCounter("rdwc.gets_shared")),
      puts_combined_(registry->GetCounter("rdwc.puts_combined")),
      combined_writes_(registry->GetCounter("rdwc.combined_writes")),
      bypass_overflow_(registry->GetCounter("rdwc.bypass_overflow")),
      windows_abandoned_(registry->GetCounter("rdwc.windows_abandoned")),
      var_key_mismatch_(registry->GetCounter("rdwc.var_key_mismatch")) {
  SHERMAN_CHECK(options_.window_max_ops > 0);
  SHERMAN_CHECK(options_.follower_timeout_ns > 0);
  buckets_.resize(kTableShards);
}

RdwcLayer::Bucket& RdwcLayer::BucketFor(Key key, uint64_t* bit) {
  const uint64_t h = SplitMix64(key);
  *bit = 1ULL << ((h >> 32) & 63);
  return buckets_[h % buckets_.size()];
}

void RdwcLayer::RollIfDue(Bucket* b) {
  const sim::SimTime now = sim_->now();
  if (now - b->window_start < options_.hot_window_ns) return;
  b->window_start = now;
  // Epoch roll: demote hot keys that stayed below half the promotion bar
  // for kDemoteWindows consecutive windows, drop idle candidates, and
  // rebuild the coarse hot filter. Entries with an open window are kept
  // as-is (the window closes into them).
  const uint32_t bar = std::max<uint32_t>(1, options_.promote_threshold / 2);
  uint64_t bits = 0;
  for (auto it = b->entries.begin(); it != b->entries.end();) {
    RdwcEntry& e = it->second;
    if (e.hot) {
      if (e.hits < bar && e.win == nullptr) {
        if (++e.cold_windows >= kDemoteWindows) {
          e.hot = false;
          demotions_->Inc();
        }
      } else {
        e.cold_windows = 0;
      }
    }
    if (!e.hot && e.hits == 0 && e.win == nullptr) {
      it = b->entries.erase(it);
      continue;
    }
    e.hits = 0;
    if (e.hot) bits |= 1ULL << ((SplitMix64(it->first) >> 32) & 63);
    ++it;
  }
  // Bound the candidate set (hot entries and open windows are exempt).
  while (b->entries.size() > kMaxTrackedPerShard) {
    auto victim = b->entries.end();
    for (auto it = b->entries.begin(); it != b->entries.end(); ++it) {
      if (!it->second.hot && it->second.win == nullptr) {
        victim = it;
        break;
      }
    }
    if (victim == b->entries.end()) break;
    b->entries.erase(victim);
  }
  b->hot_bits = bits;
}

void RdwcLayer::Promote(Bucket* b, uint64_t bit, RdwcEntry* e) {
  e->hot = true;
  e->cold_windows = 0;
  b->hot_bits |= bit;
  promotions_->Inc();
}

RdwcEntry* RdwcLayer::Admit(Key key) {
  uint64_t bit = 0;
  Bucket& b = BucketFor(key, &bit);
  RollIfDue(&b);
  if ((b.hot_bits & bit) == 0) {
    // Cold fast path: 2^sample_shift - 1 of every 2^sample_shift ops pay
    // only the hash and this bit test.
    if (options_.sample_shift > 0 &&
        (++b.sample_ctr & ((1u << options_.sample_shift) - 1)) != 0) {
      return nullptr;
    }
  }
  // Tracked candidate (or already hot: the filter bit was set).
  RdwcEntry& e = b.entries[key];
  if (++e.hits >= options_.promote_threshold && !e.hot) Promote(&b, bit, &e);
  return e.hot ? &e : nullptr;
}

bool RdwcLayer::IsHot(Key key) const {
  const uint64_t h = SplitMix64(key);
  const Bucket& b = buckets_[h % buckets_.size()];
  auto it = b.entries.find(key);
  return it != b.entries.end() && it->second.hot;
}

template <typename K, typename V>
sim::Task<Status> RdwcLayer::Direct(route::HybridClient* client, K key,
                                    bool is_put, V put_value, V* get_value,
                                    OpStats* stats) {
  if (is_put) {
    return client->InsertDirect(std::move(key), std::move(put_value), stats);
  }
  return client->LookupDirect(std::move(key), get_value, stats);
}

template <typename K, typename V>
sim::Task<Status> RdwcLayer::RunWindow(route::HybridClient* client,
                                       RdwcEntry* e, Key rk, K key,
                                       bool is_put, V put_value, V* get_value,
                                       OpStats* stats) {
  using Window = RdwcWindowOf<K, V>;
  constexpr bool kVarlen = std::is_same_v<K, std::string>;
  bool direct = false;
  if constexpr (kVarlen) {
    // An out-of-line value's extent is reserved before the lock; a binding
    // under the lock cannot fold it (rdwc.h).
    direct = is_put && put_value.size() > kInlineThreshold;
  }
  Window* w = nullptr;
  if (!direct && e->win != nullptr) {
    // The open window may serve a different full byte key that shares the
    // hot routing key (or be of the other record kind — a deployment runs
    // one kind of op): results must not be shared across distinct keys.
    w = e->win->varlen == kVarlen ? static_cast<Window*>(e->win) : nullptr;
    if (w == nullptr || w->full_key != key) {
      if (w != nullptr) var_key_mismatch_->Inc();
      direct = true;
    } else if (w->parked.size() >= options_.window_max_ops) {
      bypass_overflow_->Inc();
      direct = true;
    }
  } else if (!is_put) {
    direct = true;  // no write window to ride: read directly
  }
  if (direct) {
    co_return co_await Direct(client, std::move(key), is_put,
                              std::move(put_value), get_value, stats);
  }

  if (w == nullptr) {
    // A PUT with no open window: become the delegate. The window lives in
    // this frame — if this client crashes mid-window, the buried frame
    // keeps it reachable until the timer completes it (see rdwc.h).
    Window own;
    own.key = rk;
    own.gen = next_gen_++;
    own.delegate_cs = client->cs_id();
    own.entry = e;
    own.varlen = kVarlen;
    own.full_key = std::move(key);
    own.value = put_value;
    e->win = &own;
    live_[own.gen] = &own;
    windows_opened_->Inc();
    ArmTimer(own.gen);
    co_return co_await DelegateRun(client, &own, std::move(put_value), stats);
  }

  // JOIN: park on the open window. `me` lives in this frame; if this CS
  // dies while parked, the frame is buried and never resumed.
  const sim::SimTime start = sim_->now();
  const int cs = client->cs_id();
  if (is_put && options_.enable_combining) {
    w->value = put_value;  // last writer wins
    w->puts_joined++;
  }
  followers_queued_->Inc();
  RdwcWindow::Parked me;
  me.cs = cs;
  co_await ParkAwaiter{w, &me};

  if (options_.enable_combining && w->written) {
    // Copy the shared result out of the window BEFORE anything that can
    // suspend: the window lives in the delegate's frame, which dies as
    // soon as every follower has been resumed once — a follower that
    // suspends (the cross-CS hop) and then touches `w` reads freed memory.
    V value = w->value;
    const int delegate_cs = w->delegate_cs;
    // Charge the CS-to-CS delegation hop for cross-CS followers, then
    // adopt the shared result. The op still counts toward the shard's
    // hotness window (it was real demand).
    if (cs != delegate_cs) co_await sim_->Delay(kCrossCsHopNs);
    client->RecordAbsorbed(rk, is_put, start, stats);
    if (is_put) {
      puts_combined_->Inc();
    } else {
      gets_shared_->Inc();
      if (get_value != nullptr) *get_value = std::move(value);
    }
    co_return Status::OK();
  }

  // Queue-only delegation, a failed write, or a delegate that died before
  // its write: the op re-runs directly, serialized behind the window.
  co_return co_await Direct(client, std::move(key), is_put,
                            std::move(put_value), get_value, stats);
}

template <typename K, typename V>
sim::Task<Status> RdwcLayer::DelegateRun(route::HybridClient* client,
                                         RdwcWindowOf<K, V>* w, V put_value,
                                         OpStats* stats) {
  const int cs = client->cs_id();
  co_await fault::Injector().AtSite(kSiteOpen, cs);

  // The window's one write: an ordinary locked tree insert, so command
  // combination (§4.5) rides its write-back onto the release doorbell and
  // DMSan sees a write it already understands. Binding folds the joined
  // PUTs in and seals the window; it runs inside the insert, so a crash
  // there freezes the write at its post (crash_point.h, Reach).
  const PutBind<V> bind = [this, w]() -> V {
    if (!w->sealed) {
      Seal(w);
      fault::Injector().Reach(kSiteBound, w->delegate_cs);
    }
    return w->value;
  };
  const Status own = co_await client->InsertDirect(
      w->full_key, std::move(put_value), stats,
      options_.enable_combining ? &bind : nullptr);
  w->written = own.ok() && w->sealed;
  if (w->written && w->puts_joined > 0) combined_writes_->Inc();
  co_await fault::Injector().AtSite(kSiteWritten, cs);
  Complete(w);
  co_return own;
}

template sim::Task<Status> RdwcLayer::RunWindow<Key, uint64_t>(
    route::HybridClient*, RdwcEntry*, Key, Key, bool, uint64_t, uint64_t*,
    OpStats*);
template sim::Task<Status> RdwcLayer::RunWindow<std::string, std::string>(
    route::HybridClient*, RdwcEntry*, Key, std::string, bool, std::string,
    std::string*, OpStats*);

void RdwcLayer::Seal(RdwcWindow* w) {
  // An unsealed window is its entry's `win`, which keeps the entry alive
  // through epoch rolls; once sealed, the entry may point at a newer
  // window or be dropped, so it is never touched again.
  if (w->sealed) return;
  w->sealed = true;
  if (w->entry->win == w) w->entry->win = nullptr;
}

void RdwcLayer::Complete(RdwcWindow* w) {
  Seal(w);
  live_.erase(w->gen);
  // Wake in FIFO order; followers whose CS died while parked are buried
  // (a dead machine must not act). Each resumed follower copies what it
  // needs from the window before it can suspend again, so the window may
  // die with this (the delegate's) frame afterwards.
  std::vector<RdwcWindow::Parked*> parked = std::move(w->parked);
  w->parked.clear();
  for (RdwcWindow::Parked* p : parked) {
    if (fault::Injector().dead(p->cs)) {
      fault::Injector().Bury(p->h);
      continue;
    }
    p->h.resume();
  }
}

void RdwcLayer::ArmTimer(uint64_t gen) {
  sim_->After(options_.follower_timeout_ns, [this, gen] { OnTimeout(gen); });
}

void RdwcLayer::OnTimeout(uint64_t gen) {
  auto it = live_.find(gen);
  if (it == live_.end()) return;  // window completed
  RdwcWindow* w = it->second;
  if (!fault::Injector().dead(w->delegate_cs)) {
    ArmTimer(gen);  // delegate is just slow; keep probing
    return;
  }
  // The delegate's CS died mid-window: complete the window without it.
  // Followers are served if the write completed, else they re-run.
  windows_abandoned_->Inc();
  Complete(w);
}

}  // namespace sherman::combine
