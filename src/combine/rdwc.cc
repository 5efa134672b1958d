#include "combine/rdwc.h"

#include <algorithm>
#include <string>
#include <type_traits>
#include <utility>

#include "fault/crash_point.h"
#include "route/hybrid_client.h"
#include "util/logging.h"
#include "util/random.h"

namespace sherman::combine {

namespace {

// Crash sites covering every milestone between window-open and
// combined-write-complete (recover_test sweeps them; see crash_point.h).
const int kSiteOpen = fault::RegisterCrashSite("rdwc.open");
const int kSiteExec = fault::RegisterCrashSite("rdwc.exec");
const int kSiteCombine = fault::RegisterCrashSite("rdwc.combine");

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
      reelections_(registry->GetCounter("rdwc.reelections")),
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
  if (e->win != nullptr) {
    // The open window serves a different full byte key that happens to
    // share the hot routing key (or is of the other record kind — a
    // deployment runs one kind of op): results must not be shared across
    // distinct keys, so this op goes direct.
    Window* open =
        e->win->varlen == kVarlen ? static_cast<Window*>(e->win) : nullptr;
    if (open == nullptr || open->full_key != key) {
      if (open != nullptr) var_key_mismatch_->Inc();
      co_return co_await Direct(client, std::move(key), is_put,
                                std::move(put_value), get_value, stats);
    }
  }
  if (e->win == nullptr) {
    // First op on the hot key: become the delegate. The window lives in
    // this frame — if this client crashes mid-window, the buried frame
    // keeps it reachable for the re-elected follower (see rdwc.h).
    Window w;
    w.key = rk;
    w.gen = next_gen_++;
    w.delegate_cs = client->cs_id();
    w.entry = e;
    w.varlen = kVarlen;
    w.full_key = std::move(key);
    e->win = &w;
    live_[w.gen] = &w;
    windows_opened_->Inc();
    ArmTimer(w.gen);
    co_return co_await DelegateRun(client, &w, is_put, std::move(put_value),
                                   get_value, stats);
  }

  Window* w = static_cast<Window*>(e->win);
  if (w->parked.size() >= options_.window_max_ops) {
    bypass_overflow_->Inc();
    co_return co_await Direct(client, std::move(key), is_put,
                              std::move(put_value), get_value, stats);
  }

  // QUEUE: park on the window. `me` lives in this frame; if this CS dies
  // while parked, the frame is buried and never resumed.
  const sim::SimTime start = sim_->now();
  const int cs = client->cs_id();
  if (is_put && options_.enable_combining) {
    w->write_pending = true;
    w->write_value = put_value;  // last arrival wins
  }
  followers_queued_->Inc();
  RdwcWindow::Parked me;
  me.cs = cs;
  co_await ParkAwaiter{w, &me};

  if (me.elected) {
    // The delegate's CS died mid-window; this follower takes the window
    // over, re-runs its own op plus the combined write, and serves the
    // remaining parked followers.
    reelections_->Inc();
    w->delegate_cs = cs;
    ArmTimer(w->gen);
    co_return co_await DelegateRun(client, w, is_put, std::move(put_value),
                                   get_value, stats);
  }

  if (options_.enable_combining && w->done) {
    // Copy the shared result out of the window BEFORE anything that can
    // suspend: the window lives in the delegate's frame, which dies as
    // soon as every parked follower has been resumed once — a follower
    // that suspends (the cross-CS hop) and then touches `w` reads freed
    // memory.
    const Status write_result = w->write_result;
    const Status own_result = w->result;
    const bool final_valid = w->final_valid;
    V final_value = w->final_value;
    const int delegate_cs = w->delegate_cs;
    // Charge the CS-to-CS delegation hop for cross-CS followers, then
    // adopt the shared result. The op still counts toward the shard's
    // hotness window (it was real demand).
    if (cs != delegate_cs) co_await sim_->Delay(kCrossCsHopNs);
    client->RecordAbsorbed(rk, is_put, start, stats);
    if (is_put) {
      puts_combined_->Inc();
      co_return write_result;
    }
    gets_shared_->Inc();
    if (final_valid) {
      if (get_value != nullptr) *get_value = std::move(final_value);
      co_return Status::OK();
    }
    co_return own_result;
  }

  // Delegation-only queueing (or a timed-out, combining-off window): the
  // parked op re-runs directly, serialized behind the delegate.
  co_return co_await Direct(client, std::move(key), is_put,
                            std::move(put_value), get_value, stats);
}

template <typename K, typename V>
sim::Task<Status> RdwcLayer::DelegateRun(route::HybridClient* client,
                                         RdwcWindowOf<K, V>* w, bool is_put,
                                         V put_value, V* get_value,
                                         OpStats* stats) {
  const int cs = client->cs_id();
  co_await fault::Injector().AtSite(kSiteOpen, cs);

  Status own;
  if (is_put) {
    own = co_await client->InsertDirect(w->full_key, put_value, stats);
  } else {
    V v{};
    own = co_await client->LookupDirect(w->full_key, &v, stats);
    if (own.ok()) {
      w->read_valid = true;
      w->read_value = v;
    }
    if (get_value != nullptr) *get_value = std::move(v);
  }
  w->result = own;
  co_await fault::Injector().AtSite(kSiteExec, cs);

  if (options_.enable_combining && w->write_pending) {
    // ONE combined remote write under a single HOCL acquisition carries
    // the last-writer-wins value of every PUT parked in the window — an
    // ordinary locked tree insert, so command combination (§4.5) rides
    // it onto one doorbell and the intent protocol covers a crash.
    w->write_result =
        co_await client->InsertDirect(w->full_key, w->write_value, nullptr);
    combined_writes_->Inc();
  }
  co_await fault::Injector().AtSite(kSiteCombine, cs);

  if (options_.enable_combining) {
    // Resolve the value parked GETs share: the combined write if one
    // happened (they linearize after it), else the delegate's own
    // write, else its read.
    if (w->write_pending && w->write_result.ok()) {
      w->final_valid = true;
      w->final_value = w->write_value;
    } else if (is_put && own.ok()) {
      w->final_valid = true;
      w->final_value = put_value;
    } else if (w->read_valid) {
      w->final_valid = true;
      w->final_value = w->read_value;
    }
  }
  Complete(w);
  co_return own;
}

template sim::Task<Status> RdwcLayer::RunWindow<Key, uint64_t>(
    route::HybridClient*, RdwcEntry*, Key, Key, bool, uint64_t, uint64_t*,
    OpStats*);
template sim::Task<Status> RdwcLayer::RunWindow<std::string, std::string>(
    route::HybridClient*, RdwcEntry*, Key, std::string, bool, std::string,
    std::string*, OpStats*);

void RdwcLayer::CloseWindow(RdwcWindow* w) {
  live_.erase(w->gen);
  if (w->entry->win == w) w->entry->win = nullptr;
}

void RdwcLayer::Complete(RdwcWindow* w) {
  w->done = true;
  CloseWindow(w);
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
  // The delegate's CS died mid-window. Drop parked followers that died
  // with it, then hand the window to the first live one.
  std::vector<RdwcWindow::Parked*> alive;
  alive.reserve(w->parked.size());
  for (RdwcWindow::Parked* p : w->parked) {
    if (fault::Injector().dead(p->cs)) {
      fault::Injector().Bury(p->h);
    } else {
      alive.push_back(p);
    }
  }
  w->parked = std::move(alive);
  if (w->parked.empty()) {
    windows_abandoned_->Inc();
    CloseWindow(w);
    return;
  }
  if (options_.enable_combining) {
    RdwcWindow::Parked* next = w->parked.front();
    w->parked.erase(w->parked.begin());
    next->elected = true;
    next->h.resume();  // re-arms the timer and re-runs as delegate
    return;
  }
  // Combining off: nothing to share; wake everyone to retry directly.
  windows_abandoned_->Inc();
  CloseWindow(w);
  std::vector<RdwcWindow::Parked*> parked = std::move(w->parked);
  for (RdwcWindow::Parked* p : parked) p->h.resume();
}

}  // namespace sherman::combine
