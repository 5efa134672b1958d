// RDWC: hot-key delegation with read/write combining.
//
// Sherman's write combining (§4.4) stops at HOCL lock handover: under
// Zipfian skew every client still pays its own round trips and lock
// contention for the same handful of hot keys. This layer extends the
// handover idea from *lock* combining to *op* combining, compute-side
// (DEX makes the same argument for co-locating responsibility for a hot
// key at one actor):
//
//  - A sharded delegation table tracks per-key traffic with sampled
//    counters and promotes keys that cross `promote_threshold` hits
//    within one `hot_window_ns` epoch (demotion after two cold epochs).
//  - Write windows. A PUT on a promoted key that finds no open window
//    becomes the *delegate* and opens one; its own insert is the window's
//    ONE locked write. PUTs and GETs on the same key that arrive while the
//    window is open JOIN it and park. The delegate's insert binds its
//    value at the last instant its path allows (PutBind, core/btree.h):
//    once the leaf is locked and read on the one-sided path, as the
//    request is built on the RPC path. Binding folds in every PUT that
//    joined so far, last writer wins, and SEALS the window: later ops
//    open the next one. When the write completes, joined PUTs are
//    acknowledged and joined GETs are served the written value.
//  - Everything else BYPASSES: cold keys pay only a hash, a bit test and
//    (on 1-in-2^sample_shift ops) a sampled counter bump — never a table
//    lookup; a hot GET with no open window reads directly; deletes and
//    range queries are never delegated; windows that reach
//    `window_max_ops` parked ops overflow to the direct path.
//
// Linearization: every op a window serves joined before the value was
// bound, so before the write took effect, and returns after the write
// completed. Its interval therefore contains the write's effect, where
// the window's ops all linearize: the PUTs in join order (each overwritten
// at once by the next), then the GETs, which return the last PUT's value
// — exactly what was written.
//
// GET-only windows are gone. A READ window would have to seal the moment
// it posts its READ: a GET that joined after that would be served a value
// read before it was invoked, stale once a newer write window has landed
// in between. Sealed that early, a READ window collects almost nothing,
// so a hot GET rides an open write window or reads directly.
//
// Varlen values the leaf cannot hold inline (> kInlineThreshold) need a
// value-log extent reserved before the lock (a reservation may rotate a
// segment through memory-thread RPCs) and written before the leaf names
// it, which a binding under the lock cannot fold; such PUTs neither open
// nor join a window, they run direct.
//
// Crash semantics: a dying delegate must not strand its followers.
// Every window arms a timer; when it fires and the delegate's compute
// server is dead, the window completes without it: if the write already
// completed, the followers are served as usual; otherwise the write never
// landed (a dead client posts nothing), and each live follower re-runs
// its own op directly, which is always linearizable. Followers whose own
// CS died are buried in the injector's graveyard, exactly like any other
// frozen coroutine. The three milestones — window opened, value bound,
// write done — are the `rdwc.open` / `rdwc.bound` / `rdwc.written` crash
// sites (recover_test sweeps them).
//
// The table is compute-side state shared by all HybridClients (the
// simulation abstracts the CS-to-CS delegation hop; followers served
// from another CS's delegate are charged kCrossCsHopNs, rdwc.cc).
#ifndef SHERMAN_COMBINE_RDWC_H_
#define SHERMAN_COMBINE_RDWC_H_

#include <coroutine>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/node_layout.h"
#include "core/stats.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "util/status.h"

namespace sherman::route {
class HybridClient;
}  // namespace sherman::route

namespace sherman::combine {

struct RdwcOptions {
  // Master switch: off = HybridClient never consults the table.
  bool enable_delegation = false;
  // Fold joined PUTs into the window's write and serve joined GETs its
  // value. Off = delegation only QUEUES (joined ops re-run directly,
  // serialized behind the delegate — a CS-side hot-key queue that spares
  // the remote lock the CAS storm).
  bool enable_combining = true;

  // --- promotion / demotion ---
  uint32_t promote_threshold = 8;   // sampled hits per window to promote
  sim::SimTime hot_window_ns = 200'000;
  // Cold-key ops are counted 1 in 2^sample_shift (0 = count every op);
  // the rest pay only the hash + hot-bit test.
  uint32_t sample_shift = 2;

  // --- write window ---
  uint32_t window_max_ops = 16;         // parked ops before overflow
  sim::SimTime follower_timeout_ns = 100'000;  // delegate-death probe
};

struct RdwcEntry;

// One write window. The struct lives in the delegate coroutine's frame:
// if the delegate crashes, the frame is buried (kept reachable forever)
// by the crash injector, so parked followers' pointers into the window
// stay valid until the timer completes it.
//
// Delegation is keyed on the ROUTING key (the contention unit: varlen
// keys sharing it share a leaf), but results may only be shared between
// ops on the SAME full key, so the window pins it (RdwcWindowOf).
struct RdwcWindow {
  Key key = 0;            // routing key
  uint64_t gen = 0;       // timer handle: live_ maps gen -> window
  int delegate_cs = -1;
  RdwcEntry* entry = nullptr;
  bool varlen = false;    // record kind: byte-string or u64 key/value

  bool sealed = false;    // value bound: the entry no longer points here
  bool written = false;   // the bound value landed: followers are served
  uint32_t puts_joined = 0;

  struct Parked {
    std::coroutine_handle<> h;
    int cs = -1;
  };
  std::vector<Parked*> parked;
};

// A window's record-kind payload: the full key it serves and the value
// its write carries — the delegate's own, replaced by each joining PUT
// (last writer wins) until the value is bound.
template <typename K, typename V>
struct RdwcWindowOf : RdwcWindow {
  K full_key{};
  V value{};
};

// One delegation-table entry (hot key or tracked candidate).
struct RdwcEntry {
  uint32_t hits = 0;          // sampled hits this hot window
  uint32_t cold_windows = 0;  // consecutive windows below the bar
  bool hot = false;
  RdwcWindow* win = nullptr;  // the open (unsealed) window, if any
};

class RdwcLayer {
 public:
  // Counts into `registry` as rdwc.*.
  RdwcLayer(sim::Simulator* sim, RdwcOptions options,
            obs::Registry* registry);

  RdwcLayer(const RdwcLayer&) = delete;
  RdwcLayer& operator=(const RdwcLayer&) = delete;

  const RdwcOptions& options() const { return options_; }

  // Fast-path admission: returns the hot entry for `key`, bumping its
  // sampled counter (and possibly promoting it), or nullptr — BYPASS, the
  // caller dispatches directly. Cold keys whose hot-filter bit is clear
  // pay no map lookup on unsampled ops.
  RdwcEntry* Admit(Key key);

  // Runs one op on the hot routing key `rk` through its write window, for
  // either record kind (u64 or byte-string key/value; `key` is the full
  // key, equal to `rk` for u64 records): a PUT opens a window as the
  // delegate if none is open; otherwise the op joins the open window
  // serving the same full key, or overflows to the direct path. A GET
  // with no open window, a full-key mismatch (or a record-kind mismatch)
  // and an out-of-line varlen PUT go direct. `get_value` is null for PUTs.
  // Operands are owned by the call.
  template <typename K, typename V>
  sim::Task<Status> RunWindow(route::HybridClient* client, RdwcEntry* e,
                              Key rk, K key, bool is_put, V put_value,
                              V* get_value, OpStats* stats);

  // Test hook: is `key` currently promoted?
  bool IsHot(Key key) const;
  size_t open_windows() const { return live_.size(); }

 private:
  struct Bucket {
    std::map<Key, RdwcEntry> entries;
    uint64_t hot_bits = 0;   // coarse filter over promoted keys' hashes
    uint32_t sample_ctr = 0;
    sim::SimTime window_start = 0;
  };

  Bucket& BucketFor(Key key, uint64_t* bit);
  void RollIfDue(Bucket* b);
  void Promote(Bucket* b, uint64_t bit, RdwcEntry* e);

  // Delegate body: the window's one write, then wake the followers.
  template <typename K, typename V>
  sim::Task<Status> DelegateRun(route::HybridClient* client,
                                RdwcWindowOf<K, V>* w, V put_value,
                                OpStats* stats);
  // The un-delegated op, for bypasses and re-runs.
  template <typename K, typename V>
  static sim::Task<Status> Direct(route::HybridClient* client, K key,
                                  bool is_put, V put_value, V* get_value,
                                  OpStats* stats);
  // Binding: seals the window (the entry stops pointing at it).
  void Seal(RdwcWindow* w);
  // Closes the window and wakes its followers (served when `written`,
  // else they re-run directly). Idempotent.
  void Complete(RdwcWindow* w);
  void ArmTimer(uint64_t gen);
  void OnTimeout(uint64_t gen);

  struct ParkAwaiter {
    RdwcWindow* w;
    RdwcWindow::Parked* me;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      me->h = h;
      w->parked.push_back(me);
    }
    void await_resume() const noexcept {}
  };

  sim::Simulator* sim_;
  RdwcOptions options_;
  std::vector<Bucket> buckets_;
  std::map<uint64_t, RdwcWindow*> live_;  // open windows by generation
  uint64_t next_gen_ = 1;
  obs::Counter* promotions_;
  obs::Counter* demotions_;
  obs::Counter* windows_opened_;
  obs::Counter* followers_queued_;
  obs::Counter* gets_shared_;      // joined GETs served the window's write
  obs::Counter* puts_combined_;    // joined PUTs folded into its write
  obs::Counter* combined_writes_;  // writes that folded >= 1 joined PUT
  obs::Counter* bypass_overflow_;  // window full, op went direct
  obs::Counter* windows_abandoned_;  // delegate died; the timer completed it
  // Varlen: ops admitted on a hot ROUTING key whose full byte key differs
  // from the open window's — sharing would be wrong, so they go direct.
  obs::Counter* var_key_mismatch_;
};

}  // namespace sherman::combine

#endif  // SHERMAN_COMBINE_RDWC_H_
