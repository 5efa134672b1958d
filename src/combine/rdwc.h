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
//  - The first op on a promoted key becomes the *delegate* and opens a
//    bounded combining window. Ops on the same key arriving while the
//    delegate is in flight QUEUE: they park on the window. When the
//    delegate completes, parked GETs share its result, and parked PUTs
//    have been folded into ONE combined remote write (last arrival wins)
//    issued under a single HOCL acquisition — an ordinary V1-legal
//    locked tree write, so the PR-2 doorbell batching, the intent
//    protocol, and DMSan all see a write they already understand.
//  - Everything else BYPASSES: cold keys pay only a hash, a bit test and
//    (on 1-in-2^sample_shift ops) a sampled counter bump — never a table
//    lookup; deletes and range queries are never delegated; windows that
//    reach `window_max_ops` parked ops overflow to the direct path.
//
// All ops parked in one window overlap the delegate's in-flight op, so
// they are mutually concurrent: serving parked GETs the window's final
// value and collapsing parked PUTs last-writer-wins into one write is a
// legal linearization.
//
// Crash semantics (PR-5): a dying delegate must not strand parked
// followers. Every window arms a timer; when it fires and the delegate's
// compute server is dead, the first parked follower on a live CS is
// re-elected as the new delegate — it re-runs its own op plus the
// combined write and serves the rest. Parked followers whose own CS died
// are buried in the injector's graveyard, exactly like any other frozen
// coroutine. The milestones are covered by the `rdwc.open` / `rdwc.exec`
// / `rdwc.combine` crash sites (recover_test sweeps them).
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
  // Share the delegate's result with parked GETs and collapse parked
  // PUTs into one combined write. Off = delegation only QUEUES (parked
  // ops re-run directly, serialized behind the delegate — a CS-side
  // hot-key queue that spares the remote lock the CAS storm).
  bool enable_combining = true;

  // --- promotion / demotion ---
  uint32_t promote_threshold = 8;   // sampled hits per window to promote
  sim::SimTime hot_window_ns = 200'000;
  // Cold-key ops are counted 1 in 2^sample_shift (0 = count every op);
  // the rest pay only the hash + hot-bit test.
  uint32_t sample_shift = 2;

  // --- combining window ---
  uint32_t window_max_ops = 16;         // parked ops before overflow
  sim::SimTime follower_timeout_ns = 100'000;  // delegate-death probe
};

struct RdwcEntry;

// One combining window. The struct lives in the delegate coroutine's
// frame: if the delegate crashes, the frame is buried (kept reachable
// forever) by the crash injector, so parked followers' pointers into the
// window stay valid for the re-election path.
//
// Delegation is keyed on the ROUTING key (the contention unit: varlen
// keys sharing it share a leaf), but results may only be shared between
// ops on the SAME full key, so the window pins it (RdwcWindowOf).
struct RdwcWindow {
  Key key = 0;            // routing key
  uint64_t gen = 0;       // timer handle: live_ maps gen -> window
  int delegate_cs = -1;
  RdwcEntry* entry = nullptr;
  bool done = false;
  bool varlen = false;    // record kind: byte-string or u64 key/value

  Status result = Status::OK();  // delegate's own op status
  bool read_valid = false;       // delegate GET produced read_value
  bool write_pending = false;    // >= 1 parked PUT folded in
  Status write_result = Status::OK();
  bool final_valid = false;      // final_value is what parked GETs serve

  struct Parked {
    std::coroutine_handle<> h;
    int cs = -1;
    bool elected = false;  // woken as the window's new delegate
  };
  std::vector<Parked*> parked;
};

// A window's record-kind payload: the full key it serves and its values
// (u64, or byte strings for varlen records).
template <typename K, typename V>
struct RdwcWindowOf : RdwcWindow {
  K full_key{};
  V read_value{};
  V write_value{};  // last-arrived parked PUT wins
  V final_value{};
};

// One delegation-table entry (hot key or tracked candidate).
struct RdwcEntry {
  uint32_t hits = 0;          // sampled hits this hot window
  uint32_t cold_windows = 0;  // consecutive windows below the bar
  bool hot = false;
  RdwcWindow* win = nullptr;  // open combining window, if any
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

  // Runs one op on the hot routing key `rk` through its window, for
  // either record kind (u64 or byte-string key/value; `key` is the full
  // key, equal to `rk` for u64 records): opens a window as the delegate
  // if none is in flight, otherwise parks as a follower (QUEUE) on a
  // window serving the same full key, or overflows to the direct path. A
  // full-key mismatch (or a record-kind mismatch) bypasses to the direct
  // path. `get_value` is null for PUTs. Operands are owned by the call.
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

  // Delegate body: own op, then the combined write, then wake followers.
  template <typename K, typename V>
  sim::Task<Status> DelegateRun(route::HybridClient* client,
                                RdwcWindowOf<K, V>* w, bool is_put,
                                V put_value, V* get_value, OpStats* stats);
  // The un-delegated op, for bypasses and queue-only re-runs.
  template <typename K, typename V>
  static sim::Task<Status> Direct(route::HybridClient* client, K key,
                                  bool is_put, V put_value, V* get_value,
                                  OpStats* stats);
  void Complete(RdwcWindow* w);
  void CloseWindow(RdwcWindow* w);
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
  obs::Counter* gets_shared_;      // parked GETs served from the window
  obs::Counter* puts_combined_;    // parked PUTs folded into one write
  obs::Counter* combined_writes_;  // the single writes actually issued
  obs::Counter* bypass_overflow_;  // window full, op went direct
  obs::Counter* reelections_;      // followers that took over a dead window
  obs::Counter* windows_abandoned_;
  // Varlen: ops admitted on a hot ROUTING key whose full byte key differs
  // from the open window's — sharing would be wrong, so they go direct.
  obs::Counter* var_key_mismatch_;
};

}  // namespace sherman::combine

#endif  // SHERMAN_COMBINE_RDWC_H_
