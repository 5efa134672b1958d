// Local lock table (LLT): the compute-server half of HOCL (§4.3).
//
// Each CS keeps one local lock per (MS, GLT index). A thread must hold the
// local lock before issuing the remote CAS for the global lock, so
// conflicting threads of the same CS queue locally instead of burning
// remote retries. Each local lock carries a FIFO wait queue (first-come-
// first-served fairness) and a handover depth counter (Figure 6).
#ifndef SHERMAN_LOCK_LOCAL_LOCK_TABLE_H_
#define SHERMAN_LOCK_LOCAL_LOCK_TABLE_H_

#include <cstdint>
#include <deque>
#include <unordered_map>

#include "fault/crash_point.h"
#include "sim/task.h"

namespace sherman {

class LocalLockTable {
 public:
  // A parked waiter. `handover == true` when woken means the global lock
  // was handed over and must not be re-acquired remotely.
  struct Waiter {
    bool handover = false;
    sim::OneShot signal;
  };

  LocalLockTable() = default;
  LocalLockTable(const LocalLockTable&) = delete;
  LocalLockTable& operator=(const LocalLockTable&) = delete;

  // Crash hygiene: a waiter still parked at destruction belongs to a dead
  // client (its local holder froze and will never wake it). Hand the
  // parked frames to the fault graveyard so they stay reachable — they
  // are never resumed, and destroying them here would double-free their
  // frames through the parents that own them.
  ~LocalLockTable() {
    for (auto& [key, lock] : locks_) {
      for (Waiter* w : lock.wait_queue) {
        fault::Injector().Bury(w->signal.DetachWaiter());
      }
    }
  }

  struct LocalLock {
    bool held = false;
    uint32_t handover_depth = 0;
    // Lease stamp currently written into the remote lane (leases on): a
    // handover keeps the global lock without remote traffic, so the
    // handing-over Unlock re-stamps the lane when this has gone stale —
    // otherwise a long local handover chain could age the stamp past
    // expiry and get a LIVE holder's lock stolen.
    uint16_t lane_stamp = 0;
    std::deque<Waiter*> wait_queue;
  };

  // The local lock for GLT slot `index` on memory server `ms`. The paper's
  // flat n-MB array is modeled sparsely: an entry is created on first use
  // and dropped once its lane goes idle (not held, nobody queued), so the
  // table holds only live lanes. A reference from Get stays valid while
  // the lane is live; a coroutine that waits without holding or queueing
  // (local spinning) must call Get again after each wait.
  LocalLock& Get(uint16_t ms, uint32_t index) {
    return locks_[Key(ms, index)];
  }

  // Forgets an idle lane's entry.
  void Drop(uint16_t ms, uint32_t index) { locks_.erase(Key(ms, index)); }

  // Lanes with an entry: the live ones.
  size_t touched() const { return locks_.size(); }

 private:
  static uint64_t Key(uint16_t ms, uint32_t index) {
    return (static_cast<uint64_t>(ms) << 32) | index;
  }

  std::unordered_map<uint64_t, LocalLock> locks_;
};

}  // namespace sherman

#endif  // SHERMAN_LOCK_LOCAL_LOCK_TABLE_H_
