// Coroutine synchronization primitives for simulated client threads.
#ifndef SHERMAN_SIM_SYNC_H_
#define SHERMAN_SIM_SYNC_H_

#include <coroutine>
#include <cstdint>
#include <deque>
#include <utility>

#include "sim/simulator.h"

namespace sherman::sim {

// A FIFO queue of parked coroutines. Wake order equals wait order.
class CoroQueue {
 public:
  bool empty() const { return waiters_.empty(); }
  size_t size() const { return waiters_.size(); }

  // Awaitable that parks the calling coroutine until woken.
  struct Waiter {
    CoroQueue* queue;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      queue->waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };
  Waiter Wait() { return Waiter{this}; }

  // Resumes the oldest waiter inline. Returns false if none.
  bool WakeOne();

  // Resumes all waiters (in FIFO order). Returns the number woken.
  size_t WakeAll();

  // Removes every parked handle WITHOUT resuming (crash teardown: the
  // caller hands a dead client's never-to-be-woken waiters to the fault
  // graveyard; see fault/crash_point.h).
  std::deque<std::coroutine_handle<>> DetachAll() {
    return std::exchange(waiters_, {});
  }

 private:
  std::deque<std::coroutine_handle<>> waiters_;
};

// A counting latch: coroutines Arrive(), and every waiter is released when
// the count reaches zero. Joins spawned coroutines (client threads, batch
// groups, posted WRITEs).
class CountdownLatch {
 public:
  explicit CountdownLatch(uint64_t count) : remaining_(count) {}

  void Arrive() {
    if (remaining_ > 0 && --remaining_ == 0) done_.WakeAll();
  }
  // One more arrival to wait for (a latch counting work as it is posted).
  void Add() { remaining_++; }

  bool done() const { return remaining_ == 0; }

  // Awaitable: ready immediately if the count already reached zero.
  struct Waiter {
    CountdownLatch* latch;
    bool await_ready() const noexcept { return latch->done(); }
    void await_suspend(std::coroutine_handle<> h) {
      latch->done_.Wait().await_suspend(h);
    }
    void await_resume() const noexcept {}
  };
  Waiter Wait() { return Waiter{this}; }

  uint64_t remaining() const { return remaining_; }

 private:
  uint64_t remaining_;
  CoroQueue done_;
};

}  // namespace sherman::sim

#endif  // SHERMAN_SIM_SYNC_H_
