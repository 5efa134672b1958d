// Deterministic crash-point injection for client-crash fault tolerance
// tests.
//
// Every remote-write site inside a multi-write structural operation (leaf /
// internal / root split, leaf merge, migration flip) registers a NAMED
// crash site at static-initialization time. A test (or the
// SHERMAN_CRASH_AT=<site>:<n> environment knob) arms the process-global
// injector with a site, a hit ordinal, and a victim compute server; when
// the victim's n-th execution of that site is reached, the victim client
// "crashes":
//
//  - the coroutine that hit the site suspends forever (the machine died
//    mid-protocol: writes issued before the site landed, writes after it
//    never happen);
//  - every other coroutine of the same compute server freezes at its next
//    rdma::Qp post (a dead machine issues nothing further), so the whole
//    client goes silent exactly as a real crash would;
//  - locks the client held stay held (until a survivor's lease steal),
//    its intent records stay published, and its reclamation-epoch pins
//    stay pinned (until recovery releases them).
//
// Frozen coroutine frames are deliberately kept reachable from the
// injector's graveyard for the remainder of the process: destroying an
// inner frame would double-free it through the parent's Task owner, and
// resuming it would make a dead machine act. They are never resumed or
// destroyed; keeping them reachable keeps LeakSanitizer quiet, and the
// few KB per crash is irrelevant to a test process.
//
// When nothing is armed the per-site check is one branch on a bool.
#ifndef SHERMAN_FAULT_CRASH_POINT_H_
#define SHERMAN_FAULT_CRASH_POINT_H_

#include <coroutine>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace sherman::fault {

// Registers `name` (idempotently) and returns its stable site id. Call at
// static-init from the translation unit that owns the site:
//   static const int kSiteX = fault::RegisterCrashSite("merge.tombstone");
int RegisterCrashSite(const char* name);

// All registered site names, sorted (stable across runs). Call at runtime
// (after static init), not from another static initializer.
std::vector<std::string> CrashSiteNames();

// Site id for `name`, or -1.
int CrashSiteId(const std::string& name);

class CrashInjector {
 public:
  // Arms the injector: the `nth` (1-based) time compute server
  // `victim_cs` reaches `site`, the client crashes. Only one arming is
  // active at a time.
  void Arm(int site, uint32_t nth, int victim_cs);
  void Arm(const std::string& site_name, uint32_t nth, int victim_cs);

  // Arms from SHERMAN_CRASH_AT=<site>:<n> (+ SHERMAN_CRASH_CS=<cs>,
  // default 0). Returns false if the variable is unset or malformed.
  bool ArmFromEnv();

  // Declares `cs` dead immediately (bench-style fail-stop kill): every
  // coroutine of the client freezes at its next Qp post.
  void KillClient(int cs);

  // Clears armed state, hit counters, and the dead set for the next test
  // case. Frozen frames from previous cases stay in the graveyard (see
  // file comment). The death observer survives Reset (it is owner-scoped).
  void Reset();

  // Observer fired whenever a client is declared dead (armed crash site or
  // explicit KillClient) — the tracing layer registers a flight-recorder
  // dump here. Owner-token guarded: Clear only removes the observer if
  // `owner` still owns it, so a destroyed system never leaves a dangling
  // callback and a newer system's registration wins.
  void SetDeathObserver(void* owner, std::function<void(int cs)> fn) {
    observer_owner_ = owner;
    death_observer_ = std::move(fn);
  }
  void ClearDeathObserver(void* owner) {
    if (observer_owner_ == owner) {
      observer_owner_ = nullptr;
      death_observer_ = nullptr;
    }
  }

  bool armed() const { return armed_; }
  bool fired() const { return fired_; }
  bool dead(int cs) const {
    return any_dead_ &&
           cs >= 0 &&
           static_cast<size_t>(cs) < dead_.size() && dead_[cs];
  }

  // Adds a suspended-forever coroutine handle to the graveyard (kept
  // reachable for the process lifetime; never resumed or destroyed).
  // Used by the awaitables below, and by teardown paths that find a dead
  // client's coroutine still parked on a wait queue whose owner is being
  // destroyed (local lock tables, intent slot queues) — without this the
  // parked frame chain becomes an unreachable cycle at destruction and
  // trips LeakSanitizer.
  void Bury(std::coroutine_handle<> h) {
    if (h) graveyard_.push_back(h);
  }

  // --- awaitables -----------------------------------------------------

  // Suspends forever (crashing the client) when the armed (site, cs, nth)
  // triple matches; otherwise a no-op.
  struct SiteAwaiter {
    CrashInjector* inj;
    bool fire;
    bool await_ready() const noexcept { return !fire; }
    void await_suspend(std::coroutine_handle<> h) { inj->Bury(h); }
    void await_resume() const noexcept {}
  };
  SiteAwaiter AtSite(int site, int cs) {
    return SiteAwaiter{this, armed_ && ShouldFire(site, cs)};
  }
  // AtSite for code that cannot suspend (a synchronous hook): a match
  // marks `cs` dead, and the caller's coroutine freezes at its next
  // rdma::Qp post instead of at the site itself.
  void Reach(int site, int cs) {
    if (armed_) ShouldFire(site, cs);
  }

  // Suspends forever when `cs` is dead; otherwise a no-op. Threaded
  // through every rdma::Qp post so a dead machine issues nothing.
  struct FreezeAwaiter {
    CrashInjector* inj;
    bool freeze;
    bool await_ready() const noexcept { return !freeze; }
    void await_suspend(std::coroutine_handle<> h) { inj->Bury(h); }
    void await_resume() const noexcept {}
  };
  FreezeAwaiter FreezeIfDead(int cs) {
    return FreezeAwaiter{this, dead(cs)};
  }

 private:
  friend struct SiteAwaiter;
  friend struct FreezeAwaiter;

  bool ShouldFire(int site, int cs);
  void MarkDead(int cs);

  bool armed_ = false;
  bool fired_ = false;
  bool any_dead_ = false;
  int site_ = -1;
  uint32_t nth_ = 1;
  uint32_t hits_ = 0;
  int victim_cs_ = -1;
  std::vector<bool> dead_;
  void* observer_owner_ = nullptr;
  std::function<void(int cs)> death_observer_;
  // Frozen frames, kept reachable for the process lifetime (never resumed
  // or destroyed; see file comment).
  std::vector<std::coroutine_handle<>> graveyard_;
};

// The process-global injector (tests and the Qp layer share it).
CrashInjector& Injector();

}  // namespace sherman::fault

#endif  // SHERMAN_FAULT_CRASH_POINT_H_
