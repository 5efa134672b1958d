// Always-on per-operation tracing: lightweight spans with parent/child
// causality, recorded into fixed-size per-client ring buffers with
// deterministic sim-clock timestamps.
//
// Design constraints and how they are met:
//  - zero allocation on the hot path: span records live in preallocated
//    rings; names are interned static strings; Begin/End are a slot write;
//  - coroutine-safe causality: the current-parent pointer is NOT a global
//    or per-CS slot (client coroutines interleave at every co_await, so a
//    shared slot would mis-parent spans). Instead each logical operation
//    carries a TraceCtx, threaded to the lower layers through OpStats.
//    Two scope flavors exist:
//      SpanScope   opens a span and makes it the ctx's current parent
//                  until scope exit. ONLY safe in the linear section of
//                  the coroutine that owns the ctx (one op body). Helpers
//                  that fan out concurrently and share one ctx must not
//                  use it.
//      EventScope  opens a span whose parent is snapshotted at entry and
//                  never touches ctx->current. Safe anywhere, including
//                  helpers running concurrently against a shared ctx —
//                  this is what the deep shared paths (raw reads, lock
//                  acquisition) use.
//  - compile-to-nothing: the SHERMAN_TSPAN / SHERMAN_TEVENT /
//    SHERMAN_TINSTANT macros expand to `((void)0)` when the library is
//    built with SHERMAN_TRACE_ENABLED=0 (cmake -DSHERMAN_TRACING=OFF);
//    their arguments are not evaluated. The classes remain defined so
//    exporters and tests compile in both configurations;
//  - determinism: timestamps are simulated time, exports iterate sorted
//    containers — identical seeded runs produce byte-identical dumps.
//
// Exports: ChromeTraceJson() (load the file in chrome://tracing or
// https://ui.perfetto.dev), and FlightDump* — a human-readable last-N-spans
// dump that fires automatically on crash-point kills, Recoverer
// activations, and SHERMAN_CHECK failures.
#ifndef SHERMAN_OBS_TRACE_H_
#define SHERMAN_OBS_TRACE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulator.h"

#ifndef SHERMAN_TRACE_ENABLED
#define SHERMAN_TRACE_ENABLED 1
#endif

namespace sherman::obs {

// One span (or instant event: end_ns == start_ns). id is a ring-local
// 1-based sequence number; 0 means "empty slot" / "no parent".
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;  // 0 while open (instants are closed at birth)
  uint64_t a0 = 0;
  uint64_t a1 = 0;
};

// Fixed-size ring of span records. Old records are overwritten by new
// ones; End() of an overwritten span is a counted no-op.
class TraceRing {
 public:
  explicit TraceRing(uint32_t entries);

  uint64_t Begin(const char* name, uint64_t parent, uint64_t now,
                 uint64_t a0, uint64_t a1);
  void End(uint64_t id, uint64_t now);
  void Instant(const char* name, uint64_t parent, uint64_t now, uint64_t a0);

  // The record for `id` if it has not been overwritten.
  const SpanRecord* Find(uint64_t id) const;

  uint32_t capacity() const { return static_cast<uint32_t>(ring_.size()); }
  uint64_t spans_started() const { return next_ - 1; }
  uint64_t dropped_ends() const { return dropped_ends_; }

  // Visits live records oldest-first.
  void ForEach(const std::function<void(const SpanRecord&)>& fn) const;

 private:
  uint64_t SlotFor(uint64_t id) const { return (id - 1) & mask_; }

  std::vector<SpanRecord> ring_;
  uint64_t mask_;
  uint64_t next_ = 1;
  uint64_t dropped_ends_ = 0;
};

// Stable ring ids for the system's actors. Client compute servers use
// their cs id; system actors get reserved ranges so dumps stay readable.
struct RingId {
  static uint32_t Client(int cs) { return static_cast<uint32_t>(cs); }
  static uint32_t RpcExecutor(int ms) { return 0x4000u + static_cast<uint32_t>(ms); }
  static uint32_t Recoverer(int cs) { return 0x8000u + static_cast<uint32_t>(cs); }
  static uint32_t Migrator() { return 0xC000u; }
  static std::string Label(uint32_t ring_id);
};

struct TraceOptions {
  bool enabled = true;          // runtime master switch (also: SHERMAN_TRACE=0)
  uint32_t ring_entries = 4096; // per ring, rounded up to a power of two
};

class Tracer {
 public:
  explicit Tracer(sim::Simulator* sim, TraceOptions opts = {});
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  uint64_t now() const { return static_cast<uint64_t>(sim_->now()); }
  const TraceOptions& options() const { return opts_; }

  // Find-or-create (creation allocates; steady-state is a map lookup done
  // once per TraceCtx, not per span).
  TraceRing* Ring(uint32_t ring_id);
  const TraceRing* FindRing(uint32_t ring_id) const;

  // chrome://tracing "traceEvents" JSON for every ring.
  std::string ChromeTraceJson() const;

  // Human-readable last-N dump of one ring / every ring.
  std::string FlightDump(uint32_t ring_id, size_t last_n) const;
  std::string FlightDumpAll(size_t last_n) const;

  // Prints a flight dump to stderr (and remembers it for assertions).
  // `rings` empty = all rings. No-op when tracing is disabled.
  void DumpToStderr(const std::string& reason,
                    const std::vector<uint32_t>& rings);
  const std::string& last_flight_dump() const { return last_flight_dump_; }

 private:
  sim::Simulator* sim_;
  TraceOptions opts_;
  bool enabled_;
  std::map<uint32_t, std::unique_ptr<TraceRing>> rings_;
  std::string last_flight_dump_;
};

// Per-operation trace context. Owned by the coroutine (or component)
// driving the operation; lower layers reach it through OpStats::trace.
struct TraceCtx {
  Tracer* tracer = nullptr;
  TraceRing* ring = nullptr;
  uint64_t current = 0;  // innermost open SpanScope's id

  bool active() const {
    return tracer != nullptr && ring != nullptr && tracer->enabled();
  }

  // Null-safe factory: inert ctx when `tracer` is null or disabled.
  static TraceCtx For(Tracer* tracer, uint32_t ring_id) {
    TraceCtx ctx;
    if (tracer != nullptr && tracer->enabled()) {
      ctx.tracer = tracer;
      ctx.ring = tracer->Ring(ring_id);
    }
    return ctx;
  }
};

// RAII span that becomes the ctx's current parent for its extent. Only
// for the linear section of the coroutine owning the ctx (see file
// comment).
class SpanScope {
 public:
  SpanScope() = default;
  SpanScope(TraceCtx* ctx, const char* name, uint64_t a0 = 0,
            uint64_t a1 = 0) {
    if (ctx != nullptr && ctx->active()) {
      ctx_ = ctx;
      parent_ = ctx->current;
      id_ = ctx->ring->Begin(name, parent_, ctx->tracer->now(), a0, a1);
      ctx->current = id_;
    }
  }
  ~SpanScope() { End(); }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void End() {
    if (ctx_ != nullptr) {
      ctx_->current = parent_;
      ctx_->ring->End(id_, ctx_->tracer->now());
      ctx_ = nullptr;
    }
  }
  uint64_t id() const { return id_; }

 private:
  TraceCtx* ctx_ = nullptr;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
};

// RAII leaf span: parent snapshotted at entry, ctx->current untouched —
// safe in helpers fanned out concurrently over a shared ctx.
class EventScope {
 public:
  EventScope() = default;
  EventScope(TraceCtx* ctx, const char* name, uint64_t a0 = 0,
             uint64_t a1 = 0) {
    if (ctx != nullptr && ctx->active()) {
      ctx_ = ctx;
      id_ = ctx->ring->Begin(name, ctx->current, ctx->tracer->now(), a0, a1);
    }
  }
  ~EventScope() { End(); }

  EventScope(const EventScope&) = delete;
  EventScope& operator=(const EventScope&) = delete;

  void End() {
    if (ctx_ != nullptr) {
      ctx_->ring->End(id_, ctx_->tracer->now());
      ctx_ = nullptr;
    }
  }
  uint64_t id() const { return id_; }

 private:
  TraceCtx* ctx_ = nullptr;
  uint64_t id_ = 0;
};

inline void TraceInstant(TraceCtx* ctx, const char* name, uint64_t a0 = 0) {
  if (ctx != nullptr && ctx->active()) {
    ctx->ring->Instant(name, ctx->current, ctx->tracer->now(), a0);
  }
}

// --- fatal-failure flight recorder ------------------------------------
// SHERMAN_CHECK failures call sherman::FatalDumpHook() (util/logging.h)
// before aborting; live tracers registered here dump their rings.
void RegisterFatalDumpTracer(Tracer* t);
void UnregisterFatalDumpTracer(Tracer* t);

}  // namespace sherman::obs

#if SHERMAN_TRACE_ENABLED
#define SHERMAN_TRACE_CAT_(a, b) a##b
#define SHERMAN_TRACE_CAT(a, b) SHERMAN_TRACE_CAT_(a, b)
// Mutating parent scope (linear op sections only).
#define SHERMAN_TSPAN(ctx, ...) \
  ::sherman::obs::SpanScope SHERMAN_TRACE_CAT(sherman_tspan_, __LINE__)( \
      (ctx), __VA_ARGS__)
// Leaf scope (safe under concurrent fan-out on a shared ctx).
#define SHERMAN_TEVENT(ctx, ...) \
  ::sherman::obs::EventScope SHERMAN_TRACE_CAT(sherman_tevent_, __LINE__)( \
      (ctx), __VA_ARGS__)
// Zero-duration instant event.
#define SHERMAN_TINSTANT(ctx, ...) \
  ::sherman::obs::TraceInstant((ctx), __VA_ARGS__)
#else
// Compiled out: no declaration, no argument evaluation, no code.
#define SHERMAN_TSPAN(ctx, ...) ((void)0)
#define SHERMAN_TEVENT(ctx, ...) ((void)0)
#define SHERMAN_TINSTANT(ctx, ...) ((void)0)
#endif

#endif  // SHERMAN_OBS_TRACE_H_
