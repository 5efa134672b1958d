#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>

#include "obs/json.h"
#include "util/logging.h"

namespace sherman::obs {

namespace {

// Last-N spans per ring in a flight dump.
constexpr size_t kFlightSpans = 16;

uint32_t RoundUpPow2(uint32_t v) {
  if (v < 2) return 2;
  v--;
  v |= v >> 1;
  v |= v >> 2;
  v |= v >> 4;
  v |= v >> 8;
  v |= v >> 16;
  return v + 1;
}

// The span name's component prefix ("rdma.read" -> "rdma"), used as the
// chrome trace category.
std::string NameCategory(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string(name)
                        : std::string(name, static_cast<size_t>(dot - name));
}

}  // namespace

TraceRing::TraceRing(uint32_t entries)
    : ring_(RoundUpPow2(entries)), mask_(ring_.size() - 1) {}

uint64_t TraceRing::Begin(const char* name, uint64_t parent, uint64_t now,
                          uint64_t a0, uint64_t a1) {
  uint64_t id = next_++;
  SpanRecord& r = ring_[SlotFor(id)];
  r.id = id;
  r.parent = parent;
  r.name = name;
  r.start_ns = now;
  r.end_ns = 0;
  r.a0 = a0;
  r.a1 = a1;
  return id;
}

void TraceRing::End(uint64_t id, uint64_t now) {
  if (id == 0) return;
  SpanRecord& r = ring_[SlotFor(id)];
  if (r.id != id) {
    // The span was overwritten while open (deep op in a small ring).
    dropped_ends_++;
    return;
  }
  r.end_ns = now;
}

void TraceRing::Instant(const char* name, uint64_t parent, uint64_t now,
                        uint64_t a0) {
  uint64_t id = Begin(name, parent, now, a0, 0);
  ring_[SlotFor(id)].end_ns = now;
}

const SpanRecord* TraceRing::Find(uint64_t id) const {
  if (id == 0) return nullptr;
  const SpanRecord& r = ring_[SlotFor(id)];
  return r.id == id ? &r : nullptr;
}

void TraceRing::ForEach(const std::function<void(const SpanRecord&)>& fn) const {
  if (next_ == 1) return;
  uint64_t newest = next_ - 1;
  uint64_t oldest = newest >= ring_.size() ? newest - ring_.size() + 1 : 1;
  for (uint64_t id = oldest; id <= newest; id++) {
    const SpanRecord& r = ring_[SlotFor(id)];
    if (r.id == id) fn(r);
  }
}

std::string RingId::Label(uint32_t ring_id) {
  char buf[32];
  if (ring_id >= 0xC000u) {
    std::snprintf(buf, sizeof(buf), "migrator");
  } else if (ring_id >= 0x8000u) {
    std::snprintf(buf, sizeof(buf), "recover/cs%u", ring_id - 0x8000u);
  } else if (ring_id >= 0x4000u) {
    std::snprintf(buf, sizeof(buf), "rpc/ms%u", ring_id - 0x4000u);
  } else {
    std::snprintf(buf, sizeof(buf), "cs%u", ring_id);
  }
  return buf;
}

Tracer::Tracer(sim::Simulator* sim, TraceOptions opts)
    : sim_(sim), opts_(opts), enabled_(opts.enabled) {
  SHERMAN_CHECK(sim != nullptr);
  const char* env = std::getenv("SHERMAN_TRACE");
  if (env != nullptr && env[0] == '0' && env[1] == '\0') enabled_ = false;
}

Tracer::~Tracer() { UnregisterFatalDumpTracer(this); }

TraceRing* Tracer::Ring(uint32_t ring_id) {
  auto it = rings_.find(ring_id);
  if (it == rings_.end()) {
    it = rings_.emplace(ring_id, std::make_unique<TraceRing>(opts_.ring_entries))
             .first;
  }
  return it->second.get();
}

const TraceRing* Tracer::FindRing(uint32_t ring_id) const {
  auto it = rings_.find(ring_id);
  return it == rings_.end() ? nullptr : it->second.get();
}

std::string Tracer::ChromeTraceJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("displayTimeUnit").String("ns");
  w.Key("traceEvents").BeginArray();
  for (const auto& [ring_id, ring] : rings_) {
    // Thread-name metadata row so the viewer shows "cs0", "rpc/ms1", ...
    w.BeginObject();
    w.Field("name", "thread_name");
    w.Field("ph", "M");
    w.Field("pid", 0);
    w.Field("tid", static_cast<int64_t>(ring_id));
    w.Key("args").BeginObject().Field("name", RingId::Label(ring_id)).EndObject();
    w.EndObject();
    uint64_t now = this->now();
    ring->ForEach([&](const SpanRecord& r) {
      w.BeginObject();
      w.Field("name", r.name);
      w.Field("cat", NameCategory(r.name));
      w.Field("ph", "X");
      // chrome://tracing expects microseconds; keep ns resolution as
      // fractional us.
      w.Key("ts").Double(static_cast<double>(r.start_ns) / 1000.0);
      uint64_t end = r.end_ns == 0 ? now : r.end_ns;
      w.Key("dur").Double(static_cast<double>(end - r.start_ns) / 1000.0);
      w.Field("pid", 0);
      w.Field("tid", static_cast<int64_t>(ring_id));
      w.Key("args").BeginObject();
      w.Field("id", r.id);
      w.Field("parent", r.parent);
      if (r.a0 != 0) w.Field("a0", r.a0);
      if (r.a1 != 0) w.Field("a1", r.a1);
      if (r.end_ns == 0) w.Field("open", true);
      w.EndObject();
      w.EndObject();
    });
  }
  w.EndArray();
  w.EndObject();
  return w.Take();
}

std::string Tracer::FlightDump(uint32_t ring_id, size_t last_n) const {
  const TraceRing* ring = FindRing(ring_id);
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "--- ring %s (%u): %llu spans, %llu dropped ends\n",
                RingId::Label(ring_id).c_str(), ring_id,
                static_cast<unsigned long long>(ring ? ring->spans_started() : 0),
                static_cast<unsigned long long>(ring ? ring->dropped_ends() : 0));
  out += line;
  if (ring == nullptr) return out;
  std::deque<const SpanRecord*> tail;
  ring->ForEach([&](const SpanRecord& r) {
    tail.push_back(&r);
    if (tail.size() > last_n) tail.pop_front();
  });
  for (const SpanRecord* r : tail) {
    if (r->end_ns != 0) {
      std::snprintf(line, sizeof(line),
                    "  #%llu %-24s parent=#%llu t=[%llu..%llu] dur=%lluns a0=%llu a1=%llu\n",
                    static_cast<unsigned long long>(r->id), r->name,
                    static_cast<unsigned long long>(r->parent),
                    static_cast<unsigned long long>(r->start_ns),
                    static_cast<unsigned long long>(r->end_ns),
                    static_cast<unsigned long long>(r->end_ns - r->start_ns),
                    static_cast<unsigned long long>(r->a0),
                    static_cast<unsigned long long>(r->a1));
    } else {
      std::snprintf(line, sizeof(line),
                    "  #%llu %-24s parent=#%llu t=[%llu..OPEN] a0=%llu a1=%llu\n",
                    static_cast<unsigned long long>(r->id), r->name,
                    static_cast<unsigned long long>(r->parent),
                    static_cast<unsigned long long>(r->start_ns),
                    static_cast<unsigned long long>(r->a0),
                    static_cast<unsigned long long>(r->a1));
    }
    out += line;
  }
  return out;
}

std::string Tracer::FlightDumpAll(size_t last_n) const {
  std::string out;
  for (const auto& [ring_id, ring] : rings_) {
    (void)ring;
    out += FlightDump(ring_id, last_n);
  }
  return out;
}

void Tracer::DumpToStderr(const std::string& reason,
                          const std::vector<uint32_t>& rings) {
  if (!enabled_) return;
  std::string dump;
  char hdr[192];
  std::snprintf(hdr, sizeof(hdr),
                "=== flight recorder (%s) @ sim t=%llu ns ===\n", reason.c_str(),
                static_cast<unsigned long long>(now()));
  dump += hdr;
  if (rings.empty()) {
    dump += FlightDumpAll(kFlightSpans);
  } else {
    for (uint32_t id : rings) dump += FlightDump(id, kFlightSpans);
  }
  dump += "=== end flight recorder ===\n";
  last_flight_dump_ = dump;
  std::fputs(dump.c_str(), stderr);
}

// --- fatal-failure hook ------------------------------------------------

namespace {
std::vector<Tracer*>& FatalTracers() {
  static std::vector<Tracer*> tracers;
  return tracers;
}
bool g_in_fatal_dump = false;
}  // namespace

void RegisterFatalDumpTracer(Tracer* t) {
  auto& v = FatalTracers();
  if (std::find(v.begin(), v.end(), t) == v.end()) v.push_back(t);
}

void UnregisterFatalDumpTracer(Tracer* t) {
  auto& v = FatalTracers();
  v.erase(std::remove(v.begin(), v.end(), t), v.end());
}

}  // namespace sherman::obs

namespace sherman {

// Declared in util/logging.h; runs just before a SHERMAN_CHECK abort.
void FatalDumpHook() {
  if (obs::g_in_fatal_dump) return;  // a CHECK inside the dump itself
  obs::g_in_fatal_dump = true;
  for (obs::Tracer* t : obs::FatalTracers()) {
    t->DumpToStderr("fatal check failure", {});
  }
  obs::g_in_fatal_dump = false;
}

}  // namespace sherman
