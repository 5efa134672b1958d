#include "rdma/memory_region.h"

#include <algorithm>
#include <cstring>

#include "util/logging.h"

namespace sherman::rdma {

// calloc serves a large block from fresh zero pages without writing them
// (glibc maps any block above its mmap threshold, at most 32 MB), so a
// page costs host memory only once the run touches it.
MemoryRegion::MemoryRegion(uint64_t size)
    : size_(size),
      data_(static_cast<uint8_t*>(std::calloc(size > 0 ? size : 1, 1))) {
  SHERMAN_CHECK_MSG(data_ != nullptr, "cannot allocate a %llu-byte region",
                    static_cast<unsigned long long>(size));
}

uint8_t* MemoryRegion::raw(uint64_t offset) {
  SHERMAN_CHECK_MSG(offset <= size_, "offset %llu beyond region size %llu",
                    static_cast<unsigned long long>(offset),
                    static_cast<unsigned long long>(size_));
  return data_.get() + offset;
}

const uint8_t* MemoryRegion::raw(uint64_t offset) const {
  SHERMAN_CHECK(offset <= size_);
  return data_.get() + offset;
}

uint64_t MemoryRegion::BeginRead(uint64_t offset, uint32_t len, uint8_t* dst,
                                 sim::SimTime start, sim::SimTime end) {
  SHERMAN_CHECK(offset + len <= size_);
  SHERMAN_CHECK(end >= start);
  std::memcpy(dst, data_.get() + offset, len);
  const uint64_t handle = next_handle_++;
  inflight_.push_back(InflightRead{handle, offset, len, dst, start, end});
  return handle;
}

void MemoryRegion::EndRead(uint64_t handle) {
  for (auto it = inflight_.begin(); it != inflight_.end(); ++it) {
    if (it->handle == handle) {
      inflight_.erase(it);
      return;
    }
  }
  SHERMAN_CHECK_MSG(false, "EndRead: unknown handle %llu",
                    static_cast<unsigned long long>(handle));
}

uint64_t MemoryRegion::Progress(const InflightRead& r, sim::SimTime now) {
  if (now <= r.start) return r.offset;
  if (now >= r.end) return r.offset + r.len;
  const double frac = static_cast<double>(now - r.start) /
                      static_cast<double>(r.end - r.start);
  return r.offset + static_cast<uint64_t>(frac * r.len);
}

void MemoryRegion::Write(sim::SimTime now, uint64_t offset, const uint8_t* src,
                         uint32_t len) {
  SHERMAN_CHECK(offset + len <= size_);
  std::memcpy(data_.get() + offset, src, len);
  // Patch the not-yet-transferred suffix of overlapping in-flight reads:
  // bytes below the DMA progress point were already transferred and keep
  // their old value in the reader's buffer.
  for (const InflightRead& r : inflight_) {
    const uint64_t overlap_begin =
        std::max({offset, r.offset, Progress(r, now)});
    const uint64_t overlap_end =
        std::min<uint64_t>(offset + len, r.offset + r.len);
    if (overlap_begin >= overlap_end) continue;
    std::memcpy(r.dst + (overlap_begin - r.offset), src + (overlap_begin - offset),
                overlap_end - overlap_begin);
  }
}

uint64_t MemoryRegion::Read64(uint64_t offset) const {
  SHERMAN_CHECK(offset + 8 <= size_);
  uint64_t v;
  std::memcpy(&v, data_.get() + offset, 8);
  return v;
}

void MemoryRegion::Write64(sim::SimTime now, uint64_t offset, uint64_t value) {
  uint8_t buf[8];
  std::memcpy(buf, &value, 8);
  Write(now, offset, buf, 8);
}

}  // namespace sherman::rdma
