#include "vlog/vlog.h"

#include <cstring>
#include <utility>
#include <vector>

#include "alloc/layout.h"
#include "rdma/verbs.h"
#include "sanitizer/dmsan.h"
#include "util/logging.h"

namespace sherman {
namespace vlog {

uint32_t SizeClassFor(uint32_t record_bytes) {
  for (uint32_t c = 0; c < kNumClasses; c++) {
    if (record_bytes <= (kMinExtentBytes << c)) return c;
  }
  return kNumClasses;
}

VlogClient::VlogClient(rdma::Fabric* fabric, CsAllocator* allocator, int cs_id,
                       uint32_t segment_bytes)
    : fabric_(fabric),
      allocator_(allocator),
      cs_id_(cs_id),
      segment_bytes_(segment_bytes),
      appends_(fabric->registry().GetCounter("vlog.appends")),
      append_bytes_(fabric->registry().GetCounter("vlog.append_bytes")),
      reads_(fabric->registry().GetCounter("vlog.reads")),
      retires_(fabric->registry().GetCounter("vlog.retires")),
      segments_opened_(fabric->registry().GetCounter("vlog.segments_opened")),
      gc_passes_(fabric->registry().GetCounter("vlog.gc_passes")),
      gc_relocated_(fabric->registry().GetCounter("vlog.gc_relocated")),
      gc_stale_(fabric->registry().GetCounter("vlog.gc_stale")) {
  SHERMAN_CHECK(segment_bytes_ >= (kMinExtentBytes << (kNumClasses - 1)));
}

sim::Task<rdma::GlobalAddress> VlogClient::Open(uint32_t cls,
                                                OpStats* stats) {
  const rdma::GlobalAddress base = co_await allocator_->Alloc(segment_bytes_);
  if (base == rdma::kNullAddress) co_return base;
  co_await fabric_->qp(cs_id_, base.node)
      .Rpc(kRpcVlogRegister, base.offset,
           cls | (static_cast<uint64_t>(segment_bytes_) << 8));
  if (stats != nullptr) stats->round_trips++;
  segments_opened_->Inc();
  if (dmsan::Active()) {
    if (dmsan::Checker* c = dmsan::Find(&fabric_->simulator())) {
      c->OnVlogSegment(cs_id_, base, segment_bytes_, cls);
    }
  }
  co_return base;
}

sim::Task<void> VlogClient::OpenAhead(uint32_t cls) {
  OpenSegment& seg = open_[cls];
  seg.spare = co_await Open(cls, nullptr);  // null when memory ran out
  seg.opening = false;
}

sim::Task<StatusOr<uint64_t>> VlogClient::Reserve(const Slice& key,
                                                  const Slice& value,
                                                  uint8_t fp, OpStats* stats) {
  const uint32_t rec = RecordBytes(key, value);
  const uint32_t cls = SizeClassFor(rec);
  if (cls >= kNumClasses) {
    co_return Status::InvalidArgument("vlog: record exceeds largest class");
  }
  OpenSegment& seg = open_[cls];
  const uint32_t capacity = segment_bytes_ / (kMinExtentBytes << cls);
  while (seg.base == rdma::kNullAddress || seg.used == capacity) {
    if (seg.base != rdma::kNullAddress) {
      // Retire the full segment. Nothing hands out its extents again, so
      // its `used` is final and its seal is posted, not awaited.
      fabric_->qp(cs_id_, seg.base.node)
          .PostRpc(kRpcVlogSeal, seg.base.offset, seg.used);
      seg.base = rdma::kNullAddress;
    }
    if (seg.spare != rdma::kNullAddress) {
      seg.base = std::exchange(seg.spare, rdma::kNullAddress);
      seg.used = 0;
      break;
    }
    if (seg.opening) {
      // The next segment is on its way: wait for it, then re-check.
      co_await fabric_->simulator().Delay(200);
      continue;
    }
    // No spare coming: open the next segment in the foreground.
    seg.opening = true;
    const rdma::GlobalAddress fresh = co_await Open(cls, stats);
    seg.opening = false;
    if (fresh == rdma::kNullAddress) {
      co_return Status::OutOfMemory("vlog: no memory for a fresh segment");
    }
    seg.base = fresh;
    seg.used = 0;
  }
  const rdma::GlobalAddress addr =
      seg.base.Plus(static_cast<uint64_t>(seg.used) * (kMinExtentBytes << cls));
  seg.used++;
  // Once per segment, so a spare that found no memory is not retried
  // before the class's next segment.
  if (seg.used == (capacity * kOpenAheadEighths + 7) / 8) {
    seg.opening = true;
    sim::Spawn(OpenAhead(cls));
  }
  appends_->Inc();
  append_bytes_->Inc(rec);
  co_return VlogPtr::Pack(fp, static_cast<uint8_t>(cls), addr.node,
                          addr.offset);
}

sim::Task<void> VlogClient::Write(uint64_t ptr, Slice key, Slice value,
                                  OpStats* stats,
                                  sim::CountdownLatch* landed) {
  const uint32_t rec = RecordBytes(key, value);
  std::vector<uint8_t> buf(rec);
  const uint16_t klen = static_cast<uint16_t>(key.size());
  const uint16_t vlen = static_cast<uint16_t>(value.size());
  std::memcpy(buf.data(), &klen, 2);
  std::memcpy(buf.data() + 2, &vlen, 2);
  std::memcpy(buf.data() + kRecordHeader, key.data(), key.size());
  std::memcpy(buf.data() + kRecordHeader + key.size(), value.data(),
              value.size());

  const rdma::GlobalAddress addr = VlogPtr::Addr(ptr);
  dmsan::Checker* checker =
      dmsan::Active() ? dmsan::Find(&fabric_->simulator()) : nullptr;
  if (checker != nullptr) {
    checker->OnVlogAppend(cs_id_, addr, VlogPtr::ExtentBytes(ptr));
  }
  // protocol-ok: append into this client's private vlog extent
  const rdma::WorkRequest wr = rdma::WorkRequest::Write(addr, buf.data(), rec);
  rdma::RdmaResult w = co_await fabric_->qp(cs_id_, addr.node).Post(wr);
  SHERMAN_CHECK(w.status.ok());
  if (stats != nullptr) {
    stats->round_trips++;
    stats->bytes_written += rec;
  }
  if (checker != nullptr) checker->OnVlogPublish(addr);
  if (landed != nullptr) landed->Arrive();
}

sim::Task<Status> VlogClient::Read(uint64_t ptr, const Slice& expect_key,
                                   uint16_t vlen, std::string* value,
                                   OpStats* stats) {
  const uint32_t rec =
      kRecordHeader + static_cast<uint32_t>(expect_key.size()) + vlen;
  if (rec > VlogPtr::ExtentBytes(ptr)) {
    co_return Status::Corruption("vlog: record larger than its extent");
  }
  std::vector<uint8_t> buf(rec);
  const rdma::GlobalAddress addr = VlogPtr::Addr(ptr);
  rdma::RdmaResult r = co_await fabric_->qp(cs_id_, addr.node)
                           .Post(rdma::WorkRequest::Read(addr, buf.data(),
                                                         rec));
  SHERMAN_CHECK(r.status.ok());
  if (stats != nullptr) stats->round_trips++;
  uint16_t klen = 0, got_vlen = 0;
  std::memcpy(&klen, buf.data(), 2);
  std::memcpy(&got_vlen, buf.data() + 2, 2);
  if (klen != expect_key.size() || got_vlen != vlen) {
    co_return Status::Corruption("vlog: record header mismatch");
  }
  if (klen > 0 &&
      std::memcmp(buf.data() + kRecordHeader, expect_key.data(), klen) != 0) {
    co_return Status::Corruption("vlog: record key mismatch");
  }
  value->assign(reinterpret_cast<const char*>(buf.data()) + kRecordHeader +
                    klen,
                vlen);
  reads_->Inc();
  co_return Status::OK();
}

sim::Task<void> VlogClient::Retire(uint64_t ptr, OpStats* stats) {
  co_await fabric_->qp(cs_id_, VlogPtr::Ms(ptr))
      .Rpc(kRpcVlogRetire, VlogPtr::Off(ptr), 0);
  if (stats != nullptr) stats->round_trips++;
  retires_->Inc();
}

sim::Task<void> VlogClient::SealOpen(OpStats* stats) {
  for (uint32_t cls = 0; cls < kNumClasses; cls++) {
    OpenSegment& seg = open_[cls];
    if (seg.base == rdma::kNullAddress) continue;
    // Detached before the seal is sent: a reservation meanwhile takes the
    // spare or opens a segment, so `used` is final.
    const rdma::GlobalAddress base = std::exchange(seg.base,
                                                   rdma::kNullAddress);
    const uint32_t used = seg.used;
    co_await fabric_->qp(cs_id_, base.node).Rpc(kRpcVlogSeal, base.offset,
                                                 used);
    if (stats != nullptr) stats->round_trips++;
  }
}

}  // namespace vlog
}  // namespace sherman
