#include "vlog/vlog.h"

#include <cstring>
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

sim::Task<Status> VlogClient::Rotate(uint32_t cls, OpStats* stats) {
  // Caller (Reserve) set `rotating` before the first await, so no other
  // coroutine can hand out slots or start a second rotation of this class
  // while the seal below is in flight — `used` is final when it's read.
  OpenSegment& seg = open_[cls];
  if (seg.base != rdma::kNullAddress) {
    // Seal the exhausted segment so the MS knows its final extent count
    // (GC victim selection only considers sealed segments).
    co_await fabric_->qp(cs_id_, seg.base.node)
        .Rpc(kRpcVlogSeal, seg.base.offset, seg.used);
    if (stats != nullptr) stats->round_trips++;
  }
  rdma::GlobalAddress base = co_await allocator_->Alloc(segment_bytes_);
  if (base == rdma::kNullAddress) {
    seg.base = rdma::kNullAddress;  // the old segment is sealed either way
    co_return Status::OutOfMemory("vlog: no memory for a fresh segment");
  }
  co_await fabric_->qp(cs_id_, base.node)
      .Rpc(kRpcVlogRegister, base.offset,
           cls | (static_cast<uint64_t>(segment_bytes_) << 8));
  if (stats != nullptr) stats->round_trips++;
  seg.base = base;
  seg.used = 0;
  seg.capacity = segment_bytes_ / (kMinExtentBytes << cls);
  segments_opened_->Inc();
  if (dmsan::Active()) {
    if (dmsan::Checker* c = dmsan::Find(&fabric_->simulator())) {
      c->OnVlogSegment(cs_id_, base, segment_bytes_, cls);
    }
  }
  co_return Status::OK();
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
  for (;;) {
    if (seg.rotating) {
      // Another coroutine of this client is mid-rotation: wait it out,
      // then re-check — the fresh segment usually has room.
      co_await fabric_->simulator().Delay(200);
      continue;
    }
    if (seg.base != rdma::kNullAddress && seg.used < seg.capacity) break;
    seg.rotating = true;  // set BEFORE the first await: serializes slot
                          // hand-out and rotation per class
    Status st = co_await Rotate(cls, stats);
    seg.rotating = false;
    if (!st.ok()) co_return st;
  }
  const rdma::GlobalAddress addr =
      seg.base.Plus(static_cast<uint64_t>(seg.used) * (kMinExtentBytes << cls));
  seg.used++;
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
    // Serialize against Reserve: a slot handed out while the seal RPC is
    // in flight would land beyond the sealed `used` — an invisible live
    // extent the MS would count as drained.
    while (seg.rotating) co_await fabric_->simulator().Delay(200);
    if (seg.base == rdma::kNullAddress) continue;
    seg.rotating = true;
    co_await fabric_->qp(cs_id_, seg.base.node)
        .Rpc(kRpcVlogSeal, seg.base.offset, seg.used);
    if (stats != nullptr) stats->round_trips++;
    seg.base = rdma::kNullAddress;
    seg.used = 0;
    seg.capacity = 0;
    seg.rotating = false;
  }
}

}  // namespace vlog
}  // namespace sherman
