// Unit tests for the two-stage disaggregated memory allocator (§4.2.4).
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "alloc/chunk_manager.h"
#include "alloc/cs_allocator.h"
#include "rdma/fabric.h"
#include "sim/task.h"

namespace sherman {
namespace {

rdma::FabricConfig SmallConfig(int ms = 2, uint64_t bytes = 32ull << 20) {
  rdma::FabricConfig f;
  f.num_memory_servers = ms;
  f.num_compute_servers = 1;
  f.ms_memory_bytes = bytes;
  return f;
}

TEST(ChunkManagerTest, AllocatesDistinctAlignedChunks) {
  rdma::Fabric fabric(SmallConfig());
  ChunkManager mgr(&fabric.ms(0), &fabric.registry());
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < mgr.total_chunks(); i++) {
    const uint64_t off = mgr.AllocChunk();
    ASSERT_NE(off, 0u);
    EXPECT_GE(off, kChunkAreaOffset);
    EXPECT_EQ((off - kChunkAreaOffset) % kChunkSize, 0u);
    EXPECT_TRUE(seen.insert(off).second) << "duplicate chunk " << off;
  }
  EXPECT_EQ(mgr.AllocChunk(), 0u);  // exhausted
}

TEST(ChunkManagerTest, FreeEnablesReuse) {
  rdma::Fabric fabric(SmallConfig());
  ChunkManager mgr(&fabric.ms(0), &fabric.registry());
  const uint64_t a = mgr.AllocChunk();
  const uint64_t before = mgr.allocated_chunks();
  mgr.FreeChunk(a);
  EXPECT_EQ(mgr.allocated_chunks(), before - 1);
  // Drain everything; the freed chunk must come back eventually.
  std::set<uint64_t> seen;
  uint64_t off;
  while ((off = mgr.AllocChunk()) != 0) seen.insert(off);
  EXPECT_TRUE(seen.count(a));
}

TEST(ChunkManagerTest, ServesAllocRpc) {
  rdma::Fabric fabric(SmallConfig());
  ChunkManager mgr(&fabric.ms(1), &fabric.registry());
  uint64_t got = 0;
  sim::Spawn([](rdma::Fabric* f, uint64_t* out) -> sim::Task<void> {
    *out = co_await f->qp(0, 1).Rpc(kRpcAllocChunk, 0);
  }(&fabric, &got));
  fabric.simulator().Run();
  EXPECT_GE(got, kChunkAreaOffset);
  EXPECT_EQ(mgr.allocated_chunks(), 1u);
}

class CsAllocatorTest : public ::testing::Test {
 protected:
  CsAllocatorTest() : fabric_(SmallConfig()) {
    for (int i = 0; i < fabric_.num_memory_servers(); i++) {
      mgrs_.push_back(std::make_unique<ChunkManager>(&fabric_.ms(i),
                                                     &fabric_.registry()));
    }
  }

  rdma::Fabric fabric_;
  std::vector<std::unique_ptr<ChunkManager>> mgrs_;
};

TEST_F(CsAllocatorTest, BumpAllocationWithinChunk) {
  CsAllocator alloc(&fabric_, 0);
  std::vector<rdma::GlobalAddress> got(3);
  sim::Spawn([](CsAllocator* a,
                std::vector<rdma::GlobalAddress>* out) -> sim::Task<void> {
    for (auto& slot : *out) slot = co_await a->Alloc(1024);
  }(&alloc, &got));
  fabric_.simulator().Run();
  // One RPC for the chunk; then local bumps 1 KB apart.
  EXPECT_EQ(alloc.chunk_rpcs(), 1u);
  EXPECT_FALSE(got[0].is_null());
  EXPECT_EQ(got[1].offset, got[0].offset + 1024);
  EXPECT_EQ(got[2].offset, got[1].offset + 1024);
  EXPECT_EQ(got[0].node, got[1].node);
}

TEST_F(CsAllocatorTest, FreeListReusesSameSize) {
  CsAllocator alloc(&fabric_, 0);
  rdma::GlobalAddress first;
  rdma::GlobalAddress second;
  sim::Spawn([](CsAllocator* a, rdma::GlobalAddress* f1,
                rdma::GlobalAddress* f2) -> sim::Task<void> {
    *f1 = co_await a->Alloc(512);
    a->Free(*f1, 512);
    *f2 = co_await a->Alloc(512);  // reuse
    const rdma::GlobalAddress other = co_await a->Alloc(1024);
    EXPECT_NE(other, *f1);  // different size bin untouched
  }(&alloc, &first, &second));
  fabric_.simulator().Run();
  EXPECT_EQ(first, second);
}

TEST_F(CsAllocatorTest, MovesToNextMsWhenChunkExhausted) {
  CsAllocator alloc(&fabric_, 0);
  std::set<uint16_t> nodes;
  sim::Spawn([](CsAllocator* a, std::set<uint16_t>* ns) -> sim::Task<void> {
    // Allocate more than one chunk's worth of nodes.
    const uint64_t per_chunk = kChunkSize / 4096;
    for (uint64_t i = 0; i < per_chunk + 2; i++) {
      const rdma::GlobalAddress addr = co_await a->Alloc(4096);
      EXPECT_FALSE(addr.is_null());
      ns->insert(addr.node);
    }
  }(&alloc, &nodes));
  fabric_.simulator().Run();
  EXPECT_GE(alloc.chunk_rpcs(), 2u);
  EXPECT_EQ(nodes.size(), 2u);  // round-robin hit both MSs
}

TEST_F(CsAllocatorTest, ReturnsNullWhenEverythingExhausted) {
  // Tiny memory: kChunkAreaOffset + 1.5 chunks -> 1 chunk per MS.
  rdma::Fabric fabric(SmallConfig(1, kChunkAreaOffset + kChunkSize * 3 / 2));
  ChunkManager mgr(&fabric.ms(0), &fabric.registry());
  CsAllocator alloc(&fabric, 0);
  bool exhausted = false;
  sim::Spawn([](CsAllocator* a, bool* out) -> sim::Task<void> {
    while (true) {
      const rdma::GlobalAddress addr = co_await a->Alloc(kChunkSize);
      if (addr.is_null()) {
        *out = true;
        co_return;
      }
    }
  }(&alloc, &exhausted));
  fabric.simulator().Run();
  EXPECT_TRUE(exhausted);
}

TEST_F(CsAllocatorTest, ConcurrentAllocationsAreDistinct) {
  CsAllocator alloc(&fabric_, 0);
  std::vector<rdma::GlobalAddress> got(40);
  for (int i = 0; i < 40; i++) {
    sim::Spawn([](CsAllocator* a, rdma::GlobalAddress* out) -> sim::Task<void> {
      *out = co_await a->Alloc(1024);
    }(&alloc, &got[i]));
  }
  fabric_.simulator().Run();
  std::set<uint64_t> unique;
  for (const auto& a : got) {
    ASSERT_FALSE(a.is_null());
    EXPECT_TRUE(unique.insert(a.ToU64()).second);
  }
}

}  // namespace
}  // namespace sherman
