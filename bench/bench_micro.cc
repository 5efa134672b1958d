// google-benchmark microbenchmarks for the hot in-process paths: node
// search/scan, entry writes, Zipfian generation, CRC32, histogram inserts,
// index cache probes. These are host-CPU costs (not simulated time) and
// back the cpu_*_ns constants in rdma/config.h.
#include <benchmark/benchmark.h>

#include <numeric>
#include <utility>
#include <vector>

#include "cache/index_cache.h"
#include "core/node_layout.h"
#include "util/crc32.h"
#include "util/histogram.h"
#include "util/random.h"

namespace sherman {
namespace {

void BM_UnsortedLeafScan(benchmark::State& state) {
  const TreeShape shape{static_cast<uint32_t>(state.range(0)), 8, 8};
  std::vector<uint8_t> buf(shape.node_size, 0);
  NodeView v(buf.data(), &shape);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  for (uint32_t i = 0; i < shape.leaf_capacity(); i++) {
    v.SetLeafEntry(i, 1000 + i * 2, i);
  }
  uint64_t probe = 1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(v.FindLeafSlot(probe));
    probe += 2;
    if (probe > 1000 + shape.leaf_capacity() * 2) probe = 1000;
  }
}
BENCHMARK(BM_UnsortedLeafScan)->Arg(256)->Arg(1024)->Arg(4096);

void BM_SortedLeafBinarySearch(benchmark::State& state) {
  const TreeShape shape{static_cast<uint32_t>(state.range(0)), 8, 8};
  std::vector<uint8_t> buf(shape.node_size, 0);
  NodeView v(buf.data(), &shape);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  for (uint32_t i = 0; i < shape.leaf_capacity(); i++) {
    v.SortedLeafInsert(1000 + i * 2, i);
  }
  uint64_t probe = 1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(v.SortedLeafFind(probe));
    probe += 2;
    if (probe > 1000 + shape.leaf_capacity() * 2) probe = 1000;
  }
}
BENCHMARK(BM_SortedLeafBinarySearch)->Arg(256)->Arg(1024)->Arg(4096);

void BM_InternalChildFor(benchmark::State& state) {
  const TreeShape shape{1024, 8, 8};
  std::vector<uint8_t> buf(shape.node_size, 0);
  NodeView v(buf.data(), &shape);
  v.InitInternal(1, 0, kMaxKey, rdma::kNullAddress, rdma::GlobalAddress(0, 64));
  for (uint32_t i = 0; i < shape.internal_capacity(); i++) {
    v.InternalInsert(100 + i * 10, rdma::GlobalAddress(0, 4096 + i));
  }
  Random rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(v.InternalChildFor(rng.Uniform(700)));
  }
}
BENCHMARK(BM_InternalChildFor);

void BM_LeafEntryWrite(benchmark::State& state) {
  const TreeShape shape{1024, 8, 8};
  std::vector<uint8_t> buf(shape.node_size, 0);
  NodeView v(buf.data(), &shape);
  v.InitLeaf(0, kMaxKey, rdma::kNullAddress);
  uint32_t i = 0;
  for (auto _ : state) {
    v.SetLeafEntry(i % shape.leaf_capacity(), i, i);
    i++;
  }
}
BENCHMARK(BM_LeafEntryWrite);

void BM_Crc32Node(benchmark::State& state) {
  std::vector<uint8_t> buf(static_cast<size_t>(state.range(0)), 0xa5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32Node)->Arg(256)->Arg(1024)->Arg(4096);

void BM_ZipfianNext(benchmark::State& state) {
  ZipfianGenerator z(1'000'000, 0.99);
  Random rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(z.Next(rng));
  }
}
BENCHMARK(BM_ZipfianNext);

void BM_ScrambledZipfianNext(benchmark::State& state) {
  ScrambledZipfianGenerator z(1'000'000, 0.99);
  Random rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(z.Next(rng));
  }
}
BENCHMARK(BM_ScrambledZipfianNext);

void BM_HistogramAdd(benchmark::State& state) {
  Histogram h;
  Random rng(4);
  for (auto _ : state) {
    h.Add(rng.Uniform(10'000'000));
  }
  benchmark::DoNotOptimize(h.P99());
}
BENCHMARK(BM_HistogramAdd);

// Type-① probes at uniform random keys over `range(0)` disjoint level-1
// nodes, inserted in random order as misses would fill the cache.
void BM_IndexCacheLookupLevel1(benchmark::State& state) {
  const uint64_t nodes = static_cast<uint64_t>(state.range(0));
  constexpr Key kWidth = 100;
  obs::Registry registry;
  IndexCache cache(nodes * 1024, 1024, 5, &registry);
  std::vector<uint64_t> order(nodes);
  std::iota(order.begin(), order.end(), 0);
  Random rng(5);
  for (uint64_t i = nodes - 1; i > 0; i--) {
    std::swap(order[i], order[rng.Uniform(i + 1)]);
  }
  for (uint64_t i : order) {
    ParsedInternal node;
    node.level = 1;
    node.lo = i * kWidth;
    node.hi = (i + 1) * kWidth;
    cache.Insert(node);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.LookupLevel1(rng.Uniform(nodes * kWidth)));
  }
}
BENCHMARK(BM_IndexCacheLookupLevel1)->Arg(2000)->Arg(100'000);

}  // namespace
}  // namespace sherman

BENCHMARK_MAIN();
