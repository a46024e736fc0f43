// Host-side microbenchmarks (google-benchmark) for the hot kernels the
// simulator executes functionally: distance evaluation, Hilbert encoding,
// radix sorting, and bounding-sphere construction. These quantify the real
// cost of running the reproduction, independent of the simulated-GPU cost
// model.
#include <benchmark/benchmark.h>

#include "common/geometry.hpp"
#include "data/synthetic.hpp"
#include "hilbert/hilbert.hpp"
#include "mbs/ritter.hpp"
#include "mbs/welzl.hpp"
#include "cluster/kmeans.hpp"
#include "knn/psb.hpp"
#include "simt/sort.hpp"
#include "sstree/builders.hpp"

namespace {

using namespace psb;

PointSet dataset(std::size_t dims, std::size_t n) {
  data::ClusteredSpec spec;
  spec.dims = dims;
  spec.num_clusters = 16;
  spec.points_per_cluster = n / 16;
  return data::make_clustered(spec);
}

void BM_DistanceSq(benchmark::State& state) {
  const auto dims = static_cast<std::size_t>(state.range(0));
  const PointSet ps = dataset(dims, 1024);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(distance_sq(ps[i % 1000], ps[(i + 500) % 1000]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_DistanceSq)->Arg(2)->Arg(16)->Arg(64);

void BM_HilbertEncode(benchmark::State& state) {
  const auto dims = static_cast<std::size_t>(state.range(0));
  const PointSet ps = dataset(dims, 1024);
  const hilbert::Encoder enc(dims, 16);
  const Rect bounds = hilbert::bounding_rect(ps);
  std::vector<std::uint64_t> key(enc.words_per_key());
  std::size_t i = 0;
  for (auto _ : state) {
    enc.encode_point(ps[i % ps.size()], bounds, key);
    benchmark::DoNotOptimize(key.data());
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_HilbertEncode)->Arg(2)->Arg(16)->Arg(64);

// The bulk path the builders, the shard partitioner and the query reorder
// take: one encode_all over a 30k-point set (allknn-join's size).
void BM_HilbertEncodeAll(benchmark::State& state) {
  const auto dims = static_cast<std::size_t>(state.range(0));
  const PointSet ps = dataset(dims, 30000);
  const hilbert::Encoder enc(dims, 16);
  for (auto _ : state) {
    const std::vector<std::uint64_t> keys = enc.encode_all(ps);
    benchmark::DoNotOptimize(keys.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(ps.size()));
}
BENCHMARK(BM_HilbertEncodeAll)->Arg(4);

void BM_RadixSort(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const PointSet ps = dataset(8, n);
  const hilbert::Encoder enc(8, 16);
  const auto keys = enc.encode_all(ps);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simt::radix_sort_order(keys, enc.words_per_key(), nullptr));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * static_cast<int64_t>(n));
}
BENCHMARK(BM_RadixSort)->Arg(1 << 12)->Arg(1 << 15);

void BM_RitterPoints(benchmark::State& state) {
  const auto dims = static_cast<std::size_t>(state.range(0));
  const PointSet ps = dataset(dims, 4096);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mbs::ritter_points(ps));
  }
}
BENCHMARK(BM_RitterPoints)->Arg(4)->Arg(64);

void BM_WelzlExact(benchmark::State& state) {
  const PointSet ps = dataset(3, 512);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mbs::welzl(ps));
  }
}
BENCHMARK(BM_WelzlExact);

void BM_KMeansBuild(benchmark::State& state) {
  const auto dims = static_cast<std::size_t>(state.range(0));
  const PointSet ps = dataset(dims, 1 << 14);
  for (auto _ : state) {
    cluster::KMeansOptions opts;
    opts.k = 64;
    benchmark::DoNotOptimize(cluster::kmeans(ps, opts));
  }
}
BENCHMARK(BM_KMeansBuild)->Arg(4)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_SsTreeBuildHilbert(benchmark::State& state) {
  const auto dims = static_cast<std::size_t>(state.range(0));
  const PointSet ps = dataset(dims, 1 << 14);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sstree::build_hilbert(ps, 128));
  }
}
BENCHMARK(BM_SsTreeBuildHilbert)->Arg(4)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_PsbQueryHost(benchmark::State& state) {
  // Host-side cost of simulating one PSB query (the simulator's own speed).
  const auto dims = static_cast<std::size_t>(state.range(0));
  const PointSet ps = dataset(dims, 1 << 15);
  const sstree::SSTree tree = sstree::build_kmeans(ps, 128).tree;
  knn::GpuKnnOptions opts;
  opts.k = 32;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(knn::psb_query(tree, ps[(i * 977) % ps.size()], opts, nullptr));
    ++i;
  }
}
BENCHMARK(BM_PsbQueryHost)->Arg(4)->Arg(64)->Unit(benchmark::kMicrosecond);

}  // namespace
