// Property-based correctness battery for the sharded scatter-gather engine.
//
// Each seeded trial draws a random configuration — dimensionality, k, shard
// count, dataset shape (including duplicate-heavy sets, k larger than any
// shard, and more shards than points so trailing shards are empty) — and
// asserts the sharded merge is *bit-identical* to the exhaustive (dist, id)
// oracle: same ids, same float distances, same order. Every kernel computes
// point distances with the same double-accumulate arithmetic as
// psb::distance, so exact equality is the contract, not an approximation.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/geometry.hpp"
#include "common/points.hpp"
#include "common/rng.hpp"
#include "engine/batch_engine.hpp"
#include "shard/partition.hpp"
#include "shard/sharded_engine.hpp"
#include "test_util.hpp"

namespace psb {
namespace {

/// Exhaustive ground truth under the repository's (dist, id) tie order.
std::vector<KnnHeap::Entry> oracle_knn(const PointSet& data, std::span<const Scalar> q,
                                       std::size_t k) {
  KnnHeap heap(std::min(k, data.size()));
  for (std::size_t i = 0; i < data.size(); ++i) {
    heap.offer(distance(q, data[i]), static_cast<PointId>(i));
  }
  return heap.sorted();
}

void expect_bit_identical(const std::vector<KnnHeap::Entry>& got,
                          const std::vector<KnnHeap::Entry>& want, std::uint64_t trial,
                          std::size_t query) {
  ASSERT_EQ(got.size(), want.size()) << "trial " << trial << " query " << query;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id)
        << "trial " << trial << " query " << query << " rank " << i;
    EXPECT_EQ(got[i].dist, want[i].dist)  // exact float equality, not NEAR
        << "trial " << trial << " query " << query << " rank " << i;
  }
}

/// Random dataset mixing three shapes: clustered, uniform, and duplicate-heavy
/// (every point drawn from a tiny palette, so distance ties are everywhere).
PointSet random_dataset(Rng& rng, std::size_t dims, std::size_t n) {
  const std::uint64_t shape = rng.next_below(3);
  PointSet out(dims);
  out.reserve(n);
  std::vector<Scalar> p(dims);
  if (shape == 2) {
    // Duplicate-heavy: a palette of at most 5 distinct points.
    const std::size_t palette_size = 1 + rng.next_below(5);
    std::vector<std::vector<Scalar>> palette(palette_size, std::vector<Scalar>(dims));
    for (auto& pal : palette) {
      for (auto& v : pal) v = static_cast<Scalar>(rng.uniform(0.0, 100.0));
    }
    for (std::size_t i = 0; i < n; ++i) out.append(palette[rng.next_below(palette_size)]);
    return out;
  }
  const double extent = shape == 0 ? 1000.0 : 50.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (auto& v : p) v = static_cast<Scalar>(rng.uniform(0.0, extent));
    out.append(p);
  }
  return out;
}

constexpr engine::Algorithm kAlgorithms[] = {
    engine::Algorithm::kPsb,           engine::Algorithm::kBestFirst,
    engine::Algorithm::kBranchAndBound, engine::Algorithm::kStacklessRestart,
    engine::Algorithm::kStacklessSkip,  engine::Algorithm::kBruteForce,
    engine::Algorithm::kTaskParallel,
};

void run_trial(std::uint64_t trial, bool with_bound_sharing) {
  Rng rng(0x5AD5u * 1000003u + trial);
  const std::size_t dims = 1 + rng.next_below(8);          // 1..8
  const std::size_t n = 1 + rng.next_below(240);           // 1..240
  const PointSet data = random_dataset(rng, dims, n);

  shard::ShardedEngineOptions opts;
  // Shard counts past n leave trailing shards empty; small shards with large
  // k exercise k > points-per-shard merges.
  opts.num_shards = 1 + rng.next_below(n + 2);
  opts.degree = 4 + rng.next_below(29);                    // 4..32
  opts.engine.algorithm = kAlgorithms[trial % std::size(kAlgorithms)];
  opts.engine.gpu.k = 1 + rng.next_below(n + 4);           // may exceed n
  opts.engine.layout =
      rng.next_below(2) == 1 ? engine::NodeLayout::kSnapshot : engine::NodeLayout::kPointer;
  opts.share_bounds = with_bound_sharing;
  shard::ShardedEngine eng(data, opts);

  PointSet queries(dims);
  std::vector<Scalar> p(dims);
  const std::size_t nq = 1 + rng.next_below(4);
  for (std::size_t i = 0; i < nq; ++i) {
    if (rng.next_below(3) == 0 && !data.empty()) {
      // On-point queries maximize exact distance ties.
      const std::span<const Scalar> src = data[rng.next_below(n)];
      queries.append(src);
    } else {
      for (auto& v : p) v = static_cast<Scalar>(rng.uniform(-50.0, 1050.0));
      queries.append(p);
    }
  }

  const knn::BatchResult res = eng.run(queries);
  ASSERT_EQ(res.queries.size(), queries.size());
  EXPECT_TRUE(res.all_ok()) << "trial " << trial;
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    expect_bit_identical(res.queries[qi].neighbors,
                         oracle_knn(data, queries[qi], opts.engine.gpu.k), trial, qi);
  }
}

TEST(ShardPropertyTest, TwoHundredSeededTrialsWithBoundSharing) {
  for (std::uint64_t trial = 0; trial < 140; ++trial) run_trial(trial, true);
}

TEST(ShardPropertyTest, SeededTrialsWithoutBoundSharing) {
  // The nobound configuration must be just as exact — it only reads more.
  for (std::uint64_t trial = 140; trial < 210; ++trial) run_trial(trial, false);
}

TEST(ShardPropertyTest, PartitionIsBalancedAndOrderPreserving) {
  Rng rng(77);
  for (std::uint64_t trial = 0; trial < 32; ++trial) {
    const std::size_t dims = 1 + rng.next_below(10);
    const std::size_t n = rng.next_below(300);
    PointSet data(dims);
    std::vector<Scalar> p(dims);
    for (std::size_t i = 0; i < n; ++i) {
      for (auto& v : p) v = static_cast<Scalar>(rng.uniform(0.0, 512.0));
      data.append(p);
    }
    const std::size_t shards = 1 + rng.next_below(17);
    const shard::Partition part = shard::hilbert_partition(data, shards);
    ASSERT_EQ(part.shards.size(), shards);
    std::vector<std::uint8_t> seen(n, 0);
    const std::size_t base = n / shards;
    for (const auto& ids : part.shards) {
      EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
      EXPECT_GE(ids.size(), base);      // balanced to within one point
      EXPECT_LE(ids.size(), base + 1);
      for (const PointId id : ids) {
        ASSERT_LT(id, n);
        EXPECT_EQ(seen[id], 0) << "id assigned twice";
        seen[id] = 1;
      }
    }
    EXPECT_EQ(std::count(seen.begin(), seen.end(), 0), 0) << "unassigned id";
  }
}

TEST(ShardPropertyTest, SingleShardIsIdentityPartition) {
  const PointSet data = test::small_clustered(4, 64, 9);
  const shard::Partition part = shard::hilbert_partition(data, 1);
  ASSERT_EQ(part.shards.size(), 1u);
  ASSERT_EQ(part.shards[0].size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) EXPECT_EQ(part.shards[0][i], i);
}

TEST(ShardPropertyTest, EmptyShardsAreServedExactly) {
  // 3 points across 13 shards: 10 shards empty, every k answered exactly.
  PointSet data(2);
  for (Scalar v : {1.0F, 2.0F, 3.0F}) {
    const std::vector<Scalar> p = {v, v};
    data.append(p);
  }
  for (std::size_t k : {1u, 2u, 3u, 8u}) {
    shard::ShardedEngineOptions opts;
    opts.num_shards = 13;
    opts.engine.gpu.k = k;
    shard::ShardedEngine eng(data, opts);
    const PointSet queries = test::random_queries(2, 5, 123, 4.0);
    const knn::BatchResult res = eng.run(queries);
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      expect_bit_identical(res.queries[qi].neighbors, oracle_knn(data, queries[qi], k), k, qi);
    }
  }
}

}  // namespace
}  // namespace psb
