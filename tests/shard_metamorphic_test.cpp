// Metamorphic properties of the sharded engine's result cache and online
// update path:
//   * Caching is invisible in results: a batch answered with the cache on is
//     bit-identical to the cache-off run, and repeated / permuted /
//     duplicated batches are served from the cache without changing a bit.
//   * Updates restore exactness: an insert or erase through the engine
//     invalidates every affected cached cell, and the next batch matches the
//     exhaustive oracle over the mutated dataset exactly.
#include <algorithm>
#include <numeric>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/geometry.hpp"
#include "common/points.hpp"
#include "obs/registry.hpp"
#include "shard/sharded_engine.hpp"
#include "test_util.hpp"

namespace psb {
namespace {

std::vector<KnnHeap::Entry> oracle_knn(const PointSet& data, std::span<const Scalar> q,
                                       std::size_t k,
                                       const std::vector<std::uint8_t>* alive = nullptr) {
  std::size_t population = data.size();
  if (alive != nullptr) {
    population = static_cast<std::size_t>(std::count(alive->begin(), alive->end(), 1));
  }
  KnnHeap heap(std::min(k, population));
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (alive != nullptr && !(*alive)[i]) continue;
    heap.offer(distance(q, data[i]), static_cast<PointId>(i));
  }
  return heap.sorted();
}

void expect_bit_identical(const std::vector<KnnHeap::Entry>& got,
                          const std::vector<KnnHeap::Entry>& want, const char* label,
                          std::size_t query) {
  ASSERT_EQ(got.size(), want.size()) << label << " query " << query;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << label << " query " << query << " rank " << i;
    EXPECT_EQ(got[i].dist, want[i].dist) << label << " query " << query << " rank " << i;
  }
}

std::uint64_t counter_delta(const obs::Registry::Snapshot& before,
                            const obs::Registry::Snapshot& after, std::string_view name) {
  const auto find = [&](const obs::Registry::Snapshot& s) -> std::uint64_t {
    for (const auto& [n, v] : s.counters) {
      if (n == name) return v;
    }
    return 0;
  };
  return find(after) - find(before);
}

shard::ShardedEngineOptions cached_options(std::size_t cache_capacity) {
  shard::ShardedEngineOptions opts;
  opts.num_shards = 4;
  opts.engine.gpu.k = 8;
  opts.cache_capacity = cache_capacity;
  return opts;
}

TEST(ShardMetamorphicTest, CacheOnEqualsCacheOff) {
  const PointSet data = test::small_clustered(3, 400, 42);
  const PointSet queries = test::random_queries(3, 24, 43);
  shard::ShardedEngine cached(data, cached_options(64));
  shard::ShardedEngine uncached(data, cached_options(0));
  const knn::BatchResult with_cache = cached.run(queries);
  const knn::BatchResult without = uncached.run(queries);
  ASSERT_EQ(with_cache.queries.size(), without.queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    expect_bit_identical(with_cache.queries[q].neighbors, without.queries[q].neighbors,
                         "cache-on vs cache-off", q);
  }
}

TEST(ShardMetamorphicTest, RepeatedBatchIsServedFromCache) {
  const PointSet data = test::small_clustered(3, 300, 7);
  const PointSet queries = test::random_queries(3, 16, 8);
  shard::ShardedEngine eng(data, cached_options(64));

  const knn::BatchResult first = eng.run(queries);
  const obs::Registry::Snapshot before = obs::Registry::global().snapshot();
  const knn::BatchResult second = eng.run(queries);
  const obs::Registry::Snapshot after = obs::Registry::global().snapshot();

  EXPECT_EQ(counter_delta(before, after, "engine.shard.cache_hits"), queries.size());
  EXPECT_EQ(counter_delta(before, after, "engine.shard.cache_misses"), 0u);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    expect_bit_identical(second.queries[q].neighbors, first.queries[q].neighbors,
                         "repeat batch", q);
  }
}

TEST(ShardMetamorphicTest, PermutedBatchIsServedFromCacheUnchanged) {
  const PointSet data = test::small_clustered(4, 300, 17);
  const PointSet queries = test::random_queries(4, 20, 18);
  shard::ShardedEngine eng(data, cached_options(64));
  const knn::BatchResult first = eng.run(queries);

  // Reversed order: every query is already cached; answers must be the same
  // entries, permuted.
  PointSet reversed(queries.dims());
  for (std::size_t q = queries.size(); q-- > 0;) reversed.append(queries[q]);
  const obs::Registry::Snapshot before = obs::Registry::global().snapshot();
  const knn::BatchResult second = eng.run(reversed);
  const obs::Registry::Snapshot after = obs::Registry::global().snapshot();

  EXPECT_EQ(counter_delta(before, after, "engine.shard.cache_hits"), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    expect_bit_identical(second.queries[q].neighbors,
                         first.queries[queries.size() - 1 - q].neighbors, "permuted batch", q);
  }
}

TEST(ShardMetamorphicTest, DuplicateQueriesWithinOneBatchHitTheCache) {
  const PointSet data = test::small_clustered(2, 200, 31);
  const PointSet unique = test::random_queries(2, 10, 32);
  PointSet doubled(unique.dims());
  for (std::size_t q = 0; q < unique.size(); ++q) doubled.append(unique[q]);
  for (std::size_t q = 0; q < unique.size(); ++q) doubled.append(unique[q]);

  shard::ShardedEngine eng(data, cached_options(64));
  const obs::Registry::Snapshot before = obs::Registry::global().snapshot();
  const knn::BatchResult res = eng.run(doubled);
  const obs::Registry::Snapshot after = obs::Registry::global().snapshot();

  EXPECT_EQ(counter_delta(before, after, "engine.shard.cache_misses"), unique.size());
  EXPECT_EQ(counter_delta(before, after, "engine.shard.cache_hits"), unique.size());
  for (std::size_t q = 0; q < unique.size(); ++q) {
    expect_bit_identical(res.queries[unique.size() + q].neighbors, res.queries[q].neighbors,
                         "duplicate within batch", q);
  }
}

TEST(ShardMetamorphicTest, InsertInvalidatesAffectedCellsAndRestoresExactness) {
  PointSet data = test::small_clustered(3, 256, 55);
  const PointSet queries = test::random_queries(3, 12, 56);
  shard::ShardedEngine eng(data, cached_options(64));
  (void)eng.run(queries);  // warm the cache

  // Insert a point exactly at query 0: distance zero, so it must displace
  // query 0's cached answer (and any neighbor cell it lands in).
  const std::vector<Scalar> p(queries[0].begin(), queries[0].end());
  const obs::Registry::Snapshot before = obs::Registry::global().snapshot();
  const PointId new_id = eng.insert(p);
  const obs::Registry::Snapshot after = obs::Registry::global().snapshot();
  EXPECT_EQ(new_id, data.size());
  EXPECT_GE(counter_delta(before, after, "engine.shard.cache_invalidated"), 1u);

  data.append(p);  // mirror the mutation in the oracle's dataset
  const knn::BatchResult res = eng.run(queries);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    expect_bit_identical(res.queries[q].neighbors,
                         oracle_knn(data, queries[q], eng.options().engine.gpu.k),
                         "post-insert", q);
  }
  EXPECT_EQ(res.queries[0].neighbors.front().id, new_id);
  EXPECT_EQ(res.queries[0].neighbors.front().dist, 0.0F);
}

TEST(ShardMetamorphicTest, EraseInvalidatesContainingEntriesAndRestoresExactness) {
  PointSet data = test::small_clustered(3, 256, 71);
  const PointSet queries = test::random_queries(3, 12, 72);
  shard::ShardedEngine eng(data, cached_options(64));
  const knn::BatchResult warm = eng.run(queries);

  // Erase query 0's current nearest neighbor: its cached entry must drop and
  // the fresh answer must match the oracle over the surviving points.
  const PointId victim = warm.queries[0].neighbors.front().id;
  const obs::Registry::Snapshot before = obs::Registry::global().snapshot();
  ASSERT_TRUE(eng.erase(victim));
  const obs::Registry::Snapshot after = obs::Registry::global().snapshot();
  EXPECT_GE(counter_delta(before, after, "engine.shard.cache_invalidated"), 1u);
  EXPECT_FALSE(eng.erase(victim)) << "double erase must report false";

  std::vector<std::uint8_t> alive(data.size(), 1);
  alive[victim] = 0;
  const knn::BatchResult res = eng.run(queries);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    expect_bit_identical(res.queries[q].neighbors,
                         oracle_knn(data, queries[q], eng.options().engine.gpu.k, &alive),
                         "post-erase", q);
    for (const KnnHeap::Entry& e : res.queries[q].neighbors) EXPECT_NE(e.id, victim);
  }
}

TEST(ShardMetamorphicTest, UpdateChurnStaysExactAcrossShardCounts) {
  // Interleave inserts, erases and batches; every batch must match the
  // oracle over the current alive set — with and without the cache, and on
  // the single-shard configuration (whose delegate drops after the first
  // erase).
  for (const std::size_t shards : {1u, 4u, 13u}) {
    for (const std::size_t cache : {0u, 32u}) {
      PointSet data = test::small_clustered(2, 120, 90 + shards);
      shard::ShardedEngineOptions opts = cached_options(cache);
      opts.num_shards = shards;
      opts.engine.gpu.k = 5;
      shard::ShardedEngine eng(data, opts);
      std::vector<std::uint8_t> alive(data.size(), 1);
      Rng rng(1000 + shards * 10 + cache);
      const PointSet queries = test::random_queries(2, 6, 91);

      for (int round = 0; round < 4; ++round) {
        // Two random erases (ignoring already-dead ids) and one insert.
        for (int e = 0; e < 2; ++e) {
          const PointId id = static_cast<PointId>(rng.next_below(alive.size()));
          EXPECT_EQ(eng.erase(id), alive[id] == 1);
          alive[id] = 0;
        }
        std::vector<Scalar> p(2);
        for (auto& v : p) v = static_cast<Scalar>(rng.uniform(0.0, 1000.0));
        const PointId id = eng.insert(p);
        EXPECT_EQ(id, data.size());
        data.append(p);
        alive.push_back(1);

        const knn::BatchResult res = eng.run(queries);
        for (std::size_t q = 0; q < queries.size(); ++q) {
          expect_bit_identical(res.queries[q].neighbors,
                               oracle_knn(data, queries[q], opts.engine.gpu.k, &alive),
                               "churn round", q);
        }
      }
    }
  }
}

TEST(ShardMetamorphicTest, DrainedEngineRefillsExactly) {
  // Churn a two-shard engine, erase every point (each shard's last erase
  // drops its tree and its writer), then refill. The first refill insert
  // compacts shard 0 and rebuilds its tree; every later write goes through
  // that tree's new writer. The refill outgrows shard 0's old row count, so
  // a writer kept from the dropped tree would meet its own stale point map.
  // After every write batch the answers equal the oracle over the live
  // points and every shard tree validates.
  PointSet data = test::small_clustered(3, 240, 77);
  shard::ShardedEngineOptions opts = cached_options(0);
  opts.num_shards = 2;
  opts.degree = 4;
  shard::ShardedEngine eng(data, opts);
  std::vector<std::uint8_t> alive(data.size(), 1);
  Rng rng(78);
  const PointSet queries = test::random_queries(3, 8, 79);

  const auto check = [&](const char* label) {
    const knn::BatchResult res = eng.run(queries);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      if (eng.size() == 0) {
        EXPECT_TRUE(res.queries[q].neighbors.empty()) << label;
        continue;
      }
      expect_bit_identical(res.queries[q].neighbors,
                           oracle_knn(data, queries[q], opts.engine.gpu.k, &alive), label, q);
    }
    for (std::size_t s = 0; s < eng.num_shards(); ++s) {
      if (eng.shard_tree(s) != nullptr) eng.shard_tree(s)->validate(/*require_complete=*/false);
    }
  };
  const auto insert_random = [&] {
    std::vector<Scalar> p(3);
    for (auto& v : p) v = static_cast<Scalar>(rng.uniform(0.0, 1000.0));
    EXPECT_EQ(eng.insert(p), data.size());
    data.append(p);
    alive.push_back(1);
  };
  const auto erase_random = [&] {
    const PointId id = static_cast<PointId>(rng.next_below(alive.size()));
    EXPECT_EQ(eng.erase(id), alive[id] == 1);
    alive[id] = 0;
  };

  for (int batch = 0; batch < 10; ++batch) {
    for (int w = 0; w < 4; ++w) rng.next_below(2) == 0 ? insert_random() : erase_random();
    check("churn");
  }
  for (PointId id = 0; id < alive.size(); ++id) {
    if (!alive[id]) continue;
    ASSERT_TRUE(eng.erase(id));
    alive[id] = 0;
    if (id % 16 == 0) check("drain");
  }
  ASSERT_EQ(eng.size(), 0u);
  check("drained");
  for (int batch = 0; batch < 40; ++batch) {
    for (int w = 0; w < 5; ++w) insert_random();
    if (batch % 2 == 1) erase_random();
    check("refill");
  }
  EXPECT_GT(eng.shard_size(0), 150u);
}

}  // namespace
}  // namespace psb
