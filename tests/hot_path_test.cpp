// Equivalence tests for the host hot path: the fused leaf kernel
// (SharedKnnList::scan_leaf), the replace-top KnnHeap and the skipped
// MINMAXDIST selection must keep exactly the answers, pruning distances and
// modeled charges of the straightforward forms they replace. Also the query,
// join-target, dataset and insert entry points' rejection of non-finite
// coordinates, which the exact early reject and the shard spheres rely on.
#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "engine/batch_engine.hpp"
#include "join/join_engine.hpp"
#include "knn/detail/traversal_common.hpp"
#include "knn/shared_heap.hpp"
#include "obs/registry.hpp"
#include "serve/streaming_engine.hpp"
#include "shard/sharded_engine.hpp"
#include "sstree/builders.hpp"
#include "test_util.hpp"

namespace psb {
namespace {

void expect_metrics_equal(const simt::Metrics& a, const simt::Metrics& b,
                          const std::string& label) {
  EXPECT_EQ(a.warp_instructions, b.warp_instructions) << label;
  EXPECT_EQ(a.active_lane_slots, b.active_lane_slots) << label;
  EXPECT_EQ(a.serial_ops, b.serial_ops) << label;
  EXPECT_EQ(a.divergent_steps, b.divergent_steps) << label;
  EXPECT_EQ(a.bytes_coalesced, b.bytes_coalesced) << label;
  EXPECT_EQ(a.bytes_random, b.bytes_random) << label;
  EXPECT_EQ(a.bytes_cached, b.bytes_cached) << label;
  EXPECT_EQ(a.node_fetches, b.node_fetches) << label;
  EXPECT_EQ(a.fetches_random, b.fetches_random) << label;
  EXPECT_EQ(a.fetches_cached, b.fetches_cached) << label;
  EXPECT_EQ(a.shared_bytes, b.shared_bytes) << label;
}

void expect_entries_equal(const std::vector<KnnHeap::Entry>& a,
                          const std::vector<KnnHeap::Entry>& b, const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].dist, b[i].dist) << label << " rank " << i;
    EXPECT_EQ(a[i].id, b[i].id) << label << " rank " << i;
  }
}

void shuffle(std::vector<PointId>& ids, Rng& rng) {
  for (std::size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[rng.next_below(i)]);
  }
}

/// A leaf with SoA coordinates, as the tree builders stage them.
sstree::Node make_leaf(const std::vector<std::vector<Scalar>>& pts,
                       const std::vector<PointId>& ids) {
  sstree::Node n;
  const std::size_t c = pts.size();
  const std::size_t d = pts.front().size();
  n.points = ids;
  n.coords.resize(c * d);
  for (std::size_t i = 0; i < c; ++i) {
    for (std::size_t t = 0; t < d; ++t) n.coords[t * c + i] = pts[i][t];
  }
  return n;
}

/// A small tree of the query's dimensionality: the reference
/// leaf_distances reads only its dims().
struct DimsTree {
  explicit DimsTree(std::size_t dims)
      : data(test::small_clustered(dims, 40, /*seed=*/dims)),
        built(sstree::build_kmeans(data, 8, {})) {}
  PointSet data;
  sstree::BuildOutput built;
};

/// The two-step form scan_leaf replaces: lane-per-point distances, then one
/// offer_batch over the non-excluded points in leaf order.
std::size_t reference_scan(simt::Block& block, knn::SharedKnnList& list,
                           const sstree::SSTree& tree, const sstree::Node& leaf,
                           std::span<const Scalar> q, PointId excluded) {
  const std::vector<Scalar> dists = knn::detail::leaf_distances(block, tree, leaf, q);
  std::vector<Scalar> kept_d;
  std::vector<PointId> kept_i;
  for (std::size_t p = 0; p < dists.size(); ++p) {
    if (leaf.points[p] == excluded) continue;
    kept_d.push_back(dists[p]);
    kept_i.push_back(leaf.points[p]);
  }
  return list.offer_batch(kept_d, kept_i);
}

/// Offer `leaves` in order to a fused and a reference list and require
/// identical inserts, lists, pruning distances and charges after each leaf.
void check_leaf_sequence(const std::vector<sstree::Node>& leaves, std::span<const Scalar> q,
                         std::size_t k, bool spill, PointId excluded, Scalar seed_bound,
                         const std::string& label) {
  const DimsTree dt(q.size());
  const simt::DeviceSpec dev;
  simt::Metrics m_fused;
  simt::Metrics m_ref;
  simt::Block b_fused(dev, 64, &m_fused);
  simt::Block b_ref(dev, 64, &m_ref);
  knn::SharedKnnList fused(b_fused, k, spill);
  knn::SharedKnnList ref(b_ref, k, spill);
  if (seed_bound < kInfinity) {
    fused.tighten(seed_bound);
    ref.tighten(seed_bound);
  }
  for (std::size_t l = 0; l < leaves.size(); ++l) {
    const std::string at = label + " leaf " + std::to_string(l);
    EXPECT_EQ(fused.scan_leaf(leaves[l], q, excluded),
              reference_scan(b_ref, ref, dt.built.tree, leaves[l], q, excluded))
        << at;
    expect_entries_equal(fused.sorted(), ref.sorted(), at);
    EXPECT_EQ(fused.pruning_distance(), ref.pruning_distance()) << at;
    expect_metrics_equal(m_fused, m_ref, at);
  }
}

TEST(HotPathScanLeaf, MatchesReferenceOnSeededLeaves) {
  for (const std::size_t dims : {1U, 3U, 7U, 16U}) {
    Rng rng(100 + dims);
    const PointSet qs = test::random_queries(dims, 1, 500 + dims);
    const std::vector<Scalar> q(qs[0].begin(), qs[0].end());
    std::vector<sstree::Node> leaves;
    PointId next_id = 0;
    // Sizes straddle the kernel's 64-point chunk.
    for (const std::size_t size : {5U, 64U, 65U, 150U, 1U, 33U, 200U, 12U}) {
      std::vector<std::vector<Scalar>> pts(size, std::vector<Scalar>(dims));
      std::vector<PointId> ids(size);
      for (std::size_t i = 0; i < size; ++i) {
        for (auto& x : pts[i]) x = static_cast<Scalar>(rng.uniform(0.0, 1000.0));
        ids[i] = next_id++;
      }
      shuffle(ids, rng);
      leaves.push_back(make_leaf(pts, ids));
    }
    for (const std::size_t k : {1U, 4U, 32U, 300U, 2000U}) {
      for (const bool spill : {false, true}) {
        for (const PointId excluded : {kInvalidPoint, PointId{70}, PointId{99999}}) {
          const std::string label = "dims=" + std::to_string(dims) + " k=" + std::to_string(k) +
                                    " spill=" + std::to_string(spill) +
                                    " excluded=" + std::to_string(excluded);
          check_leaf_sequence(leaves, q, k, spill, excluded, kInfinity, label);
          check_leaf_sequence(leaves, q, k, spill, excluded, Scalar{300}, label + " seeded");
        }
      }
    }
  }
}

TEST(HotPathScanLeaf, MatchesReferenceOnExactTiesAtTheKthDistance) {
  // Integer coordinates: distances 5 (3-4-5 triangles) and 10 are exact, so
  // many points tie the k-th distance, with ids both below and above the
  // list's top id. Every tied point must resolve exactly as offer() does.
  const std::vector<Scalar> q = {0, 0};
  const std::vector<std::vector<Scalar>> shell5 = {{3, 4},  {4, 3},  {-3, 4}, {5, 0},
                                                   {0, -5}, {-4, -3}, {3, -4}, {0, 5}};
  const std::vector<std::vector<Scalar>> shell10 = {{6, 8}, {8, 6}, {-6, 8}, {10, 0},
                                                    {0, 10}, {-8, -6}};
  std::vector<sstree::Node> leaves;
  leaves.push_back(make_leaf(shell5, {40, 7, 90, 12, 55, 3, 71, 20}));
  leaves.push_back(make_leaf(shell10, {5, 95, 41, 1, 60, 33}));
  leaves.push_back(make_leaf(shell5, {2, 100, 8, 45, 13, 66, 4, 80}));  // repeats the shell
  leaves.push_back(make_leaf(shell10, {0, 99, 42, 9, 61, 34}));
  for (std::size_t k = 1; k <= 30; ++k) {
    for (const bool spill : {false, true}) {
      for (const PointId excluded : {kInvalidPoint, PointId{12}, PointId{8}, PointId{99}}) {
        check_leaf_sequence(leaves, q, k, spill, excluded, kInfinity,
                            "ties k=" + std::to_string(k) + " spill=" + std::to_string(spill) +
                                " excluded=" + std::to_string(excluded));
      }
      // A shared bound exactly at a shell radius ties MINMAXDIST seeding too.
      check_leaf_sequence(leaves, q, k, spill, kInvalidPoint, Scalar{5},
                          "ties seeded k=" + std::to_string(k));
    }
  }
}

TEST(HotPathScanLeaf, LargeCoordinatesOverflowingFloatDistances) {
  // Distances past FLT_MAX round to +inf in float: the list fills with +inf
  // entries, where the early reject must stand aside and offer() decide.
  const Scalar big = std::numeric_limits<Scalar>::max();
  const std::vector<Scalar> q = {-big, -big};
  const std::vector<std::vector<Scalar>> pts = {{big, big}, {big, 0}, {0, big}, {big, -big},
                                                {-big, big}, {0, 0}};
  std::vector<sstree::Node> leaves;
  leaves.push_back(make_leaf(pts, {9, 4, 7, 1, 3, 8}));
  leaves.push_back(make_leaf(pts, {2, 6, 0, 5, 11, 10}));
  for (std::size_t k = 1; k <= 8; ++k) {
    check_leaf_sequence(leaves, q, k, false, kInvalidPoint, kInfinity,
                        "inf k=" + std::to_string(k));
  }
}

TEST(HotPathKnnHeap, MatchesSortAndTruncateOnStreamsWithDuplicates) {
  const auto less = [](const KnnHeap::Entry& a, const KnnHeap::Entry& b) {
    return a.dist != b.dist ? a.dist < b.dist : a.id < b.id;
  };
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    Rng rng(0xBEEF + seed);
    const std::size_t k = 1 + rng.next_below(40);
    const std::size_t n = rng.next_below(400);
    // Few distinct distances: long runs of exact duplicates.
    const std::size_t levels = 1 + rng.next_below(12);
    std::vector<PointId> ids(n);
    std::iota(ids.begin(), ids.end(), PointId{0});
    shuffle(ids, rng);

    KnnHeap heap(k);
    std::vector<KnnHeap::Entry> seen;
    for (std::size_t i = 0; i < n; ++i) {
      const KnnHeap::Entry e{static_cast<Scalar>(rng.next_below(levels)) * 0.5F, ids[i]};
      seen.push_back(e);
      std::vector<KnnHeap::Entry> want = seen;
      std::sort(want.begin(), want.end(), less);
      want.resize(std::min(k, want.size()));
      const bool kept = std::any_of(want.begin(), want.end(), [&](const KnnHeap::Entry& w) {
        return w.id == e.id;
      });
      const std::string label = "seed=" + std::to_string(seed) + " i=" + std::to_string(i);
      EXPECT_EQ(heap.offer(e.dist, e.id), kept) << label;
      expect_entries_equal(heap.sorted(), want, label);
      EXPECT_EQ(heap.bound(), want.size() == k ? want.back().dist : kInfinity) << label;
    }
  }
}

TEST(HotPathMinmax, SkippedSelectionEqualsAlwaysSelect) {
  const simt::DeviceSpec dev;
  std::size_t skippable = 0;  // cases where fewer than k maxdists beat the bound
  std::size_t selected = 0;
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    Rng rng(0xC0DE + seed);
    const std::size_t k = 1 + rng.next_below(12);
    const std::size_t children = rng.next_below(40);
    // A small value palette makes maxdist ties with the pruning distance common.
    const auto draw = [&] { return static_cast<Scalar>(1 + rng.next_below(20)); };
    std::vector<Scalar> maxdist(children);
    for (auto& v : maxdist) v = draw();

    simt::Metrics m_skip;
    simt::Metrics m_ref;
    simt::Block b_skip(dev, 64, &m_skip);
    simt::Block b_ref(dev, 64, &m_ref);
    knn::SharedKnnList skip(b_skip, k);
    knn::SharedKnnList ref(b_ref, k);
    // Random list state: partly or fully filled, with or without an external
    // bound.
    const std::size_t fill = rng.next_below(2 * k + 1);
    for (std::size_t i = 0; i < fill; ++i) {
      const Scalar d = draw();
      const PointId id = static_cast<PointId>(i);
      skip.offer_batch(std::span(&d, 1), std::span(&id, 1));
      ref.offer_batch(std::span(&d, 1), std::span(&id, 1));
    }
    if (rng.next_below(2) == 1) {
      const Scalar b = draw();
      skip.tighten(b);
      ref.tighten(b);
    }

    if (maxdist.size() >= k) {
      const auto below = std::count_if(maxdist.begin(), maxdist.end(), [&](Scalar v) {
        return v < skip.pruning_distance();
      });
      ++(static_cast<std::size_t>(below) < k ? skippable : selected);
    }
    knn::detail::tighten_with_minmax(b_skip, skip, maxdist);
    if (maxdist.size() >= k) ref.tighten(b_ref.reduce_kth_min(maxdist, k));
    const std::string label = "seed=" + std::to_string(seed);
    EXPECT_EQ(skip.pruning_distance(), ref.pruning_distance()) << label;
    expect_metrics_equal(m_skip, m_ref, label);

    // The skip must also be invisible later, as inserts lower the k-th
    // distance under the (possibly untouched) external bound.
    for (std::size_t i = 0; i < 3 * k; ++i) {
      const Scalar d = draw() / 2;
      const PointId id = static_cast<PointId>(1000 + i);
      skip.offer_batch(std::span(&d, 1), std::span(&id, 1));
      ref.offer_batch(std::span(&d, 1), std::span(&id, 1));
      EXPECT_EQ(skip.pruning_distance(), ref.pruning_distance()) << label << " insert " << i;
    }
  }
  // The seeds cover both sides of the skip.
  EXPECT_GT(skippable, 50U);
  EXPECT_GT(selected, 50U);
}

/// Run `fn`, expecting InvalidArgument whose message contains `needle`.
template <typename Fn>
void expect_rejected(Fn&& fn, const std::string& needle, const char* entry) {
  try {
    fn();
    ADD_FAILURE() << entry << " accepted a non-finite coordinate";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << entry << ": " << e.what();
  }
}

class NonFiniteQuery : public ::testing::TestWithParam<float> {};

TEST_P(NonFiniteQuery, EnginesRejectItNamingTheQuery) {
  const PointSet data = test::small_clustered(3, 300, /*seed=*/11);
  PointSet queries = test::random_queries(3, 4, /*seed=*/12);
  queries.mutable_point(2)[1] = GetParam();

  const sstree::BuildOutput built = sstree::build_kmeans(data, 8, {});
  engine::BatchEngineOptions bopts;
  bopts.gpu.k = 4;
  const engine::BatchEngine batch(built.tree, bopts);

  shard::ShardedEngineOptions sopts;
  sopts.num_shards = 3;
  sopts.engine.gpu.k = 4;
  shard::ShardedEngine sharded(data, sopts);

  expect_rejected([&] { (void)batch.run(queries); }, "query 2", "BatchEngine");
  expect_rejected([&] { (void)sharded.run(queries); }, "query 2", "ShardedEngine");
}

TEST_P(NonFiniteQuery, JoinRejectsItNamingTheTarget) {
  const PointSet data = test::small_clustered(3, 300, /*seed=*/11);
  PointSet targets = test::random_queries(3, 4, /*seed=*/12);
  targets.mutable_point(1)[0] = GetParam();

  const sstree::BuildOutput built = sstree::build_kmeans(data, 8, {});
  join::JoinOptions jo;
  jo.k = 4;
  jo.engine.gpu.k = 4;
  join::JoinEngine eng(built.tree, jo);
  expect_rejected([&] { (void)eng.knn_join(targets); }, "target 1", "JoinEngine::knn_join");
}

TEST_P(NonFiniteQuery, ShardedEngineRejectsItInTheDataset) {
  PointSet data = test::small_clustered(3, 300, /*seed=*/11);
  data.mutable_point(7)[2] = GetParam();
  shard::ShardedEngineOptions sopts;
  sopts.num_shards = 3;
  sopts.engine.gpu.k = 4;
  expect_rejected([&] { shard::ShardedEngine eng(data, sopts); }, "point 7",
                  "ShardedEngine constructor");
}

TEST_P(NonFiniteQuery, ShardedInsertRejectsItNamingTheCoordinate) {
  const PointSet data = test::small_clustered(3, 300, /*seed=*/11);
  shard::ShardedEngineOptions sopts;
  sopts.num_shards = 3;
  sopts.engine.gpu.k = 4;
  shard::ShardedEngine eng(data, sopts);
  const PointSet queries = test::random_queries(3, 4, /*seed=*/12);
  const knn::BatchResult before = eng.run(queries);

  std::vector<Scalar> p = {1.0F, 2.0F, 3.0F};
  p[1] = GetParam();
  expect_rejected([&] { (void)eng.insert(p); }, "coordinate 1", "ShardedEngine::insert");
  // Rejected before any shard is touched: size and answers are unchanged.
  EXPECT_EQ(eng.size(), data.size());
  const knn::BatchResult after = eng.run(queries);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    ASSERT_EQ(after.queries[q].neighbors.size(), before.queries[q].neighbors.size());
    for (std::size_t i = 0; i < after.queries[q].neighbors.size(); ++i) {
      EXPECT_EQ(after.queries[q].neighbors[i].id, before.queries[q].neighbors[i].id);
      EXPECT_EQ(after.queries[q].neighbors[i].dist, before.queries[q].neighbors[i].dist);
    }
  }
}

/// Six arrivals 100 us apart over a replicated naive streaming front-end, so
/// every arrival before a bad one would already have been dispatched.
struct StreamFixture {
  PointSet data = test::small_clustered(3, 300, /*seed=*/11);
  sstree::BuildOutput built = sstree::build_kmeans(data, 8, {});
  serve::ArrivalStream stream;

  StreamFixture() {
    stream.queries = test::random_queries(3, 6, /*seed=*/12);
    for (std::size_t i = 0; i < stream.queries.size(); ++i) stream.time_us.push_back(i * 100);
  }

  serve::StreamingEngine engine() const {
    serve::StreamingOptions so;
    so.engine.gpu.k = 4;
    so.mode = serve::DispatchMode::kNaive;
    so.replica.replicas = 3;
    return serve::StreamingEngine(built.tree, so);
  }
};

TEST_P(NonFiniteQuery, StreamingEngineRejectsItBeforeAnyDispatch) {
  StreamFixture f;
  f.stream.queries.mutable_point(4)[1] = GetParam();
  serve::StreamingEngine eng = f.engine();
  const std::uint64_t batches = obs::Registry::global().counter("engine.batches").load();
  expect_rejected([&] { (void)eng.run(f.stream); }, "stream query 4", "StreamingEngine::run");
  // Rejected at the entry: no arrival was routed or flushed to a backend.
  EXPECT_EQ(obs::Registry::global().counter("engine.batches").load(), batches);
}

TEST(HotPathStream, RejectsArrivalTimesThatBreakTheStreamContract) {
  StreamFixture f;
  serve::StreamingEngine eng = f.engine();
  serve::ArrivalStream short_times = f.stream;
  short_times.time_us.pop_back();
  EXPECT_THROW((void)eng.run(short_times), InvalidArgument);
  serve::ArrivalStream unsorted = f.stream;
  std::swap(unsorted.time_us[1], unsorted.time_us[2]);
  EXPECT_THROW((void)eng.run(unsorted), InvalidArgument);
  EXPECT_EQ(eng.run(f.stream).answered, f.stream.size());
}

INSTANTIATE_TEST_SUITE_P(HotPath, NonFiniteQuery,
                         ::testing::Values(std::numeric_limits<float>::quiet_NaN(),
                                           std::numeric_limits<float>::infinity(),
                                           -std::numeric_limits<float>::infinity()),
                         [](const ::testing::TestParamInfo<float>& p) {
                           if (std::isnan(p.param)) return std::string("NaN");
                           return std::string(p.param > 0 ? "PosInf" : "NegInf");
                         });

}  // namespace
}  // namespace psb
