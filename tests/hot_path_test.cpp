// Equivalence tests for the host hot path: the fused leaf kernel
// (SharedKnnList::scan_leaf) with its float prefilter, the packed-key
// replace-top KnnHeap, the skipped MINMAXDIST selection and its memo replay,
// and PSB's per-query bounds memo must keep exactly the answers, pruning
// distances and modeled charges of the straightforward forms they replace.
// Also the builders', query, join-target, dataset and insert entry points'
// rejection of non-finite coordinates, which the exact early reject, the
// prefilter and the shard spheres rely on.
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
#include "knn/psb.hpp"
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

/// `n` points on the sphere of radius `r` around `q`, rounded to float:
/// their distances agree to a few ULPs, so many land within the float
/// prefilter's error of the cut.
std::vector<std::vector<Scalar>> shell_points(std::span<const Scalar> q, double r,
                                              std::size_t n, Rng& rng) {
  std::vector<std::vector<Scalar>> pts(n, std::vector<Scalar>(q.size()));
  std::vector<double> v(q.size());
  for (auto& p : pts) {
    double norm = 0;
    for (auto& x : v) {
      x = rng.normal();
      norm += x * x;
    }
    norm = std::sqrt(norm);
    for (std::size_t t = 0; t < q.size(); ++t) {
      p[t] = static_cast<Scalar>(q[t] + r * v[t] / norm);
    }
  }
  return pts;
}

TEST(HotPathScanLeaf, PrefilterMatchesReferenceOnNearTiesAcrossDims) {
  for (const std::size_t dims : {1U, 4U, 17U, 64U}) {
    for (const double center : {500.0, 0.0}) {
      Rng rng(700 + dims + static_cast<std::uint64_t>(center));
      // Centered on 500, q - x is exact in float (Sterbenz); centered on the
      // origin with a tiny query, every difference rounds as well, so the
      // float sums stray furthest from the exact ones.
      std::vector<Scalar> q(dims);
      for (auto& x : q) x = static_cast<Scalar>(center + rng.uniform(-1e-3, 1e-3));
      // Odd ids for the originals, even ids for the exact copies that follow
      // them: every copy ties its original's distance exactly, with an id
      // below or above it (and below or above the list's top id).
      std::vector<sstree::Node> leaves;
      PointId next_odd = 1;
      for (const std::size_t size : {64U, 100U, 37U, 130U}) {
        const auto pts = shell_points(q, 50.0 + static_cast<double>(size % 3), size, rng);
        std::vector<PointId> ids(size);
        for (auto& id : ids) id = (next_odd += 2);
        shuffle(ids, rng);
        leaves.push_back(make_leaf(pts, ids));
        std::vector<PointId> twins(size);
        for (std::size_t i = 0; i < size; ++i) {
          twins[i] = ids[i] - 1 + 2 * static_cast<PointId>(rng.next_below(2));
        }
        shuffle(twins, rng);
        leaves.push_back(make_leaf(pts, twins));
      }
      const PointId present = leaves.front().points[5];
      for (const std::size_t k : {1U, 8U, 32U, 100U, 2000U}) {
        for (const bool spill : {false, true}) {
          for (const PointId excluded : {kInvalidPoint, present}) {
            const std::string label =
                "dims=" + std::to_string(dims) + " center=" + std::to_string(center) +
                " k=" + std::to_string(k) + " spill=" + std::to_string(spill) +
                " excluded=" + std::to_string(excluded);
            check_leaf_sequence(leaves, q, k, spill, excluded, kInfinity, label);
            check_leaf_sequence(leaves, q, k, spill, excluded, Scalar{50}, label + " seeded");
          }
        }
      }
    }
  }
}

TEST(HotPathScanLeaf, PrefilterStandsAsideOutsideTheFloatSafeRange) {
  const Scalar big = std::numeric_limits<Scalar>::max();
  const Scalar denorm = std::numeric_limits<Scalar>::denorm_min();
  for (const std::size_t dims : {1U, 4U, 17U, 64U}) {
    Rng rng(900 + dims);
    const auto draw = [&](std::initializer_list<Scalar> palette) {
      return *(palette.begin() + rng.next_below(palette.size()));
    };
    const auto leaf_of = [&](std::size_t n, std::initializer_list<Scalar> palette,
                             PointId first_id) {
      std::vector<std::vector<Scalar>> pts(n, std::vector<Scalar>(dims));
      for (auto& p : pts) {
        for (auto& x : p) x = draw(palette);
      }
      std::vector<PointId> ids(n);
      std::iota(ids.begin(), ids.end(), first_id);
      shuffle(ids, rng);
      return make_leaf(pts, ids);
    };
    const std::vector<Scalar> origin(dims, Scalar{0});
    const std::vector<Scalar> far_corner(dims, -big / 2);
    // Cut above the range: squared distances near FLT_MAX^2, float sums
    // overflowing to +inf.
    const std::vector<sstree::Node> huge = {leaf_of(70, {big, -big, big / 3, 0, 1e30F}, 0),
                                            leaf_of(70, {big, big / 3, 1e30F, -1e30F}, 100)};
    // Cut inside the range, far points overflowing the float sum: near
    // points fill the list, then +inf float sums must be rejects.
    const std::vector<sstree::Node> mixed = {leaf_of(64, {0.25F, -0.5F, 1, 0}, 0),
                                             leaf_of(64, {big, -big, 0.5F, 3e38F}, 100),
                                             leaf_of(64, {0.25F, -0.75F, 2e-20F, 0}, 200)};
    // Cut below the range: zero, denormal and underflowing distances.
    const std::vector<sstree::Node> tiny = {
        leaf_of(66, {0, denorm, -denorm, 4 * denorm, 1e-39F}, 0),
        leaf_of(66, {0, 1e-30F, -1e-25F, denorm, 1e-20F}, 100),
        leaf_of(66, {0, 1e-5F, 1e-30F, -2e-5F}, 200)};
    for (std::size_t k = 1; k <= 9; k += 4) {
      const std::string at = "dims=" + std::to_string(dims) + " k=" + std::to_string(k);
      check_leaf_sequence(huge, far_corner, k, false, kInvalidPoint, kInfinity, at + " huge");
      check_leaf_sequence(huge, origin, k, false, 103, kInfinity, at + " huge origin");
      check_leaf_sequence(mixed, origin, k, false, kInvalidPoint, kInfinity, at + " mixed");
      check_leaf_sequence(tiny, origin, k, false, kInvalidPoint, kInfinity, at + " tiny");
      check_leaf_sequence(tiny, origin, k, true, 201, kInfinity, at + " tiny excluded");
    }
  }
}

TEST(HotPathKnnHeap, PackedKeysOrderSignedZerosInfinityAndTies) {
  const auto less = [](const KnnHeap::Entry& a, const KnnHeap::Entry& b) {
    return a.dist != b.dist ? a.dist < b.dist : a.id < b.id;
  };
  using Lim = std::numeric_limits<Scalar>;
  const std::vector<Scalar> palette = {0.0F, -0.0F, Lim::infinity(), Lim::max(),
                                       Lim::denorm_min(), 2.5F, 2.5F, Lim::min()};
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(0xFEED + seed);
    const std::size_t k = 1 + rng.next_below(12);
    KnnHeap heap(k);
    std::vector<KnnHeap::Entry> seen;
    for (std::size_t i = 0; i < 80; ++i) {
      // Ids repeat across distances, so equal keys reach the heap too.
      const KnnHeap::Entry e{palette[rng.next_below(palette.size())],
                             static_cast<PointId>(rng.next_below(30))};
      std::vector<KnnHeap::Entry> want = seen;
      want.push_back(e);
      std::stable_sort(want.begin(), want.end(), less);
      want.resize(std::min(k, want.size()));
      // offer() keeps e exactly when it ranks among the k smallest of what
      // the heap held plus e; a duplicate of a kept key may take either slot.
      const bool kept = seen.size() < k || less(e, seen.back());
      const std::string label = "seed=" + std::to_string(seed) + " i=" + std::to_string(i);
      EXPECT_EQ(heap.offer(e.dist, e.id), kept) << label;
      seen = want;
      expect_entries_equal(heap.sorted(), want, label);
      EXPECT_EQ(heap.bound(), want.size() == k ? want.back().dist : kInfinity) << label;
    }
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

TEST(HotPathMinmax, MemoReplayEqualsRecomputeAndTheBruteKth) {
  const simt::DeviceSpec dev;
  std::size_t tightened = 0;  // first visits whose selection ran
  std::size_t never = 0;      // first visits that memoized "never tightens"
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    Rng rng(0xA11CE + seed);
    const std::size_t k = 1 + rng.next_below(10);
    const std::size_t children = k - 1 + rng.next_below(3);  // k - 1 .. k + 1
    const auto draw = [&] { return static_cast<Scalar>(1 + rng.next_below(20)); };
    std::vector<Scalar> maxdist(children);
    for (auto& v : maxdist) v = draw();

    simt::Metrics m_memo;
    simt::Metrics m_ref;
    simt::Block b_memo(dev, 64, &m_memo);
    simt::Block b_ref(dev, 64, &m_ref);
    knn::SharedKnnList memo(b_memo, k);
    knn::SharedKnnList ref(b_ref, k);
    const auto offer_both = [&](Scalar d, PointId id) {
      memo.offer_batch(std::span(&d, 1), std::span(&id, 1));
      ref.offer_batch(std::span(&d, 1), std::span(&id, 1));
    };
    for (std::size_t i = 0, fill = rng.next_below(2 * k + 1); i < fill; ++i) {
      offer_both(draw(), static_cast<PointId>(i));
    }

    // First visit: both compute; the memo keeps the return value.
    const Scalar before = memo.pruning_distance();
    const Scalar kth = knn::detail::tighten_with_minmax(b_memo, memo, maxdist);
    knn::detail::tighten_with_minmax(b_ref, ref, maxdist);
    std::vector<Scalar> sorted = maxdist;
    std::sort(sorted.begin(), sorted.end());
    const std::string label = "seed=" + std::to_string(seed);
    if (children >= k && sorted[k - 1] < before) {
      EXPECT_EQ(kth, sorted[k - 1]) << label;
      ++tightened;
    } else {
      EXPECT_EQ(kth, std::numeric_limits<Scalar>::infinity()) << label;
      ++never;
    }

    // Later visits, with the list improving in between: replay vs recompute.
    for (std::size_t visit = 0; visit < 4; ++visit) {
      for (std::size_t i = 0; i < k; ++i) {
        offer_both(draw() / 2, static_cast<PointId>(100 + visit * k + i));
      }
      knn::detail::tighten_with_kth(b_memo, memo, children, kth);
      knn::detail::tighten_with_minmax(b_ref, ref, maxdist);
      const std::string at = label + " visit " + std::to_string(visit);
      EXPECT_EQ(memo.pruning_distance(), ref.pruning_distance()) << at;
      expect_entries_equal(memo.sorted(), ref.sorted(), at);
      expect_metrics_equal(m_memo, m_ref, at);
    }
  }
  EXPECT_GT(tightened, 40U);
  EXPECT_GT(never, 40U);
}

TEST(HotPathPsb, MemoizedWalkIsExactAroundTheFanoutOnEveryLayout) {
  constexpr std::size_t kFanout = 8;
  const PointSet data = test::small_clustered(4, 3000, /*seed=*/31);
  const PointSet queries = test::random_queries(4, 24, /*seed=*/32);
  const sstree::BuildOutput built = sstree::build_kmeans(data, kFanout, {});
  const sstree::SSTree& tree = built.tree;
  simt::Metrics total;
  for (const std::size_t k : {kFanout - 1, kFanout, kFanout + 1}) {
    for (const engine::NodeLayout layout :
         {engine::NodeLayout::kPointer, engine::NodeLayout::kSnapshot,
          engine::NodeLayout::kImplicit}) {
      engine::BatchEngineOptions eo;
      eo.gpu.k = k;
      eo.layout = layout;
      const engine::BatchEngine eng(tree, eo);
      knn::GpuKnnOptions gpu = eo.gpu;
      gpu.snapshot = eng.snapshot();
      gpu.implicit = eng.implicit_layout();
      for (std::size_t qi = 0; qi < queries.size(); ++qi) {
        const std::string label = "k=" + std::to_string(k) + " layout=" +
                                  std::string(engine::node_layout_name(layout)) +
                                  " query=" + std::to_string(qi);
        const std::span<const Scalar> q = queries[qi];
        simt::Metrics m;
        const knn::QueryResult direct = knn::psb_query(tree, q, gpu, &m);
        total.merge(m);
        PointSet one(4);
        one.append(q);
        const knn::BatchResult batch = eng.run(one);
        const knn::QueryResult& via = batch.queries[0];
        expect_metrics_equal(m, batch.metrics, label + " metrics");
        EXPECT_EQ(direct.stats.nodes_visited, via.stats.nodes_visited) << label;
        EXPECT_EQ(direct.stats.leaves_visited, via.stats.leaves_visited) << label;
        EXPECT_EQ(direct.stats.points_examined, via.stats.points_examined) << label;
        EXPECT_EQ(direct.stats.backtracks, via.stats.backtracks) << label;
        EXPECT_EQ(direct.stats.leaf_scans, via.stats.leaf_scans) << label;
        EXPECT_EQ(direct.stats.restarts, via.stats.restarts) << label;
        EXPECT_EQ(direct.stats.heap_inserts, via.stats.heap_inserts) << label;
        expect_entries_equal(direct.neighbors, via.neighbors, label + " engine");

        // Exact under the (dist, id) contract: brute force over every point.
        KnnHeap brute(k);
        for (std::size_t i = 0; i < data.size(); ++i) {
          brute.offer(distance(q, data[i]), static_cast<PointId>(i));
        }
        expect_entries_equal(direct.neighbors, brute.sorted(), label + " brute");
      }
    }
  }
  // The modeled charges of the walk that recomputed every visit's child
  // bounds, recorded before the memo: a memo hit must charge the same.
  EXPECT_EQ(total.warp_instructions, 679485U);
  EXPECT_EQ(total.active_lane_slots, 5394690U);
  EXPECT_EQ(total.serial_ops, 23751U);
  EXPECT_EQ(total.divergent_steps, 655734U);
  EXPECT_EQ(total.bytes_coalesced, 2090176U);
  EXPECT_EQ(total.bytes_random, 2293440U);
  EXPECT_EQ(total.bytes_cached, 787480U);
  EXPECT_EQ(total.node_fetches, 31950U);
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

TEST_P(NonFiniteQuery, BuildersRejectItNamingThePointAndCoordinate) {
  // The clustered 4-d probe: a NaN point used to build without complaint
  // and leave wrong, unflagged PSB answers.
  PointSet data = test::small_clustered(4, 2000, /*seed=*/17);
  data.mutable_point(17)[2] = GetParam();
  const std::string needle = "point 17 coordinate 2";
  expect_rejected([&] { (void)sstree::build_hilbert(data, 16); }, needle, "build_hilbert");
  expect_rejected([&] { (void)sstree::build_kmeans(data, 16); }, needle, "build_kmeans");
  expect_rejected([&] { (void)sstree::build_topdown(data, 16); }, needle, "build_topdown");
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
