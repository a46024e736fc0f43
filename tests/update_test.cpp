// Tests for online SS-tree maintenance (insert / erase / commit).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <set>

#include "knn/psb.hpp"
#include "mbs/ritter.hpp"
#include "sstree/builders.hpp"
#include "sstree/serialize.hpp"
#include "sstree/update.hpp"
#include "test_util.hpp"

namespace psb::sstree {
namespace {

/// Reference kNN over only the ids currently indexed.
std::vector<Scalar> reference_over(const PointSet& points, const std::set<PointId>& live,
                                   std::span<const Scalar> q, std::size_t k) {
  std::vector<Scalar> dists;
  dists.reserve(live.size());
  for (const PointId id : live) dists.push_back(distance(q, points[id]));
  std::sort(dists.begin(), dists.end());
  if (dists.size() > k) dists.resize(k);
  return dists;
}

TEST(Updater, InsertGrowsTheIndexExactly) {
  // Start from a single-point tree and stream 499 more points in online,
  // appending to the dataset behind the tree (the Updater contract).
  const PointSet points = test::small_clustered(8, 2000, 51);
  PointSet growable(8);
  growable.append(points[0]);
  SSTree tree = build_hilbert(growable, 16).tree;
  // Grow the dataset *behind* the tree: PointSet references stay stable via
  // the Updater contract (append then insert).
  Updater updater(&tree);
  for (std::size_t i = 1; i < 500; ++i) {
    growable.append(points[i]);
    updater.insert(static_cast<PointId>(i));
  }
  updater.commit();
  tree.validate();

  knn::GpuKnnOptions opts;
  opts.k = 8;
  const PointSet queries = test::random_queries(8, 8, 53);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto expected = test::reference_knn_distances(growable, queries[q], opts.k);
    const auto got = knn::psb_query(tree, queries[q], opts, nullptr);
    test::expect_knn_matches(got.neighbors, expected, "after online inserts");
  }
}

TEST(Updater, EraseRemovesFromAnswers) {
  const PointSet points = test::small_clustered(4, 1000, 55);
  SSTree tree = build_kmeans(points, 32).tree;
  Updater updater(&tree);

  std::set<PointId> live;
  for (PointId i = 0; i < points.size(); ++i) live.insert(i);
  Rng rng(57);
  for (int i = 0; i < 300; ++i) {
    const PointId victim = static_cast<PointId>(rng.next_below(points.size()));
    if (live.count(victim) == 0) {
      EXPECT_FALSE(updater.erase(victim));  // double-erase reports false
      continue;
    }
    EXPECT_TRUE(updater.erase(victim));
    live.erase(victim);
  }
  updater.commit();
  tree.validate(/*require_complete=*/false);

  knn::GpuKnnOptions opts;
  opts.k = 16;
  const PointSet queries = test::random_queries(4, 8, 59);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto expected = reference_over(points, live, queries[q], opts.k);
    const auto got = knn::psb_query(tree, queries[q], opts, nullptr);
    test::expect_knn_matches(got.neighbors, expected, "after erases");
    // No erased point may appear in any answer.
    for (const auto& e : got.neighbors) EXPECT_TRUE(live.count(e.id)) << e.id;
  }
}

TEST(Updater, MixedInsertEraseCycles) {
  PointSet points = test::small_clustered(8, 600, 61);
  SSTree tree = build_hilbert(points, 16).tree;
  Updater updater(&tree);
  std::set<PointId> live;
  for (PointId i = 0; i < points.size(); ++i) live.insert(i);

  Rng rng(63);
  for (int cycle = 0; cycle < 3; ++cycle) {
    for (int i = 0; i < 100; ++i) {
      const PointId victim = static_cast<PointId>(rng.next_below(points.size()));
      if (live.count(victim)) {
        updater.erase(victim);
        live.erase(victim);
      }
    }
    for (int i = 0; i < 60; ++i) {
      const PointId back = static_cast<PointId>(rng.next_below(points.size()));
      if (!live.count(back)) {
        updater.insert(back);
        live.insert(back);
      }
    }
    updater.commit();
    tree.validate(false);
    const auto q = test::random_queries(8, 1, 100 + cycle);
    const auto expected = reference_over(points, live, q[0], 8);
    knn::GpuKnnOptions opts;
    opts.k = 8;
    const auto got = knn::psb_query(tree, q[0], opts, nullptr);
    test::expect_knn_matches(got.neighbors, expected, "mixed cycle");
  }
  EXPECT_GT(updater.metrics().node_fetches, 0u);
}

TEST(Updater, SplitsKeepDegreeBound) {
  PointSet growable(2);
  growable.append(std::vector<Scalar>{0, 0});
  SSTree tree = build_hilbert(growable, 8).tree;
  Updater updater(&tree);
  Rng rng(65);
  for (int i = 1; i < 400; ++i) {
    growable.append(std::vector<Scalar>{static_cast<Scalar>(rng.uniform(0, 100)),
                                        static_cast<Scalar>(rng.uniform(0, 100))});
    updater.insert(static_cast<PointId>(i));
  }
  updater.commit();
  tree.validate();
  EXPECT_GT(tree.height(), 1);  // splits must have happened
}

TEST(Updater, SurvivesSerializationRoundTrip) {
  // An updated (incomplete) index must persist and reload correctly.
  const PointSet points = test::small_clustered(4, 500, 69);
  SSTree tree = build_kmeans(points, 16).tree;
  Updater updater(&tree);
  for (PointId i = 0; i < 100; ++i) updater.erase(i);
  updater.commit();

  const std::string path = ::testing::TempDir() + "/updated.psbt";
  write_index(tree, path);
  const SSTree loaded = read_index(&points, path);
  EXPECT_EQ(loaded.num_nodes(), tree.num_nodes());

  knn::GpuKnnOptions opts;
  opts.k = 8;
  const auto q = test::random_queries(4, 3, 71);
  for (std::size_t i = 0; i < q.size(); ++i) {
    const auto a = knn::psb_query(tree, q[i], opts, nullptr);
    const auto b = knn::psb_query(loaded, q[i], opts, nullptr);
    ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
    for (std::size_t j = 0; j < a.neighbors.size(); ++j) {
      EXPECT_EQ(a.neighbors[j].dist, b.neighbors[j].dist);
      // No erased id may reappear after the round trip.
      EXPECT_GE(b.neighbors[j].id, 100u);
    }
  }
  std::remove(path.c_str());
}

TEST(Updater, Preconditions) {
  const PointSet points = test::small_clustered(4, 100, 67);
  SSTree tree = build_hilbert(points, 16).tree;
  Updater updater(&tree);
  EXPECT_THROW(updater.insert(9999), InvalidArgument);

  KMeansBuildOptions rect;
  rect.bounds = BoundsMode::kRect;
  SSTree rtree = build_kmeans(points, 16, rect).tree;
  EXPECT_THROW(Updater rect_updater(&rtree), InvalidArgument);
}

std::vector<std::uint32_t> bits(const std::vector<Scalar>& v) {
  std::vector<std::uint32_t> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = std::bit_cast<std::uint32_t>(v[i]);
  return out;
}

/// Node-for-node, bit-for-bit equality of two finalized trees.
void expect_same_tree(const SSTree& a, const SSTree& b, int step) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes()) << "step " << step;
  ASSERT_EQ(a.root(), b.root()) << "step " << step;
  ASSERT_EQ(a.leaves(), b.leaves()) << "step " << step;
  for (NodeId id = 0; id < a.num_nodes(); ++id) {
    const Node& x = a.node(id);
    const Node& y = b.node(id);
    const auto where = [&] { return "step " + std::to_string(step) + " node " + std::to_string(id); };
    ASSERT_EQ(x.id, y.id) << where();
    EXPECT_EQ(x.parent, y.parent) << where();
    EXPECT_EQ(x.level, y.level) << where();
    EXPECT_EQ(x.children, y.children) << where();
    EXPECT_EQ(x.points, y.points) << where();
    EXPECT_EQ(bits(x.sphere.center), bits(y.sphere.center)) << where();
    EXPECT_EQ(std::bit_cast<std::uint32_t>(x.sphere.radius),
              std::bit_cast<std::uint32_t>(y.sphere.radius))
        << where();
    EXPECT_EQ(bits(x.child_centers), bits(y.child_centers)) << where();
    EXPECT_EQ(bits(x.child_radii), bits(y.child_radii)) << where();
    EXPECT_EQ(bits(x.coords), bits(y.coords)) << where();
    EXPECT_EQ(x.leaf_id, y.leaf_id) << where();
    EXPECT_EQ(x.subtree_min_leaf, y.subtree_min_leaf) << where();
    EXPECT_EQ(x.subtree_max_leaf, y.subtree_max_leaf) << where();
    EXPECT_EQ(x.right_sibling, y.right_sibling) << where();
    EXPECT_EQ(x.skip, y.skip) << where();
    EXPECT_EQ(x.integrity, y.integrity) << where();
  }
}

TEST(Updater, NonFiniteInsertIsRejectedAndLeavesTheTreeUnchanged) {
  const PointSet finite = test::small_clustered(3, 300, 73);
  PointSet points = finite;
  SSTree tree = build_kmeans(points, 16).tree;
  const SSTree before = tree;
  Updater updater(&tree);
  const PointSet queries = test::random_queries(3, 4, 75);
  knn::GpuKnnOptions opts;
  opts.k = 8;
  for (const Scalar bad : {std::numeric_limits<Scalar>::quiet_NaN(),
                           std::numeric_limits<Scalar>::infinity()}) {
    const PointId pid = points.append(std::vector<Scalar>{1, bad, 2});
    try {
      updater.insert(pid);
      ADD_FAILURE() << "non-finite insert accepted";
    } catch (const InvalidArgument& e) {
      // Names the point and the coordinate, like the builders.
      EXPECT_NE(std::string(e.what()).find("point " + std::to_string(pid) + " coordinate 1"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(updater.pending(), 0u);
    expect_same_tree(tree, before, 0);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const auto expected = test::reference_knn_distances(finite, queries[q], opts.k);
      const auto got = knn::psb_query(tree, queries[q], opts, nullptr);
      test::expect_knn_matches(got.neighbors, expected, "after a rejected insert");
    }
  }
  // The Updater stays usable after a rejection.
  const PointId ok = points.append(std::vector<Scalar>{1, 2, 3});
  updater.insert(ok);
  updater.commit();
  tree.validate(/*require_complete=*/false);
}

/// Every sphere is what a full refit computes: sequential Ritter over a
/// leaf's points, Ritter over an internal node's child spheres.
void expect_fully_refit(const SSTree& tree, int step) {
  for (NodeId id = 0; id < tree.num_nodes(); ++id) {
    const Node& n = tree.node(id);
    Sphere want;
    if (n.is_leaf()) {
      want = mbs::ritter_points(tree.data(), n.points);
    } else {
      std::vector<Sphere> children;
      for (const NodeId c : n.children) children.push_back(tree.node(c).sphere);
      want = mbs::ritter_spheres(children);
    }
    EXPECT_EQ(bits(n.sphere.center), bits(want.center)) << "step " << step << " node " << id;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(n.sphere.radius),
              std::bit_cast<std::uint32_t>(want.radius))
        << "step " << step << " node " << id;
  }
}

TEST(Updater, IncrementalCommitEqualsFullRefit) {
  // One persistent Updater (dirty-leaf refit after its first commit) against
  // the same write sequence through a fresh Updater per commit (which refits
  // every node): the trees must agree bit for bit after every commit, and
  // every sphere must equal an independent full refit's. The
  // phases force leaf and root splits (growth from a small kmeans tree),
  // condensation and root-chain collapse (a drain to a handful of points),
  // then mixed churn with multi-write commits.
  PointSet points = test::small_clustered(3, 64, 81);
  SSTree persistent_tree = build_kmeans(points, 8).tree;
  SSTree reference_tree = build_kmeans(points, 8).tree;
  // The builder's parallel-Ritter leaf spheres differ from the sequential
  // Ritter refit, so only a full first commit() matches the reference.
  std::size_t builder_spheres = 0;
  for (const NodeId leaf : persistent_tree.leaves()) {
    const Node& n = persistent_tree.node(leaf);
    const Sphere refit = mbs::ritter_points(points, n.points);
    builder_spheres += bits(refit.center) != bits(n.sphere.center) || refit.radius != n.sphere.radius;
  }
  EXPECT_GT(builder_spheres, 0u);
  Updater persistent(&persistent_tree);
  const int initial_height = persistent_tree.height();
  std::vector<std::uint8_t> live(points.size(), 1);
  std::size_t live_count = points.size();
  Rng rng(83);

  int height_max = initial_height;
  int height_min = initial_height;
  bool nodes_shrank = false;
  int writes = 0;
  const auto write_batch = [&](std::size_t count, double insert_share) {
    // Draw the batch first so both sides replay exactly the same writes.
    std::vector<std::pair<bool, PointId>> batch;
    for (std::size_t i = 0; i < count; ++i) {
      const bool insert = live_count <= 2 || rng.next_double() < insert_share;
      if (insert) {
        std::vector<Scalar> p(3);
        for (auto& v : p) v = static_cast<Scalar>(rng.uniform(0.0, 1000.0));
        batch.emplace_back(true, points.append(p));
        live.push_back(1);
        ++live_count;
      } else {
        PointId victim;
        do {
          victim = static_cast<PointId>(rng.next_below(live.size()));
        } while (!live[victim]);
        batch.emplace_back(false, victim);
        live[victim] = 0;
        --live_count;
      }
    }
    Updater fresh(&reference_tree);
    for (const auto& [insert, pid] : batch) {
      if (insert) {
        persistent.insert(pid);
        fresh.insert(pid);
      } else {
        EXPECT_TRUE(persistent.erase(pid));
        EXPECT_TRUE(fresh.erase(pid));
      }
    }
    const std::size_t nodes_before = persistent_tree.num_nodes();
    persistent.commit();
    fresh.commit();
    writes += static_cast<int>(count);
    expect_same_tree(persistent_tree, reference_tree, writes);
    expect_fully_refit(persistent_tree, writes);
    nodes_shrank = nodes_shrank || persistent_tree.num_nodes() < nodes_before;
    height_max = std::max(height_max, persistent_tree.height());
    height_min = std::min(height_min, persistent_tree.height());
  };

  for (int i = 0; i < 160; ++i) write_batch(1, 1.0);  // grow: leaf + root splits
  const int grown = height_max;
  while (live_count > 4) write_batch(1, 0.0);  // drain: condense + collapse
  while (writes < 400) write_batch(1 + rng.next_below(4), 0.6);  // mixed churn
  persistent_tree.validate(/*require_complete=*/false);

  EXPECT_GT(grown, initial_height) << "growth never split the root";
  EXPECT_LT(height_min, grown) << "the drain never collapsed the root chain";
  EXPECT_TRUE(nodes_shrank) << "the drain never condensed a node away";
}

}  // namespace
}  // namespace psb::sstree
