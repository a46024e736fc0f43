// Tests for SS-tree persistence: round-trips across builders and bounds
// modes, dataset-mismatch detection, corrupt-file rejection.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "knn/psb.hpp"
#include "sstree/builders.hpp"
#include "sstree/serialize.hpp"
#include "test_util.hpp"

namespace psb::sstree {
namespace {

std::string temp_path(const char* name) { return ::testing::TempDir() + "/" + name; }

TEST(Serialize, RoundTripPreservesStructureAndAnswers) {
  const PointSet points = test::small_clustered(8, 1200, 3);
  const SSTree original = build_kmeans(points, 32).tree;
  const std::string path = temp_path("rt.psbt");
  write_index(original, path);
  const SSTree loaded = read_index(&points, path);

  EXPECT_EQ(loaded.num_nodes(), original.num_nodes());
  EXPECT_EQ(loaded.degree(), original.degree());
  EXPECT_EQ(loaded.root(), original.root());
  EXPECT_EQ(loaded.leaves().size(), original.leaves().size());

  // Identical query behavior, bit for bit on the metrics.
  const PointSet queries = test::random_queries(8, 8, 5);
  knn::GpuKnnOptions opts;
  opts.k = 16;
  const auto a = knn::psb_batch(original, queries, opts);
  const auto b = knn::psb_batch(loaded, queries, opts);
  EXPECT_EQ(a.metrics.total_bytes(), b.metrics.total_bytes());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    ASSERT_EQ(a.queries[q].neighbors.size(), b.queries[q].neighbors.size());
    for (std::size_t i = 0; i < a.queries[q].neighbors.size(); ++i) {
      EXPECT_EQ(a.queries[q].neighbors[i].dist, b.queries[q].neighbors[i].dist);
    }
  }
  std::remove(path.c_str());
}

TEST(Serialize, AllBuildersAndModes) {
  const PointSet points = test::small_clustered(4, 600, 7);
  std::vector<SSTree> trees;
  trees.push_back(build_hilbert(points, 16).tree);
  trees.push_back(build_topdown(points, 16).tree);
  KMeansBuildOptions rect_opts;
  rect_opts.bounds = BoundsMode::kRect;
  trees.push_back(build_kmeans(points, 16, rect_opts).tree);

  for (std::size_t i = 0; i < trees.size(); ++i) {
    const std::string path = temp_path(("builders" + std::to_string(i) + ".psbt").c_str());
    write_index(trees[i], path);
    const SSTree loaded = read_index(&points, path);  // read_index validates
    EXPECT_EQ(loaded.bounds_mode(), trees[i].bounds_mode());
    EXPECT_EQ(loaded.num_nodes(), trees[i].num_nodes());
    std::remove(path.c_str());
  }
}

TEST(Serialize, RejectsDatasetMismatch) {
  const PointSet points = test::small_clustered(4, 500, 9);
  const SSTree tree = build_hilbert(points, 16).tree;
  const std::string path = temp_path("mismatch.psbt");
  write_index(tree, path);

  const PointSet other = test::small_clustered(4, 400, 11);
  EXPECT_THROW(read_index(&other, path), InvalidArgument);
  const PointSet wrong_dims = test::small_clustered(8, 500, 11);
  EXPECT_THROW(read_index(&wrong_dims, path), InvalidArgument);
  std::remove(path.c_str());
}

TEST(Serialize, RejectsCorruptFiles) {
  const PointSet points = test::small_clustered(4, 100, 13);
  const std::string path = temp_path("corrupt.psbt");
  {
    std::ofstream out(path, std::ios::binary);
    out << "garbage bytes, definitely not an index";
  }
  EXPECT_THROW(read_index(&points, path), CorruptIndex);
  EXPECT_THROW(read_index(&points, "/no/such/file.psbt"), IoError);
  std::remove(path.c_str());
}

/// parse_index must reject `tree`'s image as CorruptIndex with a message
/// containing `needle`.
void expect_index_rejected(const SSTree& tree, const PointSet& points,
                           const std::string& needle) {
  const std::string bytes = serialize_index(tree);
  try {
    parse_index(&points, bytes, "bad.psbt");
    ADD_FAILURE() << "accepted an index with " << needle;
  } catch (const CorruptIndex& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

TEST(Serialize, RejectsNonFiniteSpheres) {
  // A NaN or infinite bound makes every MINDIST against it NaN or infinite,
  // which silently prunes (or keeps) whole subtrees: a corrupt index,
  // named by node and coordinate.
  const PointSet points = test::small_clustered(4, 300, 9);
  for (const Scalar bad : {std::numeric_limits<Scalar>::quiet_NaN(),
                           std::numeric_limits<Scalar>::infinity()}) {
    SSTree center = build_kmeans(points, 16).tree;
    const NodeId leaf = center.leaves().front();
    center.node(leaf).sphere.center[1] = bad;
    expect_index_rejected(center, points,
                          "node " + std::to_string(leaf) + " sphere center coordinate 1");

    SSTree radius = build_kmeans(points, 16).tree;
    const NodeId root = radius.root();
    radius.node(root).sphere.radius = bad;
    expect_index_rejected(radius, points, "node " + std::to_string(root) + " sphere radius");
  }
}

TEST(Serialize, TruncatedFileRejected) {
  const PointSet points = test::small_clustered(4, 500, 15);
  const SSTree tree = build_hilbert(points, 16).tree;
  const std::string path = temp_path("trunc.psbt");
  write_index(tree, path);
  // Truncate to half size.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const auto full = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  std::vector<char> bytes(full / 2);
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(read_index(&points, path), CorruptIndex);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace psb::sstree
