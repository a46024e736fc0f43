#include <algorithm>
#include <chrono>
#include <numeric>

#include "hilbert/hilbert.hpp"
#include "simt/sort.hpp"
#include "sstree/builders.hpp"
#include "sstree/detail/bottom_up.hpp"

namespace psb::sstree {
namespace {

/// Serialize clusters: order clusters by the Hilbert index of their centroid
/// (so adjacent leaves stay spatially close — PSB's sibling scan depends on
/// it), then concatenate each cluster's members.
std::vector<PointId> serialize_clusters(const cluster::KMeansResult& km, const Rect& bounds) {
  const std::size_t n_clusters = km.clusters.size();
  std::vector<PointId> sequence;

  hilbert::Encoder enc(km.centroids.dims(), 16);
  const std::vector<std::uint64_t> keys = enc.encode_all(km.centroids, bounds);
  const std::vector<PointId> cluster_order =
      simt::radix_sort_order(keys, enc.words_per_key(), nullptr);

  std::size_t total = 0;
  for (const auto& c : km.clusters) total += c.size();
  sequence.reserve(total);
  for (std::size_t i = 0; i < n_clusters; ++i) {
    const auto& members = km.clusters[cluster_order[i]];
    sequence.insert(sequence.end(), members.begin(), members.end());
  }
  return sequence;
}

}  // namespace

BuildOutput build_kmeans(const PointSet& points, std::size_t degree,
                         const KMeansBuildOptions& opts) {
  PSB_REQUIRE(!points.empty(), "cannot build over an empty point set");
  require_finite(points, "point");
  const auto start = std::chrono::steady_clock::now();

  BuildOutput out{SSTree(&points, degree, opts.bounds), {}, 0};
  simt::DeviceSpec spec;
  simt::Block block(spec, static_cast<int>(std::min<std::size_t>(degree, 1024)), &out.metrics);

  const Rect bounds = hilbert::bounding_rect(points);

  // 1) Leaf-level clustering. k defaults to Mardia's sqrt(n / 2) rule, the
  //    setting the paper's implementation uses (§IV-B).
  const std::size_t default_k = std::max<std::size_t>(1, cluster::mardia_k(points.size()));
  cluster::KMeansOptions kopts;
  kopts.k = opts.leaf_k == 0 ? default_k : opts.leaf_k;
  kopts.max_iterations = opts.max_iterations;
  kopts.sample_size = opts.sample_size;
  kopts.seed = opts.seed;
  kopts.block = &block;
  const cluster::KMeansResult km = cluster::kmeans(points, kopts);

  // 2) Serialize clusters and pack full leaves (100 % utilization: a cluster
  //    larger than a leaf spills into the next leaf, as in §IV-B).
  const std::vector<PointId> sequence = serialize_clusters(km, bounds);
  const std::vector<NodeId> leaves = detail::make_leaves(out.tree, sequence, block);

  // 3) Internal levels: re-cluster the level's node centers with k decayed by
  //    `internal_k_decay` per level (paper: 1/100), then pack consecutively.
  double level_k = static_cast<double>(kopts.k);
  auto reorder = [&](int /*level*/, std::vector<NodeId>& nodes) {
    level_k = std::max(1.0, level_k * opts.internal_k_decay);
    const auto k = static_cast<std::size_t>(level_k);
    if (k <= 1 || nodes.size() <= degree) return;  // single parent anyway

    PointSet centers(points.dims());
    centers.reserve(nodes.size());
    for (const NodeId id : nodes) centers.append(out.tree.node(id).sphere.center);

    cluster::KMeansOptions lopts = kopts;
    lopts.k = std::min(k, nodes.size());
    const cluster::KMeansResult lkm = cluster::kmeans(centers, lopts);
    const std::vector<PointId> node_order = serialize_clusters(lkm, bounds);

    std::vector<NodeId> permuted;
    permuted.reserve(nodes.size());
    for (const PointId idx : node_order) permuted.push_back(nodes[idx]);
    nodes = std::move(permuted);
  };
  detail::pack_internal_levels(out.tree, leaves, block, reorder);
  out.tree.finalize();

  out.host_build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return out;
}

}  // namespace psb::sstree
