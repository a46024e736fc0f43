// Classic top-down SS-tree construction (White & Jain, ICDE'96), used as the
// construction-ablation baseline: sequential inserts with nearest-centroid
// choose-subtree, highest-variance-dimension splits (detail/topdown_ops),
// and leaf-level forced reinsertion. A final bottom-up Ritter pass tightens
// every sphere before the tree is finalized.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

#include "sstree/builders.hpp"
#include "sstree/detail/topdown_ops.hpp"

namespace psb::sstree {
namespace {

class TopDownBuilder {
 public:
  TopDownBuilder(const PointSet& points, std::size_t degree, const TopDownOptions& opts,
                 SSTree& tree, simt::Metrics& metrics)
      : points_(points), degree_(degree), opts_(opts), tree_(tree), metrics_(metrics) {}

  void run() {
    root_ = tree_.add_node(0);
    for (PointId pid = 0; pid < points_.size(); ++pid) {
      reinserted_ = false;
      insert(pid);
    }
    tighten();
    tree_.set_root(root_);
    tree_.finalize();
  }

 private:
  void charge_node_visit(const Node& n) {
    // Top-down insertion is inherently serial (§IV: "requires serialization
    // of insert operations"): the choose-subtree distance computations are
    // charged as warp-serialized work plus a scattered node fetch.
    metrics_.bytes_random += tree_.node_byte_size(n);
    metrics_.node_fetches += 1;
    metrics_.fetches_random += 1;
    metrics_.serial_ops += n.count() * (points_.dims() * 3 + 2);
    metrics_.warp_instructions += n.count();
    metrics_.active_lane_slots += n.count();
  }

  void grow_to_cover(Node& n, std::span<const Scalar> p) {
    if (n.sphere.center.empty()) {
      n.sphere.center.assign(p.begin(), p.end());
      n.sphere.radius = 0;
      return;
    }
    n.sphere.radius = std::max(n.sphere.radius, distance(n.sphere.center, p));
  }

  void insert(PointId pid) {
    const auto p = points_[pid];
    NodeId cur = root_;
    for (;;) {
      Node& n = tree_.node(cur);
      charge_node_visit(n);
      grow_to_cover(n, p);
      if (n.is_leaf()) break;
      NodeId best = n.children.front();
      Scalar best_d = kInfinity;
      for (const NodeId c : n.children) {
        const Node& child = tree_.node(c);
        const Scalar d = child.sphere.center.empty() ? 0 : distance(child.sphere.center, p);
        if (d < best_d) {
          best_d = d;
          best = c;
        }
      }
      cur = best;
    }
    Node& leaf = tree_.node(cur);
    leaf.points.push_back(pid);
    if (leaf.points.size() > degree_) handle_leaf_overflow(cur);
  }

  void handle_leaf_overflow(NodeId id) {
    if (!reinserted_ && opts_.reinsert_fraction > 0) {
      reinserted_ = true;
      force_reinsert(id);
      return;
    }
    detail::split_node(tree_, id, root_, &metrics_);
  }

  /// Remove the ceil(f * count) points farthest from the leaf centroid and
  /// insert them again from the root (R*-style dynamic reorganization).
  void force_reinsert(NodeId id) {
    Node& leaf = tree_.node(id);
    std::vector<Scalar> centroid(points_.dims(), 0);
    for (const PointId pid : leaf.points) {
      const auto p = points_[pid];
      for (std::size_t t = 0; t < centroid.size(); ++t) centroid[t] += p[t];
    }
    for (auto& c : centroid) c /= static_cast<Scalar>(leaf.points.size());

    std::vector<std::pair<Scalar, PointId>> by_dist;
    by_dist.reserve(leaf.points.size());
    for (const PointId pid : leaf.points) {
      by_dist.emplace_back(distance(centroid, points_[pid]), pid);
    }
    std::sort(by_dist.begin(), by_dist.end());

    const auto evict = static_cast<std::size_t>(
        std::ceil(opts_.reinsert_fraction * static_cast<double>(by_dist.size())));
    const std::size_t keep = by_dist.size() - std::max<std::size_t>(evict, 1);

    leaf.points.clear();
    for (std::size_t i = 0; i < keep; ++i) leaf.points.push_back(by_dist[i].second);
    detail::refit_node(tree_, leaf);

    for (std::size_t i = keep; i < by_dist.size(); ++i) insert(by_dist[i].second);
  }

  /// Final bottom-up tightening: grow-only maintenance leaves loose spheres;
  /// recompute every node with Ritter before finalize.
  void tighten() {
    std::vector<NodeId> ids(tree_.num_nodes());
    for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<NodeId>(i);
    std::sort(ids.begin(), ids.end(),
              [&](NodeId a, NodeId b) { return tree_.node(a).level < tree_.node(b).level; });
    for (const NodeId id : ids) detail::refit_node(tree_, tree_.node(id));
  }

  const PointSet& points_;
  std::size_t degree_;
  TopDownOptions opts_;
  SSTree& tree_;
  simt::Metrics& metrics_;
  NodeId root_ = kInvalidNode;
  bool reinserted_ = false;
};

}  // namespace

BuildOutput build_topdown(const PointSet& points, std::size_t degree,
                          const TopDownOptions& opts) {
  PSB_REQUIRE(!points.empty(), "cannot build over an empty point set");
  require_finite(points, "point");
  PSB_REQUIRE(opts.reinsert_fraction >= 0 && opts.reinsert_fraction < 1,
              "reinsert_fraction must be in [0, 1)");
  const auto start = std::chrono::steady_clock::now();

  BuildOutput out{SSTree(&points, degree), {}, 0};
  TopDownBuilder builder(points, degree, opts, out.tree, out.metrics);
  builder.run();

  out.host_build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return out;
}

}  // namespace psb::sstree
