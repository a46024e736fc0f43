#include "sstree/update.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"
#include "sstree/detail/topdown_ops.hpp"

namespace psb::sstree {

Updater::Updater(SSTree* tree) : tree_(tree) {
  PSB_REQUIRE(tree != nullptr, "tree required");
  PSB_REQUIRE(tree->bounds_mode() == BoundsMode::kSphere,
              "online updates support sphere bounds");
  root_ = tree->root();
  leaf_of_.assign(tree->data().size(), kInvalidNode);
  // Walk the *live* structure from the root (the arena may hold nodes that a
  // previous commit has not compacted away yet).
  std::vector<NodeId> stack{root_};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    const Node& n = tree->node(id);
    for (const PointId p : n.points) leaf_of_[p] = id;
    for (const NodeId c : n.children) stack.push_back(c);
  }
}

void Updater::mark_dirty(NodeId leaf) {
  if (leaf >= dirty_.size()) dirty_.resize(tree_->num_nodes(), 0);
  dirty_[leaf] = 1;
}

void Updater::insert(PointId pid) {
  PSB_REQUIRE(pid < tree_->data().size(), "point id out of range");
  const auto p = tree_->data()[pid];
  require_finite(p, ("point " + std::to_string(pid)).c_str());
  if (pid >= leaf_of_.size()) leaf_of_.resize(tree_->data().size(), kInvalidNode);
  PSB_REQUIRE(leaf_of_[pid] == kInvalidNode, "point is already indexed");

  NodeId cur = root_;
  for (;;) {
    Node& n = tree_->node(cur);
    metrics_.bytes_random += tree_->node_byte_size(n);
    metrics_.node_fetches += 1;
    metrics_.fetches_random += 1;
    metrics_.serial_ops += n.count() * (tree_->dims() * 3 + 2);
    // Grow-only coverage; commit() re-tightens.
    if (n.sphere.center.empty()) {
      n.sphere.center.assign(p.begin(), p.end());
      n.sphere.radius = 0;
    } else {
      n.sphere.radius = std::max(n.sphere.radius, distance(n.sphere.center, p));
    }
    if (n.is_leaf()) break;
    NodeId best = n.children.front();
    Scalar best_d = kInfinity;
    for (const NodeId c : n.children) {
      const Scalar d = distance(tree_->node(c).sphere.center, p);
      if (d < best_d) {
        best_d = d;
        best = c;
      }
    }
    cur = best;
  }
  tree_->node(cur).points.push_back(pid);
  leaf_of_[pid] = cur;
  mark_dirty(cur);
  if (tree_->node(cur).points.size() > tree_->degree()) {
    const NodeId first_new = static_cast<NodeId>(tree_->num_nodes());
    detail::split_node(*tree_, cur, root_, &metrics_);
    // The split moved half of cur's points into a new leaf sibling; any
    // other new nodes are internal (parent splits, a new root).
    for (NodeId id = first_new; id < tree_->num_nodes(); ++id) {
      if (!tree_->node(id).is_leaf()) continue;
      for (const PointId moved : tree_->node(id).points) leaf_of_[moved] = id;
      mark_dirty(id);
    }
  }
  ++pending_;
}

bool Updater::erase(PointId pid) {
  if (pid >= leaf_of_.size() || leaf_of_[pid] == kInvalidNode) return false;

  Node& leaf = tree_->node(leaf_of_[pid]);
  auto pos = std::find(leaf.points.begin(), leaf.points.end(), pid);
  PSB_ASSERT(pos != leaf.points.end(), "membership map out of sync");
  leaf.points.erase(pos);
  leaf_of_[pid] = kInvalidNode;
  mark_dirty(leaf.id);
  metrics_.bytes_random += tree_->node_byte_size(leaf);
  metrics_.node_fetches += 1;
  metrics_.fetches_random += 1;

  // Condense: unlink emptied nodes up the path (commit() drops them from the
  // arena). The root is kept even when it empties out to a single child.
  NodeId cur = leaf.id;
  while (cur != root_ && tree_->node(cur).count() == 0) {
    const NodeId parent = tree_->node(cur).parent;
    Node& pn = tree_->node(parent);
    pn.children.erase(std::find(pn.children.begin(), pn.children.end(), cur));
    cur = parent;
  }
  PSB_REQUIRE(tree_->node(root_).count() > 0, "cannot erase the last indexed point");
  ++pending_;
  return true;
}

void Updater::commit() {
  // Collapse a root chain left behind by condensation (root with a single
  // internal child).
  while (!tree_->node(root_).is_leaf() && tree_->node(root_).children.size() == 1) {
    root_ = tree_->node(root_).children.front();
  }

  // Compact: rebuild the arena with only the nodes reachable from the root,
  // refitting spheres bottom-up as we go.
  SSTree fresh(&tree_->data(), tree_->degree(), tree_->bounds_mode());
  std::vector<NodeId> remap(tree_->num_nodes(), kInvalidNode);
  // Deepest-first copy so children exist (and are refit) before parents.
  std::vector<NodeId> order;
  std::vector<NodeId> stack{root_};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    order.push_back(id);
    for (const NodeId c : tree_->node(id).children) stack.push_back(c);
  }
  std::reverse(order.begin(), order.end());
  for (const NodeId old_id : order) {
    Node& old_node = tree_->node(old_id);
    const NodeId new_id = fresh.add_node(old_node.level);
    Node& n = fresh.node(new_id);
    n.points = std::move(old_node.points);
    n.children.reserve(old_node.children.size());
    for (const NodeId c : old_node.children) n.children.push_back(remap[c]);
    const bool dirty = old_id < dirty_.size() && dirty_[old_id] != 0;
    if (n.is_leaf() && !refit_all_ && !dirty) {
      n.sphere = std::move(old_node.sphere);  // == ritter_points over unchanged points
    } else {
      detail::refit_node(fresh, n);
    }
    for (const PointId p : n.points) leaf_of_[p] = new_id;
    remap[old_id] = new_id;
  }
  fresh.set_root(remap[root_]);
  fresh.finalize();

  *tree_ = std::move(fresh);
  root_ = tree_->root();
  pending_ = 0;
  refit_all_ = false;
  dirty_.assign(tree_->num_nodes(), 0);
}

}  // namespace psb::sstree
