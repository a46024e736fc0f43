// Online maintenance of an SS-tree: top-down point insertion (paper §IV:
// "If a data point is inserted online, top-down insertion will do the work")
// and point removal, batched behind an explicit commit().
//
// Usage contract:
//   * The tree's PointSet may grow (append) before insert() calls; erased
//     points stay in the PointSet but leave the index.
//   * Between the first mutation and commit(), the tree is NOT safe to
//     query — commit() re-tightens spheres, compacts the node arena, and
//     re-derives all traversal support (leaf ids, chains, skip pointers).
//   * Sphere-bounds trees only (the bottom-up builders cover rect mode).
//
// Lifetime: one Updater may serve any number of insert/erase/commit rounds,
// and keeping it is what makes a round cost the leaves it touched. It caches
// the tree's root and a PointId -> leaf map, so it must be the tree's only
// mutator: drop it (and construct a new one) whenever the tree is rebuilt,
// reloaded or replaced by anything else.
//
// Why dirty-only leaf refit is bit-identical to refitting everything: the
// first commit() refits every node, replacing whatever spheres the builder
// produced (e.g. parallel_ritter_points) with ritter_points over each leaf's
// point list. From then on a leaf's sphere is only touched by insert() (the
// grow-only descent ends in the leaf receiving the point), by a split (both
// halves get new point lists) or by erase() (the leaf loses a point) — each
// of which marks the leaf dirty. A clean leaf therefore still holds
// ritter_points(data, points) for an unchanged, identically ordered point
// list over unchanged coordinates, which is exactly what a refit would
// recompute. Internal nodes are always refit (their children's order and
// spheres may move), so every sphere, SoA array and integrity word equals a
// full refit's.
#pragma once

#include <cstdint>
#include <vector>

#include "simt/metrics.hpp"
#include "sstree/tree.hpp"

namespace psb::sstree {

class Updater {
 public:
  /// Maintains `tree` in place; `tree` must be finalized and sphere-mode.
  explicit Updater(SSTree* tree);

  /// Top-down insert of point `pid` (must be a valid id in the tree's
  /// PointSet and not currently indexed). Throws InvalidArgument naming the
  /// point and coordinate when the point has a NaN or infinite coordinate,
  /// leaving the tree and pending() unchanged.
  void insert(PointId pid);

  /// Remove a point from the index; returns false if it was not indexed.
  bool erase(PointId pid);

  /// Mutations since the last commit().
  std::size_t pending() const noexcept { return pending_; }

  /// Tighten spheres bottom-up (every node on the first call, then the
  /// leaves whose point lists changed plus every internal node), compact the
  /// node arena (dropping emptied nodes), and re-finalize. After commit()
  /// the tree answers queries again.
  void commit();

  /// Accumulated simulated cost of the maintenance operations.
  const simt::Metrics& metrics() const noexcept { return metrics_; }

 private:
  /// Record that `leaf`'s point list changed since the last commit().
  void mark_dirty(NodeId leaf);

  SSTree* tree_;
  NodeId root_;
  simt::Metrics metrics_;
  std::size_t pending_ = 0;
  /// Until the first commit(), every leaf counts as dirty (see above).
  bool refit_all_ = true;
  /// PointId -> leaf holding it; kInvalidNode when not indexed.
  std::vector<NodeId> leaf_of_;
  /// NodeId-indexed: nonzero when the leaf must be refit at commit().
  std::vector<std::uint8_t> dirty_;
};

}  // namespace psb::sstree
