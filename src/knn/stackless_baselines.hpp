// The other stackless traversal strategies the paper surveys (§II-A) —
// implemented as exact-kNN baselines so PSB's design choices are measurable
// against them (bench/stackless_strategies):
//
//  * restart_*      — kd-restart adapted to kNN (cf. Foley & Sugerman'05 and
//                     the authors' own MPRS): after every leaf, the traversal
//                     restarts from the root toward the leftmost unscanned
//                     leaf inside the pruning distance. No parent links, no
//                     sibling chain; pays repeated root-to-leaf descents.
//  * skip_pointer_* — Smits'98 ropes: every node points to the next preorder
//                     node with its subtree skipped. One forward sweep, no
//                     revisits — but every sibling subtree on the path is
//                     *visited* (its header fetched) even when a backtracking
//                     traversal would never touch it. Over the implicit
//                     arena the same sweep is an escape-index walk (slot + 1
//                     to descend, ImplicitLayout::escape to skip); the escape
//                     table is the preorder image of the skip chain, so
//                     skip_pointer_* with GpuKnnOptions::implicit charges
//                     exactly what that walk charges.
//
// Both are exact; both run on the same simulator and shared k-NN list.
#pragma once

#include "knn/result.hpp"
#include "sstree/tree.hpp"

namespace psb::knn {

/// kd-restart-style exact kNN for one query.
QueryResult restart_query(const sstree::SSTree& tree, std::span<const Scalar> query,
                          const GpuKnnOptions& opts, simt::Metrics* metrics);
BatchResult restart_batch(const sstree::SSTree& tree, const PointSet& queries,
                          const GpuKnnOptions& opts = {});

/// Skip-pointer exact kNN for one query.
QueryResult skip_pointer_query(const sstree::SSTree& tree, std::span<const Scalar> query,
                               const GpuKnnOptions& opts, simt::Metrics* metrics);
BatchResult skip_pointer_batch(const sstree::SSTree& tree, const PointSet& queries,
                               const GpuKnnOptions& opts = {});

}  // namespace psb::knn
