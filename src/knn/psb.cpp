#include "knn/psb.hpp"

#include "knn/detail/traversal_common.hpp"
#include "simt/warp_ops.hpp"

namespace psb::knn {
namespace {

using detail::child_bounds;
using detail::leaf_distances;
using detail::tighten_with_minmax;

/// Per-query traversal state: which nodes this query has touched (re-fetches
/// hit L2 — Access::kCached) and where the linear leaf scan stands (a fetch
/// of leaf i+1 right after leaf i is address-sequential and prefetchable —
/// Access::kCoalesced, PSB's "contiguous memory blocks" advantage).
class PsbRun {
 public:
  PsbRun(simt::Block& block, const sstree::SSTree& tree, std::span<const Scalar> q,
         const GpuKnnOptions& opts, QueryResult& out)
      : block_(block),
        tree_(tree),
        q_(q),
        opts_(opts),
        out_(out),
        st_(out.stats),
        list_(block, std::min(opts.k, tree.data().size()), opts.spill_heap_to_global),
        snap_(tree, opts) {
    // Only the pointer path classifies fetches by first touch; the arena
    // sessions classify by address.
    if (!snap_) touched_.assign(tree.num_nodes(), 0);
    detail::seed_shared_bound(list_, opts);
    run();
    out.neighbors = list_.sorted();
  }

 private:
  /// Cooperative budget stop: record the exhaustion and let every loop
  /// unwind normally, finalizing whatever the k-list holds so far.
  bool out_of_budget() {
    if (!detail::budget_exhausted(opts_, st_)) return false;
    out_.budget_exhausted = true;
    return true;
  }

  void fetch(const sstree::Node& n) {
    if (fault::enabled()) sstree::verify_node_integrity(n);
    if (snap_) {
      // Snapshot path: the arena classifies the access by address (the
      // packed leaf chain streams, window hits are free) — same traversal,
      // different memory accounting.
      snap_.fetch(block_, n);
      ++st_.nodes_visited;
      return;
    }
    simt::Access pattern;
    if (n.is_leaf() && static_cast<std::int64_t>(n.leaf_id) == last_fetched_leaf_ + 1) {
      pattern = simt::Access::kCoalesced;  // continuing the left-to-right stream
    } else if (touched_[n.id]) {
      pattern = simt::Access::kCached;
    } else {
      pattern = simt::Access::kRandom;
    }
    touched_[n.id] = 1;
    if (n.is_leaf()) last_fetched_leaf_ = n.leaf_id;
    block_.load_global(tree_.node_byte_size(n), pattern);
    ++st_.nodes_visited;
  }

  /// Phase 1 (Alg. 1 line 3): greedy min-MINDIST descent to the leaf closest
  /// to the query; its k-th point distance (and MINMAXDIST bounds along the
  /// way) seed the pruning distance. No points enter the result list — the
  /// main scan re-discovers them, keeping the list duplicate-free.
  void initial_descent() {
    NodeId cur = tree_.root();
    ++st_.restarts;
    for (;;) {
      if (out_of_budget()) return;
      const sstree::Node& n = tree_.node(cur);
      fetch(n);
      if (n.is_leaf()) {
        ++st_.leaves_visited;
        const std::vector<Scalar> dists = leaf_distances(block_, tree_, n, q_);
        st_.points_examined += dists.size();
        if (dists.size() >= list_.k()) {
          list_.tighten(block_.reduce_kth_min(dists, list_.k()));
        }
        // The descent leaf was a pointer jump, not part of the linear scan.
        last_fetched_leaf_ = -2;
        return;
      }
      child_bounds(block_, tree_, n, q_, /*need_max=*/true, cb_);
      tighten_with_minmax(block_, list_, cb_.maxdist);
      cur = n.children[block_.reduce_argmin(cb_.mindist)];
    }
  }

  void run() {
    if (opts_.psb_initial_descent) initial_descent();
    if (out_.budget_exhausted) return;

    // Watermark of the highest leaf id whose points are accounted for —
    // either truly scanned or exactly pruned (every skipped leaf left of the
    // scan position failed the pruning test at some ancestor).
    const std::int64_t last_leaf = tree_.last_leaf_id();
    std::int64_t visited = -1;
    NodeId cur = tree_.root();
    ++st_.restarts;
    bool done = false;

    while (!done) {
      // --- descend: leftmost in-range child with unscanned leaves ---
      while (!tree_.node(cur).is_leaf()) {
        if (out_of_budget()) return;
        const sstree::Node& n = tree_.node(cur);
        fetch(n);
        child_bounds(block_, tree_, n, q_, /*need_max=*/true, cb_);
        tighten_with_minmax(block_, list_, cb_.maxdist);
        const Scalar prune = list_.pruning_distance();

        // Alg. 1 lines 16-26: leftmost child inside the pruning distance
        // whose subtree still has unscanned leaves — one predicate per lane,
        // then a ballot + ffs (charged by leftmost_set).
        qualifies_.resize(n.children.size());
        for (std::size_t i = 0; i < n.children.size(); ++i) {
          qualifies_[i] =
              cb_.mindist[i] < prune &&
              static_cast<std::int64_t>(tree_.node(n.children[i]).subtree_max_leaf) > visited;
        }
        const std::size_t pick = simt::leftmost_set(block_, qualifies_);
        const bool found = pick < n.children.size();
        if (found) cur = n.children[pick];
        if (!found) {
          // Every remaining leaf of this subtree is pruned: advancing the
          // watermark over them is exact (pruning distances only shrink)
          // and guarantees the backtracking loop terminates.
          visited = std::max(visited, static_cast<std::int64_t>(n.subtree_max_leaf));
          if (cur == tree_.root()) {
            done = true;
            break;
          }
          cur = n.parent;  // Alg. 1 line 29: backtrack via the parent link
          ++st_.backtracks;
        }
      }
      if (done || visited >= last_leaf) break;

      // --- leaf scan: linear sweep over right siblings (Alg. 1 l. 32–46) ---
      for (;;) {
        if (out_of_budget()) return;
        const sstree::Node& leaf = tree_.node(cur);
        fetch(leaf);
        ++st_.leaves_visited;
        st_.points_examined += leaf.points.size();
        const std::size_t inserted = list_.scan_leaf(leaf, q_);
        st_.heap_inserts += inserted;
        visited = leaf.leaf_id;

        if (visited >= last_leaf) {
          done = true;
          break;
        }
        if (inserted > 0 && opts_.psb_leaf_scan) {
          cur = leaf.right_sibling;  // keep scanning while the list improves
          ++st_.leaf_scans;
          continue;
        }
        cur = leaf.parent;  // no improvement: backtrack
        ++st_.backtracks;
        break;
      }
    }
  }

  simt::Block& block_;
  const sstree::SSTree& tree_;
  std::span<const Scalar> q_;
  const GpuKnnOptions& opts_;
  QueryResult& out_;
  TraversalStats& st_;
  SharedKnnList list_;
  detail::SnapshotFetch snap_;
  std::vector<char> touched_;  // pointer path only
  std::int64_t last_fetched_leaf_ = -2;
  // Per-node scratch, reused down the whole walk.
  detail::ChildBounds cb_;
  std::vector<std::uint8_t> qualifies_;
};

}  // namespace

QueryResult psb_query(const sstree::SSTree& tree, std::span<const Scalar> query,
                      const GpuKnnOptions& opts, simt::Metrics* metrics) {
  PSB_REQUIRE(opts.k > 0, "k must be > 0");
  PSB_REQUIRE(query.size() == tree.dims(), "query dimensionality mismatch");
  simt::Metrics local;
  simt::Block block(opts.device, detail::resolve_block_threads(opts, tree.degree()),
                    metrics != nullptr ? metrics : &local);
  QueryResult out;
  PsbRun(block, tree, query, opts, out);
  return out;
}

BatchResult psb_batch(const sstree::SSTree& tree, const PointSet& queries,
                      const GpuKnnOptions& opts) {
  PSB_REQUIRE(opts.k > 0, "k must be > 0");
  PSB_REQUIRE(queries.dims() == tree.dims(), "query dimensionality mismatch");
  const int threads = detail::resolve_block_threads(opts, tree.degree());
  return detail::run_batch("psb", queries, opts, threads,
                           [&](simt::Block& block, std::span<const Scalar> q, QueryResult& r) {
                             PsbRun(block, tree, q, opts, r);
                           });
}

}  // namespace psb::knn
