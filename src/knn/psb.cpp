#include "knn/psb.hpp"

#include <algorithm>
#include <utility>

#include "knn/detail/traversal_common.hpp"
#include "simt/warp_ops.hpp"

namespace psb::knn {
namespace {

using detail::child_bounds;
using detail::leaf_distances;

/// Per-query traversal state: which nodes this query has touched (re-fetches
/// hit L2 — Access::kCached), where the linear leaf scan stands (a fetch
/// of leaf i+1 right after leaf i is address-sequential and prefetchable —
/// Access::kCoalesced, PSB's "contiguous memory blocks" advantage), and the
/// child bounds of every internal node visited so far.
///
/// Backtracking re-enters the same few internal nodes many times, so the
/// first visit of a node memoizes its children's MINDISTs, their
/// subtree_max_leaf as one contiguous column (the qualify predicate then
/// reads no child Node) and tighten_with_minmax's k-th MAXDIST; every later
/// visit charges what a recomputation would and reads them back (the charge
/// contract is in traversal_common.hpp).
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

  /// One memoized internal node: its child columns start at `offset` in
  /// mindist_ / max_leaf_.
  struct Memo {
    std::size_t offset;
    Scalar kth_maxdist;  // tighten_with_minmax's first-visit return
  };

  /// Child bounds of internal node `n` for this visit, with the MINMAXDIST
  /// tightening applied: computed and memoized on the first visit, read back
  /// on later ones, charged in full either way.
  Memo visit_bounds(const sstree::Node& n) {
    const std::size_t c = n.children.size();
    const auto it = std::lower_bound(
        memo_index_.begin(), memo_index_.end(), n.id,
        [](const std::pair<NodeId, std::size_t>& e, NodeId id) { return e.first < id; });
    if (it != memo_index_.end() && it->first == n.id) {
      const Memo m = memos_[it->second];
      detail::charge_child_bounds(block_, tree_, n, /*need_max=*/true);
      detail::tighten_with_kth(block_, list_, c, m.kth_maxdist);
      return m;
    }
    child_bounds(block_, tree_, n, q_, /*need_max=*/true, cb_);
    const Memo m{mindist_.size(), detail::tighten_with_minmax(block_, list_, cb_.maxdist)};
    mindist_.insert(mindist_.end(), cb_.mindist.begin(), cb_.mindist.end());
    for (const NodeId child : n.children) {
      max_leaf_.push_back(tree_.node(child).subtree_max_leaf);
    }
    memo_index_.insert(it, {n.id, memos_.size()});
    memos_.push_back(m);
    return m;
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
      const Memo m = visit_bounds(n);
      cur = n.children[block_.reduce_argmin(
          std::span(mindist_).subspan(m.offset, n.children.size()))];
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
        const Memo m = visit_bounds(n);
        const Scalar prune = list_.pruning_distance();

        // Alg. 1 lines 16-26: leftmost child inside the pruning distance
        // whose subtree still has unscanned leaves — one predicate per lane,
        // then a ballot + ffs (charged by leftmost_set).
        const std::size_t c = n.children.size();
        const Scalar* mindist = mindist_.data() + m.offset;
        const std::int64_t* max_leaf = max_leaf_.data() + m.offset;
        qualifies_.resize(c);
        for (std::size_t i = 0; i < c; ++i) {
          qualifies_[i] = mindist[i] < prune && max_leaf[i] > visited;
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
  // The bounds memo: memo_index_ maps a node id (sorted) to its memos_ slot.
  std::vector<std::pair<NodeId, std::size_t>> memo_index_;
  std::vector<Memo> memos_;
  std::vector<Scalar> mindist_;
  std::vector<std::int64_t> max_leaf_;
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
