#include "knn/stackless_baselines.hpp"

#include "knn/detail/traversal_common.hpp"

namespace psb::knn {
namespace {

using detail::child_bounds;
using detail::fetch_node;
using detail::tighten_with_minmax;

void finalize(SharedKnnList& list, QueryResult& out) { out.neighbors = list.sorted(); }

// ---------------------------------------------------------------------------
// kd-restart adaptation
// ---------------------------------------------------------------------------

void restart_run(simt::Block& block, const sstree::SSTree& tree, std::span<const Scalar> q,
                 const GpuKnnOptions& opts, QueryResult& out) {
  const std::size_t k_eff = std::min(opts.k, tree.data().size());
  SharedKnnList list(block, k_eff, opts.spill_heap_to_global);
  detail::seed_shared_bound(list, opts);
  TraversalStats& st = out.stats;

  // Same exact-skipping watermark as PSB; the difference is purely the path
  // taken to the next leaf: always a fresh root descent. Re-descended prefix
  // nodes hit L2, same credit the PSB traversal gets for its backtracks.
  const std::int64_t last_leaf = tree.last_leaf_id();
  std::int64_t visited = -1;
  detail::SnapshotFetch snap(tree, opts);
  std::vector<char> touched(tree.num_nodes(), 0);
  detail::ChildBounds cb;
  auto fetch = [&](const sstree::Node& n) {
    fetch_node(block, tree, n,
               touched[n.id] ? simt::Access::kCached : simt::Access::kRandom, &snap);
    touched[n.id] = 1;
    ++st.nodes_visited;
  };

  while (visited < last_leaf) {
    if (detail::budget_exhausted(opts, st)) {
      out.budget_exhausted = true;
      return finalize(list, out);
    }
    NodeId cur = tree.root();
    ++st.restarts;
    // Root-to-leaf descent toward the leftmost unscanned in-range leaf.
    while (!tree.node(cur).is_leaf()) {
      if (detail::budget_exhausted(opts, st)) {
        out.budget_exhausted = true;
        return finalize(list, out);
      }
      const sstree::Node& n = tree.node(cur);
      fetch(n);
      child_bounds(block, tree, n, q, /*need_max=*/true, cb);
      tighten_with_minmax(block, list, cb.maxdist);
      const Scalar prune = list.pruning_distance();
      bool found = false;
      for (std::size_t i = 0; i < n.children.size(); ++i) {
        if (!(cb.mindist[i] < prune)) continue;
        if (static_cast<std::int64_t>(tree.node(n.children[i]).subtree_max_leaf) <= visited) {
          continue;
        }
        cur = n.children[i];
        found = true;
        break;
      }
      if (!found) {
        // Everything below is pruned or scanned; mark and restart (or stop
        // when this was the root).
        visited = std::max(visited, static_cast<std::int64_t>(n.subtree_max_leaf));
        if (cur == tree.root()) return finalize(list, out);
        break;  // restart from the root
      }
    }
    if (!tree.node(cur).is_leaf()) continue;  // pruned mid-descent: restart

    const sstree::Node& leaf = tree.node(cur);
    fetch(leaf);
    ++st.leaves_visited;
    st.points_examined += leaf.points.size();
    st.heap_inserts += list.scan_leaf(leaf, q);
    visited = leaf.leaf_id;
  }
  finalize(list, out);
}

// ---------------------------------------------------------------------------
// Skip pointers
// ---------------------------------------------------------------------------

void skip_pointer_run(simt::Block& block, const sstree::SSTree& tree,
                      std::span<const Scalar> q, const GpuKnnOptions& opts,
                      QueryResult& out) {
  const std::size_t k_eff = std::min(opts.k, tree.data().size());
  SharedKnnList list(block, k_eff, opts.spill_heap_to_global);
  detail::seed_shared_bound(list, opts);
  TraversalStats& st = out.stats;
  detail::SnapshotFetch snap(tree, opts);

  std::int64_t last_fetched_leaf = -2;
  NodeId cur = tree.root();
  ++st.restarts;  // one preorder sweep from the root
  while (cur != kInvalidNode) {
    if (detail::budget_exhausted(opts, st)) {
      out.budget_exhausted = true;
      break;
    }
    const sstree::Node& n = tree.node(cur);
    // Consecutive leaves are address-sequential, exactly as in PSB's scan;
    // everything else in the forward sweep is a dependent jump.
    const bool sequential =
        n.is_leaf() && static_cast<std::int64_t>(n.leaf_id) == last_fetched_leaf + 1;
    fetch_node(block, tree, n,
               sequential ? simt::Access::kCoalesced : simt::Access::kRandom, &snap);
    ++st.nodes_visited;
    if (n.is_leaf()) last_fetched_leaf = n.leaf_id;

    // Prune on this node's own bounding sphere (one lane computes it).
    const Scalar mind = mindist(q, n.sphere);
    block.par_for(1, tree.dims() * 3 + 2, [](std::size_t) {});
    if (!(mind < list.pruning_distance())) {
      cur = n.skip;  // skip the whole subtree
      ++st.backtracks;
      continue;
    }
    if (n.is_leaf()) {
      ++st.leaves_visited;
      st.points_examined += n.points.size();
      st.heap_inserts += list.scan_leaf(n, q);
      cur = n.skip;
      ++st.leaf_scans;  // forward hop to the next preorder node
    } else {
      cur = n.children.front();  // descend
    }
  }
  finalize(list, out);
}

}  // namespace

QueryResult restart_query(const sstree::SSTree& tree, std::span<const Scalar> query,
                          const GpuKnnOptions& opts, simt::Metrics* metrics) {
  PSB_REQUIRE(opts.k > 0, "k must be > 0");
  PSB_REQUIRE(query.size() == tree.dims(), "query dimensionality mismatch");
  simt::Metrics local;
  simt::Block block(opts.device, detail::resolve_block_threads(opts, tree.degree()),
                    metrics != nullptr ? metrics : &local);
  QueryResult out;
  restart_run(block, tree, query, opts, out);
  return out;
}

BatchResult restart_batch(const sstree::SSTree& tree, const PointSet& queries,
                          const GpuKnnOptions& opts) {
  PSB_REQUIRE(opts.k > 0, "k must be > 0");
  PSB_REQUIRE(queries.dims() == tree.dims(), "query dimensionality mismatch");
  const int threads = detail::resolve_block_threads(opts, tree.degree());
  return detail::run_batch("stackless_restart", queries, opts, threads,
                           [&](simt::Block& block, std::span<const Scalar> q, QueryResult& r) {
                             restart_run(block, tree, q, opts, r);
                           });
}

QueryResult skip_pointer_query(const sstree::SSTree& tree, std::span<const Scalar> query,
                               const GpuKnnOptions& opts, simt::Metrics* metrics) {
  PSB_REQUIRE(opts.k > 0, "k must be > 0");
  PSB_REQUIRE(query.size() == tree.dims(), "query dimensionality mismatch");
  simt::Metrics local;
  simt::Block block(opts.device, detail::resolve_block_threads(opts, tree.degree()),
                    metrics != nullptr ? metrics : &local);
  QueryResult out;
  skip_pointer_run(block, tree, query, opts, out);
  return out;
}

BatchResult skip_pointer_batch(const sstree::SSTree& tree, const PointSet& queries,
                               const GpuKnnOptions& opts) {
  PSB_REQUIRE(opts.k > 0, "k must be > 0");
  PSB_REQUIRE(queries.dims() == tree.dims(), "query dimensionality mismatch");
  const int threads = detail::resolve_block_threads(opts, tree.degree());
  return detail::run_batch("stackless_skip", queries, opts, threads,
                           [&](simt::Block& block, std::span<const Scalar> q, QueryResult& r) {
                             skip_pointer_run(block, tree, q, opts, r);
                           });
}

}  // namespace psb::knn
