#include "knn/branch_and_bound.hpp"

#include <deque>
#include <numeric>

#include "knn/detail/traversal_common.hpp"

namespace psb::knn {
namespace {

using detail::child_bounds;
using detail::fetch_node;

/// Scratch of one recursion level: the node's child bounds and its visiting
/// order stay live while the children below it are visited.
struct BnbFrame {
  detail::ChildBounds cb;
  std::vector<std::size_t> order;
};

struct BnbContext {
  simt::Block& block;
  const sstree::SSTree& tree;
  std::span<const Scalar> q;
  SharedKnnList& list;
  QueryResult& out;
  TraversalStats& st;
  const GpuKnnOptions& opts;
  detail::SnapshotFetch* snap;
  std::deque<BnbFrame> frames;  // one per depth; deque keeps references stable
};

/// Cooperative budget check at every recursion step: a true return unwinds
/// the whole visit chain without further fetches.
bool bnb_out_of_budget(BnbContext& ctx) {
  if (!detail::budget_exhausted(ctx.opts, ctx.st)) return false;
  ctx.out.budget_exhausted = true;
  return true;
}

void bnb_visit(BnbContext& ctx, NodeId id, std::size_t depth) {
  if (bnb_out_of_budget(ctx)) return;
  const sstree::Node& n = ctx.tree.node(id);
  fetch_node(ctx.block, ctx.tree, n, simt::Access::kRandom, ctx.snap);
  ++ctx.st.nodes_visited;

  if (n.is_leaf()) {
    ++ctx.st.leaves_visited;
    ctx.st.points_examined += n.points.size();
    ctx.st.heap_inserts += ctx.list.scan_leaf(n, ctx.q);
    return;
  }

  if (ctx.frames.size() <= depth) ctx.frames.emplace_back();
  BnbFrame& frame = ctx.frames[depth];
  detail::ChildBounds& cb = frame.cb;
  // Classic baseline: MINDIST pruning only. Roussopoulos et al. define
  // MINMAXDIST pruning for 1-NN; the k-generalized bound is PSB's own.
  child_bounds(ctx.block, ctx.tree, n, ctx.q, /*need_max=*/false, cb);

  // Active branch list sorted by MINDIST (one block-wide bitonic sort).
  std::vector<std::size_t>& order = frame.order;
  order.resize(n.children.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return cb.mindist[a] < cb.mindist[b]; });
  ctx.block.charge_bitonic_sort(cb.mindist.size());

  for (const std::size_t idx : order) {
    if (bnb_out_of_budget(ctx)) return;
    if (!(cb.mindist[idx] < ctx.list.pruning_distance())) break;
    bnb_visit(ctx, n.children[idx], depth + 1);
    if (ctx.out.budget_exhausted) return;  // skip the backtrack re-fetch too
    // Parent-link backtracking (§II-A): every return to this node re-fetches
    // it and re-computes/re-orders the child bounds to find the next
    // candidate branch — there is no stack remembering them. The re-fetch
    // hits L2 (the node was just read) but still pays its latency and issue
    // cost; this is the drawback the paper identifies for parent links.
    fetch_node(ctx.block, ctx.tree, n, simt::Access::kCached, ctx.snap);
    ++ctx.st.nodes_visited;
    ++ctx.st.backtracks;
    detail::charge_child_bounds(ctx.block, ctx.tree, n, /*need_max=*/false);
    ctx.block.charge_bitonic_sort(cb.mindist.size());  // the re-selection
  }
}

void bnb_run(simt::Block& block, const sstree::SSTree& tree, std::span<const Scalar> q,
             const GpuKnnOptions& opts, QueryResult& out) {
  const std::size_t k_eff = std::min(opts.k, tree.data().size());
  SharedKnnList list(block, k_eff, opts.spill_heap_to_global);
  detail::seed_shared_bound(list, opts);
  detail::SnapshotFetch snap(tree, opts);
  BnbContext ctx{block, tree, q, list, out, out.stats, opts, &snap, {}};
  ++out.stats.restarts;  // the single root descent
  bnb_visit(ctx, tree.root(), 0);
  out.neighbors = list.sorted();
}

}  // namespace

QueryResult bnb_query(const sstree::SSTree& tree, std::span<const Scalar> query,
                      const GpuKnnOptions& opts, simt::Metrics* metrics) {
  PSB_REQUIRE(opts.k > 0, "k must be > 0");
  PSB_REQUIRE(query.size() == tree.dims(), "query dimensionality mismatch");
  simt::Metrics local;
  simt::Block block(opts.device, detail::resolve_block_threads(opts, tree.degree()),
                    metrics != nullptr ? metrics : &local);
  QueryResult out;
  bnb_run(block, tree, query, opts, out);
  return out;
}

BatchResult bnb_batch(const sstree::SSTree& tree, const PointSet& queries,
                      const GpuKnnOptions& opts) {
  PSB_REQUIRE(opts.k > 0, "k must be > 0");
  PSB_REQUIRE(queries.dims() == tree.dims(), "query dimensionality mismatch");
  const int threads = detail::resolve_block_threads(opts, tree.degree());
  return detail::run_batch("branch_and_bound", queries, opts, threads,
                           [&](simt::Block& block, std::span<const Scalar> q, QueryResult& r) {
                             bnb_run(block, tree, q, opts, r);
                           });
}

}  // namespace psb::knn
