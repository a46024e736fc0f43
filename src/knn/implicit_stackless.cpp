#include "knn/implicit_stackless.hpp"

#include <optional>

#include "knn/detail/traversal_common.hpp"
#include "layout/implicit.hpp"

namespace psb::knn {
namespace {

void implicit_run(simt::Block& block, const sstree::SSTree& tree, std::span<const Scalar> q,
                  const GpuKnnOptions& opts, QueryResult& out) {
  const layout::ImplicitLayout& lay = *opts.implicit;
  const std::size_t k_eff = std::min(opts.k, tree.data().size());
  SharedKnnList list(block, k_eff, opts.spill_heap_to_global);
  detail::seed_shared_bound(list, opts);
  TraversalStats& st = out.stats;

  // Resident window: the engine-shared warp-cohort session when one was
  // handed down (built over this layout), else a query-private one.
  layout::FetchSession* session = opts.fetch_session;
  std::optional<layout::FetchSession> own;
  if (session == nullptr) {
    own.emplace(lay);
    session = &*own;
  }
  session->begin_query();

  std::uint32_t slot = 0;  // root is always slot 0
  ++st.restarts;           // one preorder sweep from the root
  while (slot != layout::ImplicitLayout::kInvalidSlot) {
    if (detail::budget_exhausted(opts, st)) {
      out.budget_exhausted = true;
      break;
    }
    const sstree::Node& n = tree.node(lay.node_at(slot));
    // End-to-end integrity (same guard as fetch_node): throws psb::DataFault
    // on a corrupted bound word; the engine's retry/fallback policy recovers.
    if (fault::enabled()) sstree::verify_node_integrity(n);
    // Fetch through the implicit arena. No pattern argument: the session
    // classifies by address, and preorder placement == traversal order means
    // every slot -> slot+1 descent continues the stream (coalesced); only
    // escape jumps scatter.
    session->fetch(block, slot);
    ++st.nodes_visited;

    // Prune on this node's own bounding sphere (one lane computes it).
    const Scalar mind = mindist(q, n.sphere);
    block.par_for(1, tree.dims() * 3 + 2, [](std::size_t) {});
    if (!(mind < list.pruning_distance())) {
      slot = lay.escape(slot);  // rope past the whole subtree
      ++st.backtracks;
      continue;
    }
    if (n.is_leaf()) {
      ++st.leaves_visited;
      st.points_examined += n.points.size();
      st.heap_inserts += list.scan_leaf(n, q);
      slot = lay.escape(slot);
      ++st.leaf_scans;  // forward hop to the next preorder slot
    } else {
      slot = slot + 1;  // first child: index arithmetic, no pointer
    }
  }
  out.neighbors = list.sorted();
}

void require_layout(const sstree::SSTree& tree, const GpuKnnOptions& opts) {
  PSB_REQUIRE(opts.k > 0, "k must be > 0");
  // No layout is a caller error, not a silent downgrade: the engines catch
  // this case up front and route to a counted fallback instead.
  PSB_REQUIRE(opts.implicit != nullptr,
              "implicit_stackless requires GpuKnnOptions::implicit (pointer-free layout)");
  PSB_REQUIRE(&opts.implicit->tree() == &tree, "layout was built over a different tree");
}

}  // namespace

QueryResult implicit_stackless_query(const sstree::SSTree& tree, std::span<const Scalar> query,
                                     const GpuKnnOptions& opts, simt::Metrics* metrics) {
  require_layout(tree, opts);
  PSB_REQUIRE(query.size() == tree.dims(), "query dimensionality mismatch");
  simt::Metrics local;
  simt::Block block(opts.device, detail::resolve_block_threads(opts, tree.degree()),
                    metrics != nullptr ? metrics : &local);
  QueryResult out;
  implicit_run(block, tree, query, opts, out);
  return out;
}

BatchResult implicit_stackless_batch(const sstree::SSTree& tree, const PointSet& queries,
                                     const GpuKnnOptions& opts) {
  require_layout(tree, opts);
  PSB_REQUIRE(queries.dims() == tree.dims(), "query dimensionality mismatch");
  const int threads = detail::resolve_block_threads(opts, tree.degree());
  return detail::run_batch("implicit_stackless", queries, opts, threads,
                           [&](simt::Block& block, std::span<const Scalar> q, QueryResult& r) {
                             implicit_run(block, tree, q, opts, r);
                           });
}

}  // namespace psb::knn
