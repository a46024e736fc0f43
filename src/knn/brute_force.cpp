#include "knn/brute_force.hpp"

#include "knn/detail/traversal_common.hpp"

namespace psb::knn {
namespace {

/// Snapshot-backed scan: the same exhaustive pass, but streaming the arena's
/// leaf region in leaf-chain order through the fetch session. Every point is
/// still offered, so the deterministic (distance, id) heap order makes the
/// answer identical to the id-order scan.
void brute_snapshot_run(simt::Block& block, const PointSet& data, std::span<const Scalar> q,
                        const GpuKnnOptions& opts, QueryResult& out) {
  const sstree::SSTree& tree = opts.snapshot->tree();
  PSB_REQUIRE(&tree.data() == &data, "snapshot was built over a different dataset");
  const std::size_t k_eff = std::min(opts.k, data.size());
  SharedKnnList list(block, k_eff, opts.spill_heap_to_global);
  detail::SnapshotFetch snap(tree, opts);
  for (const NodeId leaf_id : tree.leaves()) {
    const sstree::Node& leaf = tree.node(leaf_id);
    snap.fetch(block, leaf);
    const std::vector<Scalar> dists = detail::leaf_distances(block, tree, leaf, q);
    out.stats.points_examined += dists.size();
    out.stats.heap_inserts += list.offer_batch(dists, leaf.points);
  }
  out.neighbors = list.sorted();
}

void brute_run(simt::Block& block, const PointSet& data, std::span<const Scalar> q,
               const GpuKnnOptions& opts, QueryResult& out) {
  if (opts.snapshot != nullptr) return brute_snapshot_run(block, data, q, opts, out);
  const std::size_t k_eff = std::min(opts.k, data.size());
  SharedKnnList list(block, k_eff, opts.spill_heap_to_global);
  const std::size_t d = data.dims();
  const std::size_t chunk = static_cast<std::size_t>(block.threads());

  std::vector<Scalar> dists(chunk);
  std::vector<PointId> ids(chunk);
  for (std::size_t base = 0; base < data.size(); base += chunk) {
    const std::size_t count = std::min(chunk, data.size() - base);
    block.load_global(count * d * sizeof(Scalar), simt::Access::kCoalesced);
    block.par_for(count, static_cast<std::uint64_t>(d) * 3 + 1, [&](std::size_t i) {
      dists[i] = distance(q, data[base + i]);
      ids[i] = static_cast<PointId>(base + i);
    });
    out.stats.points_examined += count;
    out.stats.heap_inserts += list.offer_batch({dists.data(), count}, {ids.data(), count});
  }
  out.neighbors = list.sorted();
}

}  // namespace

QueryResult brute_force_query(const PointSet& data, std::span<const Scalar> query,
                              const GpuKnnOptions& opts, simt::Metrics* metrics) {
  PSB_REQUIRE(opts.k > 0, "k must be > 0");
  PSB_REQUIRE(!data.empty(), "brute force over empty dataset");
  PSB_REQUIRE(query.size() == data.dims(), "query dimensionality mismatch");
  simt::Metrics local;
  simt::Block block(opts.device, brute_force_threads(opts), metrics != nullptr ? metrics : &local);
  QueryResult out;
  brute_run(block, data, query, opts, out);
  return out;
}

BatchResult brute_force_batch(const PointSet& data, const PointSet& queries,
                              const GpuKnnOptions& opts) {
  PSB_REQUIRE(opts.k > 0, "k must be > 0");
  PSB_REQUIRE(!data.empty(), "brute force over empty dataset");
  PSB_REQUIRE(queries.dims() == data.dims(), "query dimensionality mismatch");
  return detail::run_batch("brute_force", queries, opts, brute_force_threads(opts),
                           [&](simt::Block& block, std::span<const Scalar> q, QueryResult& r) {
                             brute_run(block, data, q, opts, r);
                           });
}

}  // namespace psb::knn
