#include "knn/task_parallel_sstree.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <optional>

#include "common/error.hpp"
#include "layout/fetch.hpp"
#include "simt/task_parallel.hpp"

namespace psb::knn {
namespace {

/// Single-lane branch-and-bound over the SS-tree: the lane serially computes
/// every child bound itself (no cooperating lanes), so each node visit costs
/// count*(3d+2) lock-step instructions — the divergence-amplified work the
/// data-parallel layout spreads over a block in a handful of instructions.
void lane_visit(const sstree::SSTree& tree, NodeId id, std::span<const Scalar> q,
                KnnHeap& heap, simt::LaneWork& lane, TraversalStats& st,
                layout::FetchSession* fs) {
  const sstree::Node& n = tree.node(id);
  if (fs != nullptr) {
    // Arena accounting: the lane's resident window absorbs repeat touches and
    // shared segments; sequential segments stream instead of scattering.
    const layout::FetchCharge charge = fs->classify(id);
    if (charge.pattern == simt::Access::kCoalesced) {
      lane.bytes_coalesced += charge.bytes;
    } else {
      lane.bytes_random += charge.bytes;
    }
  } else {
    lane.bytes_random += tree.node_byte_size(n);
  }
  lane.node_fetches += 1;
  ++st.nodes_visited;
  const std::size_t d = tree.dims();

  if (n.is_leaf()) {
    ++st.leaves_visited;
    const std::size_t c = n.points.size();
    const auto logk = static_cast<std::uint64_t>(std::bit_width(heap.k()));
    for (std::size_t i = 0; i < c; ++i) {
      double acc = 0;
      for (std::size_t t = 0; t < d; ++t) {
        const double diff = static_cast<double>(q[t]) - n.coords[t * c + i];
        acc += diff * diff;
      }
      lane.steps += d * 3 + 1;
      if (heap.offer(static_cast<Scalar>(std::sqrt(acc)), n.points[i])) {
        lane.steps += logk;
        ++st.heap_inserts;
      }
      ++st.points_examined;
    }
    return;
  }

  const std::size_t c = n.children.size();
  std::vector<std::pair<Scalar, NodeId>> branches;
  branches.reserve(c);
  for (std::size_t i = 0; i < c; ++i) {
    double acc = 0;
    for (std::size_t t = 0; t < d; ++t) {
      const double diff = static_cast<double>(q[t]) - n.child_centers[t * c + i];
      acc += diff * diff;
    }
    const Scalar mind =
        std::max(Scalar{0}, static_cast<Scalar>(std::sqrt(acc)) - n.child_radii[i]);
    branches.emplace_back(mind, n.children[i]);
  }
  lane.steps += c * (d * 3 + 2);
  std::sort(branches.begin(), branches.end());
  lane.steps += c * static_cast<std::uint64_t>(std::bit_width(c));
  for (const auto& [mind, child] : branches) {
    // pruning_distance() folds in a scatter-gather caller's shared bound;
    // with no external bound it equals the old full-heap kth-distance test.
    if (mind > heap.pruning_distance()) break;
    lane_visit(tree, child, q, heap, lane, st, fs);
    ++st.backtracks;  // return to this node after the child's subtree
  }
}

}  // namespace

QueryResult task_parallel_sstree_query(const sstree::SSTree& tree, std::span<const Scalar> query,
                                       const TaskParallelSsOptions& opts,
                                       simt::Metrics* metrics) {
  PSB_REQUIRE(opts.k > 0, "k must be > 0");
  PSB_REQUIRE(query.size() == tree.dims(), "query dimensionality mismatch");
  PSB_REQUIRE(tree.bounds_mode() == sstree::BoundsMode::kSphere,
              "task-parallel SS-tree traversal supports sphere bounds");
  if (opts.snapshot != nullptr) {
    PSB_REQUIRE(&opts.snapshot->tree() == &tree, "snapshot was built over a different tree");
  }
  QueryResult out;
  KnnHeap heap(std::min(opts.k, tree.data().size()));
  if (opts.initial_prune_bound < kInfinity) {
    heap.tighten(next_up(opts.initial_prune_bound));
  }
  ++out.stats.restarts;
  simt::LaneWork lane;
  std::optional<layout::FetchSession> session;
  if (opts.snapshot != nullptr) session.emplace(*opts.snapshot);
  lane_visit(tree, tree.root(), query, heap, lane, out.stats, session ? &*session : nullptr);
  out.neighbors = heap.sorted();
  if (metrics != nullptr) accumulate_task_parallel(opts.device, {&lane, 1}, metrics);
  return out;
}

BatchResult task_parallel_sstree_knn(const sstree::SSTree& tree, const PointSet& queries,
                                     const TaskParallelSsOptions& opts) {
  PSB_REQUIRE(opts.k > 0, "k must be > 0");
  PSB_REQUIRE(queries.dims() == tree.dims(), "query dimensionality mismatch");
  PSB_REQUIRE(tree.bounds_mode() == sstree::BoundsMode::kSphere,
              "task-parallel SS-tree traversal supports sphere bounds");
  if (opts.snapshot != nullptr) {
    PSB_REQUIRE(&opts.snapshot->tree() == &tree, "snapshot was built over a different tree");
  }
  if (opts.query_labels != nullptr) {
    PSB_REQUIRE(opts.query_labels->size() == queries.size(),
                "query_labels must have one entry per query");
  }

  BatchResult out;
  out.queries.resize(queries.size());
  std::vector<simt::LaneWork> lanes(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    KnnHeap heap(std::min(opts.k, tree.data().size()));
    if (opts.initial_prune_bound < kInfinity) {
      // One-ULP inflation keeps the strict pruning test from cutting a
      // subtree that exactly ties the shared bound (duplicate-heavy data).
      heap.tighten(next_up(opts.initial_prune_bound));
    }
    ++out.queries[i].stats.restarts;
    // Each lane opens its own resident window: lanes are independent threads,
    // so no cross-query segment sharing in the task-parallel strawman.
    std::optional<layout::FetchSession> session;
    if (opts.snapshot != nullptr) session.emplace(*opts.snapshot);
    lane_visit(tree, tree.root(), queries[i], heap, lanes[i], out.queries[i].stats,
               session ? &*session : nullptr);
    out.queries[i].neighbors = heap.sorted();
    out.stats.merge(out.queries[i].stats);
    if (obs::enabled()) {
      // Per-query device view: this lane accumulated alone (the response-time
      // accounting); the throughput-mode warp packing only affects batch
      // totals, not a single query's own work.
      simt::Metrics m;
      accumulate_task_parallel(opts.device, {&lanes[i], 1}, &m);
      const std::size_t qi = opts.query_labels != nullptr ? (*opts.query_labels)[i] : i;
      obs::emit("task_parallel_sstree", make_query_trace(qi, out.queries[i].stats, m));
    }
  }

  simt::KernelConfig cfg;
  if (opts.mode == simt::TaskParallelMode::kResponseTime) {
    for (const simt::LaneWork& lw : lanes) {
      simt::Metrics m;
      accumulate_task_parallel(opts.device, {&lw, 1}, &m);
      out.metrics.merge(m);
    }
    cfg.blocks = static_cast<int>(std::max<std::size_t>(queries.size(), 1));
    cfg.threads_per_block = opts.device.warp_size;
  } else {
    accumulate_task_parallel(opts.device, lanes, &out.metrics);
    // One fully-packed warp per block (independent lock-step chains).
    const int block_threads = opts.device.warp_size;
    cfg.threads_per_block = block_threads;
    cfg.blocks =
        std::max(1, static_cast<int>((queries.size() + block_threads - 1) / block_threads));
  }
  out.metrics.shared_bytes = std::max<std::size_t>(
      out.metrics.shared_bytes,
      opts.k * (sizeof(Scalar) + sizeof(PointId)) *
          (opts.mode == simt::TaskParallelMode::kResponseTime
               ? 1
               : static_cast<std::size_t>(cfg.threads_per_block)));
  out.timing = simt::estimate(opts.device, out.metrics, cfg);
  return out;
}

}  // namespace psb::knn
