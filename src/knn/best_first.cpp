#include "knn/best_first.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <queue>

#include "common/error.hpp"
#include "knn/detail/traversal_common.hpp"
#include "knn/shared_heap.hpp"

namespace psb::knn {

QueryResult best_first_query(const sstree::SSTree& tree, std::span<const Scalar> query,
                             std::size_t k) {
  PSB_REQUIRE(k > 0, "k must be > 0");
  PSB_REQUIRE(query.size() == tree.dims(), "query dimensionality mismatch");

  QueryResult out;
  const std::size_t k_eff = std::min(k, tree.data().size());
  KnnHeap heap(k_eff);

  struct Entry {
    Scalar mindist;
    NodeId node;
    bool operator>(const Entry& o) const noexcept { return mindist > o.mindist; }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  pq.push({0, tree.root()});

  while (!pq.empty()) {
    const Entry e = pq.top();
    pq.pop();
    // I/O-optimal stop: nothing in the queue can beat the current k-th best.
    if (heap.full() && e.mindist > heap.bound()) break;
    const sstree::Node& n = tree.node(e.node);
    ++out.stats.nodes_visited;
    if (n.is_leaf()) {
      ++out.stats.leaves_visited;
      for (const PointId pid : n.points) {
        if (heap.offer(distance(query, tree.data()[pid]), pid)) ++out.stats.heap_inserts;
      }
      out.stats.points_examined += n.points.size();
    } else {
      const std::size_t c = n.children.size();
      const bool sphere_mode = tree.bounds_mode() == sstree::BoundsMode::kSphere;
      for (std::size_t i = 0; i < c; ++i) {
        Scalar mind = 0;
        if (sphere_mode) {
          double sq = 0;
          for (std::size_t t = 0; t < tree.dims(); ++t) {
            const double diff = static_cast<double>(query[t]) - n.child_centers[t * c + i];
            sq += diff * diff;
          }
          mind = std::max(Scalar{0},
                          static_cast<Scalar>(std::sqrt(sq)) - n.child_radii[i]);
        } else {
          double sq = 0;
          for (std::size_t t = 0; t < tree.dims(); ++t) {
            const double q = query[t];
            const double lo = n.child_lo[t * c + i];
            const double hi = n.child_hi[t * c + i];
            double d = 0;
            if (q < lo) {
              d = lo - q;
            } else if (q > hi) {
              d = q - hi;
            }
            sq += d * d;
          }
          mind = static_cast<Scalar>(std::sqrt(sq));
        }
        if (!heap.full() || mind <= heap.bound()) {
          pq.push({mind, n.children[i]});
          ++out.stats.heap_pushes;
        }
      }
    }
  }
  out.neighbors = heap.sorted();
  return out;
}

std::vector<QueryResult> best_first_batch(const sstree::SSTree& tree, const PointSet& queries,
                                          std::size_t k) {
  std::vector<QueryResult> out;
  out.reserve(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    out.push_back(best_first_query(tree, queries[q], k));
    if (obs::enabled()) {
      // Host-side traversal: structure counters only, no device metrics.
      obs::emit("best_first_host", make_query_trace(q, out.back().stats, simt::Metrics{}));
    }
  }
  return out;
}

namespace {

void best_first_gpu_run(simt::Block& block, const sstree::SSTree& tree,
                        std::span<const Scalar> q, const GpuKnnOptions& opts,
                        QueryResult& out) {
  const std::size_t k_eff = std::min(opts.k, tree.data().size());
  SharedKnnList list(block, k_eff, opts.spill_heap_to_global);
  detail::seed_shared_bound(list, opts);
  detail::SnapshotFetch snap(tree, opts);

  struct Entry {
    Scalar mindist;
    NodeId node;
    bool operator>(const Entry& o) const noexcept { return mindist > o.mindist; }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  pq.push({0, tree.root()});
  std::size_t pq_peak = 1;
  detail::ChildBounds cb;
  const auto log_cost = [&](std::size_t size) {
    return static_cast<std::uint64_t>(std::bit_width(std::max<std::size_t>(size, 1)));
  };

  while (!pq.empty()) {
    if (detail::budget_exhausted(opts, out.stats)) {
      out.budget_exhausted = true;
      break;
    }
    // Lock-protected pop: one lane holds the lock while re-heapifying.
    block.serialize(log_cost(pq.size()) + 2);
    const Entry e = pq.top();
    pq.pop();
    if (!(e.mindist < list.pruning_distance())) break;

    const sstree::Node& n = tree.node(e.node);
    detail::fetch_node(block, tree, n, simt::Access::kRandom, &snap);
    ++out.stats.nodes_visited;
    if (n.is_leaf()) {
      ++out.stats.leaves_visited;
      out.stats.points_examined += n.points.size();
      out.stats.heap_inserts += list.scan_leaf(n, q);
      continue;
    }
    detail::child_bounds(block, tree, n, q, /*need_max=*/false, cb);
    for (std::size_t i = 0; i < cb.mindist.size(); ++i) {
      if (cb.mindist[i] < list.pruning_distance()) {
        pq.push({cb.mindist[i], n.children[i]});
        ++out.stats.heap_pushes;
        // Lock-protected push, one candidate at a time — the serialization
        // §II-C predicts ("the lock will serialize a large number of
        // threads").
        block.serialize(log_cost(pq.size()) + 2);
      }
    }
    pq_peak = std::max(pq_peak, pq.size());
  }
  // The queue lives in shared memory next to the k-NN list.
  block.use_shared(pq_peak * (sizeof(Scalar) + sizeof(NodeId)) +
                   std::min(opts.k, tree.data().size()) * (sizeof(Scalar) + sizeof(PointId)));
  out.neighbors = list.sorted();
}

}  // namespace

QueryResult best_first_gpu_query(const sstree::SSTree& tree, std::span<const Scalar> query,
                                 const GpuKnnOptions& opts, simt::Metrics* metrics) {
  PSB_REQUIRE(opts.k > 0, "k must be > 0");
  PSB_REQUIRE(query.size() == tree.dims(), "query dimensionality mismatch");
  simt::Metrics local;
  simt::Block block(opts.device, detail::resolve_block_threads(opts, tree.degree()),
                    metrics != nullptr ? metrics : &local);
  QueryResult out;
  best_first_gpu_run(block, tree, query, opts, out);
  return out;
}

BatchResult best_first_gpu_batch(const sstree::SSTree& tree, const PointSet& queries,
                                 const GpuKnnOptions& opts) {
  PSB_REQUIRE(opts.k > 0, "k must be > 0");
  PSB_REQUIRE(queries.dims() == tree.dims(), "query dimensionality mismatch");
  const int threads = detail::resolve_block_threads(opts, tree.degree());
  return detail::run_batch("best_first", queries, opts, threads,
                           [&](simt::Block& block, std::span<const Scalar> q, QueryResult& r) {
                             best_first_gpu_run(block, tree, q, opts, r);
                           });
}

}  // namespace psb::knn
