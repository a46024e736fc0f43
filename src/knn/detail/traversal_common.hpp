// Shared building blocks for the simulated-GPU traversals: node fetching with
// byte accounting, data-parallel child-bound computation (MINDIST/MAXDIST per
// lane, one lane per child branch — Fig. 1a), leaf distance evaluation, and
// the per-batch driver that runs one block per query and aggregates metrics.
//
// Host work and modeled work are separate ledgers: every helper charges the
// Block for what the device would do, and may do less on the host when the
// result is provably the same. A walker that re-enters a node (PSB
// backtracks through parent links) may memoize the node's child_bounds
// output and tighten_with_minmax's return for the rest of the query; the
// contract is that every later visit still charges charge_child_bounds and
// replays tighten_with_kth, so the modeled counters cannot tell a memo hit
// from a recomputation. The memo is per query: the bounds depend only on the
// query and the frozen node.
#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "fault/fault.hpp"
#include "knn/result.hpp"
#include "knn/shared_heap.hpp"
#include "layout/fetch.hpp"
#include "simt/block.hpp"
#include "sstree/integrity.hpp"
#include "sstree/tree.hpp"

namespace psb::knn::detail {

/// Per-query view of the arena fetch path: resolves to the engine-shared
/// warp-cohort session when one was handed down, opens a query-private
/// resident window otherwise, and is inert (false) in pointer mode. Opening
/// the view starts the query's dependent-address chain.
///
/// Two frozen arenas can back the view: the pointer-carrying
/// TraversalSnapshot (spans keyed by NodeId) and the pointer-free
/// ImplicitLayout (spans keyed by preorder slot; node ids are mapped through
/// slot_of). The implicit arena wins when both are set — for link-walking
/// algorithms it is an accounting ablation (same traversal decisions,
/// smaller pointer-free records); only the stack-free sweep's escape-index
/// cursor (exec::make_stackless_skip_executor) is physically realizable on it.
class SnapshotFetch {
 public:
  SnapshotFetch(const sstree::SSTree& tree, const GpuKnnOptions& opts) {
    if (opts.implicit != nullptr) {
      PSB_REQUIRE(&opts.implicit->tree() == &tree, "layout was built over a different tree");
      implicit_ = opts.implicit;
      session_ = opts.fetch_session;
      if (session_ == nullptr) {
        own_.emplace(*implicit_);
        session_ = &*own_;
      }
    } else if (opts.snapshot != nullptr) {
      PSB_REQUIRE(&opts.snapshot->tree() == &tree, "snapshot was built over a different tree");
      session_ = opts.fetch_session;
      if (session_ == nullptr) {
        own_.emplace(*opts.snapshot);
        session_ = &*own_;
      }
    } else {
      return;
    }
    session_->begin_query();
  }

  explicit operator bool() const noexcept { return session_ != nullptr; }

  void fetch(simt::Block& block, const sstree::Node& n) {
    session_->fetch(block, implicit_ != nullptr ? implicit_->slot_of(n.id) : n.id);
  }

 private:
  std::optional<layout::FetchSession> own_;
  layout::FetchSession* session_ = nullptr;
  const layout::ImplicitLayout* implicit_ = nullptr;
};

/// Charge one global-memory fetch of node `n`: via the snapshot arena when
/// the query runs snapshot-backed, else as a pointer-walking load of
/// node_byte_size bytes with the algorithm-chosen access pattern.
inline void fetch_node(simt::Block& block, const sstree::SSTree& tree, const sstree::Node& n,
                       simt::Access pattern, SnapshotFetch* snap = nullptr) {
  // End-to-end integrity: re-derive the node's bound-field checksum against
  // the word finalize() sealed (throws psb::DataFault on mismatch — the
  // engine's retry/fallback policy recovers). Guarded so the production path
  // pays one relaxed atomic load, nothing else.
  if (fault::enabled()) sstree::verify_node_integrity(n);
  if (snap != nullptr && *snap) {
    snap->fetch(block, n);
    return;
  }
  block.load_global(tree.node_byte_size(n), pattern);
}

/// Cooperative per-query work budget (GpuKnnOptions::query_budget_nodes).
/// Traversal loops call this at their loop head; a true return means the
/// query must stop early: finalize the current k-list and set
/// QueryResult::budget_exhausted rather than throwing mid-kernel.
inline bool budget_exhausted(const GpuKnnOptions& opts, const TraversalStats& stats) noexcept {
  return opts.query_budget_nodes != 0 && stats.nodes_visited >= opts.query_budget_nodes;
}

/// MINDIST (and optionally MAXDIST) from the query to every child bounding
/// sphere of internal node `n`, computed one-lane-per-child. The sphere math
/// is the paper's §II-C: centroid distance ± radius. A traversal owns one
/// ChildBounds per live node frame and reuses it, so the walk itself does not
/// allocate once the buffers have grown to the widest node.
struct ChildBounds {
  std::vector<Scalar> mindist;
  std::vector<Scalar> maxdist;  // empty unless need_max
  std::vector<double> acc;      // squared-distance accumulator (host scratch)
};

/// Charge the data-parallel bound step of child_bounds for internal node `n`
/// without computing it.
inline void charge_child_bounds(simt::Block& block, const sstree::SSTree& tree,
                                const sstree::Node& n, bool need_max) {
  const std::uint64_t d = tree.dims();
  // Sphere bounds: one centroid distance, then +/- the radius (§II-C).
  // Rectangle bounds: per-facet clamping — roughly twice the arithmetic and
  // twice the fetched coordinates per child, the §II-C argument for spheres.
  const std::uint64_t per_dim = tree.bounds_mode() == sstree::BoundsMode::kSphere ? 3 : 6;
  block.par_for(n.children.size(), d * per_dim + (need_max ? 4 : 2), [](std::size_t) {});
}

inline void child_bounds(simt::Block& block, const sstree::SSTree& tree,
                         const sstree::Node& n, std::span<const Scalar> query, bool need_max,
                         ChildBounds& out) {
  const std::size_t c = n.children.size();
  const std::size_t d = tree.dims();
  charge_child_bounds(block, tree, n, need_max);
  out.mindist.resize(c);
  out.maxdist.resize(need_max ? c : 0);

  if (tree.bounds_mode() == sstree::BoundsMode::kSphere) {
    // Dimension-outer accumulation so the child loop vectorizes; each child
    // still sees the same double add sequence as a per-lane loop.
    out.acc.assign(c, 0.0);
    for (std::size_t t = 0; t < d; ++t) {
      const double qt = query[t];
      const Scalar* col = n.child_centers.data() + t * c;
      for (std::size_t i = 0; i < c; ++i) {
        const double diff = qt - col[i];
        out.acc[i] += diff * diff;
      }
    }
    for (std::size_t i = 0; i < c; ++i) {
      const Scalar center_dist = static_cast<Scalar>(std::sqrt(out.acc[i]));
      const Scalar r = n.child_radii[i];
      out.mindist[i] = std::max(Scalar{0}, center_dist - r);
      if (need_max) out.maxdist[i] = center_dist + r;
    }
    return;
  }

  for (std::size_t i = 0; i < c; ++i) {
    double min_acc = 0;
    double max_acc = 0;
    for (std::size_t t = 0; t < d; ++t) {
      const double q = query[t];
      const double lo = n.child_lo[t * c + i];
      const double hi = n.child_hi[t * c + i];
      double dmin = 0;
      if (q < lo) {
        dmin = lo - q;
      } else if (q > hi) {
        dmin = q - hi;
      }
      min_acc += dmin * dmin;
      if (need_max) {
        const double dmax = std::max(std::abs(q - lo), std::abs(q - hi));
        max_acc += dmax * dmax;
      }
    }
    out.mindist[i] = static_cast<Scalar>(std::sqrt(min_acc));
    if (need_max) out.maxdist[i] = static_cast<Scalar>(std::sqrt(max_acc));
  }
}

/// Distances from the query to every point of leaf `n` (one lane per point,
/// reading the leaf's staged SoA coordinates). For callers that need the
/// distances themselves; a k-NN leaf visit is SharedKnnList::scan_leaf.
inline std::vector<Scalar> leaf_distances(simt::Block& block, const sstree::SSTree& tree,
                                          const sstree::Node& n,
                                          std::span<const Scalar> query) {
  const std::size_t c = n.points.size();
  const std::size_t d = tree.dims();
  std::vector<Scalar> dists(c);
  block.par_for(c, static_cast<std::uint64_t>(d) * 3 + 1, [&](std::size_t i) {
    double acc = 0;
    for (std::size_t t = 0; t < d; ++t) {
      const double diff = static_cast<double>(query[t]) - n.coords[t * c + i];
      acc += diff * diff;
    }
    dists[i] = static_cast<Scalar>(std::sqrt(acc));
  });
  return dists;
}

/// Seed the k-list's external pruning bound with a scatter-gather caller's
/// shared bound (GpuKnnOptions::initial_prune_bound). SharedKnnList::tighten
/// inflates by one ULP, so subtrees whose MINDIST exactly ties the shared
/// bound survive the strict pruning tests — the tie-safety the cross-shard
/// merge contract depends on. A no-op for the single-tree default.
inline void seed_shared_bound(SharedKnnList& list, const GpuKnnOptions& opts) noexcept {
  if (opts.initial_prune_bound < kInfinity) list.tighten(opts.initial_prune_bound);
}

/// MINMAXDIST tightening (Alg. 1 lines 13–15): the k-th smallest child
/// MAXDIST bounds the k-NN distance *provided* the node has at least k
/// children (each non-empty child guarantees one point within its MAXDIST).
/// Skipped otherwise to preserve exactness on small trees.
///
/// The selection is charged whenever it runs on the device, but computed on
/// the host only when it can matter. With m = min(k-th distance, external
/// bound) and P = pruning_distance() = next_up(m), fewer than k children
/// with maxdist < P means the k-th smallest maxdist exceeds m, so tighten()
/// could not lower m — now or after later inserts, which only lower the k-th
/// distance.
///
/// Returns what a walker that revisits the node memoizes for
/// tighten_with_kth: the k-th smallest maxdist when it was selected, +inf
/// when fewer than k maxdists beat P (P never grows, so that stays true on
/// every later visit) or when the node has fewer than k children.
inline Scalar tighten_with_minmax(simt::Block& block, SharedKnnList& list,
                                  std::span<const Scalar> maxdist) {
  constexpr Scalar kNever = std::numeric_limits<Scalar>::infinity();
  const std::size_t k = list.k();
  if (maxdist.size() < k) return kNever;
  const Scalar prune = list.pruning_distance();
  std::size_t below = 0;
  for (std::size_t i = 0; i < maxdist.size() && below < k; ++i) {
    if (maxdist[i] < prune) ++below;
  }
  if (below < k) {
    block.charge_bitonic_sort(maxdist.size());
    return kNever;
  }
  const Scalar kth = block.reduce_kth_min(maxdist, k);
  list.tighten(kth);
  return kth;
}

/// Memo-hit form of tighten_with_minmax for a node of `children` children
/// whose first visit returned `kth`: the same charge (the bitonic selection,
/// when children >= k) and the same list. "At least k maxdists below P" is
/// exactly "the k-th smallest maxdist is below P", and the +inf return of a
/// skipped selection is never below P.
inline void tighten_with_kth(simt::Block& block, SharedKnnList& list, std::size_t children,
                             Scalar kth) {
  if (children < list.k()) return;
  block.charge_bitonic_sort(children);
  if (kth < list.pruning_distance()) list.tighten(kth);
}

/// Resolve the data-parallel block width for a tree traversal. The paper's
/// configuration uses 128-thread blocks: at degree 128 every lane owns one
/// child branch, and at degree 512 "each processing unit processes four
/// branches" (§IV-D) — so the default caps at 128 and the grid-stride loop
/// in Block::par_for folds wider nodes onto the lanes.
inline int resolve_block_threads(const GpuKnnOptions& opts, std::size_t degree) {
  if (opts.threads_per_block > 0) return opts.threads_per_block;
  return static_cast<int>(std::clamp<std::size_t>(degree, 32, 128));
}

/// Run `query_fn(block, query_row, out_result)` once per query, each with a
/// fresh Metrics (one thread block per query), then aggregate counters and
/// estimate batch timing. When an obs::TraceSession is active, every query
/// emits its trace under `algorithm`; the enabled() guard keeps the disabled
/// path to a single relaxed atomic load per query.
inline BatchResult run_batch(std::string_view algorithm, const PointSet& queries,
                             const GpuKnnOptions& opts, int threads_per_block,
                             const std::function<void(simt::Block&, std::span<const Scalar>,
                                                      QueryResult&)>& query_fn) {
  BatchResult out;
  out.queries.resize(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    simt::Metrics m;
    simt::Block block(opts.device, threads_per_block, &m);
    query_fn(block, queries[q], out.queries[q]);
    out.stats.merge(out.queries[q].stats);
    out.metrics.merge(m);
    if (obs::enabled()) obs::emit(algorithm, make_query_trace(q, out.queries[q].stats, m));
  }
  simt::KernelConfig cfg;
  cfg.blocks = static_cast<int>(std::max<std::size_t>(queries.size(), 1));
  cfg.threads_per_block = threads_per_block;
  out.timing = simt::estimate(opts.device, out.metrics, cfg);
  return out;
}

}  // namespace psb::knn::detail
