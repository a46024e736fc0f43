// Result types shared by every kNN algorithm in the repository. All
// algorithms are exact, so `neighbors` from PSB, branch-and-bound, brute
// force and best-first agree on any dataset (the headline test invariant).
#pragma once

#include <string_view>
#include <vector>

#include "common/geometry.hpp"
#include "simt/cost_model.hpp"
#include "simt/metrics.hpp"
#include "simt/overlap.hpp"

namespace psb::layout {
class TraversalSnapshot;
class ImplicitLayout;
class FetchSession;
}  // namespace psb::layout

namespace psb::knn {

/// Per-query traversal statistics (structure-level, device-independent).
/// Per-algorithm semantics of the shape counters are documented in
/// docs/observability.md; a counter an algorithm has no equivalent for
/// stays 0 (e.g. brute force never backtracks).
struct TraversalStats {
  std::uint64_t nodes_visited = 0;   ///< node fetches incl. refetches
  std::uint64_t leaves_visited = 0;  ///< distinct leaf visits
  std::uint64_t points_examined = 0;
  std::uint64_t backtracks = 0;      ///< parent-link hops / subtree skips
  std::uint64_t leaf_scans = 0;      ///< right-sibling hops of a linear leaf scan
  std::uint64_t restarts = 0;        ///< root descents initiated
  std::uint64_t heap_inserts = 0;    ///< candidates accepted into the k-NN list
  std::uint64_t heap_pushes = 0;     ///< frontier priority-queue pushes

  void merge(const TraversalStats& o) noexcept {
    nodes_visited += o.nodes_visited;
    leaves_visited += o.leaves_visited;
    points_examined += o.points_examined;
    backtracks += o.backtracks;
    leaf_scans += o.leaf_scans;
    restarts += o.restarts;
    heap_inserts += o.heap_inserts;
    heap_pushes += o.heap_pushes;
  }

  /// Add these counters to a per-query trace (the structure-level columns of
  /// the obs schema; device columns come from simt::Metrics::add_to).
  void add_to(obs::QueryTrace& trace) const noexcept {
    using obs::TraceCounter;
    trace[TraceCounter::kNodesVisited] += nodes_visited;
    trace[TraceCounter::kLeavesVisited] += leaves_visited;
    trace[TraceCounter::kPointsExamined] += points_examined;
    trace[TraceCounter::kBacktracks] += backtracks;
    trace[TraceCounter::kLeafScans] += leaf_scans;
    trace[TraceCounter::kRestarts] += restarts;
    trace[TraceCounter::kHeapInserts] += heap_inserts;
    trace[TraceCounter::kHeapPushes] += heap_pushes;
  }
};

/// Assemble the full per-query trace a kNN kernel emits: structure-level
/// stats plus the query's device counters.
inline obs::QueryTrace make_query_trace(std::uint64_t query_index, const TraversalStats& stats,
                                        const simt::Metrics& metrics) noexcept {
  obs::QueryTrace trace;
  trace.query_index = query_index;
  stats.add_to(trace);
  metrics.add_to(trace);
  return trace;
}

/// How a query's answer was produced. Anything other than kOk means the
/// serving path degraded; only kDeadlinePartial may be inexact. Ordered by
/// severity, so merging the statuses of a query's parts is std::max.
enum class QueryStatus : std::uint8_t {
  kOk = 0,                ///< normal traversal, exact
  kDegradedFallback = 1,  ///< recovered via retry/brute force — still exact
  kDeadlinePartial = 2,   ///< budget/deadline cut the traversal short; best-effort list
};

inline std::string_view query_status_name(QueryStatus s) noexcept {
  switch (s) {
    case QueryStatus::kOk: return "ok";
    case QueryStatus::kDegradedFallback: return "degraded_fallback";
    case QueryStatus::kDeadlinePartial: return "deadline_partial";
  }
  return "unknown";
}

/// One query's answer: the k nearest neighbors sorted ascending by distance.
struct QueryResult {
  std::vector<KnnHeap::Entry> neighbors;
  TraversalStats stats;
  QueryStatus status = QueryStatus::kOk;
  /// Set by an algorithm that stopped early because the per-query node
  /// budget ran out (the list may be missing true neighbors). The engine
  /// turns this into a brute-force fallback or kDeadlinePartial.
  bool budget_exhausted = false;
};

/// A batch of queries with aggregated simulator counters and derived timing.
struct BatchResult {
  std::vector<QueryResult> queries;
  TraversalStats stats;        ///< summed over queries
  simt::Metrics metrics;       ///< summed over per-query kernels
  simt::KernelTiming timing;   ///< cost-model estimate for the batch
  /// Stream-overlap accounting from the resumable-executor schedule (zero
  /// for the free-function batch drivers). Purely additive: `timing` and
  /// `metrics` equal driving the knn::*_query functions directly.
  simt::OverlapTotals exec;

  double avg_query_ms() const noexcept { return timing.avg_query_ms; }
  double accessed_mb() const noexcept {
    return static_cast<double>(metrics.total_bytes()) / 1e6;
  }
  /// True when every query completed on the normal path.
  bool all_ok() const noexcept {
    for (const QueryResult& q : queries) {
      if (q.status != QueryStatus::kOk) return false;
    }
    return true;
  }
};

/// Options shared by the simulated-GPU algorithms.
struct GpuKnnOptions {
  std::size_t k = 32;
  /// Lanes per query block; 0 = the tree's degree (data-parallel width).
  int threads_per_block = 0;
  /// Keep only a small head of the k-NN list in shared memory, spilling the
  /// tail to global memory (the paper's §V-E future-work optimization).
  bool spill_heap_to_global = false;
  /// PSB ablation switches (both on = paper's Algorithm 1).
  bool psb_initial_descent = true;
  bool psb_leaf_scan = true;
  /// Snapshot-backed fetch path (layout/): when set, node fetches are served
  /// from the frozen arena at 128-byte segment granularity instead of the
  /// pointer-walking node_byte_size accounting. Traversal decisions and
  /// results are unchanged — only the memory accounting moves. Must snapshot
  /// the same tree the query runs against.
  const layout::TraversalSnapshot* snapshot = nullptr;
  /// Pointer-free implicit arena (layout/implicit.hpp): when set, node
  /// fetches are charged through the layout's span table, and the
  /// stack-free sweep (`stackless_skip --layout implicit`) walks preorder
  /// slots and escape indices instead of node links. Must lay out the same
  /// tree the query runs against.
  const layout::ImplicitLayout* implicit = nullptr;
  /// Engine-owned resident window shared across a warp cohort of queries;
  /// null = each query opens its own window. Built over `snapshot` or
  /// `implicit` (whichever arena the algorithm fetches through); ignored
  /// when neither is set.
  layout::FetchSession* fetch_session = nullptr;
  /// Cross-index pruning bound for scatter-gather callers (src/shard/): an
  /// upper bound on the query's *global* k-th-NN distance established by
  /// already-searched shards. Traversals seed their external pruning
  /// distance with it (one-ULP inflated, so tied subtrees are never cut) and
  /// skip subtrees that cannot beat it; candidate admission into the k-list
  /// is unaffected, so a cross-shard merge of the per-shard lists stays
  /// exact. kInfinity = no shared bound (the single-tree default).
  Scalar initial_prune_bound = kInfinity;
  /// Per-query work budget in node fetches; 0 = unlimited. Tree traversals
  /// check it cooperatively at their loop heads and, on exhaustion, finalize
  /// the current (possibly incomplete) k-NN list with budget_exhausted set
  /// instead of throwing — no exceptions on the hot path.
  std::uint64_t query_budget_nodes = 0;
  simt::DeviceSpec device{};
};

}  // namespace psb::knn
