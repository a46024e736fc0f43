// JoinEngine: dual-tree traversal over the SS-tree for join workloads —
// all-kNN self-join (every point's k nearest other points) and kNN-join
// (every target point's k nearest source points).
//
// The dual walk groups target points by their home source leaf (the leaf
// partition itself on a self-join; nearest-leaf assignment on a kNN-join),
// merges consecutive groups up to 128 queries, and descends the source
// tree once per cohort: a node fetch is paid once for the whole cohort
// instead of once per query, and a whole source subtree is pruned when no
// query's exact bound math keeps it — the cohort's running bound vector of
// per-query k-th distances (see docs/join.md for the pruning rules).
// That amortization is the workload's point — the same answer as per-query
// traversal for a fraction of the accessed bytes — and is gated by
// bench/baselines/BENCH_gate_join.json (dual accessed-bytes ratio < 1.0 vs
// single-tree).
//
// Determinism contract: like BatchEngine, results, aggregated counters and
// traces are a pure function of (tree, targets, options) — independent of
// num_threads and bit-identical across runs. Every variant is exact: dual,
// single-tree and brute force agree bit-for-bit (the join_property_test /
// join_metamorphic_test invariant), because the k-list retains the k
// lexicographically smallest (distance, id) pairs regardless of the order
// candidates arrive in.
//
// Degradation ladder (engine.join.pair fault site; docs/robustness.md): a
// cohort whose pair walk dies is rerun through the single-tree path (exact,
// masked — the injected kill is one-shot); if that leg dies too, the cohort
// is answered by an exact brute-force join, flagged kDegradedFallback —
// counted, never silent.
#pragma once

#include <memory>
#include <string_view>

#include "engine/batch_engine.hpp"
#include "knn/result.hpp"
#include "obs/trace.hpp"
#include "sstree/tree.hpp"

namespace psb::join {

/// How the join is executed. All three are exact and bit-identical; they
/// differ only in work and accessed bytes.
enum class JoinVariant : std::uint8_t {
  kDual,    ///< pair-pruning dual-tree walk (one source descent per cohort)
  kSingle,  ///< per-point queries through BatchEngine (the fallback path)
  kBrute,   ///< O(n·m) scan (the oracle; last rung of the ladder)
};

/// Stable name used for CLI flags and bench variant prefixes.
std::string_view join_variant_name(JoinVariant v) noexcept;

/// Parse a variant name (as printed by join_variant_name); throws
/// InvalidArgument on unknown names.
JoinVariant parse_join_variant(std::string_view name);

struct JoinOptions {
  /// Neighbors per target point. Clamped per query to the number of
  /// admissible source points (n-1 for the self-exclusion self-join), so
  /// k >= n is well-defined: every admissible point is returned.
  std::size_t k = 8;
  JoinVariant variant = JoinVariant::kDual;
  /// Self-join only: keep the query point itself as its own (distance-0)
  /// nearest neighbor instead of excluding it. Ignored by knn_join.
  bool include_self = false;
  /// Algorithm, arena layout, GPU options and num_threads. The single-tree
  /// path serves per-point queries through a BatchEngine built from these
  /// options; the dual walk uses gpu/layout/num_threads and shares one
  /// arena FetchSession (resident window) per cohort.
  engine::BatchEngineOptions engine;
};

/// Dual-tree join engine over one source SS-tree. The engine borrows the
/// tree (and its backing data); both must outlive the engine.
class JoinEngine {
 public:
  JoinEngine(const sstree::SSTree& tree, JoinOptions opts);
  ~JoinEngine();

  const JoinOptions& options() const noexcept { return opts_; }

  /// All-kNN self-join: one QueryResult per source point, in point-id order.
  /// Excludes each point from its own list unless options().include_self.
  knn::BatchResult all_knn();

  /// kNN-join: one QueryResult per target point, in target order. Neighbor
  /// ids index the source dataset. Targets must match the source dims; throws
  /// InvalidArgument naming the first target with a NaN or infinite
  /// coordinate.
  knn::BatchResult knn_join(const PointSet& targets);

  using TracedRun = engine::BatchEngine::TracedRun;
  /// Like all_knn()/knn_join(), but also returns the traces directly — dual:
  /// one trace per cohort; single: one per query (installs a private
  /// collector; must not be called while an obs::TraceSession is active).
  TracedRun all_knn_traced();
  TracedRun knn_join_traced(const PointSet& targets);

 private:
  struct Cohort;
  knn::BatchResult run(const PointSet& targets, bool self_join);
  knn::BatchResult run_dual(const PointSet& targets, bool self_join);
  knn::BatchResult run_single(const PointSet& targets, bool self_join);
  knn::BatchResult run_brute(const PointSet& targets, bool self_join);
  /// One cohort's pair walk plus the engine.join.pair degradation ladder.
  void run_cohort(Cohort& cohort, simt::Metrics& m);
  /// The dual pair walk proper (throws psb::DataFault under injection).
  void pair_walk(Cohort& cohort, simt::Metrics& m);
  /// Answer one cohort through the single-tree per-point path (the rerun
  /// rung of the ladder). Exact; statuses come from the fallback engine,
  /// escalated to `floor`.
  void single_rerun(Cohort& cohort, simt::Metrics& m, knn::QueryStatus floor);
  /// Lazily-built single-tree engine (the kSingle variant and the rerun rung
  /// of the degradation ladder), keyed by its list width (k, or k+1 when the
  /// caller post-filters the query's own row out).
  engine::BatchEngine& single_engine(std::size_t engine_k);

  const sstree::SSTree& tree_;
  JoinOptions opts_;
  /// Per-subtree point counts and pointer-path byte sums, indexed by NodeId
  /// (one construction-time DFS): the MAXDIST precondition and the
  /// saved-bytes credit of a pair prune.
  std::vector<std::uint64_t> subtree_points_;
  std::vector<std::uint64_t> subtree_bytes_;
  /// Dual-walk arenas (built per options, like BatchEngine's). Mutable _ok
  /// flags so the layout corruption hooks degrade the walk to the pointer
  /// path with the counted engine.layout.fallback downgrade.
  std::unique_ptr<layout::TraversalSnapshot> snapshot_;
  bool snapshot_ok_ = false;
  std::unique_ptr<layout::ImplicitLayout> implicit_;
  bool implicit_ok_ = false;
  std::unique_ptr<engine::BatchEngine> single_;
  std::size_t single_k_ = 0;
};

}  // namespace psb::join
