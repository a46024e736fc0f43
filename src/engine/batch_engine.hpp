// BatchEngine: the host-side serving layer over the kNN algorithm zoo. One
// engine owns an index and a fixed algorithm choice; each run() answers a
// batch of queries with deterministic results and (optionally) a per-query
// obs trace — the unit every scaling PR (sharding, caching, async) builds
// on and is measured through.
//
// Determinism contract: results, aggregated counters and trace totals are a
// pure function of (tree, queries, options) — independent of num_threads and
// bit-identical across runs. Worker threads each process a static slice of
// the query range into preallocated slots; all merging happens afterwards in
// query order on the calling thread. (A wall-clock deadline_ms and active
// fault injection are the two documented exceptions.)
//
// Degradation policy (docs/robustness.md has the full matrix): run() always
// returns a complete BatchResult — every detected fault is absorbed, never
// propagated. A snapshot that fails verify() drops the batch to the
// pointer-walking path, and a worker that dies mid-slice has its
// unprocessed cohorts rerun on the merge thread. Each query is one
// run_pass() over the engine's tree (the per-pass ladder shared with
// ShardedEngine, declared below), with an exact brute-force scan of the
// dataset as its last rung; a query started past the deadline keeps its
// partial list, flagged kDeadlinePartial.
//
// run_pass() drives every query as a resumable exec::Executor (src/exec/)
// that performs exactly the charges of the knn::*_query functions, so a
// batch equals driving them per query with one shared FetchSession per warp
// cohort; the recorded resume steps additionally feed the stream-overlap
// model (BatchResult::exec, engine.exec.* counters).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "knn/result.hpp"
#include "layout/implicit.hpp"
#include "layout/snapshot.hpp"
#include "obs/trace.hpp"
#include "sstree/tree.hpp"

namespace psb::engine {

enum class Algorithm {
  kPsb,
  kBestFirst,
  kBranchAndBound,
  kStacklessRestart,
  kStacklessSkip,
  kBruteForce,
  kTaskParallel,
};

/// Stable name used for traces, registry counters and CLI flags.
std::string_view algorithm_name(Algorithm a) noexcept;

/// Parse an algorithm name (as printed by algorithm_name); throws
/// InvalidArgument on unknown names.
Algorithm parse_algorithm(std::string_view name);

/// Node-arena serving mode: which frozen layout (if any) node fetches are
/// accounted through.
enum class NodeLayout : std::uint8_t {
  kPointer,   ///< raw pointer-walking node_byte_size accounting (no arena)
  kSnapshot,  ///< level-clustered pointer-record arena (TraversalSnapshot)
  kImplicit,  ///< preorder pointer-free arena with escape ropes (ImplicitLayout)
};

/// Stable name used for CLI flags (`--layout ...`).
std::string_view node_layout_name(NodeLayout l) noexcept;

/// Parse a layout name (as printed by node_layout_name); throws
/// InvalidArgument on unknown names.
NodeLayout parse_node_layout(std::string_view name);

/// Lanes per modeled block for one query of `a` on a tree of the given
/// fanout: the brute-force scan's fixed width, one warp for the
/// task-parallel kernel, otherwise the data-parallel width (the fanout).
int block_threads_for(Algorithm a, std::size_t degree, const knn::GpuKnnOptions& gpu);

/// Run `work(begin, end)` over [0, units) in contiguous static slices, one
/// per worker thread: `num_threads` workers (0 = hardware concurrency), never
/// more than `units`; a single worker runs inline on the calling thread.
void run_slices(std::size_t num_threads, std::size_t units,
                const std::function<void(std::size_t, std::size_t)>& work);

/// Degradation events of one run_pass() call, as bit flags (zero for a clean
/// pass). Each engine folds them into its own registry counter names.
enum PassEvent : std::uint16_t {
  kPassBudgetFault = 1 << 0,      ///< engine.query_budget armed this pass
  kPassDeadlineCut = 1 << 1,      ///< the caller cut the pass to a budget of 1
  kPassResumeFault = 1 << 2,      ///< exec.resume killed a resume step
  kPassResumeRerun = 1 << 3,      ///< ...and a fresh-executor rerun answered
  kPassResumeScan = 1 << 4,       ///< ...the rerun died too; the exact scan answered
  kPassDataFault = 1 << 5,        ///< a node fetch raised DataFault
  kPassRetried = 1 << 6,          ///< ...and the pointer-path restart answered
  kPassRetryScan = 1 << 7,        ///< ...the restart died too; the exact scan answered
  kPassBudgetExhausted = 1 << 8,  ///< the traversal stopped on its node budget
  kPassBudgetScan = 1 << 9,       ///< ...and the exact scan answered (not deadline-cut)
};

/// Non-owning reference to the caller's exact scan, a callable
/// `knn::QueryResult(const knn::GpuKnnOptions&)` that must outlive the call
/// it is passed to (no allocation per pass).
class ExactScan {
 public:
  template <typename Scan>
  ExactScan(const Scan& scan) noexcept  // NOLINT(google-explicit-constructor)
      : scan_(&scan), call_([](const void* s, const knn::GpuKnnOptions& gpu) {
          return (*static_cast<const Scan*>(s))(gpu);
        }) {}

  knn::QueryResult operator()(const knn::GpuKnnOptions& gpu) const { return call_(scan_, gpu); }

 private:
  const void* scan_;
  knn::QueryResult (*call_)(const void*, const knn::GpuKnnOptions&);
};

/// One kNN pass of `query` over `tree` under the per-pass degradation ladder
/// of both query engines (docs/robustness.md). The pass runs as a resumable
/// executor (kBruteForce runs `exact_scan(gpu)`); the engine.query_budget
/// site (skipped for kTaskParallel) may arm a node budget of 1-4, and
/// `deadline_cut` forces a budget of 1. Rungs: exec.resume kill -> fresh-
/// executor rerun -> exact scan; DataFault -> pointer-path restart_query ->
/// exact scan; budget exhausted -> exact scan, or the partial list flagged
/// kDeadlinePartial when deadline-cut. The exact scan runs unbudgeted on the
/// pointer path and is flagged kDegradedFallback. Charges go to `metrics`, a
/// completed attempt's resume steps are appended to `steps`, and the pass's
/// PassEvent flags are OR-ed into `events`.
knn::QueryResult run_pass(Algorithm algo, const sstree::SSTree& tree,
                          std::span<const Scalar> query, knn::GpuKnnOptions gpu,
                          bool deadline_cut, ExactScan exact_scan, simt::Metrics* metrics,
                          std::vector<simt::StepPhase>& steps, std::uint16_t& events);

struct BatchEngineOptions {
  Algorithm algorithm = Algorithm::kPsb;
  knn::GpuKnnOptions gpu{};
  /// Host worker threads; 0 = hardware concurrency. Results do not depend
  /// on this value.
  std::size_t num_threads = 1;
  /// Node-arena serving mode. kSnapshot/kImplicit build the named arena at
  /// engine construction and route every node fetch through it (segment-
  /// granular byte accounting instead of raw node bytes). On kImplicit,
  /// kStacklessSkip walks the arena's escape indices; for the link-walking
  /// algorithms it is an accounting ablation (same traversal, pointer-free
  /// record sizes). An arena that fails verify() at serve time degrades to
  /// the pointer path (kStacklessSkip back to its skip links) with the
  /// `engine.layout.fallback` counter — never silently.
  NodeLayout layout = NodeLayout::kPointer;
  /// Hilbert-sort each batch before execution so spatially-close queries run
  /// back to back. Results and traces are re-indexed to the caller's order —
  /// with warp_queries <= 1 both are bit-identical to the unsorted run.
  bool reorder_queries = false;
  /// Queries per warp cohort in snapshot mode: cohort members execute
  /// sequentially against one shared resident-segment window (modeling warp
  /// broadcast / L1 reuse). <= 1 gives every query a private window.
  std::size_t warp_queries = 32;
  /// Wall-clock budget for a batch in milliseconds; 0 = none. Once exceeded,
  /// queries not yet started run with a minimal node budget and return
  /// best-effort partial lists flagged kDeadlinePartial. Using a clock
  /// necessarily relaxes the bit-identical determinism contract — which
  /// queries get cut depends on real elapsed time.
  double deadline_ms = 0;

  bool needs_snapshot() const noexcept { return layout == NodeLayout::kSnapshot; }
  bool needs_implicit_layout() const noexcept { return layout == NodeLayout::kImplicit; }
};

class BatchEngine {
 public:
  /// The engine borrows the tree (and its backing data); both must outlive
  /// the engine.
  BatchEngine(const sstree::SSTree& tree, BatchEngineOptions opts);

  const BatchEngineOptions& options() const noexcept { return opts_; }

  /// The engine-owned snapshot (null unless the layout is kSnapshot).
  const layout::TraversalSnapshot* snapshot() const noexcept { return snapshot_.get(); }

  /// The engine-owned implicit layout (null unless the layout is kImplicit).
  const layout::ImplicitLayout* implicit_layout() const noexcept { return implicit_.get(); }

  /// Answer a batch. Emits per-query traces to the active obs session (if
  /// any) under the algorithm's name. Throws InvalidArgument naming the
  /// first query with a NaN or infinite coordinate.
  knn::BatchResult run(const PointSet& queries) const;

  struct TracedRun {
    knn::BatchResult result;
    obs::TraceReport trace;  ///< one AlgorithmTrace, queries in index order
  };
  /// Like run(), but also returns the per-query traces directly (installs a
  /// private collector; must not be called while a TraceSession is active).
  TracedRun run_traced(const PointSet& queries) const;

 private:
  const sstree::SSTree& tree_;
  BatchEngineOptions opts_;
  /// Mutable so the layout.snapshot.segment fault hook can corrupt the arena
  /// in place (only ever touched while injection is armed); like real memory
  /// corruption, the damage persists until the engine is rebuilt, and every
  /// subsequent run degrades to the pointer path.
  mutable std::unique_ptr<layout::TraversalSnapshot> snapshot_;
  /// Same contract for the pointer-free arena and its
  /// layout.implicit.escape_bitflip hook.
  mutable std::unique_ptr<layout::ImplicitLayout> implicit_;
};

}  // namespace psb::engine
