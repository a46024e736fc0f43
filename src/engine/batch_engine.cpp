#include "engine/batch_engine.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <optional>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "exec/executor.hpp"
#include "fault/fault.hpp"
#include "fault/sites.hpp"
#include "hilbert/hilbert.hpp"
#include "knn/best_first.hpp"
#include "knn/branch_and_bound.hpp"
#include "knn/brute_force.hpp"
#include "knn/detail/traversal_common.hpp"
#include "knn/implicit_stackless.hpp"
#include "knn/psb.hpp"
#include "knn/stackless_baselines.hpp"
#include "knn/task_parallel_sstree.hpp"
#include "layout/fetch.hpp"
#include "obs/registry.hpp"
#include "simt/sort.hpp"

namespace psb::engine {
namespace {

constexpr int kBruteForceDefaultThreads = 256;  // brute_force.cpp's block width

/// Per-query degradation events, accumulated lock-free in disjoint slots and
/// folded into the obs registry on the merge thread. Zero when nothing
/// degraded, so a fault-free run leaves the registry untouched.
enum QueryEvent : std::uint8_t {
  kEvDataFault = 1 << 0,       ///< a fetch raised DataFault
  kEvRetried = 1 << 1,         ///< recovered by the restart-from-root retry
  kEvBruteForced = 1 << 2,     ///< recovered by the exact brute-force scan
  kEvBudgetExhausted = 1 << 3, ///< the traversal stopped on its node budget
  kEvDeadlineCut = 1 << 4,     ///< started past the batch deadline
  kEvBudgetFault = 1 << 5,     ///< engine.query_budget fault armed this query
  kEvResumeFault = 1 << 6,     ///< an executor resume step was killed (exec.resume)
};

}  // namespace

std::string_view algorithm_name(Algorithm a) noexcept {
  switch (a) {
    case Algorithm::kPsb: return "psb";
    case Algorithm::kBestFirst: return "best_first";
    case Algorithm::kBranchAndBound: return "branch_and_bound";
    case Algorithm::kStacklessRestart: return "stackless_restart";
    case Algorithm::kStacklessSkip: return "stackless_skip";
    case Algorithm::kBruteForce: return "brute_force";
    case Algorithm::kTaskParallel: return "task_parallel_sstree";
    case Algorithm::kImplicitStackless: return "implicit_stackless";
  }
  return "unknown";
}

Algorithm parse_algorithm(std::string_view name) {
  for (Algorithm a : {Algorithm::kPsb, Algorithm::kBestFirst, Algorithm::kBranchAndBound,
                      Algorithm::kStacklessRestart, Algorithm::kStacklessSkip,
                      Algorithm::kBruteForce, Algorithm::kTaskParallel,
                      Algorithm::kImplicitStackless}) {
    if (algorithm_name(a) == name) return a;
  }
  throw InvalidArgument("unknown algorithm name: " + std::string(name));
}

std::string_view node_layout_name(NodeLayout l) noexcept {
  switch (l) {
    case NodeLayout::kPointer: return "pointer";
    case NodeLayout::kSnapshot: return "snapshot";
    case NodeLayout::kImplicit: return "implicit";
  }
  return "unknown";
}

NodeLayout parse_node_layout(std::string_view name) {
  for (NodeLayout l : {NodeLayout::kPointer, NodeLayout::kSnapshot, NodeLayout::kImplicit}) {
    if (node_layout_name(l) == name) return l;
  }
  throw InvalidArgument("unknown layout name: " + std::string(name));
}

int block_threads_for(Algorithm a, std::size_t degree, const knn::GpuKnnOptions& gpu) {
  switch (a) {
    case Algorithm::kBruteForce:
      return gpu.threads_per_block > 0 ? gpu.threads_per_block : kBruteForceDefaultThreads;
    case Algorithm::kTaskParallel:
      return gpu.device.warp_size;
    default:
      return knn::detail::resolve_block_threads(gpu, degree);
  }
}

BatchEngine::BatchEngine(const sstree::SSTree& tree, BatchEngineOptions opts)
    : tree_(tree), opts_(std::move(opts)) {
  PSB_REQUIRE(opts_.gpu.k > 0, "k must be > 0");
  PSB_REQUIRE(opts_.deadline_ms >= 0, "deadline_ms must be >= 0");
  if (opts_.needs_snapshot()) {
    snapshot_ = std::make_unique<layout::TraversalSnapshot>(tree_);
  }
  if (opts_.needs_implicit_layout()) {
    implicit_ = std::make_unique<layout::ImplicitLayout>(tree_);
  }
}

knn::BatchResult BatchEngine::run(const PointSet& queries) const {
  PSB_REQUIRE(queries.dims() == tree_.dims(), "query dimensionality mismatch");
  require_finite(queries, "query");

  obs::Registry& reg = obs::Registry::global();
  reg.add("engine.batches", 1);
  reg.add("engine.queries", queries.size());

  const std::size_t n = queries.size();

  // Execution order: identity, or the batch's Hilbert order. Spatially-close
  // queries traverse overlapping subtrees, so consecutive cohort members
  // re-touch each other's resident segments — §IV-A's locality argument
  // applied to the query stream instead of the data points.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  bool reordered = false;
  if (opts_.reorder_queries && n > 1 && tree_.dims() <= 64) {
    const hilbert::Encoder enc(tree_.dims(), 16);
    const std::vector<std::uint64_t> keys = enc.encode_all(queries);
    const std::vector<PointId> perm = simt::radix_sort_order(keys, enc.words_per_key());
    for (std::size_t i = 0; i < n; ++i) order[i] = perm[i];
    reordered = !std::is_sorted(order.begin(), order.end());
  }

  // The engine-owned arenas win; otherwise honor ones the caller threaded
  // through the per-query options.
  const layout::TraversalSnapshot* snap =
      snapshot_ != nullptr ? snapshot_.get() : opts_.gpu.snapshot;
  const layout::ImplicitLayout* impl =
      implicit_ != nullptr ? implicit_.get() : opts_.gpu.implicit;

  // Arena integrity gates. The layout.snapshot.segment /
  // layout.implicit.escape_bitflip faults corrupt the engine-owned arenas in
  // place (a caller-provided const arena cannot be mutated, so the sites
  // only fire on owned ones); verify() then catches it — or any real
  // corruption — and the whole batch degrades to the pointer-walking fetch
  // path, which shares no state with the arena. The implicit downgrade is
  // counted (engine.layout.fallback): a requested layout is never dropped
  // silently.
  if (fault::enabled()) {
    if (snapshot_ != nullptr) {
      if (const fault::Shot shot = fault::evaluate(fault::kSiteSnapshotSegment)) {
        snapshot_->corrupt(shot.payload);
      }
    }
    if (implicit_ != nullptr) {
      if (const fault::Shot shot = fault::evaluate(fault::kSiteImplicitEscape)) {
        implicit_->corrupt(shot.payload);
      }
    }
  }
  if (snap != nullptr && !snap->verify()) {
    snap = nullptr;
    reg.add("engine.fault.snapshot_fallback_batches", 1);
  }
  if (impl != nullptr && !impl->verify()) {
    impl = nullptr;
    reg.add("engine.layout.fallback", 1);
  }

  // The task-parallel kernel has no per-query entry point (its throughput
  // mode packs queries into warps); delegate to its batch driver, which is
  // serial, deterministic, and emits traces under the original indices.
  if (opts_.algorithm == Algorithm::kTaskParallel) {
    if (impl != nullptr) {
      // The task-parallel driver manages its own snapshot session and has no
      // implicit-arena path; an explicit counted downgrade, never silent.
      reg.add("engine.layout.fallback", 1);
    }
    knn::TaskParallelSsOptions tp;
    tp.k = opts_.gpu.k;
    tp.device = opts_.gpu.device;
    tp.snapshot = snap;
    if (!reordered) return knn::task_parallel_sstree_knn(tree_, queries, tp);
    PointSet sorted(queries.dims());
    sorted.reserve(n);
    for (std::size_t i = 0; i < n; ++i) sorted.append(queries[order[i]]);
    tp.query_labels = &order;
    knn::BatchResult res = knn::task_parallel_sstree_knn(tree_, sorted, tp);
    std::vector<knn::QueryResult> unsorted(n);
    for (std::size_t i = 0; i < n; ++i) unsorted[order[i]] = std::move(res.queries[i]);
    res.queries = std::move(unsorted);
    return res;
  }

  std::vector<knn::QueryResult> results(n);
  std::vector<simt::Metrics> metrics(n);
  std::vector<std::uint8_t> events(n, 0);
  // Per-query resume-step phase records, replayed per cohort through the
  // overlap model on the merge thread.
  std::vector<std::vector<simt::StepPhase>> step_slots(n);

  const auto batch_start = std::chrono::steady_clock::now();
  const auto past_deadline = [&]() {
    if (opts_.deadline_ms <= 0) return false;
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - batch_start;
    return elapsed.count() > opts_.deadline_ms;
  };

  // One query as a resumable executor (src/exec/); the policy below only
  // varies `gpu`. The stack-free walkers run as native
  // state machines that yield at every leaf reduction; every other algorithm
  // runs its knn::*_query loop behind the one-step LoopExecutor adapter (no
  // yield points, no modeled overlap — but the same exec.resume fault
  // boundary). Cohort members still execute depth-first — the shared
  // FetchSession makes the charge order part of the determinism contract —
  // and the recorded resume steps feed the double-buffered fetch/compute
  // stream model.
  const auto run_executor = [&](std::size_t q, const knn::GpuKnnOptions& gpu) {
    const std::span<const Scalar> query = queries[q];
    simt::Metrics* m = &metrics[q];
    knn::QueryResult res;
    const auto loop = [&](auto query_fn) {
      return exec::make_loop_executor([&res, query_fn] { res = query_fn(); }, gpu.device, m,
                                      block_threads_for(opts_.algorithm, tree_.degree(), gpu));
    };
    std::unique_ptr<exec::Executor> ex;
    switch (opts_.algorithm) {
      case Algorithm::kStacklessSkip:
        ex = exec::make_skip_pointer_executor(tree_, query, gpu, m, res);
        break;
      case Algorithm::kImplicitStackless:
        // With the layout gone (verify() failed), the skip-pointer twin runs
        // the identical preorder sweep on the pointer path — a typed, exact
        // fallback counted once per batch by the gate above.
        ex = gpu.implicit != nullptr
                 ? exec::make_implicit_stackless_executor(tree_, query, gpu, m, res)
                 : exec::make_skip_pointer_executor(tree_, query, gpu, m, res);
        break;
      case Algorithm::kPsb:
        ex = loop([&] { return knn::psb_query(tree_, query, gpu, m); });
        break;
      case Algorithm::kBestFirst:
        ex = loop([&] { return knn::best_first_gpu_query(tree_, query, gpu, m); });
        break;
      case Algorithm::kBranchAndBound:
        ex = loop([&] { return knn::bnb_query(tree_, query, gpu, m); });
        break;
      case Algorithm::kStacklessRestart:
        ex = loop([&] { return knn::restart_query(tree_, query, gpu, m); });
        break;
      case Algorithm::kBruteForce:
      case Algorithm::kTaskParallel:  // kTaskParallel is handled above
        ex = loop([&] { return knn::brute_force_query(tree_.data(), query, gpu, m); });
        break;
    }
    exec::drive(*ex);
    step_slots[q] = ex->steps();
    return res;
  };

  // The exact last-resort answer: a pointer-path brute-force scan, immune to
  // node-integrity faults (it never reads tree bounds) and unbudgeted.
  const auto brute_force_fallback = [&](std::size_t q, knn::GpuKnnOptions gpu) {
    gpu.snapshot = nullptr;
    gpu.implicit = nullptr;
    gpu.fetch_session = nullptr;
    gpu.query_budget_nodes = 0;
    knn::QueryResult r = knn::brute_force_query(tree_.data(), queries[q], gpu, &metrics[q]);
    r.status = knn::QueryStatus::kDegradedFallback;
    events[q] |= kEvBruteForced;
    return r;
  };

  // Degradation policy around one query. Never lets a detected fault escape:
  // DataFault -> one restart-from-root retry on the pointer path (injected
  // faults are one-shot, so the retry sees clean data) -> brute force.
  // Budget exhaustion -> brute force. Deadline-cut queries keep their
  // partial list, flagged (scanning everything would blow the deadline that
  // cut them).
  const auto run_query = [&](std::size_t q, const knn::GpuKnnOptions& cohort_gpu) {
    knn::GpuKnnOptions gpu = cohort_gpu;
    bool deadline_cut = false;
    if (fault::enabled()) {
      if (const fault::Shot shot = fault::evaluate(fault::kSiteQueryBudget)) {
        gpu.query_budget_nodes = 1 + shot.payload % 4;
        events[q] |= kEvBudgetFault;
      }
    }
    if (past_deadline()) {
      gpu.query_budget_nodes = 1;
      deadline_cut = true;
      events[q] |= kEvDeadlineCut;
    }
    try {
      results[q] = run_executor(q, gpu);
    } catch (const exec::ResumeFault&) {
      // A killed resume step abandons the suspended executor. The injected
      // kill is one-shot, so a fresh executor rerun sees a quiet site and
      // completes on the normal path (masked but counted); a second kill —
      // or any data fault during the rerun — drops to exact brute force.
      events[q] |= kEvResumeFault;
      try {
        results[q] = run_executor(q, gpu);
      } catch (const DataFault&) {
        results[q] = brute_force_fallback(q, gpu);
      }
    } catch (const DataFault&) {
      events[q] |= kEvDataFault;
      knn::GpuKnnOptions retry = gpu;
      retry.snapshot = nullptr;
      retry.implicit = nullptr;
      retry.fetch_session = nullptr;
      try {
        results[q] = knn::restart_query(tree_, queries[q], retry, &metrics[q]);
        results[q].status = knn::QueryStatus::kDegradedFallback;
        events[q] |= kEvRetried;
      } catch (const DataFault&) {
        results[q] = brute_force_fallback(q, gpu);
      }
    }
    if (results[q].budget_exhausted) {
      events[q] |= kEvBudgetExhausted;
      if (!deadline_cut) {
        const knn::TraversalStats partial = results[q].stats;
        results[q] = brute_force_fallback(q, gpu);
        results[q].stats.merge(partial);  // keep the abandoned traversal's work visible
        results[q].budget_exhausted = true;
      } else {
        results[q].status = knn::QueryStatus::kDeadlinePartial;
      }
    }
  };

  // Scheduling unit: a cohort of warp_queries consecutive entries of `order`
  // sharing one resident-segment window (only meaningful in snapshot mode).
  // Cohort members run sequentially — the shared window makes them order-
  // dependent — while cohorts are independent, so workers split on cohort
  // boundaries and results stay identical for every thread count.
  const std::size_t cohort =
      snap != nullptr || impl != nullptr ? std::max<std::size_t>(opts_.warp_queries, 1) : 1;
  const std::size_t units = (n + cohort - 1) / std::max<std::size_t>(cohort, 1);

  const auto process_unit = [&](std::size_t u) {
    knn::GpuKnnOptions gpu = opts_.gpu;
    // null here overrides a caller-set arena that failed verify()
    gpu.snapshot = snap;
    gpu.implicit = impl;
    gpu.fetch_session = nullptr;
    std::optional<layout::FetchSession> session;
    if (snap != nullptr || impl != nullptr) {
      if (cohort > 1 && opts_.gpu.fetch_session == nullptr) {
        // The shared warp-cohort window lives over whichever arena fetches
        // are served from (the implicit arena wins, matching SnapshotFetch).
        if (impl != nullptr) {
          session.emplace(*impl);
        } else {
          session.emplace(*snap);
        }
        gpu.fetch_session = &*session;
      } else {
        gpu.fetch_session = opts_.gpu.fetch_session;
      }
    }
    const std::size_t begin = u * cohort;
    const std::size_t end = std::min(n, begin + cohort);
    for (std::size_t s = begin; s < end; ++s) run_query(order[s], gpu);
  };

  // Workers fill disjoint slots (indexed by original query id); nothing is
  // merged or emitted until the single-threaded pass below, so totals, traces
  // and results are identical for every thread count. `unit_done` tracks
  // completed cohorts: a worker that dies mid-slice (engine.worker_slice
  // fault, or a genuine non-policy exception) leaves its remaining units
  // unmarked, and the merge thread reruns them after the join.
  std::vector<std::uint8_t> unit_done(units, 0);
  auto work = [&](std::size_t unit_begin, std::size_t unit_end) {
    for (std::size_t u = unit_begin; u < unit_end; ++u) {
      try {
        if (fault::enabled() && fault::evaluate(fault::kSiteWorkerSlice)) {
          return;  // simulated worker death: abandon the rest of the slice
        }
        process_unit(u);
      } catch (...) {
        return;  // leave this unit unmarked; the merge thread reruns it
      }
      unit_done[u] = 1;
    }
  };

  std::size_t workers = opts_.num_threads;
  if (workers == 0) workers = std::max(1u, std::thread::hardware_concurrency());
  workers = std::min(workers, std::max<std::size_t>(units, 1));
  if (workers <= 1 || units <= 1) {
    work(0, units);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    const std::size_t per = (units + workers - 1) / workers;
    for (std::size_t w = 0; w < workers; ++w) {
      const std::size_t begin = w * per;
      const std::size_t end = std::min(units, begin + per);
      if (begin >= end) break;
      pool.emplace_back(work, begin, end);
    }
    for (std::thread& t : pool) t.join();
  }

  // Worker-failure recovery: rerun abandoned cohorts here on the merge
  // thread. Injected faults are one-shot, so the rerun completes; a genuine
  // defect will throw again and surface to the caller with its real type.
  std::size_t recovered_units = 0;
  for (std::size_t u = 0; u < units; ++u) {
    if (unit_done[u]) continue;
    // Reset the slots the dead worker may have half-filled.
    const std::size_t begin = u * cohort;
    const std::size_t end = std::min(n, begin + cohort);
    for (std::size_t s = begin; s < end; ++s) {
      const std::size_t q = order[s];
      results[q] = knn::QueryResult{};
      metrics[q] = simt::Metrics{};
      events[q] = 0;
      step_slots[q].clear();
    }
    process_unit(u);
    ++recovered_units;
  }
  if (recovered_units > 0) reg.add("engine.fault.worker_units_recovered", recovered_units);

  knn::BatchResult out;
  out.queries = std::move(results);
  const bool traced = obs::enabled();
  const std::string_view name = algorithm_name(opts_.algorithm);
  std::uint64_t ev_totals[7] = {};
  for (std::size_t q = 0; q < n; ++q) {
    out.stats.merge(out.queries[q].stats);
    out.metrics.merge(metrics[q]);
    if (traced) obs::emit(name, knn::make_query_trace(q, out.queries[q].stats, metrics[q]));
    for (int b = 0; b < 7; ++b) {
      if (events[q] & (1u << b)) ++ev_totals[b];
    }
  }
  // Fold degradation events into the registry (only non-zero totals, so a
  // clean batch leaves no trace of the machinery).
  static constexpr std::string_view kEventCounter[7] = {
      "engine.fault.data_faults",       "engine.fault.retries",
      "engine.fault.brute_fallbacks",   "engine.fault.budget_exhausted",
      "engine.fault.deadline_cuts",     "engine.fault.budget_injected",
      "engine.fault.resume_faults",
  };
  for (int b = 0; b < 7; ++b) {
    if (ev_totals[b] > 0) reg.add(kEventCounter[b], ev_totals[b]);
  }
  // Replay each cohort's recorded resume steps through the double-buffered
  // fetch/compute stream model. Per-unit replay in `order` makes the totals
  // a pure function of (queries, options) — worker count moves nothing.
  std::vector<const std::vector<simt::StepPhase>*> cohort_steps;
  for (std::size_t u = 0; u < units; ++u) {
    cohort_steps.clear();
    const std::size_t begin = u * cohort;
    const std::size_t end = std::min(n, begin + cohort);
    for (std::size_t s = begin; s < end; ++s) cohort_steps.push_back(&step_slots[order[s]]);
    out.exec.merge(simt::pipeline_schedule(opts_.gpu.device, cohort_steps));
  }
  if (out.exec.steps > 0) {
    reg.add("engine.exec.steps", out.exec.steps);
    reg.add("engine.exec.serialized_cycles", out.exec.serialized_cycles);
    reg.add("engine.exec.overlapped_cycles", out.exec.overlapped_cycles);
  }
  simt::KernelConfig cfg;
  cfg.blocks = static_cast<int>(std::max<std::size_t>(n, 1));
  cfg.threads_per_block = block_threads_for(opts_.algorithm, tree_.degree(), opts_.gpu);
  out.timing = simt::estimate(opts_.gpu.device, out.metrics, cfg);
  return out;
}

BatchEngine::TracedRun BatchEngine::run_traced(const PointSet& queries) const {
  obs::TraceSession session;
  TracedRun out;
  out.result = run(queries);
  out.trace = session.report();
  return out;
}

}  // namespace psb::engine
