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
#include "knn/psb.hpp"
#include "knn/stackless_baselines.hpp"
#include "knn/task_parallel_sstree.hpp"
#include "layout/fetch.hpp"
#include "obs/registry.hpp"
#include "simt/sort.hpp"

namespace psb::engine {

std::string_view algorithm_name(Algorithm a) noexcept {
  switch (a) {
    case Algorithm::kPsb: return "psb";
    case Algorithm::kBestFirst: return "best_first";
    case Algorithm::kBranchAndBound: return "branch_and_bound";
    case Algorithm::kStacklessRestart: return "stackless_restart";
    case Algorithm::kStacklessSkip: return "stackless_skip";
    case Algorithm::kBruteForce: return "brute_force";
    case Algorithm::kTaskParallel: return "task_parallel_sstree";
  }
  return "unknown";
}

Algorithm parse_algorithm(std::string_view name) {
  for (Algorithm a : {Algorithm::kPsb, Algorithm::kBestFirst, Algorithm::kBranchAndBound,
                      Algorithm::kStacklessRestart, Algorithm::kStacklessSkip,
                      Algorithm::kBruteForce, Algorithm::kTaskParallel}) {
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
      return knn::brute_force_threads(gpu);
    case Algorithm::kTaskParallel:
      return gpu.device.warp_size;
    default:
      return knn::detail::resolve_block_threads(gpu, degree);
  }
}

void run_slices(std::size_t num_threads, std::size_t units,
                const std::function<void(std::size_t, std::size_t)>& work) {
  std::size_t workers = num_threads;
  if (workers == 0) workers = std::max(1u, std::thread::hardware_concurrency());
  workers = std::min(workers, std::max<std::size_t>(units, 1));
  if (workers <= 1) return work(0, units);
  std::vector<std::thread> pool;
  pool.reserve(workers);
  const std::size_t per = (units + workers - 1) / workers;
  for (std::size_t begin = 0; begin < units; begin += per) {
    pool.emplace_back(work, begin, std::min(units, begin + per));
  }
  for (std::thread& t : pool) t.join();
}

knn::QueryResult run_pass(Algorithm algo, const sstree::SSTree& tree,
                          std::span<const Scalar> query, knn::GpuKnnOptions gpu,
                          bool deadline_cut, ExactScan exact_scan, simt::Metrics* m,
                          std::vector<simt::StepPhase>& steps, std::uint16_t& events) {
  // The task-parallel lane has no node budget to arm.
  if (algo != Algorithm::kTaskParallel && fault::enabled()) {
    if (const fault::Shot shot = fault::evaluate(fault::kSiteQueryBudget)) {
      gpu.query_budget_nodes = 1 + shot.payload % 4;
      events |= kPassBudgetFault;
    }
  }
  if (deadline_cut) {
    gpu.query_budget_nodes = 1;
    events |= kPassDeadlineCut;
  }

  // One attempt as a resumable executor (src/exec/). The stack-free sweep
  // runs as a native state machine that yields at every leaf reduction; every
  // other algorithm runs its run-to-completion call behind the one-step
  // LoopExecutor adapter (no yield points, no modeled overlap — but the same
  // exec.resume fault boundary). A completed attempt appends its resume
  // steps to the caller's stream; an abandoned attempt's are dropped.
  const auto loop_pass = [&]() -> knn::QueryResult {
    switch (algo) {
      case Algorithm::kPsb: return knn::psb_query(tree, query, gpu, m);
      case Algorithm::kBestFirst: return knn::best_first_gpu_query(tree, query, gpu, m);
      case Algorithm::kBranchAndBound: return knn::bnb_query(tree, query, gpu, m);
      case Algorithm::kStacklessRestart: return knn::restart_query(tree, query, gpu, m);
      case Algorithm::kBruteForce: return exact_scan(gpu);
      case Algorithm::kTaskParallel: {
        knn::TaskParallelSsOptions tp;
        tp.k = gpu.k;
        tp.device = gpu.device;
        tp.snapshot = gpu.snapshot;
        tp.initial_prune_bound = gpu.initial_prune_bound;
        return knn::task_parallel_sstree_query(tree, query, tp, m);
      }
      case Algorithm::kStacklessSkip: break;  // native executor
    }
    throw InternalError("run_pass: no loop form for " + std::string(algorithm_name(algo)));
  };
  const auto attempt = [&] {
    knn::QueryResult res;
    std::unique_ptr<exec::Executor> ex;
    if (algo == Algorithm::kStacklessSkip) {
      ex = exec::make_stackless_skip_executor(tree, query, gpu, m, res);
    } else {
      ex = exec::make_loop_executor([&] { res = loop_pass(); }, gpu.device, m,
                                    block_threads_for(algo, tree.degree(), gpu));
    }
    exec::drive(*ex);
    steps.insert(steps.end(), ex->steps().begin(), ex->steps().end());
    return res;
  };

  // The retry and scan rungs run on the pointer path (no arena, no shared
  // window); the exact scan is also unbudgeted, so no node-integrity fault
  // or budget can stop it.
  const auto pointer_path = [&gpu] {
    knn::GpuKnnOptions p = gpu;
    p.snapshot = nullptr;
    p.implicit = nullptr;
    p.fetch_session = nullptr;
    return p;
  };
  const auto scan = [&](PassEvent rung) {
    knn::GpuKnnOptions exact = pointer_path();
    exact.query_budget_nodes = 0;
    knn::QueryResult r = exact_scan(exact);
    r.status = knn::QueryStatus::kDegradedFallback;
    events |= rung;
    return r;
  };

  knn::QueryResult r;
  try {
    r = attempt();
  } catch (const exec::ResumeFault&) {
    // A killed resume step abandons the suspended executor. The injected
    // kill is one-shot, so a fresh executor rerun sees a quiet site and
    // completes on the normal path (masked but counted); a second kill — or
    // any data fault during the rerun — drops to the exact scan.
    events |= kPassResumeFault;
    try {
      r = attempt();
      events |= kPassResumeRerun;
    } catch (const DataFault&) {
      return scan(kPassResumeScan);
    }
  } catch (const DataFault&) {
    // One restart-from-root retry on the pointer path (injected faults are
    // one-shot, so the retry sees clean data), then the exact scan.
    events |= kPassDataFault;
    try {
      r = knn::restart_query(tree, query, pointer_path(), m);
      r.status = knn::QueryStatus::kDegradedFallback;
      events |= kPassRetried;
    } catch (const DataFault&) {
      return scan(kPassRetryScan);
    }
  }
  if (r.budget_exhausted) {
    events |= kPassBudgetExhausted;
    if (deadline_cut) {
      r.status = knn::QueryStatus::kDeadlinePartial;
    } else {
      const knn::TraversalStats partial = r.stats;
      r = scan(kPassBudgetScan);
      r.stats.merge(partial);  // keep the abandoned traversal's work visible
      r.budget_exhausted = true;
    }
  }
  return r;
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
  fault::strike(snapshot_.get(), fault::kSiteSnapshotSegment);
  fault::strike(implicit_.get(), fault::kSiteImplicitEscape);
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
  std::vector<std::uint16_t> events(n, 0);
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

  // One query = one run_pass() over the engine's tree. The exact last rung
  // is a brute-force scan of the dataset; run_pass hands it the pointer-path,
  // unbudgeted options, so it never reads tree bounds. Deadline-cut queries
  // keep their partial list, flagged (scanning everything would blow the
  // deadline that cut them).
  const auto run_query = [&](std::size_t q, const knn::GpuKnnOptions& cohort_gpu) {
    const auto scan = [&](const knn::GpuKnnOptions& gpu) {
      return knn::brute_force_query(tree_.data(), queries[q], gpu, &metrics[q]);
    };
    results[q] = run_pass(opts_.algorithm, tree_, queries[q], cohort_gpu, past_deadline(), scan,
                          &metrics[q], step_slots[q], events[q]);
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

  run_slices(opts_.num_threads, units, work);

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
  for (std::size_t q = 0; q < n; ++q) {
    out.stats.merge(out.queries[q].stats);
    out.metrics.merge(metrics[q]);
    if (traced) obs::emit(name, knn::make_query_trace(q, out.queries[q].stats, metrics[q]));
  }
  // Fold degradation events into the registry, one count per query that saw
  // any of an entry's events (only non-zero totals, so a clean batch leaves
  // no trace of the machinery). Every exact-scan rung is a brute fallback.
  static constexpr std::pair<std::uint16_t, std::string_view> kEventCounter[] = {
      {kPassDataFault, "engine.fault.data_faults"},
      {kPassRetried, "engine.fault.retries"},
      {kPassResumeScan | kPassRetryScan | kPassBudgetScan, "engine.fault.brute_fallbacks"},
      {kPassBudgetExhausted, "engine.fault.budget_exhausted"},
      {kPassDeadlineCut, "engine.fault.deadline_cuts"},
      {kPassBudgetFault, "engine.fault.budget_injected"},
      {kPassResumeFault, "engine.fault.resume_faults"},
  };
  for (const auto& [mask, counter] : kEventCounter) {
    const auto total = std::count_if(events.begin(), events.end(),
                                     [mask](std::uint16_t ev) { return (ev & mask) != 0; });
    if (total > 0) reg.add(counter, static_cast<std::uint64_t>(total));
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
