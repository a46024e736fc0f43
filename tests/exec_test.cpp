// Unit and property tests for the resumable-executor subsystem (src/exec/)
// and its stream-overlap cost model (simt/overlap.hpp):
//   * pipeline_schedule never credits overlap a dependent chain cannot have:
//     a lone query (or a single-step adapter) schedules fully serialized,
//     ratio exactly 1.0, while two interleavable queries strictly beat the
//     serialized sum.
//   * Driving an executor to completion reproduces its run-to-completion
//     knn::*_query function bit-for-bit (answer, stats, Metrics), with one recorded step
//     per leaf reduction.
//   * The exec.resume fault site degrades by the counted policy: one kill is
//     masked by a fresh-executor rerun, a double kill falls to the flagged
//     brute-force answer — and both stay exact.
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "engine/batch_engine.hpp"
#include "exec/executor.hpp"
#include "fault/fault.hpp"
#include "fault/sites.hpp"
#include "knn/stackless_baselines.hpp"
#include "layout/implicit.hpp"
#include "layout/snapshot.hpp"
#include "obs/registry.hpp"
#include "simt/overlap.hpp"
#include "sstree/builders.hpp"
#include "test_util.hpp"

namespace psb {
namespace {

using simt::OverlapTotals;
using simt::StepPhase;

std::vector<const std::vector<StepPhase>*> views(
    const std::vector<std::vector<StepPhase>>& queries) {
  std::vector<const std::vector<StepPhase>*> out;
  for (const auto& q : queries) out.push_back(&q);
  return out;
}

TEST(OverlapModel, EmptyCohortSchedulesNothing) {
  const std::vector<std::vector<StepPhase>> none;
  const OverlapTotals t = simt::pipeline_schedule(simt::DeviceSpec{}, views(none));
  EXPECT_EQ(t.steps, 0u);
  EXPECT_EQ(t.serialized_cycles, 0u);
  EXPECT_EQ(t.overlapped_cycles, 0u);
  EXPECT_DOUBLE_EQ(t.ratio(), 1.0);
}

TEST(OverlapModel, LoneQueryChainIsFullySerialized) {
  // A single query's next fetch depends on its previous prune decision, so
  // its steps must not overlap with each other: makespan == serialized sum.
  const std::vector<std::vector<StepPhase>> one = {
      {{10.0, 4.0}, {7.0, 3.0}, {12.0, 5.0}}};
  const OverlapTotals t = simt::pipeline_schedule(simt::DeviceSpec{}, views(one));
  EXPECT_EQ(t.steps, 3u);
  EXPECT_EQ(t.overlapped_cycles, t.serialized_cycles);
  EXPECT_DOUBLE_EQ(t.ratio(), 1.0);
}

TEST(OverlapModel, CrossQueryStepsOverlap) {
  // Two independent queries: one's fetch can hide behind the other's
  // compute, so the pipeline makespan beats the serialized sum.
  const std::vector<std::vector<StepPhase>> two = {
      {{10.0, 6.0}, {10.0, 6.0}, {10.0, 6.0}},
      {{10.0, 6.0}, {10.0, 6.0}, {10.0, 6.0}}};
  const OverlapTotals t = simt::pipeline_schedule(simt::DeviceSpec{}, views(two));
  EXPECT_EQ(t.steps, 6u);
  EXPECT_LT(t.overlapped_cycles, t.serialized_cycles);
  EXPECT_LT(t.ratio(), 1.0);
  EXPECT_GT(t.ratio(), 0.0);
}

TEST(OverlapModel, AllFetchStepsNeverOverlap) {
  // Single-step adapters record pure fetch phases; with no compute to hide
  // behind, the single fetch stream serializes them — no credited overlap.
  const std::vector<std::vector<StepPhase>> adapters = {
      {{25.0, 0.0}}, {{30.0, 0.0}}, {{15.0, 0.0}}};
  const OverlapTotals t = simt::pipeline_schedule(simt::DeviceSpec{}, views(adapters));
  EXPECT_EQ(t.steps, 3u);
  EXPECT_EQ(t.overlapped_cycles, t.serialized_cycles);
  EXPECT_DOUBLE_EQ(t.ratio(), 1.0);
}

TEST(OverlapModel, MergeAccumulates) {
  OverlapTotals a{3, 100, 80};
  const OverlapTotals b{2, 50, 50};
  a.merge(b);
  EXPECT_EQ(a.steps, 5u);
  EXPECT_EQ(a.serialized_cycles, 150u);
  EXPECT_EQ(a.overlapped_cycles, 130u);
}

struct Workload {
  PointSet data;
  PointSet queries;
  sstree::BuildOutput built;

  Workload() : data(test::small_clustered(4, 600, 2016)),
               queries(test::random_queries(4, 8, 17)),
               built(sstree::build_kmeans(data, 16, {})) {}
};

void expect_metrics_equal(const simt::Metrics& a, const simt::Metrics& b,
                          const std::string& label) {
  EXPECT_EQ(a.warp_instructions, b.warp_instructions) << label;
  EXPECT_EQ(a.active_lane_slots, b.active_lane_slots) << label;
  EXPECT_EQ(a.serial_ops, b.serial_ops) << label;
  EXPECT_EQ(a.divergent_steps, b.divergent_steps) << label;
  EXPECT_EQ(a.bytes_coalesced, b.bytes_coalesced) << label;
  EXPECT_EQ(a.bytes_random, b.bytes_random) << label;
  EXPECT_EQ(a.bytes_cached, b.bytes_cached) << label;
  EXPECT_EQ(a.node_fetches, b.node_fetches) << label;
  EXPECT_EQ(a.fetches_random, b.fetches_random) << label;
  EXPECT_EQ(a.fetches_cached, b.fetches_cached) << label;
  EXPECT_EQ(a.shared_bytes, b.shared_bytes) << label;
}

void expect_query_equal(const knn::QueryResult& a, const knn::QueryResult& b,
                        const std::string& label) {
  ASSERT_EQ(a.neighbors.size(), b.neighbors.size()) << label;
  for (std::size_t i = 0; i < a.neighbors.size(); ++i) {
    EXPECT_EQ(a.neighbors[i].id, b.neighbors[i].id) << label << " rank " << i;
    EXPECT_EQ(a.neighbors[i].dist, b.neighbors[i].dist) << label << " rank " << i;
  }
  EXPECT_EQ(a.status, b.status) << label;
  EXPECT_EQ(a.stats.nodes_visited, b.stats.nodes_visited) << label;
  EXPECT_EQ(a.stats.leaves_visited, b.stats.leaves_visited) << label;
  EXPECT_EQ(a.stats.points_examined, b.stats.points_examined) << label;
  EXPECT_EQ(a.stats.backtracks, b.stats.backtracks) << label;
  EXPECT_EQ(a.stats.heap_inserts, b.stats.heap_inserts) << label;
  EXPECT_EQ(a.stats.restarts, b.stats.restarts) << label;
  EXPECT_EQ(a.stats.leaf_scans, b.stats.leaf_scans) << label;
  EXPECT_EQ(a.stats.heap_pushes, b.stats.heap_pushes) << label;
  EXPECT_EQ(a.budget_exhausted, b.budget_exhausted) << label;
}

/// Drive the stack-free sweep's executor over every workload query and
/// compare it with knn::skip_pointer_query under the same options: every
/// answer, every TraversalStats and Metrics field, and one recorded step per
/// scanned leaf plus at most one terminal step for the post-last-leaf tail.
void expect_sweep_matches_skip_pointer_query(const Workload& w, const knn::GpuKnnOptions& opts,
                                             const std::string& layout) {
  for (std::size_t q = 0; q < w.queries.size(); ++q) {
    simt::Metrics legacy_m;
    const knn::QueryResult legacy =
        knn::skip_pointer_query(w.built.tree, w.queries[q], opts, &legacy_m);

    simt::Metrics exec_m;
    knn::QueryResult got;
    std::unique_ptr<exec::Executor> ex =
        exec::make_stackless_skip_executor(w.built.tree, w.queries[q], opts, &exec_m, got);
    exec::drive(*ex);

    EXPECT_TRUE(ex->finished());
    const std::string label = "stackless_skip " + layout + " query " + std::to_string(q);
    expect_query_equal(got, legacy, label);
    expect_metrics_equal(exec_m, legacy_m, label);
    EXPECT_GE(ex->steps().size(), got.stats.leaves_visited) << label;
    EXPECT_LE(ex->steps().size(), got.stats.leaves_visited + 1) << label;
  }
}

TEST(ExecutorTest, SkipPointerExecutorMatchesLegacyQuery) {
  const Workload w;
  knn::GpuKnnOptions opts;
  opts.k = 6;
  expect_sweep_matches_skip_pointer_query(w, opts, "pointer");
  const layout::TraversalSnapshot snap(w.built.tree);
  opts.snapshot = &snap;
  expect_sweep_matches_skip_pointer_query(w, opts, "snapshot");
}

TEST(ExecutorTest, EscapeIndexCursorMatchesSkipPointerQuery) {
  // On the implicit arena the executor's cursor is a preorder slot (descend
  // to slot + 1, escape via the escape table) while the reference still
  // follows node links and skip pointers. Equal answers, stats and charges
  // for every query pin that the escape table is the preorder image of the
  // skip chain.
  const Workload w;
  const layout::ImplicitLayout lay(w.built.tree);
  knn::GpuKnnOptions opts;
  opts.k = 6;
  opts.implicit = &lay;
  expect_sweep_matches_skip_pointer_query(w, opts, "implicit");
}

TEST(ExecutorTest, ResumeIsIdempotentAfterCompletion) {
  const Workload w;
  knn::GpuKnnOptions opts;
  opts.k = 4;
  simt::Metrics m;
  knn::QueryResult got;
  std::unique_ptr<exec::Executor> ex =
      exec::make_stackless_skip_executor(w.built.tree, w.queries[0], opts, &m, got);
  exec::drive(*ex);
  ASSERT_TRUE(ex->finished());
  const std::size_t steps = ex->steps().size();
  const simt::Metrics frozen = m;
  EXPECT_FALSE(ex->resume());
  EXPECT_EQ(ex->steps().size(), steps);
  expect_metrics_equal(m, frozen, "post-completion resume");
}

TEST(ExecutorTest, LoopExecutorRecordsOneOpaqueStep) {
  simt::Metrics m;
  int calls = 0;
  std::unique_ptr<exec::Executor> ex = exec::make_loop_executor(
      [&] {
        ++calls;
        m.warp_instructions += 100;
        m.bytes_random += 4096;
        m.fetches_random += 4;
        m.node_fetches += 4;
      },
      simt::DeviceSpec{}, &m, /*threads_per_block=*/32);
  exec::drive(*ex);
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(ex->finished());
  ASSERT_EQ(ex->steps().size(), 1u);
  EXPECT_GT(ex->steps()[0].fetch_us, 0.0);
  EXPECT_DOUBLE_EQ(ex->steps()[0].compute_us, 0.0);
}

std::uint64_t counter_value(const obs::Registry::Snapshot& s, std::string_view name) {
  for (const auto& [n, v] : s.counters) {
    if (n == name) return v;
  }
  return 0;
}

engine::BatchEngineOptions cohort_options(engine::Algorithm a) {
  engine::BatchEngineOptions opts;
  opts.algorithm = a;
  opts.gpu.k = 6;
  opts.layout = engine::NodeLayout::kSnapshot;
  opts.warp_queries = 4;
  opts.num_threads = 1;
  return opts;
}

TEST(ExecutorTest, BatchEngineExportsOverlapTotals) {
  const Workload w;
  const engine::BatchEngine eng(w.built.tree,
                                cohort_options(engine::Algorithm::kStacklessSkip));
  const obs::Registry::Snapshot before = obs::Registry::global().snapshot();
  const knn::BatchResult res = eng.run(w.queries);
  const obs::Registry::Snapshot after = obs::Registry::global().snapshot();
  EXPECT_GT(res.exec.steps, 0u);
  // The registry carries the same totals under engine.exec.*.
  const auto delta = [&](std::string_view name) {
    return counter_value(after, name) - counter_value(before, name);
  };
  EXPECT_EQ(delta("engine.exec.steps"), res.exec.steps);
  EXPECT_EQ(delta("engine.exec.serialized_cycles"), res.exec.serialized_cycles);
  EXPECT_EQ(delta("engine.exec.overlapped_cycles"), res.exec.overlapped_cycles);
  EXPECT_GT(res.exec.serialized_cycles, 0u);
  // Snapshot cohorts of 4 interleavable queries must beat (or at worst tie)
  // the serialized schedule, and never exceed it.
  EXPECT_LE(res.exec.overlapped_cycles, res.exec.serialized_cycles);
  EXPECT_LE(res.exec.ratio(), 1.0);

  // On the pointer path every query is its own cohort: a lone dependent
  // chain is never credited overlap, so the schedule stays fully serialized.
  engine::BatchEngineOptions lone = cohort_options(engine::Algorithm::kStacklessSkip);
  lone.layout = engine::NodeLayout::kPointer;
  const knn::BatchResult lone_res = engine::BatchEngine(w.built.tree, lone).run(w.queries);
  EXPECT_GT(lone_res.exec.steps, 0u);
  EXPECT_EQ(lone_res.exec.overlapped_cycles, lone_res.exec.serialized_cycles);
  EXPECT_DOUBLE_EQ(lone_res.exec.ratio(), 1.0);
}

TEST(ExecutorFaultTest, OneResumeKillIsMaskedByRerun) {
  const Workload w;
  const engine::BatchEngine eng(w.built.tree,
                                cohort_options(engine::Algorithm::kStacklessSkip));
  const knn::BatchResult clean = eng.run(w.queries);

  const obs::Registry::Snapshot before = obs::Registry::global().snapshot();
  fault::InjectionScope scope(
      fault::Spec{std::string(fault::kSiteExecResume), 99, /*trigger=*/5, /*count=*/1});
  const knn::BatchResult got = eng.run(w.queries);
  const obs::Registry::Snapshot after = obs::Registry::global().snapshot();

  ASSERT_GT(scope.fired(fault::kSiteExecResume), 0u);
  // The fresh-executor rerun absorbs a one-shot kill: every answer is exact
  // and stays kOk — masked, but counted.
  EXPECT_TRUE(got.all_ok());
  for (std::size_t q = 0; q < got.queries.size(); ++q) {
    expect_query_equal(got.queries[q], clean.queries[q], "masked rerun");
  }
  EXPECT_EQ(counter_value(after, "engine.fault.resume_faults") -
                counter_value(before, "engine.fault.resume_faults"),
            1u);
}

TEST(ExecutorFaultTest, DoubleResumeKillFallsToFlaggedBruteForce) {
  const Workload w;
  const engine::BatchEngine eng(w.built.tree,
                                cohort_options(engine::Algorithm::kStacklessSkip));
  const knn::BatchResult clean = eng.run(w.queries);

  fault::InjectionScope scope(
      fault::Spec{std::string(fault::kSiteExecResume), 7, /*trigger=*/3, /*count=*/2});
  const knn::BatchResult got = eng.run(w.queries);
  ASSERT_GE(scope.fired(fault::kSiteExecResume), 2u);

  // The rerun's first resume dies too; the engine answers the query by the
  // exact brute-force fallback, flagged kDegradedFallback — never silent.
  std::size_t degraded = 0;
  ASSERT_EQ(got.queries.size(), clean.queries.size());
  for (std::size_t q = 0; q < got.queries.size(); ++q) {
    if (got.queries[q].status == knn::QueryStatus::kDegradedFallback) ++degraded;
    ASSERT_EQ(got.queries[q].neighbors.size(), clean.queries[q].neighbors.size());
    for (std::size_t i = 0; i < got.queries[q].neighbors.size(); ++i) {
      EXPECT_EQ(got.queries[q].neighbors[i].id, clean.queries[q].neighbors[i].id);
      EXPECT_EQ(got.queries[q].neighbors[i].dist, clean.queries[q].neighbors[i].dist);
    }
  }
  EXPECT_EQ(degraded, 1u);
}

}  // namespace
}  // namespace psb
