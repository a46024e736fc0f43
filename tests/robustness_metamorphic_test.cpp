// The hardening metamorphic invariant: with fault injection disabled (the
// production configuration), the Status-carrying BatchEngine::run() is
// bit-identical to the direct batch drivers — same neighbors, same traversal
// stats, same device counters, same serialized traces — every Status is kOk,
// and no engine.fault.* counter is ever registered. The degradation machinery
// must be invisible until a fault actually fires.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "engine/batch_engine.hpp"
#include "fault/fault.hpp"
#include "knn/branch_and_bound.hpp"
#include "knn/brute_force.hpp"
#include "knn/psb.hpp"
#include "knn/stackless_baselines.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sstree/builders.hpp"
#include "test_util.hpp"

namespace psb {
namespace {

using engine::Algorithm;
using engine::BatchEngine;
using engine::BatchEngineOptions;

struct Workload {
  PointSet data;
  PointSet queries;
  Workload()
      : data(test::small_clustered(5, 800, /*seed=*/2016)),
        queries(test::random_queries(5, 11, /*seed=*/3)) {}
};

const Workload& workload() {
  static const Workload w;
  return w;
}

void expect_batch_equal(const knn::BatchResult& a, const knn::BatchResult& b,
                        const std::string& label) {
  ASSERT_EQ(a.queries.size(), b.queries.size()) << label;
  for (std::size_t q = 0; q < a.queries.size(); ++q) {
    const auto& qa = a.queries[q];
    const auto& qb = b.queries[q];
    ASSERT_EQ(qa.neighbors.size(), qb.neighbors.size()) << label << " q" << q;
    for (std::size_t i = 0; i < qa.neighbors.size(); ++i) {
      EXPECT_EQ(qa.neighbors[i].id, qb.neighbors[i].id) << label << " q" << q << " rank " << i;
      EXPECT_EQ(qa.neighbors[i].dist, qb.neighbors[i].dist)
          << label << " q" << q << " rank " << i;
    }
    EXPECT_EQ(qa.stats.nodes_visited, qb.stats.nodes_visited) << label << " q" << q;
    EXPECT_EQ(qa.stats.points_examined, qb.stats.points_examined) << label << " q" << q;
    EXPECT_EQ(qa.stats.heap_inserts, qb.stats.heap_inserts) << label << " q" << q;
  }
  EXPECT_EQ(a.stats.nodes_visited, b.stats.nodes_visited) << label;
  EXPECT_EQ(a.metrics.warp_instructions, b.metrics.warp_instructions) << label;
  EXPECT_EQ(a.metrics.total_bytes(), b.metrics.total_bytes()) << label;
}

TEST(RobustnessMetamorphic, EngineMatchesDirectDriversBitForBit) {
  const Workload& w = workload();
  const sstree::SSTree tree = sstree::build_kmeans(w.data, 16).tree;
  knn::GpuKnnOptions gpu;
  gpu.k = 6;

  struct Case {
    Algorithm algo;
    knn::BatchResult direct;
    const char* name;
  };
  std::vector<Case> cases;
  cases.push_back({Algorithm::kPsb, knn::psb_batch(tree, w.queries, gpu), "psb"});
  cases.push_back({Algorithm::kBranchAndBound, knn::bnb_batch(tree, w.queries, gpu), "bnb"});
  cases.push_back(
      {Algorithm::kStacklessRestart, knn::restart_batch(tree, w.queries, gpu), "restart"});
  cases.push_back(
      {Algorithm::kStacklessSkip, knn::skip_pointer_batch(tree, w.queries, gpu), "skip"});
  cases.push_back(
      {Algorithm::kBruteForce, knn::brute_force_batch(w.data, w.queries, gpu), "brute"});

  ASSERT_FALSE(fault::enabled());
  for (const Case& c : cases) {
    BatchEngineOptions eo;
    eo.algorithm = c.algo;
    eo.gpu = gpu;
    const BatchEngine eng(tree, eo);
    const knn::BatchResult got = eng.run(w.queries);
    expect_batch_equal(got, c.direct, c.name);
    EXPECT_TRUE(got.all_ok()) << c.name;
    for (const knn::QueryResult& q : got.queries) {
      EXPECT_EQ(q.status, knn::QueryStatus::kOk) << c.name;
      EXPECT_FALSE(q.budget_exhausted) << c.name;
    }
  }
}

TEST(RobustnessMetamorphic, SnapshotModeAlsoBitIdentical) {
  const Workload& w = workload();
  const sstree::SSTree tree = sstree::build_kmeans(w.data, 16).tree;
  BatchEngineOptions base;
  base.gpu.k = 6;
  BatchEngineOptions snap = base;
  snap.layout = engine::NodeLayout::kSnapshot;
  snap.warp_queries = 1;  // private windows: snapshot changes accounting only
  const knn::BatchResult plain = BatchEngine(tree, base).run(w.queries);
  const knn::BatchResult snapped = BatchEngine(tree, snap).run(w.queries);
  ASSERT_EQ(plain.queries.size(), snapped.queries.size());
  for (std::size_t q = 0; q < plain.queries.size(); ++q) {
    ASSERT_EQ(plain.queries[q].neighbors.size(), snapped.queries[q].neighbors.size());
    for (std::size_t i = 0; i < plain.queries[q].neighbors.size(); ++i) {
      EXPECT_EQ(plain.queries[q].neighbors[i].id, snapped.queries[q].neighbors[i].id);
    }
    EXPECT_EQ(snapped.queries[q].status, knn::QueryStatus::kOk);
  }
}

TEST(RobustnessMetamorphic, TracesIdenticalToPrePolicyPath) {
  const Workload& w = workload();
  const sstree::SSTree tree = sstree::build_kmeans(w.data, 16).tree;
  BatchEngineOptions eo;
  eo.gpu.k = 6;
  const BatchEngine eng(tree, eo);
  // Two traced runs of the hardened engine agree byte for byte — budget
  // checks and status bookkeeping leave no residue in the trace stream.
  const BatchEngine::TracedRun a = eng.run_traced(w.queries);
  const BatchEngine::TracedRun b = eng.run_traced(w.queries);
  EXPECT_EQ(obs::trace_to_json(a.trace), obs::trace_to_json(b.trace));
}

TEST(RobustnessMetamorphic, NoFaultCountersWithoutInjection) {
  const Workload& w = workload();
  const sstree::SSTree tree = sstree::build_kmeans(w.data, 16).tree;
  obs::Registry::global().reset();
  BatchEngineOptions eo;
  eo.gpu.k = 6;
  eo.layout = engine::NodeLayout::kSnapshot;
  BatchEngine(tree, eo).run(w.queries);
  for (const auto& [name, value] : obs::Registry::global().snapshot().counters) {
    if (name.rfind("engine.fault.", 0) == 0) {
      EXPECT_EQ(value, 0u) << name << " bumped without injection";
    }
  }
}

TEST(RobustnessMetamorphic, UnlimitedBudgetFlagIsIdentity) {
  const Workload& w = workload();
  const sstree::SSTree tree = sstree::build_kmeans(w.data, 16).tree;
  knn::GpuKnnOptions gpu;
  gpu.k = 6;
  knn::GpuKnnOptions huge = gpu;
  huge.query_budget_nodes = 1u << 30;  // never reached: must not perturb anything
  const knn::BatchResult a = knn::psb_batch(tree, w.queries, gpu);
  const knn::BatchResult b = knn::psb_batch(tree, w.queries, huge);
  expect_batch_equal(a, b, "budget identity");
}

TEST(RobustnessMetamorphic, RunTracedRequiresNoActiveSession) {
  const Workload& w = workload();
  const sstree::SSTree tree = sstree::build_kmeans(w.data, 16).tree;
  BatchEngineOptions eo;
  eo.gpu.k = 4;
  const BatchEngine eng(tree, eo);
  obs::TraceSession outer;
  EXPECT_THROW(eng.run_traced(w.queries), InternalError);
}

TEST(RobustnessMetamorphic, DeadlineAndFallbackOptionsValidated) {
  const Workload& w = workload();
  const sstree::SSTree tree = sstree::build_kmeans(w.data, 16).tree;
  BatchEngineOptions eo;
  eo.deadline_ms = -1;
  EXPECT_THROW(BatchEngine(tree, eo), InvalidArgument);
  (void)w;
}

}  // namespace
}  // namespace psb
