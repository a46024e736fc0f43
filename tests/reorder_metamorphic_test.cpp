// Metamorphic properties of the query-reordering scheduler:
//
//  1. With private resident windows (warp_queries <= 1) Hilbert-reordering a
//     batch is *unobservable*: results AND exported traces (JSON and CSV) are
//     byte-identical to the unsorted run — the engine re-indexes everything
//     back to the caller's order and the trace collector keys on query_index.
//  2. Sharing a window across a warp cohort can only remove traffic, never
//     add it: each cohort member starts from a superset of the residency its
//     private window would have built, and the traversal itself is identical.
//  3. The structure counters (nodes visited, heap inserts, ...) are invariant
//     under both reordering and window sharing.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/noaa_synth.hpp"
#include "data/synthetic.hpp"
#include "engine/batch_engine.hpp"
#include "obs/export.hpp"
#include "sstree/builders.hpp"
#include "test_util.hpp"

namespace psb {
namespace {

struct Workload {
  PointSet data;
  PointSet queries;
  sstree::SSTree tree;  ///< borrows `data`; built after `data` reaches its home

  Workload(PointSet d, PointSet q, std::size_t degree)
      : data(std::move(d)),
        queries(std::move(q)),
        tree(sstree::build_kmeans(data, degree).tree) {}
};

Workload noaa_workload() {
  data::NoaaSpec spec;
  spec.stations = 100;
  spec.readings_per_station = 30;
  spec.seed = 1973;
  PointSet data = data::make_noaa_like(spec);
  PointSet queries = data::sample_queries(data, 96, /*jitter=*/0.5, /*seed=*/13);
  return Workload(std::move(data), std::move(queries), 32);
}

engine::BatchEngineOptions base_options(engine::Algorithm algo) {
  engine::BatchEngineOptions opts;
  opts.algorithm = algo;
  opts.gpu.k = 8;
  return opts;
}

void expect_identical_results(const knn::BatchResult& a, const knn::BatchResult& b,
                              const std::string& label) {
  ASSERT_EQ(a.queries.size(), b.queries.size()) << label;
  for (std::size_t q = 0; q < a.queries.size(); ++q) {
    ASSERT_EQ(a.queries[q].neighbors.size(), b.queries[q].neighbors.size())
        << label << " query " << q;
    for (std::size_t i = 0; i < a.queries[q].neighbors.size(); ++i) {
      EXPECT_EQ(a.queries[q].neighbors[i].id, b.queries[q].neighbors[i].id)
          << label << " query " << q << " rank " << i;
      EXPECT_EQ(a.queries[q].neighbors[i].dist, b.queries[q].neighbors[i].dist)
          << label << " query " << q << " rank " << i;
    }
  }
}

TEST(ReorderMetamorphic, PrivateWindowReorderingIsByteInvisible) {
  const Workload w = noaa_workload();
  for (const engine::Algorithm algo :
       {engine::Algorithm::kPsb, engine::Algorithm::kBranchAndBound,
        engine::Algorithm::kStacklessSkip, engine::Algorithm::kTaskParallel}) {
    engine::BatchEngineOptions unsorted = base_options(algo);
    unsorted.layout = engine::NodeLayout::kSnapshot;
    unsorted.warp_queries = 1;  // private windows: nothing couples queries

    engine::BatchEngineOptions sorted = unsorted;
    sorted.reorder_queries = true;

    const engine::BatchEngine::TracedRun a =
        engine::BatchEngine(w.tree, unsorted).run_traced(w.queries);
    const engine::BatchEngine::TracedRun b =
        engine::BatchEngine(w.tree, sorted).run_traced(w.queries);

    const std::string label(engine::algorithm_name(algo));
    expect_identical_results(a.result, b.result, label);
    EXPECT_EQ(obs::trace_to_json(a.trace), obs::trace_to_json(b.trace)) << label;
    EXPECT_EQ(obs::trace_to_csv(a.trace), obs::trace_to_csv(b.trace)) << label;
  }
}

TEST(ReorderMetamorphic, PointerModeReorderingIsByteInvisible) {
  // Even without the snapshot, reordering must be unobservable (queries are
  // fully independent in pointer mode).
  const Workload w = noaa_workload();
  engine::BatchEngineOptions unsorted = base_options(engine::Algorithm::kPsb);
  engine::BatchEngineOptions sorted = unsorted;
  sorted.reorder_queries = true;

  const engine::BatchEngine::TracedRun a =
      engine::BatchEngine(w.tree, unsorted).run_traced(w.queries);
  const engine::BatchEngine::TracedRun b =
      engine::BatchEngine(w.tree, sorted).run_traced(w.queries);
  expect_identical_results(a.result, b.result, "psb/pointer");
  EXPECT_EQ(obs::trace_to_json(a.trace), obs::trace_to_json(b.trace));
  EXPECT_EQ(obs::trace_to_csv(a.trace), obs::trace_to_csv(b.trace));
}

TEST(ReorderMetamorphic, CohortSharingOnlyRemovesTraffic) {
  const Workload w = noaa_workload();
  engine::BatchEngineOptions priv = base_options(engine::Algorithm::kPsb);
  priv.layout = engine::NodeLayout::kSnapshot;
  priv.reorder_queries = true;
  priv.warp_queries = 1;

  engine::BatchEngineOptions shared = priv;
  shared.warp_queries = 32;

  const knn::BatchResult a = engine::BatchEngine(w.tree, priv).run(w.queries);
  const knn::BatchResult b = engine::BatchEngine(w.tree, shared).run(w.queries);

  expect_identical_results(a, b, "psb/shared-window");
  EXPECT_EQ(b.stats.nodes_visited, a.stats.nodes_visited);
  EXPECT_EQ(b.stats.heap_inserts, a.stats.heap_inserts);
  EXPECT_EQ(b.metrics.warp_instructions, a.metrics.warp_instructions);
  // Sharing starts every query from a superset of its private residency:
  // strictly fewer (never more) new segments get charged.
  EXPECT_LE(b.metrics.total_bytes(), a.metrics.total_bytes());
  EXPECT_LT(b.metrics.total_bytes(), a.metrics.total_bytes())
      << "a 32-query cohort on clustered data should share at least one segment";
}

TEST(ReorderMetamorphic, ThreadCountInvariantWithCohorts) {
  const Workload w = noaa_workload();
  engine::BatchEngineOptions opts = base_options(engine::Algorithm::kPsb);
  opts.layout = engine::NodeLayout::kSnapshot;
  opts.reorder_queries = true;
  opts.warp_queries = 8;

  engine::BatchEngineOptions threaded = opts;
  threaded.num_threads = 4;

  const engine::BatchEngine::TracedRun a =
      engine::BatchEngine(w.tree, opts).run_traced(w.queries);
  const engine::BatchEngine::TracedRun b =
      engine::BatchEngine(w.tree, threaded).run_traced(w.queries);
  expect_identical_results(a.result, b.result, "psb/threads");
  EXPECT_EQ(obs::trace_to_json(a.trace), obs::trace_to_json(b.trace));
  EXPECT_EQ(a.result.metrics.total_bytes(), b.result.metrics.total_bytes());
}

}  // namespace
}  // namespace psb
