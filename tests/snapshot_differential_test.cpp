// Snapshot-vs-pointer differential sweep: every algorithm must return
// *bit-identical* neighbors when its node fetches are routed through the
// frozen traversal snapshot — the arena changes where bytes live and how they
// are charged, never which nodes are visited or which candidates win. Runs
// across a (k, dims, degree) grid on seeded uniform and NOAA-like data.
//
// The final test is the PR's acceptance criterion: on the NOAA-like workload
// the snapshot + Hilbert query reordering engine configuration must cut PSB's
// accessed global-memory bytes by >= 10% without regressing warp efficiency.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/noaa_synth.hpp"
#include "data/synthetic.hpp"
#include "engine/batch_engine.hpp"
#include "knn/best_first.hpp"
#include "knn/branch_and_bound.hpp"
#include "knn/brute_force.hpp"
#include "knn/psb.hpp"
#include "knn/stackless_baselines.hpp"
#include "knn/task_parallel_sstree.hpp"
#include "layout/snapshot.hpp"
#include "sstree/builders.hpp"
#include "test_util.hpp"

namespace psb {
namespace {

struct Config {
  std::size_t k;
  std::size_t dims;  // ignored for the NOAA dataset (fixed 4-D)
  std::size_t degree;
};

std::string config_name(const testing::TestParamInfo<Config>& info) {
  return "k" + std::to_string(info.param.k) + "d" + std::to_string(info.param.dims) +
         "deg" + std::to_string(info.param.degree);
}

void expect_identical(const std::vector<knn::QueryResult>& got,
                      const std::vector<knn::QueryResult>& want, const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t q = 0; q < got.size(); ++q) {
    ASSERT_EQ(got[q].neighbors.size(), want[q].neighbors.size()) << label << " query " << q;
    for (std::size_t i = 0; i < got[q].neighbors.size(); ++i) {
      EXPECT_EQ(got[q].neighbors[i].id, want[q].neighbors[i].id)
          << label << " query " << q << " rank " << i;
      EXPECT_EQ(got[q].neighbors[i].dist, want[q].neighbors[i].dist)
          << label << " query " << q << " rank " << i;
    }
  }
}

void run_snapshot_differential(const PointSet& data, const PointSet& queries, std::size_t k,
                               std::size_t degree, const std::string& dataset) {
  const sstree::SSTree tree = sstree::build_kmeans(data, degree).tree;
  tree.validate();
  const layout::TraversalSnapshot snap(tree);
  snap.validate();

  knn::GpuKnnOptions pointer;
  pointer.k = k;
  knn::GpuKnnOptions arena = pointer;
  arena.snapshot = &snap;

  using Runner = knn::BatchResult (*)(const sstree::SSTree&, const PointSet&,
                                      const knn::GpuKnnOptions&);
  const std::vector<std::pair<std::string, Runner>> tree_algos = {
      {"psb", &knn::psb_batch},
      {"branch_and_bound", &knn::bnb_batch},
      {"best_first", &knn::best_first_gpu_batch},
      {"stackless_restart", &knn::restart_batch},
      {"stackless_skip", &knn::skip_pointer_batch},
  };

  for (const auto& [name, run] : tree_algos) {
    const knn::BatchResult base = run(tree, queries, pointer);
    const knn::BatchResult snapped = run(tree, queries, arena);
    expect_identical(snapped.queries, base.queries, dataset + "/" + name);
    // Identical traversal: every structure counter must match exactly.
    EXPECT_EQ(snapped.stats.nodes_visited, base.stats.nodes_visited) << dataset << '/' << name;
    EXPECT_EQ(snapped.stats.leaves_visited, base.stats.leaves_visited) << dataset << '/' << name;
    EXPECT_EQ(snapped.stats.points_examined, base.stats.points_examined)
        << dataset << '/' << name;
    EXPECT_EQ(snapped.stats.heap_inserts, base.stats.heap_inserts) << dataset << '/' << name;
    // The accounting, not the work, changed: instruction-side counters agree.
    EXPECT_EQ(snapped.metrics.warp_instructions, base.metrics.warp_instructions)
        << dataset << '/' << name;
    EXPECT_EQ(snapped.metrics.active_lane_slots, base.metrics.active_lane_slots)
        << dataset << '/' << name;
  }

  // Brute force scans leaves instead of id-order chunks in snapshot mode;
  // neighbors are still identical thanks to the deterministic (dist, id) heap.
  {
    const knn::BatchResult base = knn::brute_force_batch(data, queries, pointer);
    const knn::BatchResult snapped = knn::brute_force_batch(tree.data(), queries, arena);
    expect_identical(snapped.queries, base.queries, dataset + "/brute_force");
  }

  // Task-parallel lanes charge through per-lane windows.
  {
    knn::TaskParallelSsOptions tp;
    tp.k = k;
    const knn::BatchResult base = knn::task_parallel_sstree_knn(tree, queries, tp);
    tp.snapshot = &snap;
    const knn::BatchResult snapped = knn::task_parallel_sstree_knn(tree, queries, tp);
    expect_identical(snapped.queries, base.queries, dataset + "/task_parallel");
    EXPECT_EQ(snapped.stats.nodes_visited, base.stats.nodes_visited) << dataset;
  }
}

class SnapshotSweep : public testing::TestWithParam<Config> {};

TEST_P(SnapshotSweep, UniformMatchesPointerPath) {
  const Config& cfg = GetParam();
  const PointSet data = data::make_uniform(cfg.dims, 2000, 1000.0, /*seed=*/20160805);
  const PointSet queries = test::random_queries(cfg.dims, 10, /*seed=*/43);
  run_snapshot_differential(data, queries, cfg.k, cfg.degree, "uniform");
}

TEST_P(SnapshotSweep, NoaaSynthMatchesPointerPath) {
  const Config& cfg = GetParam();
  data::NoaaSpec spec;
  spec.stations = 60;
  spec.readings_per_station = 30;
  spec.seed = 1973;
  const PointSet data = data::make_noaa_like(spec);
  const PointSet queries = data::sample_queries(data, 10, /*jitter=*/0.5, /*seed=*/9);
  run_snapshot_differential(data, queries, cfg.k, cfg.degree, "noaa");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SnapshotSweep,
    testing::Values(Config{1, 2, 16}, Config{8, 2, 128}, Config{8, 4, 16},
                    Config{8, 16, 128}, Config{32, 4, 128}, Config{32, 16, 16}),
    config_name);

TEST(SnapshotThroughEngine, EveryAlgorithmMatchesPointerEngine) {
  const PointSet data = test::small_clustered(4, 2500, /*seed=*/77);
  const PointSet queries = test::random_queries(4, 24, /*seed=*/78);
  const sstree::SSTree tree = sstree::build_kmeans(data, 32).tree;

  for (const engine::Algorithm algo :
       {engine::Algorithm::kPsb, engine::Algorithm::kBestFirst,
        engine::Algorithm::kBranchAndBound, engine::Algorithm::kStacklessRestart,
        engine::Algorithm::kStacklessSkip, engine::Algorithm::kBruteForce,
        engine::Algorithm::kTaskParallel}) {
    engine::BatchEngineOptions base;
    base.algorithm = algo;
    base.gpu.k = 8;
    engine::BatchEngineOptions snap = base;
    snap.layout = engine::NodeLayout::kSnapshot;
    snap.reorder_queries = true;

    const knn::BatchResult a = engine::BatchEngine(tree, base).run(queries);
    const knn::BatchResult b = engine::BatchEngine(tree, snap).run(queries);
    expect_identical(b.queries, a.queries, std::string(engine::algorithm_name(algo)));
  }
}

// Acceptance: the coherence-optimized configuration (frozen arena + Hilbert
// query reordering + warp-cohort window sharing) must beat the pointer path
// by >= 10% accessed global-memory bytes on the NOAA-like workload for PSB,
// and must not regress warp efficiency.
TEST(SnapshotAcceptance, NoaaPsbCutsAccessedBytesTenPercent) {
  data::NoaaSpec spec;
  spec.stations = 150;
  spec.readings_per_station = 40;  // 6000 points, heavy spatial skew
  spec.seed = 1973;
  const PointSet data = data::make_noaa_like(spec);
  const PointSet queries = data::sample_queries(data, 256, /*jitter=*/0.5, /*seed=*/20160816);
  const sstree::SSTree tree = sstree::build_kmeans(data, 64).tree;

  engine::BatchEngineOptions pointer;
  pointer.algorithm = engine::Algorithm::kPsb;
  pointer.gpu.k = 16;

  engine::BatchEngineOptions coherent = pointer;
  coherent.layout = engine::NodeLayout::kSnapshot;
  coherent.reorder_queries = true;
  coherent.warp_queries = 32;

  const knn::BatchResult base = engine::BatchEngine(tree, pointer).run(queries);
  const knn::BatchResult opt = engine::BatchEngine(tree, coherent).run(queries);

  const double base_bytes = static_cast<double>(base.metrics.total_bytes());
  const double opt_bytes = static_cast<double>(opt.metrics.total_bytes());
  ASSERT_GT(base_bytes, 0.0);
  EXPECT_LE(opt_bytes, 0.9 * base_bytes)
      << "accessed bytes: pointer=" << base_bytes << " snapshot+reorder=" << opt_bytes;
  EXPECT_GE(opt.metrics.warp_efficiency(), base.metrics.warp_efficiency() - 1e-12);
}

}  // namespace
}  // namespace psb
