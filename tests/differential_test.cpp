// Differential correctness sweep: every traversal algorithm against the
// brute-force reference over a (k, dims, degree) grid on seeded uniform and
// NOAA-like data. Stronger than the per-algorithm exactness tests: when the
// reference answer has no distance tie at the k-th boundary, the *id
// sequences* must be identical too — the KnnHeap keeps the k smallest
// (dist, id) pairs, so every exact algorithm must return literally the same
// neighbor list, not just the same distances.
#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
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
#include "obs/registry.hpp"
#include "shard/sharded_engine.hpp"
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

/// True when the reference k-th and (k+1)-th distances are (nearly) equal:
/// a tree algorithm may then legitimately keep either point, because pruning
/// tests are strict (`mindist < bound`) and a tied subtree can be skipped.
bool boundary_tied(const std::vector<Scalar>& ref_kplus1, std::size_t k) {
  if (ref_kplus1.size() <= k) return false;  // k covers the whole dataset
  const double a = ref_kplus1[k - 1];
  const double b = ref_kplus1[k];
  return b - a <= 1e-6 * (1.0 + std::abs(b));
}

void expect_same_ids(const std::vector<KnnHeap::Entry>& got,
                     const std::vector<KnnHeap::Entry>& want, const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << label << " rank " << i;
    EXPECT_EQ(got[i].dist, want[i].dist) << label << " rank " << i;
  }
}

/// Tie-aware per-query check shared by the direct and sharded sweeps: exact
/// id sequence when the k-th boundary is unambiguous, distance multiset
/// otherwise.
void expect_matches_reference(const PointSet& data, std::span<const Scalar> query,
                              std::size_t k, const knn::QueryResult& got,
                              const knn::QueryResult& reference, const std::string& label) {
  const std::vector<Scalar> ref_kplus1 = test::reference_knn_distances(data, query, k + 1);
  if (boundary_tied(ref_kplus1, k)) {
    std::vector<Scalar> expected(
        ref_kplus1.begin(),
        ref_kplus1.begin() + static_cast<std::ptrdiff_t>(reference.neighbors.size()));
    test::expect_knn_matches(got.neighbors, expected, label.c_str());
  } else {
    expect_same_ids(got.neighbors, reference.neighbors, label);
  }
}

void run_differential(const PointSet& data, const PointSet& queries, std::size_t k,
                      std::size_t degree, const std::string& dataset) {
  const sstree::SSTree tree = sstree::build_kmeans(data, degree).tree;
  tree.validate();

  knn::GpuKnnOptions opts;
  opts.k = k;
  const knn::BatchResult reference = knn::brute_force_batch(data, queries, opts);

  knn::TaskParallelSsOptions tp;
  tp.k = k;

  // The stack-free sweep also runs on the pointer-free preorder arena, where
  // its cursor walks escape indices instead of skip links.
  engine::BatchEngineOptions implicit_sweep;
  implicit_sweep.algorithm = engine::Algorithm::kStacklessSkip;
  implicit_sweep.layout = engine::NodeLayout::kImplicit;
  implicit_sweep.gpu = opts;

  const std::vector<std::pair<std::string, knn::BatchResult>> candidates = {
      {"psb", knn::psb_batch(tree, queries, opts)},
      {"branch_and_bound", knn::bnb_batch(tree, queries, opts)},
      {"best_first", knn::best_first_gpu_batch(tree, queries, opts)},
      {"stackless_restart", knn::restart_batch(tree, queries, opts)},
      {"stackless_skip", knn::skip_pointer_batch(tree, queries, opts)},
      {"task_parallel", knn::task_parallel_sstree_knn(tree, queries, tp)},
      {"stackless_skip_implicit", engine::BatchEngine(tree, implicit_sweep).run(queries)},
  };

  for (std::size_t q = 0; q < queries.size(); ++q) {
    for (const auto& [name, result] : candidates) {
      const std::string label = dataset + "/" + name + " query " + std::to_string(q);
      expect_matches_reference(data, queries[q], k, result.queries[q],
                               reference.queries[q], label);
    }
  }
}

class DifferentialSweep : public testing::TestWithParam<Config> {};

TEST_P(DifferentialSweep, UniformMatchesBruteForce) {
  const Config& cfg = GetParam();
  const PointSet data = data::make_uniform(cfg.dims, 2000, 1000.0, /*seed=*/20160805);
  const PointSet queries = test::random_queries(cfg.dims, 12, /*seed=*/41);
  run_differential(data, queries, cfg.k, cfg.degree, "uniform");
}

TEST_P(DifferentialSweep, NoaaSynthMatchesBruteForce) {
  const Config& cfg = GetParam();
  data::NoaaSpec spec;
  spec.stations = 60;
  spec.readings_per_station = 30;  // 1800 points, 4-D, heavy duplicate structure
  spec.seed = 1973;
  const PointSet data = data::make_noaa_like(spec);
  const PointSet queries = data::sample_queries(data, 12, /*jitter=*/0.5, /*seed=*/7);
  run_differential(data, queries, cfg.k, cfg.degree, "noaa");
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DifferentialSweep,
    testing::Values(Config{1, 2, 16}, Config{1, 4, 128}, Config{8, 2, 128},
                    Config{8, 4, 16}, Config{8, 16, 128}, Config{32, 2, 16},
                    Config{32, 4, 128}, Config{32, 16, 16}, Config{1, 16, 128}),
    config_name);

// ---------------------------------------------------------------------------
// Sharded routing: the same differential contract holds when every algorithm
// runs through the scatter-gather ShardedEngine, across shard counts that
// cover the delegate path (S=1), a balanced split (S=4) and a ragged prime
// split (S=13).
// ---------------------------------------------------------------------------

constexpr engine::Algorithm kAllAlgorithms[] = {
    engine::Algorithm::kPsb,           engine::Algorithm::kBestFirst,
    engine::Algorithm::kBranchAndBound, engine::Algorithm::kStacklessRestart,
    engine::Algorithm::kStacklessSkip,  engine::Algorithm::kBruteForce,
    engine::Algorithm::kTaskParallel,
};

// One sharded sweep case: an engine algorithm, and whether every shard count
// runs on the implicit arena. The implicit_stackless case pins the stack-free
// sweep to that arena, so its escape-index cursor is checked at S=1 and S=4
// too, not only at S=13. Four bytes, so each case prints as before.
struct ShardedCase {
  std::uint16_t algorithm;  // an engine::Algorithm
  bool implicit_only;
  std::uint8_t reserved;

  engine::Algorithm algo() const { return static_cast<engine::Algorithm>(algorithm); }
  std::string name() const {
    return implicit_only ? "implicit_stackless" : std::string(engine::algorithm_name(algo()));
  }
};
static_assert(sizeof(ShardedCase) == 4);

std::vector<ShardedCase> sharded_cases() {
  std::vector<ShardedCase> cases;
  for (const engine::Algorithm a : kAllAlgorithms) {
    cases.push_back({static_cast<std::uint16_t>(a), false, 0});
  }
  cases.push_back({static_cast<std::uint16_t>(engine::Algorithm::kStacklessSkip), true, 0});
  return cases;
}

class ShardedDifferential : public testing::TestWithParam<ShardedCase> {};

std::string sharded_case_name(const testing::TestParamInfo<ShardedCase>& info) {
  return info.param.name();
}

TEST_P(ShardedDifferential, ScatterGatherMatchesBruteForceAcrossShardCounts) {
  data::NoaaSpec spec;
  spec.stations = 40;
  spec.readings_per_station = 25;  // 1000 points, duplicate-heavy
  spec.seed = 1973;
  const PointSet data = data::make_noaa_like(spec);
  const PointSet queries = data::sample_queries(data, 10, /*jitter=*/0.5, /*seed=*/11);
  const std::size_t k = 8;

  knn::GpuKnnOptions ref_opts;
  ref_opts.k = k;
  const knn::BatchResult reference = knn::brute_force_batch(data, queries, ref_opts);

  for (const std::size_t shards : {1u, 4u, 13u}) {
    shard::ShardedEngineOptions opts;
    opts.num_shards = shards;
    opts.degree = 16;
    opts.engine.algorithm = GetParam().algo();
    opts.engine.gpu.k = k;
    // Exercise every fetch path: the implicit arena at S=13 (for
    // stackless_skip, its escape-index cursor).
    opts.engine.layout = GetParam().implicit_only ? engine::NodeLayout::kImplicit
                         : shards == 4            ? engine::NodeLayout::kSnapshot
                         : shards == 13           ? engine::NodeLayout::kImplicit
                                                  : engine::NodeLayout::kPointer;
    shard::ShardedEngine eng(data, opts);
    const knn::BatchResult res = eng.run(queries);
    ASSERT_EQ(res.queries.size(), queries.size());
    EXPECT_TRUE(res.all_ok());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const std::string label = "sharded_S" + std::to_string(shards) + "/" +
                                GetParam().name() + " query " + std::to_string(q);
      expect_matches_reference(data, queries[q], k, res.queries[q], reference.queries[q],
                               label);
    }
  }
}

TEST_P(ShardedDifferential, SingleShardBitIdenticalToBatchEngine) {
  // S=1 is an identity partition over the same builder, so the sharded
  // engine must reproduce the unsharded BatchEngine *exactly*: neighbor
  // lists, per-query stats, device metrics, per-query traces, and the
  // engine.* registry counters the embedded BatchEngine bumps.
  const PointSet data = data::make_uniform(4, 1200, 1000.0, /*seed=*/5150);
  const PointSet queries = test::random_queries(4, 8, /*seed=*/51);

  std::vector<engine::NodeLayout> layouts = {engine::NodeLayout::kPointer,
                                             engine::NodeLayout::kSnapshot,
                                             engine::NodeLayout::kImplicit};
  if (GetParam().implicit_only) layouts = {engine::NodeLayout::kImplicit};
  for (const engine::NodeLayout node_layout : layouts) {
    engine::BatchEngineOptions eopts;
    eopts.algorithm = GetParam().algo();
    eopts.gpu.k = 10;
    eopts.layout = node_layout;

    const sstree::SSTree tree = sstree::build_kmeans(data, 16).tree;
    engine::BatchEngine unsharded(tree, eopts);

    shard::ShardedEngineOptions sopts;
    sopts.num_shards = 1;
    sopts.degree = 16;
    sopts.engine = eopts;

    const auto engine_counters = [](const obs::Registry::Snapshot& before,
                                    const obs::Registry::Snapshot& after) {
      std::vector<std::pair<std::string, std::uint64_t>> deltas;
      for (const auto& [name, value] : after.counters) {
        if (name.rfind("engine.", 0) != 0 || name.rfind("engine.shard.", 0) == 0) continue;
        std::uint64_t prev = 0;
        for (const auto& [n, v] : before.counters) {
          if (n == name) prev = v;
        }
        if (value != prev) deltas.emplace_back(name, value - prev);
      }
      return deltas;
    };

    obs::Registry::Snapshot s0 = obs::Registry::global().snapshot();
    const engine::BatchEngine::TracedRun want = unsharded.run_traced(queries);
    obs::Registry::Snapshot s1 = obs::Registry::global().snapshot();
    shard::ShardedEngine eng(data, sopts);
    const shard::ShardedEngine::TracedRun got = eng.run_traced(queries);
    obs::Registry::Snapshot s2 = obs::Registry::global().snapshot();
    EXPECT_EQ(engine_counters(s0, s1), engine_counters(s1, s2))
        << "registry counter deltas diverged (layout="
        << engine::node_layout_name(node_layout) << ")";

    ASSERT_EQ(got.result.queries.size(), want.result.queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const std::string label = "S1 vs BatchEngine query " + std::to_string(q) +
                                " (" + std::string(engine::node_layout_name(node_layout)) + ")";
      expect_same_ids(got.result.queries[q].neighbors, want.result.queries[q].neighbors,
                      label);
      EXPECT_EQ(got.result.queries[q].status, want.result.queries[q].status) << label;
      const knn::TraversalStats& gs = got.result.queries[q].stats;
      const knn::TraversalStats& ws = want.result.queries[q].stats;
      EXPECT_EQ(gs.nodes_visited, ws.nodes_visited) << label;
      EXPECT_EQ(gs.leaves_visited, ws.leaves_visited) << label;
      EXPECT_EQ(gs.points_examined, ws.points_examined) << label;
      EXPECT_EQ(gs.backtracks, ws.backtracks) << label;
      EXPECT_EQ(gs.leaf_scans, ws.leaf_scans) << label;
      EXPECT_EQ(gs.restarts, ws.restarts) << label;
      EXPECT_EQ(gs.heap_inserts, ws.heap_inserts) << label;
      EXPECT_EQ(gs.heap_pushes, ws.heap_pushes) << label;
    }
    EXPECT_EQ(got.result.metrics.warp_instructions, want.result.metrics.warp_instructions);
    EXPECT_EQ(got.result.metrics.bytes_coalesced, want.result.metrics.bytes_coalesced);
    EXPECT_EQ(got.result.metrics.bytes_random, want.result.metrics.bytes_random);
    EXPECT_EQ(got.result.metrics.bytes_cached, want.result.metrics.bytes_cached);
    EXPECT_EQ(got.result.metrics.node_fetches, want.result.metrics.node_fetches);
    EXPECT_EQ(got.result.metrics.serial_ops, want.result.metrics.serial_ops);

    ASSERT_EQ(got.trace.algorithms.size(), 1u);
    ASSERT_EQ(want.trace.algorithms.size(), 1u);
    const obs::AlgorithmTrace& gt = got.trace.algorithms[0];
    const obs::AlgorithmTrace& wt = want.trace.algorithms[0];
    EXPECT_EQ(gt.algorithm, wt.algorithm);
    ASSERT_EQ(gt.queries.size(), wt.queries.size());
    for (std::size_t q = 0; q < gt.queries.size(); ++q) {
      EXPECT_EQ(gt.queries[q].query_index, wt.queries[q].query_index);
      for (std::size_t c = 0; c < obs::kNumTraceCounters; ++c) {
        EXPECT_EQ(gt.queries[q].counters[c], wt.queries[q].counters[c])
            << "trace counter " << c << " query " << q << " layout="
            << engine::node_layout_name(node_layout);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, ShardedDifferential,
                         testing::ValuesIn(sharded_cases()), sharded_case_name);

// The id-sequence contract depends on the heap's deterministic tie-breaking;
// pin it down directly so a regression fails here and not 9 sweep cases deep.
TEST(DeterministicTieBreak, HeapKeepsSmallestIdsOnTies) {
  KnnHeap heap(3);
  EXPECT_TRUE(heap.offer(1.0F, 30));
  EXPECT_TRUE(heap.offer(1.0F, 20));
  EXPECT_TRUE(heap.offer(1.0F, 40));
  EXPECT_TRUE(heap.offer(1.0F, 10));   // evicts id 40 (largest tied id)
  EXPECT_FALSE(heap.offer(1.0F, 50));  // worse than everything retained
  const auto sorted = heap.sorted();
  ASSERT_EQ(sorted.size(), 3U);
  EXPECT_EQ(sorted[0].id, 10U);
  EXPECT_EQ(sorted[1].id, 20U);
  EXPECT_EQ(sorted[2].id, 30U);
}

TEST(DeterministicTieBreak, ArrivalOrderIrrelevant) {
  const std::vector<std::pair<Scalar, PointId>> entries = {
      {2.0F, 7}, {1.0F, 9}, {2.0F, 3}, {1.5F, 8}, {2.0F, 1}, {3.0F, 0}};
  std::vector<std::vector<KnnHeap::Entry>> outcomes;
  for (int rot = 0; rot < 6; ++rot) {
    KnnHeap heap(4);
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const auto& [d, id] = entries[(i + static_cast<std::size_t>(rot)) % entries.size()];
      heap.offer(d, id);
    }
    outcomes.push_back(heap.sorted());
  }
  for (std::size_t rot = 1; rot < outcomes.size(); ++rot) {
    ASSERT_EQ(outcomes[rot].size(), outcomes[0].size());
    for (std::size_t i = 0; i < outcomes[0].size(); ++i) {
      EXPECT_EQ(outcomes[rot][i].id, outcomes[0][i].id) << "rotation " << rot;
      EXPECT_EQ(outcomes[rot][i].dist, outcomes[0][i].dist) << "rotation " << rot;
    }
  }
}

}  // namespace
}  // namespace psb
