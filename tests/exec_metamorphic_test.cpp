// The executor bit-identity contract: the engines drive every query through a
// resumable executor (src/exec/), and that must reproduce the
// run-to-completion knn::*_query functions bit-for-bit — same neighbors,
// statuses, traversal stats, device Metrics, cost-model timing, and
// per-query traces — across every algorithm, the offline / sharded /
// streamed paths, snapshot cohorts, host thread counts and query
// reordering. The references below drive those free functions per query,
// spelling out the engines' documented schedule: one shared FetchSession
// per warp cohort, totals merged in query order. The only thing the engines
// add is the exec overlap namespace.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/batch_engine.hpp"
#include "hilbert/hilbert.hpp"
#include "knn/best_first.hpp"
#include "knn/branch_and_bound.hpp"
#include "knn/brute_force.hpp"
#include "knn/psb.hpp"
#include "knn/stackless_baselines.hpp"
#include "knn/task_parallel_sstree.hpp"
#include "layout/fetch.hpp"
#include "obs/trace.hpp"
#include "serve/arrivals.hpp"
#include "serve/streaming_engine.hpp"
#include "shard/partition.hpp"
#include "shard/sharded_engine.hpp"
#include "simt/cost_model.hpp"
#include "simt/sort.hpp"
#include "sstree/builders.hpp"
#include "test_util.hpp"

namespace psb {
namespace {

using engine::Algorithm;
using engine::BatchEngine;
using engine::BatchEngineOptions;

constexpr Algorithm kAllAlgorithms[] = {
    Algorithm::kPsb,           Algorithm::kBestFirst,
    Algorithm::kBranchAndBound, Algorithm::kStacklessRestart,
    Algorithm::kStacklessSkip,  Algorithm::kBruteForce,
    Algorithm::kTaskParallel,
};

/// One served configuration: an algorithm on a node layout.
struct Served {
  Algorithm algorithm;
  engine::NodeLayout layout;
};

struct Workload {
  PointSet data;
  PointSet queries;
  sstree::BuildOutput built;

  Workload() : data(test::small_clustered(4, 700, 2016)),
               queries(test::random_queries(4, 12, 17)),
               built(sstree::build_kmeans(data, 16, {})) {}
};

/// One query through the algorithm's run-to-completion free function.
knn::QueryResult query_fn(Algorithm a, const sstree::SSTree& tree, std::span<const Scalar> q,
                          const knn::GpuKnnOptions& gpu, simt::Metrics* m) {
  switch (a) {
    case Algorithm::kPsb: return knn::psb_query(tree, q, gpu, m);
    case Algorithm::kBestFirst: return knn::best_first_gpu_query(tree, q, gpu, m);
    case Algorithm::kBranchAndBound: return knn::bnb_query(tree, q, gpu, m);
    case Algorithm::kStacklessRestart: return knn::restart_query(tree, q, gpu, m);
    case Algorithm::kStacklessSkip: return knn::skip_pointer_query(tree, q, gpu, m);
    case Algorithm::kBruteForce: return knn::brute_force_query(tree.data(), q, gpu, m);
    case Algorithm::kTaskParallel: break;
  }
  ADD_FAILURE() << "no per-query free function for " << engine::algorithm_name(a);
  return {};
}

/// Fold per-query results (query order) into a batch, with the cost-model
/// timing every engine derives and one trace per query under `name`.
BatchEngine::TracedRun fold_batch(std::vector<knn::QueryResult> results,
                                  const std::vector<simt::Metrics>& metrics,
                                  const simt::DeviceSpec& device, int threads_per_block,
                                  std::string_view name) {
  BatchEngine::TracedRun out;
  obs::AlgorithmTrace trace{std::string(name), {}};
  for (std::size_t q = 0; q < results.size(); ++q) {
    out.result.stats.merge(results[q].stats);
    out.result.metrics.merge(metrics[q]);
    trace.queries.push_back(knn::make_query_trace(q, results[q].stats, metrics[q]));
  }
  if (!results.empty()) out.trace.algorithms.push_back(std::move(trace));
  out.result.queries = std::move(results);
  simt::KernelConfig cfg;
  cfg.blocks = static_cast<int>(std::max<std::size_t>(out.result.queries.size(), 1));
  cfg.threads_per_block = threads_per_block;
  out.result.timing = simt::estimate(device, out.result.metrics, cfg);
  return out;
}

/// BatchEngine's schedule spelled out with the free functions: queries run
/// in execution order (identity, or the batch's Hilbert order), cohorts of
/// warp_queries consecutive queries share one FetchSession over the arena in
/// use (the implicit one wins), and totals merge in query order. `snap` and
/// `impl` are arenas the test builds over the same tree.
BatchEngine::TracedRun reference_batch(const sstree::SSTree& tree, const PointSet& queries,
                                       const BatchEngineOptions& opts,
                                       const layout::TraversalSnapshot* snap,
                                       const layout::ImplicitLayout* impl) {
  const std::size_t n = queries.size();
  if (opts.algorithm == Algorithm::kTaskParallel) {
    // No per-query entry point: the engine serves it through its batch
    // driver, which emits its own traces (the reorder cases exclude it).
    knn::TaskParallelSsOptions tp;
    tp.k = opts.gpu.k;
    tp.device = opts.gpu.device;
    tp.snapshot = snap;
    obs::TraceSession session;
    BatchEngine::TracedRun out;
    out.result = knn::task_parallel_sstree_knn(tree, queries, tp);
    out.trace = session.report();
    return out;
  }

  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  if (opts.reorder_queries && n > 1) {
    const hilbert::Encoder enc(tree.dims(), 16);
    const std::vector<std::uint64_t> keys = enc.encode_all(queries);
    const std::vector<PointId> perm = simt::radix_sort_order(keys, enc.words_per_key());
    for (std::size_t i = 0; i < n; ++i) order[i] = perm[i];
  }

  std::vector<knn::QueryResult> results(n);
  std::vector<simt::Metrics> metrics(n);
  const std::size_t cohort =
      snap != nullptr || impl != nullptr ? std::max<std::size_t>(opts.warp_queries, 1) : 1;
  for (std::size_t begin = 0; begin < n; begin += cohort) {
    knn::GpuKnnOptions gpu = opts.gpu;
    gpu.snapshot = snap;
    gpu.implicit = impl;
    std::optional<layout::FetchSession> session;
    if (cohort > 1) {
      if (impl != nullptr) {
        session.emplace(*impl);
      } else {
        session.emplace(*snap);
      }
      gpu.fetch_session = &*session;
    }
    for (std::size_t s = begin; s < std::min(n, begin + cohort); ++s) {
      const std::size_t q = order[s];
      results[q] = query_fn(opts.algorithm, tree, queries[q], gpu, &metrics[q]);
    }
  }
  return fold_batch(std::move(results), metrics, opts.gpu.device,
                    engine::block_threads_for(opts.algorithm, tree.degree(), opts.gpu),
                    engine::algorithm_name(opts.algorithm));
}

struct Arenas {
  std::optional<layout::TraversalSnapshot> snap;
  std::optional<layout::ImplicitLayout> impl;

  Arenas(const sstree::SSTree& tree, const BatchEngineOptions& opts) {
    if (opts.needs_snapshot()) snap.emplace(tree);
    if (opts.needs_implicit_layout()) impl.emplace(tree);
  }
  const layout::TraversalSnapshot* snapshot() const { return snap ? &*snap : nullptr; }
  const layout::ImplicitLayout* implicit() const { return impl ? &*impl : nullptr; }
};

void expect_batch_identical(const knn::BatchResult& got, const knn::BatchResult& want,
                            const std::string& label) {
  ASSERT_EQ(got.queries.size(), want.queries.size()) << label;
  for (std::size_t q = 0; q < got.queries.size(); ++q) {
    const knn::QueryResult& a = got.queries[q];
    const knn::QueryResult& b = want.queries[q];
    const std::string at = label + " query " + std::to_string(q);
    ASSERT_EQ(a.neighbors.size(), b.neighbors.size()) << at;
    for (std::size_t i = 0; i < a.neighbors.size(); ++i) {
      EXPECT_EQ(a.neighbors[i].id, b.neighbors[i].id) << at << " rank " << i;
      EXPECT_EQ(a.neighbors[i].dist, b.neighbors[i].dist) << at << " rank " << i;
    }
    EXPECT_EQ(a.status, b.status) << at;
    EXPECT_EQ(a.stats.nodes_visited, b.stats.nodes_visited) << at;
    EXPECT_EQ(a.stats.leaves_visited, b.stats.leaves_visited) << at;
    EXPECT_EQ(a.stats.points_examined, b.stats.points_examined) << at;
    EXPECT_EQ(a.stats.backtracks, b.stats.backtracks) << at;
    EXPECT_EQ(a.stats.leaf_scans, b.stats.leaf_scans) << at;
    EXPECT_EQ(a.stats.restarts, b.stats.restarts) << at;
    EXPECT_EQ(a.stats.heap_inserts, b.stats.heap_inserts) << at;
    EXPECT_EQ(a.stats.heap_pushes, b.stats.heap_pushes) << at;
  }
  // Aggregated device counters and the cost-model timing derived from them
  // must be bit-identical (the executors perform the free functions' exact
  // charge sequence, so even the double-precision timing cannot drift).
  EXPECT_EQ(got.metrics.warp_instructions, want.metrics.warp_instructions) << label;
  EXPECT_EQ(got.metrics.active_lane_slots, want.metrics.active_lane_slots) << label;
  EXPECT_EQ(got.metrics.serial_ops, want.metrics.serial_ops) << label;
  EXPECT_EQ(got.metrics.divergent_steps, want.metrics.divergent_steps) << label;
  EXPECT_EQ(got.metrics.bytes_coalesced, want.metrics.bytes_coalesced) << label;
  EXPECT_EQ(got.metrics.bytes_random, want.metrics.bytes_random) << label;
  EXPECT_EQ(got.metrics.bytes_cached, want.metrics.bytes_cached) << label;
  EXPECT_EQ(got.metrics.node_fetches, want.metrics.node_fetches) << label;
  EXPECT_EQ(got.metrics.fetches_random, want.metrics.fetches_random) << label;
  EXPECT_EQ(got.metrics.fetches_cached, want.metrics.fetches_cached) << label;
  EXPECT_EQ(got.timing.wall_ms, want.timing.wall_ms) << label;
  EXPECT_EQ(got.timing.avg_query_ms, want.timing.avg_query_ms) << label;
}

void expect_traces_identical(const obs::TraceReport& got, const obs::TraceReport& want,
                             const std::string& label) {
  ASSERT_EQ(got.algorithms.size(), want.algorithms.size()) << label;
  for (std::size_t a = 0; a < got.algorithms.size(); ++a) {
    const obs::AlgorithmTrace& ta = got.algorithms[a];
    const obs::AlgorithmTrace& tb = want.algorithms[a];
    EXPECT_EQ(ta.algorithm, tb.algorithm) << label;
    ASSERT_EQ(ta.queries.size(), tb.queries.size()) << label << " " << ta.algorithm;
    for (std::size_t q = 0; q < ta.queries.size(); ++q) {
      EXPECT_EQ(ta.queries[q].query_index, tb.queries[q].query_index);
      for (std::size_t c = 0; c < obs::kNumTraceCounters; ++c) {
        EXPECT_EQ(ta.queries[q].counters[c], tb.queries[q].counters[c])
            << label << " " << ta.algorithm << " query " << q << " counter "
            << obs::trace_counter_name(static_cast<obs::TraceCounter>(c));
      }
    }
  }
}

void run_and_compare(const sstree::SSTree& tree, const PointSet& queries,
                     const BatchEngineOptions& opts, const std::string& label) {
  const BatchEngine eng(tree, opts);
  const BatchEngine::TracedRun got = eng.run_traced(queries);

  const Arenas arenas(tree, opts);
  const BatchEngine::TracedRun want =
      reference_batch(tree, queries, opts, arenas.snapshot(), arenas.implicit());

  expect_batch_identical(got.result, want.result, label);
  expect_traces_identical(got.trace, want.trace, label);
  // Every per-query executor records at least one resume step; only the
  // task-parallel batch driver runs outside them.
  if (opts.algorithm != Algorithm::kTaskParallel) {
    EXPECT_GT(got.result.exec.steps, 0u) << label;
  }
}

// The `*ExecutorEqualsLegacy*` names are kept so the test IDs stay stable;
// "legacy" is now the per-query `knn::*_query` free functions that the
// references in this file drive, not a second engine schedule.
TEST(ExecMetamorphicTest, ExecutorEqualsLegacyEveryAlgorithm) {
  const Workload w;
  for (const Algorithm a : kAllAlgorithms) {
    BatchEngineOptions opts;
    opts.algorithm = a;
    opts.gpu.k = 6;
    opts.num_threads = 1;
    run_and_compare(w.built.tree, w.queries, opts,
                    std::string(engine::algorithm_name(a)) + " base");
  }
  // The escape-index cursor against the skip-link reference, in the
  // engine's default 32-query warp cohorts.
  BatchEngineOptions opts;
  opts.algorithm = Algorithm::kStacklessSkip;
  opts.layout = engine::NodeLayout::kImplicit;
  opts.gpu.k = 6;
  opts.num_threads = 1;
  run_and_compare(w.built.tree, w.queries, opts, "stackless_skip implicit");
}

TEST(ExecMetamorphicTest, ExecutorEqualsLegacySnapshotCohorts) {
  const Workload w;
  std::vector<Served> cases;
  for (const Algorithm a : kAllAlgorithms) cases.push_back({a, engine::NodeLayout::kSnapshot});
  cases.push_back({Algorithm::kStacklessSkip, engine::NodeLayout::kImplicit});
  for (const Served& c : cases) {
    BatchEngineOptions opts;
    opts.algorithm = c.algorithm;
    opts.gpu.k = 6;
    opts.layout = c.layout;
    opts.warp_queries = 4;
    opts.num_threads = 1;
    run_and_compare(w.built.tree, w.queries, opts,
                    std::string(engine::algorithm_name(c.algorithm)) + " " +
                        std::string(engine::node_layout_name(c.layout)) + " cohorts");
  }
}

TEST(ExecMetamorphicTest, ExecutorEqualsLegacyUnderQueryReorder) {
  const Workload w;
  for (const Served c : {Served{Algorithm::kStacklessSkip, engine::NodeLayout::kSnapshot},
                         Served{Algorithm::kStacklessSkip, engine::NodeLayout::kImplicit},
                         Served{Algorithm::kPsb, engine::NodeLayout::kSnapshot}}) {
    BatchEngineOptions opts;
    opts.algorithm = c.algorithm;
    opts.gpu.k = 6;
    opts.layout = c.layout;
    opts.reorder_queries = true;
    opts.warp_queries = 4;
    opts.num_threads = 1;
    run_and_compare(w.built.tree, w.queries, opts,
                    std::string(engine::algorithm_name(c.algorithm)) + " " +
                        std::string(engine::node_layout_name(c.layout)) + " reorder");
  }
}

TEST(ExecMetamorphicTest, ExecutorEqualsLegacyMultiThreaded) {
  const Workload w;
  for (const Algorithm a : {Algorithm::kStacklessSkip, Algorithm::kBestFirst}) {
    BatchEngineOptions opts;
    opts.algorithm = a;
    opts.gpu.k = 6;
    opts.layout = engine::NodeLayout::kSnapshot;
    opts.warp_queries = 4;
    opts.num_threads = 4;
    run_and_compare(w.built.tree, w.queries, opts,
                    std::string(engine::algorithm_name(a)) + " threads=4");
  }
}

/// ShardedEngine's scatter-gather spelled out with the free functions: the
/// same Hilbert partition, shards visited in ascending MINDIST to their
/// bounding sphere, the running global k-th distance seeding later passes
/// and skipping shards that cannot beat it. Shard trees come from the
/// engine; their arenas and spheres are rebuilt here.
knn::BatchResult reference_sharded(const shard::ShardedEngine& eng, const PointSet& data,
                                   const PointSet& queries) {
  const shard::ShardedEngineOptions& opts = eng.options();
  const Algorithm algo = opts.engine.algorithm;
  const shard::Partition part = shard::hilbert_partition(data, eng.num_shards());
  struct RefShard {
    const sstree::SSTree* tree;
    const std::vector<PointId>* to_global;
    std::unique_ptr<Arenas> arenas;
    Sphere bounds;
  };
  std::vector<RefShard> shards;
  for (std::size_t s = 0; s < eng.num_shards(); ++s) {
    const sstree::SSTree* tree = eng.shard_tree(s);
    if (tree == nullptr) continue;
    RefShard sh{tree, &part.shards[s], std::make_unique<Arenas>(*tree, opts.engine), {}};
    // Centroid sphere over every point, one ULP of radius slack.
    const PointSet& pts = tree->data();
    std::vector<double> centroid(data.dims(), 0);
    for (std::size_t i = 0; i < pts.size(); ++i) {
      for (std::size_t t = 0; t < data.dims(); ++t) centroid[t] += pts[i][t];
    }
    sh.bounds.center.resize(data.dims());
    for (std::size_t t = 0; t < data.dims(); ++t) {
      sh.bounds.center[t] = static_cast<Scalar>(centroid[t] / static_cast<double>(pts.size()));
    }
    Scalar radius = 0;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      radius = std::max(radius, distance(sh.bounds.center, pts[i]));
    }
    sh.bounds.radius = next_up(radius);
    shards.push_back(std::move(sh));
  }

  const std::size_t k = opts.engine.gpu.k;
  std::vector<knn::QueryResult> results(queries.size());
  std::vector<simt::Metrics> metrics(queries.size());
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const std::span<const Scalar> q = queries[qi];
    std::vector<std::pair<Scalar, std::size_t>> visits;
    for (std::size_t s = 0; s < shards.size(); ++s) {
      visits.emplace_back(mindist(q, shards[s].bounds), s);
    }
    std::sort(visits.begin(), visits.end());
    KnnHeap merged(std::min(k, data.size()));
    for (const auto& [mind, s] : visits) {
      const bool bounded = opts.share_bounds && merged.full();
      if (bounded && mind > next_up(merged.bound())) continue;
      knn::GpuKnnOptions gpu = opts.engine.gpu;
      gpu.initial_prune_bound = bounded ? merged.bound() : kInfinity;
      gpu.snapshot = shards[s].arenas->snapshot();
      gpu.implicit = shards[s].arenas->implicit();
      const knn::QueryResult local = query_fn(algo, *shards[s].tree, q, gpu, &metrics[qi]);
      for (const KnnHeap::Entry& e : local.neighbors) {
        merged.offer(e.dist, (*shards[s].to_global)[e.id]);
      }
      results[qi].stats.merge(local.stats);
    }
    results[qi].neighbors = merged.sorted();
  }
  return fold_batch(std::move(results), metrics, opts.engine.gpu.device,
                    engine::block_threads_for(algo, opts.degree, opts.engine.gpu),
                    engine::algorithm_name(algo))
      .result;
}

TEST(ExecMetamorphicTest, ShardedExecutorEqualsLegacy) {
  const Workload w;
  for (const Served c : {Served{Algorithm::kStacklessSkip, engine::NodeLayout::kSnapshot},
                         Served{Algorithm::kStacklessSkip, engine::NodeLayout::kImplicit},
                         Served{Algorithm::kBranchAndBound, engine::NodeLayout::kSnapshot}}) {
    shard::ShardedEngineOptions sopts;
    sopts.num_shards = 4;
    sopts.degree = 16;
    sopts.engine.algorithm = c.algorithm;
    sopts.engine.gpu.k = 6;
    sopts.engine.layout = c.layout;
    sopts.engine.num_threads = 1;

    shard::ShardedEngine eng(w.data, sopts);
    const knn::BatchResult got = eng.run(w.queries);
    const knn::BatchResult want = reference_sharded(eng, w.data, w.queries);

    const std::string label = std::string(engine::algorithm_name(c.algorithm)) + " " +
                              std::string(engine::node_layout_name(c.layout)) + " sharded";
    expect_batch_identical(got, want, label);
    EXPECT_GT(got.exec.steps, 0u) << label;
  }
}

TEST(ExecMetamorphicTest, StreamedExecutorEqualsLegacy) {
  const Workload w;
  serve::ArrivalSpec aspec;
  aspec.rate_qps = 2500.0;
  aspec.duration_s = 0.05;
  aspec.seed = 77;
  const serve::ArrivalStream stream = serve::generate_arrivals(w.data, aspec);
  ASSERT_GT(stream.size(), 0u);

  serve::StreamingOptions so;
  so.engine.algorithm = Algorithm::kStacklessSkip;
  so.engine.gpu.k = 6;
  so.engine.layout = engine::NodeLayout::kSnapshot;
  so.engine.num_threads = 1;
  so.buffer_capacity = 4;
  so.engine.warp_queries = 4;
  so.admission_queue_bound = 0;  // nothing shed: every arrival is comparable
  so.cell_bits = 2;

  serve::StreamingEngine eng(w.built.tree, so);
  const serve::StreamingReport rep = eng.run(stream);

  // Each flush is one BatchEngine batch of its cell's pending arrivals,
  // oldest first: replay every flush through the free-function reference.
  // The virtual-clock latencies are a pure function of the batch timing the
  // BatchEngine cases above pin to the reference.
  std::map<std::uint64_t, std::vector<std::size_t>> flushes;
  for (std::size_t i = 0; i < rep.queries.size(); ++i) {
    ASSERT_FALSE(rep.queries[i].shed) << "arrival " << i;
    flushes[rep.queries[i].flush_id].push_back(i);
  }
  EXPECT_EQ(flushes.size(), rep.flushes);
  const Arenas arenas(w.built.tree, so.engine);
  std::uint64_t accessed_bytes = 0;
  for (const auto& [flush, arrivals] : flushes) {
    PointSet cohort(w.data.dims());
    for (const std::size_t i : arrivals) cohort.append(stream.queries[i]);
    const knn::BatchResult want =
        reference_batch(w.built.tree, cohort, so.engine, arenas.snapshot(), arenas.implicit())
            .result;
    accessed_bytes += want.metrics.total_bytes();
    for (std::size_t j = 0; j < arrivals.size(); ++j) {
      const serve::StreamedQuery& a = rep.queries[arrivals[j]];
      const knn::QueryResult& b = want.queries[j];
      ASSERT_EQ(a.neighbors.size(), b.neighbors.size()) << "arrival " << arrivals[j];
      for (std::size_t r = 0; r < a.neighbors.size(); ++r) {
        EXPECT_EQ(a.neighbors[r].id, b.neighbors[r].id) << "arrival " << arrivals[j];
        EXPECT_EQ(a.neighbors[r].dist, b.neighbors[r].dist) << "arrival " << arrivals[j];
      }
      if (!a.deadline_missed) {
        EXPECT_EQ(a.status, b.status) << "arrival " << arrivals[j];
      }
    }
  }
  EXPECT_EQ(rep.accessed_bytes, accessed_bytes);
  // The streamed path rides the executors and surfaces their overlap totals.
  EXPECT_GT(rep.exec.steps, 0u);
}

}  // namespace
}  // namespace psb
