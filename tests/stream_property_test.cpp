// Property battery for the streaming serving front-end.
//
// Each seeded trial draws a random serving configuration — arrival profile
// (rate, diurnal modulation, bursts), buffer capacity, deadline/horizon,
// admission bound, backend algorithm and thread count — replays the stream on
// the virtual clock, and asserts the no-silent-loss contract:
//   * every arrival is accounted for: answered exactly once or shed, flagged;
//   * every answered query's neighbor list is bit-identical to the same
//     query run offline through BatchEngine (buffering, cohort formation and
//     flush scheduling change accounting, never answers);
//   * every deadline miss and shed is flagged on the query AND counted in
//     the report — the counters cross-foot with the per-query flags.
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/geometry.hpp"
#include "common/points.hpp"
#include "common/rng.hpp"
#include "engine/batch_engine.hpp"
#include "serve/arrivals.hpp"
#include "serve/streaming_engine.hpp"
#include "shard/sharded_engine.hpp"
#include "sstree/builders.hpp"
#include "test_util.hpp"

namespace psb {
namespace {

/// Exhaustive ground truth under the repository's (dist, id) tie order.
std::vector<KnnHeap::Entry> oracle_knn(const PointSet& data, std::span<const Scalar> q,
                                       std::size_t k) {
  KnnHeap heap(std::min(k, data.size()));
  for (std::size_t i = 0; i < data.size(); ++i) {
    heap.offer(distance(q, data[i]), static_cast<PointId>(i));
  }
  return heap.sorted();
}

void expect_bit_identical(const std::vector<KnnHeap::Entry>& got,
                          const std::vector<KnnHeap::Entry>& want, std::uint64_t trial,
                          std::size_t arrival) {
  ASSERT_EQ(got.size(), want.size()) << "trial " << trial << " arrival " << arrival;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "trial " << trial << " arrival " << arrival
                                     << " rank " << i;
    EXPECT_EQ(got[i].dist, want[i].dist)  // exact float equality, not NEAR
        << "trial " << trial << " arrival " << arrival << " rank " << i;
  }
}

/// The trial rotation; the stack-free sweep serves twice, the second time on
/// the implicit arena (its escape-index cursor).
struct Served {
  engine::Algorithm algorithm;
  bool implicit;
};
constexpr Served kServed[] = {
    {engine::Algorithm::kPsb, false},
    {engine::Algorithm::kBestFirst, false},
    {engine::Algorithm::kBranchAndBound, false},
    {engine::Algorithm::kStacklessRestart, false},
    {engine::Algorithm::kStacklessSkip, false},
    {engine::Algorithm::kStacklessSkip, true},
};

serve::ArrivalSpec random_arrival_spec(Rng& rng, std::uint64_t trial) {
  serve::ArrivalSpec spec;
  spec.rate_qps = 400.0 + static_cast<double>(rng.next_below(3200));
  spec.duration_s = 0.02 + 0.01 * static_cast<double>(rng.next_below(5));
  spec.diurnal_amplitude = 0.25 * static_cast<double>(rng.next_below(4));
  spec.diurnal_period_s = 0.01 + 0.02 * rng.next_double();
  if (rng.next_below(2) == 1) {
    spec.burst_rate_per_s = 20.0 + static_cast<double>(rng.next_below(80));
    spec.burst_size = 4 + rng.next_below(24);
    spec.burst_width_s = 0.001 + 0.003 * rng.next_double();
    spec.burst_spread = 5.0;
  }
  if (rng.next_below(2) == 1) spec.query_jitter = 4.0;
  spec.seed = 0xA11CE5ULL * 1000003ULL + trial;
  return spec;
}

serve::StreamingOptions random_streaming_options(Rng& rng, std::uint64_t trial,
                                                 serve::DispatchMode mode) {
  serve::StreamingOptions so;
  const Served& served = kServed[trial % std::size(kServed)];
  so.engine.algorithm = served.algorithm;
  so.engine.gpu.k = 1 + rng.next_below(16);
  so.engine.layout =
      rng.next_below(2) == 1 ? engine::NodeLayout::kSnapshot : engine::NodeLayout::kPointer;
  if (served.implicit) so.engine.layout = engine::NodeLayout::kImplicit;
  so.engine.num_threads = 1 + rng.next_below(4);
  so.engine.reorder_queries = rng.next_below(2) == 1;
  so.engine.warp_queries = 1 + rng.next_below(32);
  so.mode = mode;
  so.buffer_capacity = 1 + rng.next_below(32);
  so.deadline_us = 500 + rng.next_below(20000);
  so.flush_horizon_us = rng.next_below(so.deadline_us);
  // Bound 0 = unbounded; a tight bound forces the shed path to actually run.
  const std::uint64_t bound_kind = rng.next_below(3);
  so.admission_queue_bound = bound_kind == 0 ? 0 : (bound_kind == 1 ? 8 + rng.next_below(64) : 1);
  so.cell_bits = 1 + static_cast<int>(rng.next_below(4));
  so.dispatch_overhead_us = 20 + rng.next_below(300);
  return so;
}

/// The shared no-silent-loss postcondition: counters cross-foot with the
/// per-arrival flags, and every answered neighbor list matches `offline`.
void check_report(const serve::StreamingReport& rep, const serve::ArrivalStream& stream,
                  const knn::BatchResult& offline, const serve::StreamingOptions& so,
                  std::uint64_t trial) {
  ASSERT_EQ(rep.queries.size(), stream.size()) << "trial " << trial;
  ASSERT_EQ(rep.arrivals, stream.size()) << "trial " << trial;
  EXPECT_EQ(rep.admitted + rep.shed, rep.arrivals) << "trial " << trial;
  EXPECT_EQ(rep.answered, rep.admitted) << "trial " << trial;
  EXPECT_EQ(rep.latency_us.count(), rep.answered) << "trial " << trial;
  EXPECT_EQ(rep.flush_full + rep.flush_deadline + rep.flush_drain, rep.flushes)
      << "trial " << trial;

  std::uint64_t shed_flags = 0;
  std::uint64_t miss_flags = 0;
  std::uint64_t degraded_flags = 0;
  for (std::size_t i = 0; i < rep.queries.size(); ++i) {
    const serve::StreamedQuery& q = rep.queries[i];
    if (q.shed) {
      ++shed_flags;
      // A shed arrival was never dispatched: no answer, and never an
      // unflagged one — the empty list must not read as exact.
      EXPECT_TRUE(q.neighbors.empty()) << "trial " << trial << " arrival " << i;
      EXPECT_NE(q.status, knn::QueryStatus::kOk) << "trial " << trial << " arrival " << i;
      continue;
    }
    // Answered exactly once, bit-identical to the offline batch answer.
    expect_bit_identical(q.neighbors, offline.queries[i].neighbors, trial, i);
    EXPECT_LE(q.latency_us, rep.span_us) << "trial " << trial << " arrival " << i;
    if (q.deadline_missed) {
      ++miss_flags;
      EXPECT_GT(q.latency_us, so.deadline_us) << "trial " << trial << " arrival " << i;
      EXPECT_NE(q.status, knn::QueryStatus::kOk) << "trial " << trial << " arrival " << i;
    } else {
      EXPECT_LE(q.latency_us, so.deadline_us) << "trial " << trial << " arrival " << i;
    }
    if (q.status != knn::QueryStatus::kOk) ++degraded_flags;
  }
  EXPECT_EQ(shed_flags, rep.shed) << "trial " << trial;
  EXPECT_EQ(miss_flags, rep.deadline_misses) << "trial " << trial;
  EXPECT_EQ(degraded_flags, rep.degraded) << "trial " << trial;
  if (so.admission_queue_bound > 0) {
    EXPECT_LE(rep.max_queue_depth, so.admission_queue_bound) << "trial " << trial;
  }
}

void run_trial(std::uint64_t trial, serve::DispatchMode mode) {
  Rng rng(0x57E4Au * 1000003u + trial);
  const std::size_t dims = 2 + rng.next_below(5);  // 2..6
  const std::size_t n = 40 + rng.next_below(200);  // 40..239
  const PointSet data = test::small_clustered(dims, n, trial + 11);
  const std::size_t degree = 8 + rng.next_below(25);  // 8..32
  const sstree::BuildOutput built = sstree::build_kmeans(data, degree, {});

  const serve::ArrivalSpec aspec = random_arrival_spec(rng, trial);
  const serve::ArrivalStream stream = serve::generate_arrivals(data, aspec);
  if (stream.size() == 0) return;  // degenerate draw; nothing to assert

  const serve::StreamingOptions so = random_streaming_options(rng, trial, mode);
  serve::StreamingEngine seng(built.tree, so);
  const serve::StreamingReport rep = seng.run(stream);

  // The offline oracle: the identical query set through the identical
  // BatchEngine configuration, as one batch.
  const knn::BatchResult offline = engine::BatchEngine(built.tree, so.engine).run(stream.queries);
  check_report(rep, stream, offline, so, trial);
}

TEST(StreamPropertyTest, BufferedSeededTrials) {
  for (std::uint64_t trial = 0; trial < 120; ++trial) {
    run_trial(trial, serve::DispatchMode::kBuffered);
  }
}

TEST(StreamPropertyTest, NaiveSeededTrials) {
  for (std::uint64_t trial = 120; trial < 180; ++trial) {
    run_trial(trial, serve::DispatchMode::kNaive);
  }
}

TEST(StreamPropertyTest, ShardedBackendSeededTrials) {
  // The front-end over the scatter-gather backend: answers must match the
  // exhaustive oracle (the sharded merge is exact), with the same
  // no-silent-loss accounting.
  for (std::uint64_t trial = 180; trial < 210; ++trial) {
    Rng rng(0x5A4DEu * 1000003u + trial);
    const std::size_t dims = 2 + rng.next_below(4);
    const std::size_t n = 60 + rng.next_below(120);
    const PointSet data = test::small_clustered(dims, n, trial + 3);

    shard::ShardedEngineOptions sopts;
    sopts.num_shards = 1 + rng.next_below(5);
    sopts.degree = 8 + rng.next_below(17);
    const Served& served = kServed[trial % std::size(kServed)];
    sopts.engine.algorithm = served.algorithm;
    if (served.implicit) sopts.engine.layout = engine::NodeLayout::kImplicit;
    sopts.engine.gpu.k = 1 + rng.next_below(12);
    shard::ShardedEngine sharded(data, sopts);

    serve::ArrivalSpec aspec = random_arrival_spec(rng, trial);
    aspec.rate_qps = 400.0 + static_cast<double>(rng.next_below(800));
    const serve::ArrivalStream stream = serve::generate_arrivals(data, aspec);
    if (stream.size() == 0) continue;

    serve::StreamingOptions so = random_streaming_options(rng, trial,
                                                          serve::DispatchMode::kBuffered);
    so.engine = sopts.engine;
    serve::StreamingEngine seng(sharded, data, so);
    const serve::StreamingReport rep = seng.run(stream);

    ASSERT_EQ(rep.queries.size(), stream.size()) << "trial " << trial;
    EXPECT_EQ(rep.admitted + rep.shed, rep.arrivals) << "trial " << trial;
    EXPECT_EQ(rep.answered, rep.admitted) << "trial " << trial;
    for (std::size_t i = 0; i < rep.queries.size(); ++i) {
      if (rep.queries[i].shed) continue;
      expect_bit_identical(rep.queries[i].neighbors,
                           oracle_knn(data, stream.queries[i], sopts.engine.gpu.k), trial, i);
    }
  }
}

TEST(StreamPropertyTest, ArrivalStreamsAreSortedAndDeterministic) {
  const PointSet data = test::small_clustered(3, 100, 5);
  for (std::uint64_t trial = 0; trial < 24; ++trial) {
    Rng rng(trial);
    const serve::ArrivalSpec spec = random_arrival_spec(rng, trial);
    const serve::ArrivalStream a = serve::generate_arrivals(data, spec);
    const serve::ArrivalStream b = serve::generate_arrivals(data, spec);
    ASSERT_EQ(a.size(), b.size()) << "trial " << trial;
    EXPECT_TRUE(std::is_sorted(a.time_us.begin(), a.time_us.end())) << "trial " << trial;
    EXPECT_EQ(a.time_us, b.time_us) << "trial " << trial;
    for (std::size_t i = 0; i < a.size(); ++i) {
      const std::span<const Scalar> pa = a.queries[i];
      const std::span<const Scalar> pb = b.queries[i];
      for (std::size_t d = 0; d < pa.size(); ++d) {
        ASSERT_EQ(pa[d], pb[d]) << "trial " << trial << " arrival " << i;
      }
    }
  }
}

}  // namespace
}  // namespace psb
