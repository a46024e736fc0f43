// Metamorphic battery for the streaming serving front-end. Three families of
// transformations with provable invariants on the virtual clock:
//
//   * Time scaling — multiplying every arrival time, the deadline, the flush
//     horizon and the dispatch overhead by an integer c (and setting
//     service_time_scale = c) is a pure change of time units: per-query
//     answers, flush cohort composition, shed decisions and every counter are
//     invariant, and every latency/completion scales by exactly c.
//   * Capacity-one degeneration — a buffered front-end whose buffers hold one
//     query flushes on every admission, which must be bit-identical (whole
//     report, including counters and the JSON export) to naive per-arrival
//     dispatch, and both bit-identical to the offline BatchEngine answers.
//   * Stream merging — serving the time-ordered merge of two streams answers
//     exactly the union of both streams' queries.
//
// Plus the determinism regression the obs export hangs off: same seed and
// profile ⇒ byte-identical stream JSON (latency histogram included) across
// repeated runs of one engine and across backend thread counts, for the
// tree-backed, replicated and sharded front-ends.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/points.hpp"
#include "engine/batch_engine.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "serve/arrivals.hpp"
#include "serve/streaming_engine.hpp"
#include "shard/sharded_engine.hpp"
#include "sstree/builders.hpp"
#include "test_util.hpp"

namespace psb {
namespace {

serve::ArrivalSpec fixture_spec(std::uint64_t seed, double rate) {
  serve::ArrivalSpec spec;
  spec.rate_qps = rate;
  spec.duration_s = 0.05;
  spec.diurnal_amplitude = 0.5;
  spec.diurnal_period_s = 0.02;
  spec.burst_rate_per_s = 60.0;
  spec.burst_size = 12;
  spec.seed = seed * 7919 + 1;
  return spec;
}

struct Fixture {
  PointSet data;
  sstree::BuildOutput built;
  serve::ArrivalStream stream;

  explicit Fixture(std::uint64_t seed, double rate = 2500.0)
      : data(test::small_clustered(4, 160, seed)),
        built(sstree::build_kmeans(data, 16, {})),
        stream(serve::generate_arrivals(data, fixture_spec(seed, rate))) {}
};

serve::StreamingOptions base_options() {
  serve::StreamingOptions so;
  so.engine.gpu.k = 8;
  so.engine.layout = engine::NodeLayout::kSnapshot;
  so.engine.reorder_queries = true;
  so.buffer_capacity = 8;
  so.engine.warp_queries = 8;
  so.deadline_us = 6000;
  so.flush_horizon_us = 1000;
  so.admission_queue_bound = 48;  // tight enough that some trials shed
  so.cell_bits = 2;
  so.dispatch_overhead_us = 150;
  return so;
}

void expect_same_neighbors(const std::vector<KnnHeap::Entry>& a,
                           const std::vector<KnnHeap::Entry>& b, std::size_t arrival) {
  ASSERT_EQ(a.size(), b.size()) << "arrival " << arrival;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << "arrival " << arrival << " rank " << i;
    EXPECT_EQ(a[i].dist, b[i].dist) << "arrival " << arrival << " rank " << i;
  }
}

TEST(StreamMetamorphicTest, IntegerTimeScalingLeavesResultsAndCohortsInvariant) {
  for (const std::uint64_t c : {std::uint64_t{2}, std::uint64_t{5}, std::uint64_t{10}}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const Fixture fx(seed);
      if (fx.stream.size() == 0) continue;
      const serve::StreamingOptions so = base_options();

      serve::StreamingEngine base_eng(fx.built.tree, so);
      const serve::StreamingReport base = base_eng.run(fx.stream);

      serve::StreamingOptions scaled = so;
      scaled.deadline_us *= c;
      scaled.flush_horizon_us *= c;
      scaled.dispatch_overhead_us *= c;
      scaled.service_time_scale *= c;
      serve::StreamingEngine scaled_eng(fx.built.tree, scaled);
      const serve::StreamingReport rep = scaled_eng.run(serve::scale_stream(fx.stream, c));

      // Counters and cohort structure: invariant.
      EXPECT_EQ(rep.admitted, base.admitted) << "c=" << c << " seed=" << seed;
      EXPECT_EQ(rep.shed, base.shed) << "c=" << c << " seed=" << seed;
      EXPECT_EQ(rep.flushes, base.flushes) << "c=" << c << " seed=" << seed;
      EXPECT_EQ(rep.flush_full, base.flush_full) << "c=" << c << " seed=" << seed;
      EXPECT_EQ(rep.flush_deadline, base.flush_deadline) << "c=" << c << " seed=" << seed;
      EXPECT_EQ(rep.flush_drain, base.flush_drain) << "c=" << c << " seed=" << seed;
      EXPECT_EQ(rep.deadline_misses, base.deadline_misses) << "c=" << c << " seed=" << seed;
      EXPECT_EQ(rep.max_queue_depth, base.max_queue_depth) << "c=" << c << " seed=" << seed;
      EXPECT_EQ(rep.accessed_bytes, base.accessed_bytes) << "c=" << c << " seed=" << seed;
      // Times: scaled by exactly c.
      EXPECT_EQ(rep.span_us, base.span_us * c) << "c=" << c << " seed=" << seed;

      ASSERT_EQ(rep.queries.size(), base.queries.size());
      for (std::size_t i = 0; i < rep.queries.size(); ++i) {
        const serve::StreamedQuery& s = rep.queries[i];
        const serve::StreamedQuery& b = base.queries[i];
        EXPECT_EQ(s.shed, b.shed) << "arrival " << i;
        EXPECT_EQ(s.flush_id, b.flush_id) << "arrival " << i;  // cohort composition
        EXPECT_EQ(s.cell, b.cell) << "arrival " << i;
        EXPECT_EQ(s.deadline_missed, b.deadline_missed) << "arrival " << i;
        EXPECT_EQ(s.status, b.status) << "arrival " << i;
        EXPECT_EQ(s.latency_us, b.latency_us * c) << "arrival " << i;
        expect_same_neighbors(s.neighbors, b.neighbors, i);
      }
    }
  }
}

TEST(StreamMetamorphicTest, CapacityOneDegradesToNaivePerArrivalDispatch) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Fixture fx(seed);
    if (fx.stream.size() == 0) continue;

    serve::StreamingOptions cap1 = base_options();
    cap1.mode = serve::DispatchMode::kBuffered;
    cap1.buffer_capacity = 1;
    serve::StreamingOptions naive = cap1;
    naive.mode = serve::DispatchMode::kNaive;

    serve::StreamingEngine cap1_eng(fx.built.tree, cap1);
    const serve::StreamingReport a = cap1_eng.run(fx.stream);
    serve::StreamingEngine naive_eng(fx.built.tree, naive);
    const serve::StreamingReport b = naive_eng.run(fx.stream);

    // The whole report — counters, latencies, histogram — is bit-identical,
    // which the deterministic JSON export captures in one comparison.
    EXPECT_EQ(serve::streaming_report_to_json(a), serve::streaming_report_to_json(b))
        << "seed " << seed;

    // And both equal the offline batch answers for every admitted arrival.
    const knn::BatchResult offline =
        engine::BatchEngine(fx.built.tree, cap1.engine).run(fx.stream.queries);
    ASSERT_EQ(a.queries.size(), b.queries.size());
    for (std::size_t i = 0; i < a.queries.size(); ++i) {
      ASSERT_EQ(a.queries[i].shed, b.queries[i].shed) << "arrival " << i;
      if (a.queries[i].shed) continue;
      expect_same_neighbors(a.queries[i].neighbors, b.queries[i].neighbors, i);
      expect_same_neighbors(a.queries[i].neighbors, offline.queries[i].neighbors, i);
    }
  }
}

TEST(StreamMetamorphicTest, MergedStreamsAnswerTheUnion) {
  const Fixture fa(21, 1200.0);
  const Fixture fb(22, 900.0);
  // Both streams query the same dataset/tree (fa's); fb contributes only its
  // arrival process, re-pointed at fa's data so dimensions match.
  serve::ArrivalSpec bspec;
  bspec.rate_qps = 900.0;
  bspec.duration_s = 0.05;
  bspec.burst_rate_per_s = 40.0;
  bspec.burst_size = 8;
  bspec.seed = 4242;
  const serve::ArrivalStream sb = serve::generate_arrivals(fa.data, bspec);
  const serve::ArrivalStream& sa = fa.stream;
  const serve::ArrivalStream merged = serve::merge_streams(sa, sb);

  ASSERT_EQ(merged.size(), sa.size() + sb.size());
  EXPECT_TRUE(std::is_sorted(merged.time_us.begin(), merged.time_us.end()));

  // Reconstruct the documented merge order (time-ordered, `a` wins ties) and
  // verify the union: every arrival of both input streams appears exactly
  // once, with its coordinates intact.
  std::vector<std::pair<bool, std::size_t>> origin;  // (from_a, index)
  {
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < sa.size() || j < sb.size()) {
      const bool take_a =
          j >= sb.size() || (i < sa.size() && sa.time_us[i] <= sb.time_us[j]);
      origin.emplace_back(take_a, take_a ? i++ : j++);
    }
  }
  for (std::size_t m = 0; m < merged.size(); ++m) {
    const auto& [from_a, idx] = origin[m];
    const serve::ArrivalStream& src = from_a ? sa : sb;
    ASSERT_EQ(merged.time_us[m], src.time_us[idx]) << "arrival " << m;
    const std::span<const Scalar> got = merged.queries[m];
    const std::span<const Scalar> want = src.queries[idx];
    for (std::size_t d = 0; d < got.size(); ++d) {
      ASSERT_EQ(got[d], want[d]) << "arrival " << m << " dim " << d;
    }
  }

  // Serving the merge (unbounded admission) answers every query of the union
  // with its offline batch answer.
  serve::StreamingOptions so = base_options();
  so.admission_queue_bound = 0;
  serve::StreamingEngine eng(fa.built.tree, so);
  const serve::StreamingReport rep = eng.run(merged);
  EXPECT_EQ(rep.answered, merged.size());
  EXPECT_EQ(rep.shed, 0u);
  const knn::BatchResult offline =
      engine::BatchEngine(fa.built.tree, so.engine).run(merged.queries);
  for (std::size_t i = 0; i < rep.queries.size(); ++i) {
    expect_same_neighbors(rep.queries[i].neighbors, offline.queries[i].neighbors, i);
  }
}

TEST(StreamMetamorphicTest, JsonExportIsByteIdenticalAcrossRunsAndThreadCounts) {
  const Fixture fx(33);
  ASSERT_GT(fx.stream.size(), 0u);

  // Each configuration builds one engine per thread count and serves the
  // stream through it twice: a reused engine keeps no queueing state, so
  // its second report repeats the first byte for byte.
  enum class Config { kTree, kReplicated, kSharded };
  for (const Config config : {Config::kTree, Config::kReplicated, Config::kSharded}) {
    std::string reference;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      serve::StreamingOptions so = base_options();
      so.engine.num_threads = threads;
      if (config == Config::kReplicated) {
        so.replica.replicas = 2;
        so.replica.groups = 4;
        so.replica.hedge = true;
        so.replica.hedge_warmup = 4;
        so.replica.straggle_pct = 10;
      }
      std::unique_ptr<shard::ShardedEngine> sharded;
      std::unique_ptr<serve::StreamingEngine> eng;
      if (config == Config::kSharded) {
        shard::ShardedEngineOptions sopts;
        sopts.num_shards = 4;
        sopts.degree = 16;
        sopts.engine = so.engine;
        sopts.cache_capacity = 0;
        sharded = std::make_unique<shard::ShardedEngine>(fx.data, sopts);
        eng = std::make_unique<serve::StreamingEngine>(*sharded, fx.data, so);
      } else {
        eng = std::make_unique<serve::StreamingEngine>(fx.built.tree, so);
      }
      for (int run = 0; run < 2; ++run) {
        const std::string json = serve::streaming_report_to_json(eng->run(fx.stream));
        if (reference.empty()) {
          reference = json;
        } else {
          EXPECT_EQ(json, reference) << "config=" << static_cast<int>(config)
                                     << " threads=" << threads << " run=" << run;
        }
      }
    }
    // The export carries the full latency histogram — spot-check the schema.
    EXPECT_NE(reference.find("\"schema\": \"psb.stream.v1\""), std::string::npos);
    EXPECT_NE(reference.find("stream.latency_us.p99"), std::string::npos);
    EXPECT_EQ(reference.find(".replica.dispatches") != std::string::npos,
              config == Config::kReplicated);
  }
}

TEST(StreamMetamorphicTest, RegistryCountersAreDeterministicAcrossRuns) {
  // serve.* counters are part of the deterministic observable surface: two
  // identical runs add identical deltas, so a reset + run + export cycle is
  // byte-stable (the regression harness diffs exactly this).
  const Fixture fx(44);
  ASSERT_GT(fx.stream.size(), 0u);
  const serve::StreamingOptions so = base_options();

  std::string first;
  for (int run = 0; run < 2; ++run) {
    obs::Registry::global().reset();
    serve::StreamingEngine eng(fx.built.tree, so);
    (void)eng.run(fx.stream);
    const std::string json = obs::registry_to_json(obs::Registry::global().snapshot());
    if (run == 0) {
      first = json;
      EXPECT_NE(first.find("serve.flushes"), std::string::npos);
      EXPECT_NE(first.find("serve.answered"), std::string::npos);
    } else {
      EXPECT_EQ(json, first);
    }
  }
}

}  // namespace
}  // namespace psb
