// Contract tests for src/replica/: the group partitioner, the router's
// failover / eviction / hedging semantics under injected faults, option
// validation at StreamingEngine construction, the bit-identity of an
// unreplicated engine (one implicit replica) with an explicit R = 1, G = 1
// router, the degradation ladder's never-silent guarantee, and run-to-run
// determinism of the replicated JSON export.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "engine/batch_engine.hpp"
#include "fault/fault.hpp"
#include "fault/sites.hpp"
#include "knn/brute_force.hpp"
#include "replica/replica.hpp"
#include "serve/arrivals.hpp"
#include "serve/streaming_engine.hpp"
#include "shard/sharded_engine.hpp"
#include "sstree/builders.hpp"
#include "test_util.hpp"

namespace psb {
namespace {

// ---------------------------------------------------------------------------
// group_for_cell
// ---------------------------------------------------------------------------

TEST(GroupForCell, MonotoneContiguousAndComplete) {
  const int key_bits = 16;
  const std::size_t groups = 5;
  std::size_t prev = 0;
  std::vector<bool> seen(groups, false);
  for (std::uint64_t cell = 0; cell < (1u << key_bits); ++cell) {
    const std::size_t g = replica::group_for_cell(cell, key_bits, groups);
    ASSERT_LT(g, groups);
    ASSERT_GE(g, prev);  // monotone in the cell key -> contiguous ranges
    prev = g;
    seen[g] = true;
  }
  for (std::size_t g = 0; g < groups; ++g) EXPECT_TRUE(seen[g]) << "empty group " << g;
}

TEST(GroupForCell, WideKeysUseTheTopBits) {
  // CellRouter::route hands out MSB-aligned 64-bit keys; the split must be
  // monotone across the whole word without overflowing.
  const std::uint64_t top = ~std::uint64_t{0};
  EXPECT_EQ(replica::group_for_cell(0, 64, 4), 0u);
  EXPECT_EQ(replica::group_for_cell(top, 64, 4), 3u);
  EXPECT_EQ(replica::group_for_cell(top / 2, 64, 4), 1u);
  // Degenerate configurations collapse to group 0.
  EXPECT_EQ(replica::group_for_cell(top, 0, 4), 0u);
  EXPECT_EQ(replica::group_for_cell(top, 64, 1), 0u);
}

// ---------------------------------------------------------------------------
// Router semantics on a hand-driven request sequence
// ---------------------------------------------------------------------------

replica::ReplicaRouter::Request plain_request(std::uint64_t now_us, std::uint64_t service_us,
                                              std::span<const unsigned char> reply = {}) {
  replica::ReplicaRouter::Request rq;
  rq.group = 0;
  rq.now_us = now_us;
  rq.service_us = service_us;
  rq.overhead_us = 100;
  rq.reply = reply;
  return rq;
}

TEST(ReplicaRouter, CleanDispatchMatchesSingleServerRecurrence) {
  replica::ReplicaOptions opts;
  opts.replicas = 1;
  opts.groups = 1;
  replica::ReplicaRouter router(opts);
  // One server: flush at t starts at max(t, busy) and occupies
  // overhead + service — what an unreplicated StreamingEngine serves on.
  const auto oc1 = router.dispatch(plain_request(1000, 400));
  ASSERT_TRUE(oc1.served);
  EXPECT_EQ(oc1.completion_us, 1000u + 100u + 400u);
  const auto oc2 = router.dispatch(plain_request(1100, 200));  // queues behind oc1
  ASSERT_TRUE(oc2.served);
  EXPECT_EQ(oc2.completion_us, 1500u + 100u + 200u);
  const auto oc3 = router.dispatch(plain_request(5000, 100));  // idle server
  ASSERT_TRUE(oc3.served);
  EXPECT_EQ(oc3.completion_us, 5000u + 100u + 100u);
  EXPECT_EQ(router.stats().dispatches, 3u);
  EXPECT_EQ(router.stats().attempts, 3u);
  EXPECT_EQ(router.stats().failovers, 0u);
}

TEST(ReplicaRouter, CrashFailsOverToSiblingAndRestartsCounted) {
  replica::ReplicaOptions opts;
  opts.replicas = 3;
  opts.groups = 1;
  opts.restart_us = 500;
  replica::ReplicaRouter router(opts);
  fault::InjectionScope scope(
      fault::Spec{std::string(fault::kSiteReplicaCrash), 7, /*trigger=*/0, /*count=*/1});
  const auto oc = router.dispatch(plain_request(0, 300));
  ASSERT_TRUE(oc.served);
  EXPECT_TRUE(oc.failed_over);
  EXPECT_EQ(oc.attempts, 2u);
  EXPECT_EQ(router.stats().crashes, 1u);
  EXPECT_EQ(router.stats().failovers, 1u);
  EXPECT_GT(router.stats().backoff_wait_us, 0u);
  // Far past the restart window the crashed replica is usable again.
  const auto later = router.dispatch(plain_request(10000, 300));
  ASSERT_TRUE(later.served);
  EXPECT_EQ(router.stats().restarts, 1u);
}

TEST(ReplicaRouter, CorruptReplyIsDetectedByCrcAndEvicted) {
  replica::ReplicaOptions opts;
  opts.replicas = 2;
  opts.groups = 1;
  replica::ReplicaRouter router(opts);
  const std::vector<unsigned char> reply = {0x50, 0x53, 0x42, 0x21, 0x00, 0x7F};
  fault::InjectionScope scope(
      fault::Spec{std::string(fault::kSiteReplicaCorruptReply), 21, 0, 1});
  const auto oc = router.dispatch(plain_request(0, 250, reply));
  ASSERT_TRUE(oc.served);  // the sibling re-answered
  EXPECT_TRUE(oc.failed_over);
  EXPECT_EQ(router.stats().corrupt_replies, 1u);
  EXPECT_EQ(router.stats().evictions, 1u);
  EXPECT_EQ(scope.fired(fault::kSiteReplicaCorruptReply), 1u);
}

TEST(ReplicaRouter, ExhaustionReturnsUnservedNeverSilently) {
  replica::ReplicaOptions opts;
  opts.replicas = 2;
  opts.groups = 1;
  opts.max_attempts = 3;
  opts.restart_us = 1000000;  // crashed replicas stay down for the whole test
  replica::ReplicaRouter router(opts);
  fault::InjectionScope scope(
      fault::Spec{std::string(fault::kSiteReplicaCrash), 3, 0, /*count=*/100});
  const auto oc = router.dispatch(plain_request(0, 300));
  EXPECT_FALSE(oc.served);
  EXPECT_GT(oc.completion_us, 0u);  // the caller's fallback starts here
  EXPECT_EQ(router.stats().exhausted, 1u);
}

// ---------------------------------------------------------------------------
// StreamingEngine integration
// ---------------------------------------------------------------------------

// The tree keeps a pointer to `data` (SSTree stores const PointSet*), so the
// members are built in declaration order inside the constructor and the
// factory relies on guaranteed copy elision — the Workload is never moved,
// keeping that pointer valid for the test's lifetime.
struct Workload {
  PointSet data;
  sstree::BuildOutput built;
  serve::ArrivalStream stream;

  Workload(std::uint64_t seed, double rate_qps)
      : data(test::small_clustered(4, 220, seed)),
        built(sstree::build_kmeans(data, 16, {})),
        stream(serve::generate_arrivals(data, arrival_spec(seed, rate_qps))) {}

  static serve::ArrivalSpec arrival_spec(std::uint64_t seed, double rate_qps) {
    serve::ArrivalSpec aspec;
    aspec.rate_qps = rate_qps;
    aspec.duration_s = 0.05;
    aspec.burst_rate_per_s = 40.0;
    aspec.burst_size = 8;
    aspec.seed = seed + 1;
    return aspec;
  }
};

Workload make_workload(std::uint64_t seed, double rate_qps = 2000.0) {
  return Workload(seed, rate_qps);
}

serve::StreamingOptions base_options() {
  serve::StreamingOptions so;
  so.engine.algorithm = engine::Algorithm::kPsb;
  so.engine.gpu.k = 8;
  so.engine.layout = engine::NodeLayout::kSnapshot;
  so.engine.num_threads = 1;
  so.mode = serve::DispatchMode::kBuffered;
  so.buffer_capacity = 8;
  so.engine.warp_queries = 8;
  so.deadline_us = 20000;
  so.flush_horizon_us = 2000;
  so.admission_queue_bound = 0;
  so.cell_bits = 2;
  return so;
}

/// The acceptance bit-identity: replicas = 0 serves through one implicit
/// replica in one group, so an explicit R = 1, G = 1 router with no hedging
/// and no straggling must match it — per-query outcomes and the whole
/// unreplicated export, byte for byte, once the .replica.* block is removed.
TEST(ReplicatedStreaming, SingleReplicaIsBitIdenticalToLegacyModel) {
  const Workload w = make_workload(42);
  ASSERT_GT(w.stream.size(), 0u);

  serve::StreamingOptions legacy = base_options();
  legacy.replica.groups = 3;  // ignored while replicas = 0
  serve::StreamingEngine legacy_eng(w.built.tree, legacy);
  const serve::StreamingReport lrep = legacy_eng.run(w.stream);

  serve::StreamingOptions rep = base_options();
  rep.replica.replicas = 1;
  rep.replica.groups = 1;
  serve::StreamingEngine rep_eng(w.built.tree, rep);
  const serve::StreamingReport rrep = rep_eng.run(w.stream);

  EXPECT_FALSE(lrep.replicated);
  EXPECT_TRUE(rrep.replicated);
  ASSERT_EQ(lrep.queries.size(), rrep.queries.size());
  for (std::size_t i = 0; i < lrep.queries.size(); ++i) {
    EXPECT_EQ(lrep.queries[i].latency_us, rrep.queries[i].latency_us) << "arrival " << i;
    EXPECT_EQ(lrep.queries[i].flush_id, rrep.queries[i].flush_id) << "arrival " << i;
    EXPECT_EQ(lrep.queries[i].status, rrep.queries[i].status) << "arrival " << i;
    EXPECT_EQ(lrep.queries[i].cell, rrep.queries[i].cell) << "arrival " << i;
  }
  EXPECT_EQ(lrep.span_us, rrep.span_us);
  EXPECT_EQ(lrep.deadline_misses, rrep.deadline_misses);
  EXPECT_EQ(lrep.p50_us(), rrep.p50_us());
  EXPECT_EQ(lrep.p99_us(), rrep.p99_us());

  // The replicated export is the unreplicated export plus the .replica.*
  // block: stripping those lines must restore its bytes exactly.
  const std::string ljson = serve::streaming_report_to_json(lrep);
  const std::string rjson = serve::streaming_report_to_json(rrep);
  std::string stripped;
  std::size_t pos = 0;
  while (pos < rjson.size()) {
    std::size_t eol = rjson.find('\n', pos);
    if (eol == std::string::npos) eol = rjson.size() - 1;
    const std::string line = rjson.substr(pos, eol - pos + 1);
    if (line.find(".replica.") == std::string::npos) stripped += line;
    pos = eol + 1;
  }
  EXPECT_EQ(stripped, ljson);
}

/// A bad ReplicaOptions is rejected when the engine is built, before any
/// stream is served, for both backends; replicas = 0 ignores the other
/// replica fields.
TEST(ReplicatedStreaming, InvalidReplicaOptionsThrowAtConstruction) {
  const Workload w = make_workload(5);
  shard::ShardedEngineOptions sopts;
  sopts.num_shards = 2;
  sopts.engine = base_options().engine;
  shard::ShardedEngine sharded(w.data, sopts);

  std::vector<serve::StreamingOptions> cases(3, base_options());
  for (serve::StreamingOptions& so : cases) so.replica.replicas = 2;
  cases[0].replica.hedge_percentile = 0.0;
  cases[1].replica.max_attempts = 0;
  cases[2].replica.backoff_cap_us = cases[2].replica.backoff_base_us - 1;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    EXPECT_THROW(serve::StreamingEngine(w.built.tree, cases[c]), InvalidArgument)
        << "case " << c;
    EXPECT_THROW(serve::StreamingEngine(sharded, w.data, cases[c]), InvalidArgument)
        << "case " << c;
    serve::StreamingOptions off = cases[c];
    off.replica.replicas = 0;
    EXPECT_NO_THROW(serve::StreamingEngine(w.built.tree, off)) << "case " << c;
  }
}

TEST(ReplicatedStreaming, DisabledReplicationExportsNoReplicaFields) {
  const Workload w = make_workload(7);
  serve::StreamingEngine eng(w.built.tree, base_options());
  const serve::StreamingReport rep = eng.run(w.stream);
  EXPECT_FALSE(rep.replicated);
  EXPECT_EQ(serve::streaming_report_to_json(rep).find(".replica."), std::string::npos);
}

TEST(ReplicatedStreaming, CrashFailoverKeepsAnswersExactAndCounted) {
  const Workload w = make_workload(11);
  serve::StreamingOptions so = base_options();
  so.replica.replicas = 3;
  so.replica.groups = 2;
  so.replica.restart_us = 2000;

  fault::InjectionScope scope(
      fault::Spec{std::string(fault::kSiteReplicaCrash), 19, /*trigger=*/1, /*count=*/2});
  serve::StreamingEngine eng(w.built.tree, so);
  const serve::StreamingReport rep = eng.run(w.stream);
  ASSERT_GT(scope.fired(fault::kSiteReplicaCrash), 0u);
  EXPECT_GE(rep.replica.crashes, 1u);
  EXPECT_GE(rep.replica.failovers, 1u);

  // Failover must never change an answer: every query matches the offline
  // batch bit for bit.
  const knn::BatchResult offline =
      engine::BatchEngine(w.built.tree, so.engine).run(w.stream.queries);
  for (std::size_t i = 0; i < rep.queries.size(); ++i) {
    ASSERT_EQ(rep.queries[i].neighbors.size(), offline.queries[i].neighbors.size());
    for (std::size_t r = 0; r < rep.queries[i].neighbors.size(); ++r) {
      EXPECT_EQ(rep.queries[i].neighbors[r].id, offline.queries[i].neighbors[r].id);
      EXPECT_EQ(rep.queries[i].neighbors[r].dist, offline.queries[i].neighbors[r].dist);
    }
  }
}

TEST(ReplicatedStreaming, ExhaustionFallsBackToFlaggedExactBruteForce) {
  const Workload w = make_workload(23);
  serve::StreamingOptions so = base_options();
  so.replica.replicas = 2;
  so.replica.groups = 1;
  so.replica.max_attempts = 3;
  so.replica.restart_us = 100000000;  // nobody comes back within the stream

  fault::InjectionScope scope(
      fault::Spec{std::string(fault::kSiteReplicaCrash), 5, 0, /*count=*/1000000});
  serve::StreamingEngine eng(w.built.tree, so);
  const serve::StreamingReport rep = eng.run(w.stream);
  ASSERT_GT(scope.fired(fault::kSiteReplicaCrash), 0u);
  EXPECT_GE(rep.replica.exhausted, 1u);
  EXPECT_GT(rep.degraded, 0u);

  // Bottom of the ladder: flagged, and still exact against the truth.
  const knn::GpuKnnOptions gpu = so.engine.gpu;
  const knn::BatchResult truth = knn::brute_force_batch(w.data, w.stream.queries, gpu);
  bool saw_flagged = false;
  for (std::size_t i = 0; i < rep.queries.size(); ++i) {
    if (rep.queries[i].status == knn::QueryStatus::kDegradedFallback) saw_flagged = true;
    EXPECT_NE(rep.queries[i].status, knn::QueryStatus::kDeadlinePartial);
    ASSERT_EQ(rep.queries[i].neighbors.size(), truth.queries[i].neighbors.size());
    for (std::size_t r = 0; r < rep.queries[i].neighbors.size(); ++r) {
      EXPECT_EQ(rep.queries[i].neighbors[r].id, truth.queries[i].neighbors[r].id);
      EXPECT_EQ(rep.queries[i].neighbors[r].dist, truth.queries[i].neighbors[r].dist);
    }
  }
  EXPECT_TRUE(saw_flagged);
}

TEST(ReplicatedStreaming, HedgingCutsTheTailUnderStragglersAndAccounts) {
  const Workload w = make_workload(31, /*rate_qps=*/1200.0);
  serve::StreamingOptions so = base_options();
  so.deadline_us = 6000;
  so.flush_horizon_us = 2000;
  so.replica.replicas = 3;
  so.replica.groups = 2;
  so.replica.straggle_pct = 10;
  so.replica.straggle_multiplier = 8;
  so.replica.health_seed = 77;

  serve::StreamingEngine unhedged(w.built.tree, so);
  const serve::StreamingReport urep = unhedged.run(w.stream);

  so.replica.hedge = true;
  so.replica.hedge_percentile = 90.0;
  so.replica.hedge_warmup = 4;
  serve::StreamingEngine hedged(w.built.tree, so);
  const serve::StreamingReport hrep = hedged.run(w.stream);

  EXPECT_GT(urep.replica.straggles, 0u);
  EXPECT_GT(hrep.replica.hedge_issued, 0u);
  EXPECT_EQ(hrep.replica.hedge_issued, hrep.replica.hedge_won + hrep.replica.hedge_wasted);
  EXPECT_GT(hrep.replica.hedge_won, 0u);
  EXPECT_EQ(urep.replica.hedge_issued, 0u);
  // The gate property: hedging must not worsen the tail under the seeded
  // straggler profile (the bench gate pins the strict < 1.0 ratio).
  EXPECT_LE(hrep.p99_us(), urep.p99_us());
}

TEST(ReplicatedStreaming, ReplicatedExportIsDeterministicRunToRun) {
  const Workload w = make_workload(57);
  serve::StreamingOptions so = base_options();
  so.replica.replicas = 3;
  so.replica.groups = 2;
  so.replica.straggle_pct = 15;
  so.replica.hedge = true;
  so.replica.hedge_warmup = 4;

  serve::StreamingEngine a(w.built.tree, so);
  serve::StreamingEngine b(w.built.tree, so);
  const std::string ja = serve::streaming_report_to_json(a.run(w.stream));
  const std::string jb = serve::streaming_report_to_json(b.run(w.stream));
  EXPECT_EQ(ja, jb);
  EXPECT_NE(ja.find(".replica.dispatches"), std::string::npos);
}

}  // namespace
}  // namespace psb
