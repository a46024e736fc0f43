// Framework semantics of src/fault/: registry, determinism, one-shot
// triggering, scope lifetime and misuse errors. The integration of the sites
// into the serving path is covered by the faultcamp tool and the engine
// tests; this file pins the contract those rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/geometry.hpp"
#include "engine/batch_engine.hpp"
#include "fault/fault.hpp"
#include "fault/report.hpp"
#include "fault/sites.hpp"
#include "join/join_engine.hpp"
#include "knn/brute_force.hpp"
#include "obs/registry.hpp"
#include "serve/arrivals.hpp"
#include "serve/streaming_engine.hpp"
#include "shard/sharded_engine.hpp"
#include "sstree/builders.hpp"
#include "test_util.hpp"

namespace psb::fault {
namespace {

TEST(FaultRegistry, AllSitesRegisteredAndNamed) {
  const auto all = sites();
  ASSERT_GE(all.size(), 14u);
  for (const SiteInfo& s : all) {
    EXPECT_FALSE(s.name.empty());
    EXPECT_FALSE(s.description.empty());
    EXPECT_TRUE(is_site(s.name)) << s.name;
  }
  EXPECT_TRUE(is_site(kSiteEnvelopeTruncate));
  EXPECT_TRUE(is_site(kSiteEnvelopeByteflip));
  EXPECT_TRUE(is_site(kSiteNodeBoundsBitflip));
  EXPECT_TRUE(is_site(kSiteSnapshotSegment));
  EXPECT_TRUE(is_site(kSiteImplicitEscape));
  EXPECT_TRUE(is_site(kSiteQueryBudget));
  EXPECT_TRUE(is_site(kSiteWorkerSlice));
  EXPECT_TRUE(is_site(kSiteShardSlice));
  EXPECT_TRUE(is_site(kSiteStreamFlush));
  EXPECT_TRUE(is_site(kSiteExecResume));
  EXPECT_TRUE(is_site(kSiteReplicaCrash));
  EXPECT_TRUE(is_site(kSiteReplicaStraggle));
  EXPECT_TRUE(is_site(kSiteReplicaCorruptReply));
  EXPECT_TRUE(is_site(kSiteJoinPair));
  EXPECT_FALSE(is_site("no.such.site"));
}

TEST(CampaignReport, IdenticalTalliesSerializeByteIdentically) {
  const auto make = [] {
    CampaignSummary s;
    s.schema = "psb.testcamp.v1";
    s.iterations = 26;
    s.seed = 7;
    s.sites.push_back({std::string(kSiteQueryBudget), 13, 11, 9, 2, 9});
    s.sites.push_back({std::string(kSiteReplicaCrash), 13, 10, 4, 6, 4});
    s.extra.emplace_back("combos.two", 20);
    s.extra.emplace_back("combos.three", 6);
    return s;
  };
  const std::string a = campaign_report_json(make());
  const std::string b = campaign_report_json(make());
  EXPECT_EQ(a, b);  // byte-stability: CI diffs archived campaign reports
  // The table carries every column per site, the extras, and the totals.
  EXPECT_NE(a.find("\"engine.query_budget.flagged\": 9"), std::string::npos) << a;
  EXPECT_NE(a.find("\"replica.crash.masked\": 6"), std::string::npos) << a;
  EXPECT_NE(a.find("\"combos.three\": 6"), std::string::npos) << a;
  EXPECT_NE(a.find("\"total.fired\": 21"), std::string::npos) << a;
  EXPECT_NE(a.find("\"total.flagged\": 13"), std::string::npos) << a;
}

TEST(CampaignReport, InvariantViolationsThrow) {
  CampaignSummary s;
  s.schema = "psb.testcamp.v1";
  s.sites.push_back({std::string(kSiteQueryBudget), 4, 3, 1, 1, 1});  // 3 != 1 + 1
  EXPECT_THROW(campaign_report_json(s), InternalError);
  s.sites[0] = {std::string(kSiteQueryBudget), 4, 3, 2, 1, 3};  // flagged > detected
  EXPECT_THROW(campaign_report_json(s), InternalError);
  s.sites[0] = {std::string(kSiteQueryBudget), 4, 3, 2, 1, 2};
  EXPECT_NO_THROW(campaign_report_json(s));
}

TEST(FaultScope, DisabledByDefault) {
  EXPECT_FALSE(enabled());
  const Shot s = evaluate(kSiteQueryBudget);
  EXPECT_FALSE(s.fire);
}

TEST(FaultScope, EnabledOnlyWithinScope) {
  {
    InjectionScope scope(Spec{std::string(kSiteQueryBudget), 1, 0, 1});
    EXPECT_TRUE(enabled());
  }
  EXPECT_FALSE(enabled());
}

TEST(FaultScope, FiresOnTriggerForCountEvaluations) {
  Spec spec{std::string(kSiteQueryBudget), 42, /*trigger=*/2, /*count=*/2};
  InjectionScope scope(spec);
  EXPECT_FALSE(evaluate(kSiteQueryBudget).fire);  // evaluation 0
  EXPECT_FALSE(evaluate(kSiteQueryBudget).fire);  // evaluation 1
  EXPECT_TRUE(evaluate(kSiteQueryBudget).fire);   // evaluation 2: trigger
  EXPECT_TRUE(evaluate(kSiteQueryBudget).fire);   // evaluation 3: count=2
  EXPECT_FALSE(evaluate(kSiteQueryBudget).fire);  // one-shot window over
  EXPECT_EQ(scope.fired(kSiteQueryBudget), 2u);
  EXPECT_EQ(scope.evaluations(kSiteQueryBudget), 5u);
  EXPECT_EQ(scope.total_fired(), 2u);
}

TEST(FaultScope, OtherSitesUnaffected) {
  InjectionScope scope(Spec{std::string(kSiteQueryBudget), 42, 0, 1});
  EXPECT_FALSE(evaluate(kSiteWorkerSlice).fire);
  EXPECT_TRUE(evaluate(kSiteQueryBudget).fire);
  EXPECT_EQ(scope.fired(kSiteWorkerSlice), 0u);
}

TEST(FaultScope, PayloadIsDeterministicInSeed) {
  std::vector<std::uint64_t> first, second;
  for (int round = 0; round < 2; ++round) {
    InjectionScope scope(Spec{std::string(kSiteQueryBudget), 1234, 0, 3});
    for (int i = 0; i < 3; ++i) {
      const Shot s = evaluate(kSiteQueryBudget);
      ASSERT_TRUE(s.fire);
      (round == 0 ? first : second).push_back(s.payload);
    }
  }
  EXPECT_EQ(first, second);

  // A different seed yields different payload bits.
  InjectionScope scope(Spec{std::string(kSiteQueryBudget), 1235, 0, 1});
  EXPECT_NE(evaluate(kSiteQueryBudget).payload, first[0]);
}

TEST(FaultScope, MultipleSpecsArmIndependently) {
  std::vector<Spec> specs;
  specs.push_back(Spec{std::string(kSiteQueryBudget), 7, 0, 1});
  specs.push_back(Spec{std::string(kSiteWorkerSlice), 8, 1, 1});
  InjectionScope scope(specs);
  EXPECT_TRUE(evaluate(kSiteQueryBudget).fire);
  EXPECT_FALSE(evaluate(kSiteWorkerSlice).fire);  // trigger 1: not yet
  EXPECT_TRUE(evaluate(kSiteWorkerSlice).fire);
  EXPECT_EQ(scope.total_fired(), 2u);
}

TEST(FaultScope, NestingThrows) {
  InjectionScope outer(Spec{std::string(kSiteQueryBudget), 1, 0, 1});
  EXPECT_THROW(InjectionScope inner(Spec{std::string(kSiteWorkerSlice), 1, 0, 1}),
               InternalError);
  // The failed construction must not tear down the outer scope.
  EXPECT_TRUE(enabled());
}

TEST(FaultScope, UnknownSiteThrows) {
  EXPECT_THROW(InjectionScope scope(Spec{"no.such.site", 1, 0, 1}), InvalidArgument);
  EXPECT_FALSE(enabled());
}

TEST(FaultPrimitives, FlipBitChangesExactlyOneBit) {
  for (std::uint64_t payload : {0ull, 1ull, 77ull, 0xdeadbeefull}) {
    std::uint8_t buf[16] = {0};
    flip_bit(buf, sizeof(buf), payload);
    int ones = 0;
    for (std::uint8_t b : buf) {
      while (b != 0) {
        ones += b & 1;
        b >>= 1;
      }
    }
    EXPECT_EQ(ones, 1) << "payload " << payload;
  }
  // Empty range: defined no-op.
  flip_bit(nullptr, 0, 123);
}

TEST(FaultPrimitives, MixIsDeterministicAndSpreads) {
  EXPECT_EQ(mix(1), mix(1));
  EXPECT_NE(mix(1), mix(2));
  EXPECT_NE(mix(0), 0u);
}

// engine.shard.slice end to end: a dead (query, shard) slice is rerun once
// (masked, all kOk) and, when the rerun dies too, answered by the exact
// brute-force shard scan flagged kDegradedFallback. Either way the neighbor
// lists are bit-identical to the fault-free run.
TEST(ShardSliceFault, RerunMasksThenBruteForceFlags) {
  const PointSet data = test::small_clustered(3, 400, 2024);
  const PointSet queries = test::random_queries(3, 6, 2025);
  shard::ShardedEngineOptions opts;
  opts.num_shards = 4;
  opts.engine.gpu.k = 6;
  opts.engine.num_threads = 1;  // deterministic slice-evaluation order
  shard::ShardedEngine eng(data, opts);
  const knn::BatchResult clean = eng.run(queries);
  ASSERT_TRUE(clean.all_ok());

  const auto expect_same = [&](const knn::BatchResult& got, const char* label) {
    ASSERT_EQ(got.queries.size(), clean.queries.size()) << label;
    for (std::size_t q = 0; q < clean.queries.size(); ++q) {
      const auto& want = clean.queries[q].neighbors;
      const auto& have = got.queries[q].neighbors;
      ASSERT_EQ(have.size(), want.size()) << label << " query " << q;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(have[i].id, want[i].id) << label << " query " << q;
        EXPECT_EQ(have[i].dist, want[i].dist) << label << " query " << q;
      }
    }
  };

  {
    // One-shot death: the rerun sees a clean slice and masks the fault.
    InjectionScope scope(Spec{std::string(kSiteShardSlice), 99, /*trigger=*/2, /*count=*/1});
    const knn::BatchResult got = eng.run(queries);
    EXPECT_EQ(scope.fired(kSiteShardSlice), 1u);
    EXPECT_TRUE(got.all_ok()) << "rerun should mask a one-shot slice death";
    expect_same(got, "masked");
  }
  {
    // Double death: the rerun dies too, forcing the flagged exact fallback.
    InjectionScope scope(Spec{std::string(kSiteShardSlice), 99, /*trigger=*/2, /*count=*/2});
    const knn::BatchResult got = eng.run(queries);
    EXPECT_EQ(scope.fired(kSiteShardSlice), 2u);
    EXPECT_FALSE(got.all_ok()) << "double slice death must surface a degraded status";
    bool degraded = false;
    for (const auto& q : got.queries) {
      degraded |= q.status == knn::QueryStatus::kDegradedFallback;
    }
    EXPECT_TRUE(degraded);
    expect_same(got, "brute fallback");
  }
}

// engine.stream.flush end to end: a killed flush dispatch is retried once
// (masked — clean answers, only the retry counter moves) and, when the retry
// is killed too, the cohort is answered by the exact per-query brute-force
// scan flagged kDegradedFallback. In both cases every answer stays
// bit-identical to the fault-free run: never unflagged-wrong.
TEST(StreamFlushFault, RetryMasksThenBruteForceFlags) {
  const PointSet data = test::small_clustered(3, 300, 4041);
  const PointSet queries = test::random_queries(3, 12, 4042);
  serve::ArrivalStream stream;
  stream.queries = PointSet(3);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    stream.queries.append(queries[i]);
    stream.time_us.push_back(i * 500);
  }

  const sstree::BuildOutput built = sstree::build_kmeans(data, 12, {});
  serve::StreamingOptions so;
  so.engine.gpu.k = 6;
  so.engine.num_threads = 1;
  so.buffer_capacity = 4;
  so.engine.warp_queries = 4;
  so.deadline_us = 1'000'000'000;  // no deadline interference: only the fault flags
  so.admission_queue_bound = 0;
  so.cell_bits = 2;

  serve::StreamingEngine clean_eng(built.tree, so);
  const serve::StreamingReport clean = clean_eng.run(stream);
  ASSERT_EQ(clean.answered, stream.size());
  ASSERT_EQ(clean.degraded, 0u);

  const auto expect_same = [&](const serve::StreamingReport& got, const char* label) {
    ASSERT_EQ(got.queries.size(), clean.queries.size()) << label;
    for (std::size_t q = 0; q < clean.queries.size(); ++q) {
      const auto& want = clean.queries[q].neighbors;
      const auto& have = got.queries[q].neighbors;
      ASSERT_EQ(have.size(), want.size()) << label << " query " << q;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(have[i].id, want[i].id) << label << " query " << q;
        EXPECT_EQ(have[i].dist, want[i].dist) << label << " query " << q;
      }
    }
  };

  {
    // One-shot death: the second dispatch attempt sees a clean site — the
    // flush retries and the fault is masked (exact, unflagged, counted).
    InjectionScope scope(Spec{std::string(kSiteStreamFlush), 77, /*trigger=*/1, /*count=*/1});
    serve::StreamingEngine eng(built.tree, so);
    const serve::StreamingReport got = eng.run(stream);
    EXPECT_EQ(scope.fired(kSiteStreamFlush), 1u);
    EXPECT_EQ(got.flush_faults, 1u);
    EXPECT_EQ(got.flush_retries, 1u);
    EXPECT_EQ(got.flush_brute_forced, 0u);
    EXPECT_EQ(got.degraded, 0u) << "retry should mask a one-shot flush death";
    expect_same(got, "masked");
  }
  {
    // Double death: the retry dies too, forcing the flagged exact fallback
    // for that cohort only.
    InjectionScope scope(Spec{std::string(kSiteStreamFlush), 77, /*trigger=*/1, /*count=*/2});
    serve::StreamingEngine eng(built.tree, so);
    const serve::StreamingReport got = eng.run(stream);
    EXPECT_EQ(scope.fired(kSiteStreamFlush), 2u);
    EXPECT_EQ(got.flush_faults, 1u);
    EXPECT_EQ(got.flush_retries, 0u);
    EXPECT_EQ(got.flush_brute_forced, 1u);
    EXPECT_GT(got.degraded, 0u) << "double flush death must surface a degraded status";
    bool degraded = false;
    for (const auto& q : got.queries) {
      degraded |= q.status == knn::QueryStatus::kDegradedFallback;
    }
    EXPECT_TRUE(degraded);
    expect_same(got, "brute fallback");
  }
}

// engine.join.pair end to end: a killed cohort pair walk is rerun through
// the single-tree path (masked — exact, all statuses kOk) and, when the
// rerun leg dies too, the cohort is answered by the exact brute-force join
// flagged kDegradedFallback. Both legs stay bit-identical to the fault-free
// dual walk: never unflagged-wrong.
TEST(JoinPairFault, RerunMasksThenBruteForceFlags) {
  const PointSet data = test::small_clustered(3, 300, 5051);
  const sstree::BuildOutput built = sstree::build_kmeans(data, 16, {});

  join::JoinOptions jo;
  jo.k = 5;
  jo.engine.gpu.k = jo.k;
  jo.engine.num_threads = 1;

  join::JoinEngine clean_eng(built.tree, jo);
  const knn::BatchResult clean = clean_eng.all_knn();
  ASSERT_TRUE(clean.all_ok());

  const auto expect_same = [&](const knn::BatchResult& got, const char* label) {
    ASSERT_EQ(got.queries.size(), clean.queries.size()) << label;
    for (std::size_t q = 0; q < clean.queries.size(); ++q) {
      const auto& want = clean.queries[q].neighbors;
      const auto& have = got.queries[q].neighbors;
      ASSERT_EQ(have.size(), want.size()) << label << " query " << q;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(have[i].id, want[i].id) << label << " query " << q;
        EXPECT_EQ(have[i].dist, want[i].dist) << label << " query " << q;
      }
    }
  };

  {
    // One-shot death: the single-tree rerun sees a quiet site and masks the
    // fault — exact answers, every status still kOk.
    InjectionScope scope(Spec{std::string(kSiteJoinPair), 31, /*trigger=*/1, /*count=*/1});
    join::JoinEngine eng(built.tree, jo);
    const knn::BatchResult got = eng.all_knn();
    EXPECT_EQ(scope.fired(kSiteJoinPair), 1u);
    EXPECT_TRUE(got.all_ok()) << "single-tree rerun should mask a one-shot pair death";
    expect_same(got, "masked");
  }
  {
    // Double death: the rerun leg dies too, forcing the flagged exact
    // brute-force join for that cohort only.
    InjectionScope scope(Spec{std::string(kSiteJoinPair), 31, /*trigger=*/1, /*count=*/2});
    join::JoinEngine eng(built.tree, jo);
    const knn::BatchResult got = eng.all_knn();
    EXPECT_EQ(scope.fired(kSiteJoinPair), 2u);
    EXPECT_FALSE(got.all_ok()) << "double pair death must surface a degraded status";
    bool degraded = false;
    for (const auto& q : got.queries) {
      degraded |= q.status == knn::QueryStatus::kDegradedFallback;
    }
    EXPECT_TRUE(degraded);
    expect_same(got, "brute fallback");
  }
}

// The per-pass degradation ladder of both query engines, pinned rung by
// rung: one armed site per case, single-threaded over the snapshot layout.
// Each case checks the exact registry delta of every ladder counter (a
// counter the engine must not export stays absent), every query's status,
// and that every answer — flagged or not — equals the exhaustive scan.
struct LadderCase {
  std::string_view site;
  std::uint64_t trigger;
  std::uint64_t count;
  /// Nonzero ladder-counter deltas, "name=value" sorted by name.
  std::string counters;
  /// One letter per query: '.' kOk, 'D' kDegradedFallback, 'P' kDeadlinePartial.
  std::string statuses;
};

bool is_ladder_counter(std::string_view name) {
  static constexpr std::string_view kShardRungs[] = {
      "engine.shard.slice_deaths",     "engine.shard.slice_reruns",
      "engine.shard.slice_brute_fallbacks",
      "engine.shard.data_faults",      "engine.shard.retries",
      "engine.shard.brute_fallbacks",  "engine.shard.budget_exhausted",
      "engine.shard.resume_faults",    "engine.shard.resume_reruns",
      "engine.shard.resume_brute_fallbacks",
  };
  if (name.starts_with("engine.fault.")) return true;
  return std::find(std::begin(kShardRungs), std::end(kShardRungs), name) !=
         std::end(kShardRungs);
}

std::map<std::string, std::uint64_t> ladder_counters() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] : obs::Registry::global().snapshot().counters) {
    if (is_ladder_counter(name)) out[name] = value;
  }
  return out;
}

template <typename RunFn>
void expect_ladder(RunFn&& run, const knn::BatchResult& truth, const LadderCase& c) {
  SCOPED_TRACE(std::string(c.site) + " count " + std::to_string(c.count));
  const std::map<std::string, std::uint64_t> before = ladder_counters();
  knn::BatchResult got;
  {
    InjectionScope scope(Spec{std::string(c.site), 41, c.trigger, c.count});
    got = run();
    EXPECT_EQ(scope.fired(c.site), c.count);
  }
  std::string counters;
  for (const auto& [name, value] : ladder_counters()) {
    const auto it = before.find(name);
    const std::uint64_t delta = value - (it == before.end() ? 0 : it->second);
    if (delta == 0) continue;
    if (!counters.empty()) counters += ' ';
    counters += name + "=" + std::to_string(delta);
  }
  EXPECT_EQ(counters, c.counters);

  std::string statuses;
  for (const knn::QueryResult& q : got.queries) {
    statuses += q.status == knn::QueryStatus::kOk                 ? '.'
                : q.status == knn::QueryStatus::kDegradedFallback ? 'D'
                                                                  : 'P';
  }
  EXPECT_EQ(statuses, c.statuses);

  ASSERT_EQ(got.queries.size(), truth.queries.size());
  for (std::size_t q = 0; q < truth.queries.size(); ++q) {
    const auto& want = truth.queries[q].neighbors;
    const auto& have = got.queries[q].neighbors;
    ASSERT_EQ(have.size(), want.size()) << "query " << q;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(have[i].id, want[i].id) << "query " << q << " rank " << i;
      EXPECT_EQ(have[i].dist, want[i].dist) << "query " << q << " rank " << i;
    }
  }
}

struct LadderWorkload {
  PointSet data = test::small_clustered(3, 400, 6061);
  PointSet queries = test::random_queries(3, 8, 6062);
  knn::BatchResult truth;

  LadderWorkload() {
    knn::GpuKnnOptions ref;
    ref.k = 5;
    truth = knn::brute_force_batch(data, queries, ref);
  }

  engine::BatchEngineOptions engine_options(engine::Algorithm algo) const {
    engine::BatchEngineOptions eo;
    eo.algorithm = algo;
    eo.gpu.k = 5;
    eo.layout = engine::NodeLayout::kSnapshot;
    eo.num_threads = 1;
    return eo;
  }
};

void run_batch_ladder(engine::Algorithm algo, const std::vector<LadderCase>& cases) {
  const LadderWorkload w;
  const sstree::BuildOutput built = sstree::build_kmeans(w.data, 8, {});
  const engine::BatchEngine eng(built.tree, w.engine_options(algo));
  ASSERT_TRUE(eng.run(w.queries).all_ok());
  for (const LadderCase& c : cases) expect_ladder([&] { return eng.run(w.queries); }, w.truth, c);
}

void run_sharded_ladder(engine::Algorithm algo, const std::vector<LadderCase>& cases) {
  const LadderWorkload w;
  shard::ShardedEngineOptions so;
  so.num_shards = 4;
  so.degree = 8;
  so.engine = w.engine_options(algo);
  shard::ShardedEngine eng(w.data, so);
  ASSERT_TRUE(eng.run(w.queries).all_ok());
  for (const LadderCase& c : cases) expect_ladder([&] { return eng.run(w.queries); }, w.truth, c);
}

TEST(EngineLadder, BatchEnginePsb) {
  run_batch_ladder(engine::Algorithm::kPsb, {
      {kSiteNodeBoundsBitflip, 40, 1,
       "engine.fault.data_faults=1 engine.fault.retries=1", ".D......"},
      {kSiteNodeBoundsBitflip, 40, 2,
       "engine.fault.brute_fallbacks=1 engine.fault.data_faults=1", ".D......"},
      {kSiteQueryBudget, 3, 1,
       "engine.fault.brute_fallbacks=1 engine.fault.budget_exhausted=1 "
       "engine.fault.budget_injected=1",
       "...D...."},
      {kSiteQueryBudget, 3, 2,
       "engine.fault.brute_fallbacks=2 engine.fault.budget_exhausted=2 "
       "engine.fault.budget_injected=2",
       "...DD..."},
      {kSiteExecResume, 2, 1,
       "engine.fault.resume_faults=1", "........"},
      {kSiteExecResume, 2, 2,
       "engine.fault.brute_fallbacks=1 engine.fault.resume_faults=1", "..D....."},
  });
}

TEST(EngineLadder, BatchEngineStacklessSkip) {
  run_batch_ladder(engine::Algorithm::kStacklessSkip, {
      {kSiteNodeBoundsBitflip, 40, 1,
       "engine.fault.data_faults=1 engine.fault.retries=1", "D......."},
      {kSiteNodeBoundsBitflip, 40, 2,
       "engine.fault.brute_fallbacks=1 engine.fault.data_faults=1", "D......."},
      {kSiteQueryBudget, 3, 1,
       "engine.fault.brute_fallbacks=1 engine.fault.budget_exhausted=1 "
       "engine.fault.budget_injected=1",
       "...D...."},
      {kSiteQueryBudget, 3, 2,
       "engine.fault.brute_fallbacks=2 engine.fault.budget_exhausted=2 "
       "engine.fault.budget_injected=2",
       "...DD..."},
      {kSiteExecResume, 30, 1,
       "engine.fault.resume_faults=1", "........"},
      {kSiteExecResume, 30, 2,
       "engine.fault.brute_fallbacks=1 engine.fault.resume_faults=1", "D......."},
  });
}

TEST(EngineLadder, ShardedEnginePsb) {
  run_sharded_ladder(engine::Algorithm::kPsb, {
      {kSiteNodeBoundsBitflip, 40, 1,
       "engine.shard.data_faults=1 engine.shard.retries=1", ".D......"},
      {kSiteNodeBoundsBitflip, 40, 2,
       "engine.shard.brute_fallbacks=1 engine.shard.data_faults=1", ".D......"},
      {kSiteQueryBudget, 3, 1,
       "engine.shard.brute_fallbacks=1 engine.shard.budget_exhausted=1", ".D......"},
      {kSiteQueryBudget, 3, 2,
       "engine.shard.brute_fallbacks=2 engine.shard.budget_exhausted=2", ".D......"},
      {kSiteExecResume, 2, 1,
       "engine.shard.resume_faults=1 engine.shard.resume_reruns=1", "........"},
      {kSiteExecResume, 2, 2,
       "engine.shard.resume_brute_fallbacks=1 engine.shard.resume_faults=1", "D......."},
      {kSiteShardSlice, 3, 1,
       "engine.shard.slice_deaths=1 engine.shard.slice_reruns=1", "........"},
      {kSiteShardSlice, 3, 2,
       "engine.shard.slice_brute_fallbacks=1 engine.shard.slice_deaths=1", ".D......"},
  });
}

TEST(EngineLadder, ShardedEngineStacklessSkip) {
  run_sharded_ladder(engine::Algorithm::kStacklessSkip, {
      {kSiteNodeBoundsBitflip, 40, 1,
       "engine.shard.data_faults=1 engine.shard.retries=1", "D......."},
      {kSiteNodeBoundsBitflip, 40, 2,
       "engine.shard.brute_fallbacks=1 engine.shard.data_faults=1", "D......."},
      {kSiteQueryBudget, 3, 1,
       "engine.shard.brute_fallbacks=1 engine.shard.budget_exhausted=1", ".D......"},
      {kSiteQueryBudget, 3, 2,
       "engine.shard.brute_fallbacks=2 engine.shard.budget_exhausted=2", ".D......"},
      {kSiteExecResume, 30, 1,
       "engine.shard.resume_faults=1 engine.shard.resume_reruns=1", "........"},
      {kSiteExecResume, 30, 2,
       "engine.shard.resume_brute_fallbacks=1 engine.shard.resume_faults=1", "..D....."},
      {kSiteShardSlice, 3, 1,
       "engine.shard.slice_deaths=1 engine.shard.slice_reruns=1", "........"},
      {kSiteShardSlice, 3, 2,
       "engine.shard.slice_brute_fallbacks=1 engine.shard.slice_deaths=1", ".D......"},
  });
}

}  // namespace
}  // namespace psb::fault
