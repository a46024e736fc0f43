// Tests of the benchmark's own bookkeeping: the per-answer unit, span self
// times, the percentile sample-count rule and the oracle's failure tally.
#include <gtest/gtest.h>

#include "bench_logic.hpp"
#include "simt/cost_model.hpp"

namespace {

using perfbench::FailTally;
using perfbench::Span;
using perfbench::SpanRecorder;
using Entry = psb::KnnHeap::Entry;

TEST(PerAnswer, DividesModeledWallTimeByAnswers) {
  // 5.38 ms of modeled wall time over 100,000 answers is 0.0538 us/answer,
  // whatever the number of blocks (cohorts) the kernel was launched with.
  EXPECT_DOUBLE_EQ(perfbench::model_us_per_answer(5.38, 100000), 5.38 * 1000.0 / 100000.0);
  EXPECT_DOUBLE_EQ(perfbench::per_answer(1024.0, 32), 32.0);
  EXPECT_THROW(perfbench::per_answer(1.0, 0), std::invalid_argument);
}

TEST(PerAnswer, IgnoresPerCohortAmortization) {
  // A join launched with 10 cohort blocks reports avg_query_ms = wall / 10;
  // the benchmark's unit divides by answers instead.
  psb::simt::KernelTiming t;
  t.wall_ms = 40.0;
  t.avg_query_ms = t.wall_ms / 10;
  EXPECT_DOUBLE_EQ(perfbench::model_us_per_answer(t.wall_ms, 2000), 20.0);
  EXPECT_NE(perfbench::model_us_per_answer(t.wall_ms, 2000), t.avg_query_ms * 1000.0);
}

TEST(SelfTime, SubtractsChildrenFromParent) {
  SpanRecorder rec;
  const auto root = rec.begin_at("run", "bench", 0.0);
  const auto a = rec.begin_at("build", "sstree", 1.0);
  rec.end_at(a, 3.0);
  const auto b = rec.begin_at("run", "engine", 4.0);
  const auto c = rec.begin_at("inner", "knn", 5.0);
  rec.end_at(c, 5.5);
  rec.end_at(b, 7.0);
  rec.end_at(root, 10.0);

  const std::vector<double> self = perfbench::self_times(rec.spans());
  ASSERT_EQ(self.size(), 4u);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 2.0 - 3.0);  // root minus build and run
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0 - 0.5);  // grandchild counted once, in its parent
  EXPECT_DOUBLE_EQ(self[3], 0.5);
  EXPECT_EQ(rec.spans()[3].parent, b);

  // Per-layer self times sum to the root's duration.
  double sum = 0;
  for (const auto& [layer, s] : perfbench::layer_self_times(rec.spans())) sum += s;
  EXPECT_DOUBLE_EQ(sum, 10.0);
}

TEST(SelfTime, OverlappingChildrenAreCoveredOnce) {
  std::vector<Span> spans(3);
  spans[0] = {"p", "a", 1, 0, 0.0, 10.0};
  spans[1] = {"c1", "b", 2, 1, 1.0, 6.0};
  spans[2] = {"c2", "b", 3, 1, 4.0, 12.0};  // overlaps c1 and overruns the parent
  const std::vector<double> self = perfbench::self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 1.0);  // [1, 10) covered
}

TEST(SelfTime, ClosingOutOfOrderThrows) {
  SpanRecorder rec;
  const auto a = rec.begin_at("a", "x", 0);
  rec.begin_at("b", "x", 1);
  EXPECT_THROW(rec.end_at(a, 2), std::logic_error);
}

TEST(Percentile, NearestRank) {
  EXPECT_DOUBLE_EQ(perfbench::percentile({4, 1, 3, 2}, 50), 2);
  EXPECT_DOUBLE_EQ(perfbench::percentile({4, 1, 3, 2}, 100), 4);
  EXPECT_DOUBLE_EQ(perfbench::percentile({}, 50), 0);
}

TEST(Percentile, SampleCountRuleNeedsTenBeyond) {
  // p99 needs 1,000 samples; p90 needs 100; the median needs 20.
  EXPECT_TRUE(perfbench::percentile_reportable(99, 1000));
  EXPECT_FALSE(perfbench::percentile_reportable(99, 999));
  EXPECT_TRUE(perfbench::percentile_reportable(90, 100));
  EXPECT_FALSE(perfbench::percentile_reportable(90, 99));
  EXPECT_TRUE(perfbench::percentile_reportable(50, 20));
  EXPECT_FALSE(perfbench::percentile_reportable(50, 19));
  EXPECT_DOUBLE_EQ(perfbench::highest_reportable_percentile(19), 0);
  EXPECT_DOUBLE_EQ(perfbench::highest_reportable_percentile(75), 50);
  EXPECT_DOUBLE_EQ(perfbench::highest_reportable_percentile(250), 90);
  EXPECT_DOUBLE_EQ(perfbench::highest_reportable_percentile(4000), 99);
  EXPECT_DOUBLE_EQ(perfbench::highest_reportable_percentile(10000), 99.9);
}

TEST(Oracle, PerturbedAnswerFailsAndRaisesFailFrac) {
  const std::vector<Entry> want = {{1.0f, 7}, {2.0f, 3}, {2.0f, 9}};
  FailTally t;
  for (int i = 0; i < 3; ++i) {
    const bool m = perfbench::same_answer(want, want);
    t.record(true, false, true, &m);
  }
  EXPECT_EQ(t.failed, 0u);
  EXPECT_DOUBLE_EQ(t.fail_frac(), 0.0);

  std::vector<Entry> wrong_id = want;
  wrong_id[2].id = 10;
  std::vector<Entry> wrong_dist = want;
  wrong_dist[0].dist = std::nextafter(1.0f, 2.0f);  // one ULP off
  std::vector<Entry> short_list(want.begin(), want.end() - 1);
  for (const auto* got : {&wrong_id, &wrong_dist, &short_list}) {
    const bool m = perfbench::same_answer(*got, want);
    EXPECT_FALSE(m);
    t.record(true, false, true, &m);
  }
  EXPECT_EQ(t.oracle_checked, 6u);
  EXPECT_EQ(t.oracle_mismatches, 3u);
  EXPECT_EQ(t.failed, 3u);
  EXPECT_DOUBLE_EQ(t.fail_frac(), 0.5);
}

TEST(Oracle, EachFailedAnswerCountsOnce) {
  FailTally t;
  const bool mismatch = false;
  t.record(true, false, false, &mismatch);  // non-kOk and wrong: one failure
  t.record(false, true, false, nullptr);    // shed
  t.record(false, false, true, nullptr);    // never answered
  t.record(true, false, true, nullptr);     // fine, not sampled
  EXPECT_EQ(t.attempted, 4u);
  EXPECT_EQ(t.failed, 3u);
  EXPECT_EQ(t.not_ok, 1u);
  EXPECT_EQ(t.shed, 1u);
  EXPECT_EQ(t.unanswered, 1u);
  EXPECT_DOUBLE_EQ(t.fail_frac(), 0.75);
}

}  // namespace
