// Unit tests of the benchmark's own measurement rules: the tail percentile,
// open-loop due-time accounting, span self time, and the rate ladder.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(TailPercentile, IsP99WithAThousandSamples) {
  const pb::Tail t = pb::tail(ramp(1000));
  EXPECT_DOUBLE_EQ(t.percentile, 99.0);
  EXPECT_DOUBLE_EQ(t.value, 990.0);  // 10 samples (991..1000) lie beyond it.
  EXPECT_EQ(t.count, 1000u);
}

TEST(TailPercentile, FallsBackToKeepTenSamplesBeyond) {
  const pb::Tail t = pb::tail(ramp(600));
  EXPECT_DOUBLE_EQ(t.value, 590.0);
  EXPECT_NEAR(t.percentile, 100.0 * 590.0 / 600.0, 1e-12);
}

TEST(TailPercentile, LargeSamplesStayAtP99) {
  const pb::Tail t = pb::tail(ramp(5000));
  EXPECT_DOUBLE_EQ(t.value, 4950.0);
  EXPECT_DOUBLE_EQ(t.percentile, 99.0);
}

TEST(TailPercentile, TinySamplesReportTheMaximum) {
  const pb::Tail t = pb::tail({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(t.value, 3.0);
  EXPECT_DOUBLE_EQ(t.percentile, 100.0);
  EXPECT_DOUBLE_EQ(pb::tail({}).value, 0.0);
}

TEST(TailPercentile, IgnoresInputOrder) {
  std::vector<double> v = ramp(1000);
  std::reverse(v.begin(), v.end());
  EXPECT_DOUBLE_EQ(pb::tail(v).value, 990.0);
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(pb::median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(pb::median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(pb::median({}), 0.0);
}

TEST(TailPercentile, CountsTheSamplesBeyondIt) {
  EXPECT_EQ(pb::tail(ramp(1000)).beyond, 10u);
  EXPECT_EQ(pb::tail(ramp(5000)).beyond, 50u);
  EXPECT_EQ(pb::tail(ramp(600)).beyond, 10u);
  EXPECT_EQ(pb::tail({3.0, 1.0, 2.0}).beyond, 0u);
}

TEST(TailPercentile, AStallInOneStretchOfTheRunMovesIt) {
  // A rare event (e.g. a stats() snapshot copying a long history) delays
  // 20 consecutive requests of 1000: the tail of the whole run shows it.
  std::vector<double> v(1000, 50.0);
  for (std::size_t i = 700; i < 720; ++i) v[i] = 5000.0;
  EXPECT_DOUBLE_EQ(pb::tail(v).value, 5000.0);
  EXPECT_DOUBLE_EQ(pb::median(v), 50.0);
}

TEST(DueTime, LatencyCountsFromTheDueTime) {
  // The generator stalled: the request was due at 100 us, sent at 400 us and
  // observed at 900 us. Its latency includes the 300 us it waited to be sent.
  const pb::DueRecord r{100.0, 400.0, 900.0};
  EXPECT_DOUBLE_EQ(r.latency_us(), 800.0);
  EXPECT_DOUBLE_EQ(r.lateness_us(), 300.0);
}

TEST(DueTime, PoissonScheduleIsSeededAndOffersExactlyTheStatedLoad) {
  pb::SplitMix a(42), b(42), c(43);
  const auto sa = pb::poisson_schedule(1000.0, 10.0, a);
  const auto sb = pb::poisson_schedule(1000.0, 10.0, b);
  const auto sc = pb::poisson_schedule(1000.0, 10.0, c);
  EXPECT_EQ(sa, sb);
  EXPECT_NE(sa, sc);
  EXPECT_EQ(sa.size(), 10000u);
  for (std::size_t i = 1; i < sa.size(); ++i) EXPECT_GT(sa[i], sa[i - 1]);
  EXPECT_LT(sa.back(), 10e6);
  EXPECT_GE(sa.front(), 0.0);
  // Gaps are exponential with the stated mean: about 63% are shorter than it.
  std::size_t short_gaps = 0;
  for (std::size_t i = 1; i < sa.size(); ++i) short_gaps += sa[i] - sa[i - 1] < 1000.0;
  EXPECT_NEAR(static_cast<double>(short_gaps) / static_cast<double>(sa.size()),
              1.0 - std::exp(-1.0), 0.02);
}

TEST(Ladder, FlatBacklogDoesNotGrow) {
  std::vector<std::size_t> v;
  for (std::size_t i = 0; i < 400; ++i) v.push_back(i % 5);  // Fluctuates 0..4.
  EXPECT_FALSE(pb::backlog_growing(v));
}

TEST(Ladder, RampingBacklogGrows) {
  std::vector<std::size_t> v;
  for (std::size_t i = 0; i < 400; ++i) v.push_back(1 + i / 10);
  EXPECT_TRUE(pb::backlog_growing(v));
}

TEST(Ladder, SmallAbsoluteWobbleIsNotGrowth) {
  // Doubles from 1 to 2 requests: below the slack, so not a growing queue.
  std::vector<std::size_t> v(100, 1);
  v.insert(v.end(), 100, 2);
  EXPECT_FALSE(pb::backlog_growing(v));
  EXPECT_FALSE(pb::backlog_growing({}));
}

TEST(Ladder, RungPassRule) {
  EXPECT_TRUE(pb::rung_passes(100.0, 100.0, false));
  EXPECT_FALSE(pb::rung_passes(100.1, 100.0, false));
  EXPECT_FALSE(pb::rung_passes(50.0, 100.0, true));
}

TEST(Ladder, RungsAreAtLeastTenPercentApart) {
  EXPECT_DOUBLE_EQ(pb::rung_rate(40.0, 1.15, 0), 40.0);
  EXPECT_NEAR(pb::rung_rate(40.0, 1.15, 2) / pb::rung_rate(40.0, 1.15, 1), 1.15, 1e-12);
  EXPECT_NEAR(pb::rung_rate(40.0, 1.15, -1), 40.0 / 1.15, 1e-12);
}

TEST(Ladder, WalkClimbsToTheLastPassingRung) {
  std::vector<int> visited;
  const int best = pb::ladder_walk(0, -5, 6, [&](int k) {
    visited.push_back(k);
    return k <= 2;
  });
  EXPECT_EQ(best, 2);
  EXPECT_EQ(visited, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(pb::ladder_walk(0, -5, 3, [](int) { return true; }), 3);
}

TEST(Ladder, WalkDescendsWhenTheStartRungFails) {
  EXPECT_EQ(pb::ladder_walk(0, -5, 6, [](int k) { return k <= -3; }), -3);
  EXPECT_EQ(pb::ladder_walk(0, -5, 6, [](int) { return false; }), -6);
}

TEST(Ladder, StartRungOnlySavesTime) {
  const auto rule = [](int k) { return k <= 4; };
  for (int start = -5; start <= 6; ++start) {
    EXPECT_EQ(pb::ladder_walk(start, -5, 6, rule), 4) << "start " << start;
  }
}

pb::Span span(const char* name, std::int64_t a, std::int64_t b, std::int32_t parent) {
  pb::Span s;
  s.name = name;
  s.start_ns = a;
  s.end_ns = b;
  s.parent = parent;
  return s;
}

TEST(SpanSelfTime, SubtractsTheUnionOfChildren) {
  // Parent 0..10 us; children 1..4 and 3..6 overlap (union 1..6) and a
  // third child sticks out past the parent's end (clipped to 8..10).
  const std::vector<pb::Span> spans = {
      span("p", 0, 10000, pb::kNoParent), span("a", 1000, 4000, 0),
      span("b", 3000, 6000, 0), span("c", 8000, 12000, 0)};
  const std::vector<double> self = pb::self_times_us(spans);
  EXPECT_DOUBLE_EQ(self[0], 3.0);  // 10 - (5 + 2).
  EXPECT_DOUBLE_EQ(self[1], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 4.0);
}

TEST(SpanSelfTime, AggregatesByName) {
  const std::vector<pb::Span> spans = {
      span("req", 0, 10000, pb::kNoParent), span("gemm", 0, 6000, 0),
      span("req", 20000, 25000, pb::kNoParent), span("gemm", 20000, 21000, 2),
      span("open", 30000, 0, pb::kNoParent)};  // Never closed: ignored.
  const auto rows = pb::aggregate(spans);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].name, "req");
  EXPECT_EQ(rows[0].count, 2u);
  EXPECT_DOUBLE_EQ(rows[0].total_us, 15.0);
  EXPECT_DOUBLE_EQ(rows[0].self_us, 8.0);
  EXPECT_DOUBLE_EQ(rows[1].self_us, 7.0);
}

TEST(Tracer, RecordsIntoAFixedBufferAndWritesChromeJson) {
  pb::Tracer tracer(2);
  const char* outer = tracer.intern(std::string("out") + "er");  // Temporary source.
  const std::int32_t a = tracer.begin(outer);
  tracer.record("inner", pb::Tracer::now_ns(), pb::Tracer::now_ns() + 1000, a, 7);
  tracer.end(a);
  EXPECT_EQ(tracer.begin("dropped"), pb::kNoParent);
  EXPECT_EQ(tracer.dropped(), 1u);
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[1].parent, a);
  EXPECT_STREQ(tracer.spans()[0].name, "outer");

  const std::string path = ::testing::TempDir() + "perfbench_trace.json";
  ASSERT_TRUE(tracer.write_chrome_json(path));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.str().find("\"name\":\"inner\",\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.str().find("\"request\":7"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
