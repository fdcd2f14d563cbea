// Tests of the benchmark's own logic: the paced source's schedule, the
// percentile rule and the ledger's self-time computation.
#include <gtest/gtest.h>

#include "bench_logic.hpp"

namespace perfbench {
namespace {

TEST(PacedSchedule, DueTimesSpreadStreamsOverOnePeriod) {
  const PacedSchedule s{5.0, 4};
  EXPECT_DOUBLE_EQ(s.due_s(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(s.due_s(1, 0), 0.05);
  EXPECT_DOUBLE_EQ(s.due_s(3, 0), 0.15);
  EXPECT_DOUBLE_EQ(s.due_s(0, 1), 0.2);
  EXPECT_DOUBLE_EQ(s.due_s(2, 10), 2.1);
  // Aggregate arrivals are evenly spaced at streams * fps.
  for (int k = 0; k < 3; ++k)
    for (int stream = 0; stream < 4; ++stream) {
      const int arrival = k * 4 + stream;
      EXPECT_NEAR(s.due_s(stream, k), arrival / 20.0, 1e-12);
    }
}

TEST(PacedSchedule, LatenessIsZeroWhenEarlyAndTheOverrunWhenLate) {
  const PacedSchedule s{10.0, 1};
  EXPECT_DOUBLE_EQ(s.lateness_s(0, 3, 0.1), 0.0);   // pulled early: waits
  EXPECT_DOUBLE_EQ(s.lateness_s(0, 3, 0.3), 0.0);   // exactly on time
  EXPECT_NEAR(s.lateness_s(0, 3, 0.45), 0.15, 1e-12);
}

TEST(Percentile, HighestPercentileKeepsTenSamplesBeyondIt) {
  EXPECT_EQ(highest_supported_percentile(9), 0.0);
  EXPECT_EQ(highest_supported_percentile(20), 50.0);
  EXPECT_EQ(highest_supported_percentile(99), 50.0);
  EXPECT_EQ(highest_supported_percentile(100), 90.0);
  EXPECT_EQ(highest_supported_percentile(999), 90.0);
  EXPECT_EQ(highest_supported_percentile(1000), 99.0);
  EXPECT_EQ(highest_supported_percentile(10000), 99.9);
  EXPECT_EQ(highest_supported_percentile(500, 5), 99.0);
}

TEST(Percentile, QuantileInterpolatesBetweenRanks) {
  EXPECT_DOUBLE_EQ(quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0, 4.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({0.0, 10.0}, 0.9), 9.0);
  EXPECT_DOUBLE_EQ(quantile({7.0}, 0.9), 7.0);
  EXPECT_THROW((void)quantile({}, 0.5), std::invalid_argument);
}

avd::obs::SpanRecord span(const char* name, std::uint64_t id,
                          std::uint64_t parent, std::uint64_t begin,
                          std::uint64_t end) {
  avd::obs::SpanRecord s;
  s.name = name;
  s.source = "test";
  s.span_id = id;
  s.parent_span_id = parent;
  s.begin_ns = begin;
  s.end_ns = end;
  s.trace_id = 1;
  return s;
}

TEST(Ledger, CoveredCountsOverlapsOnceAndClipsToTheParent) {
  EXPECT_EQ(covered_ns(0, 100, {}), 0u);
  EXPECT_EQ(covered_ns(0, 100, {{10, 20}, {15, 30}, {50, 60}}), 30u);
  EXPECT_EQ(covered_ns(10, 50, {{0, 20}, {40, 90}}), 20u);
  EXPECT_EQ(covered_ns(0, 100, {{20, 40}, {20, 40}, {25, 30}}), 20u);
}

TEST(Ledger, SelfTimeIsTheSpanMinusWhatItsChildrenCover) {
  // frame [0,100) has children control [0,10) and detect [10,90); detect
  // has two children on different threads that overlap: [20,60) and
  // [40,80). Grandchildren count only against their own parent.
  const std::vector<avd::obs::SpanRecord> spans = {
      span("frame", 1, 0, 0, 100),  span("control", 2, 1, 0, 10),
      span("detect", 3, 1, 10, 90), span("band", 4, 3, 20, 60),
      span("band", 5, 3, 40, 80),
  };
  const auto self = self_times_ns(spans);
  EXPECT_EQ(self.at(1), 10u);  // 100 - (10 + 80)
  EXPECT_EQ(self.at(2), 10u);  // leaf
  EXPECT_EQ(self.at(3), 20u);  // 80 - union [20,80)
  EXPECT_EQ(self.at(4), 40u);
  EXPECT_EQ(self.at(5), 40u);

  const auto by_name = aggregate_by_name(spans);
  EXPECT_EQ(by_name.at("band").count, 2u);
  EXPECT_DOUBLE_EQ(by_name.at("band").total_ms, 80e-6);
  EXPECT_DOUBLE_EQ(by_name.at("detect").self_ms, 20e-6);
  EXPECT_DOUBLE_EQ(by_name.at("frame").self_ms, 10e-6);
}

}  // namespace
}  // namespace perfbench
