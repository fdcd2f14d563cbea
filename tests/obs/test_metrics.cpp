// Counter/Gauge/Histogram semantics, registry identity, and the JSON +
// Prometheus expositions (round-tripped through the obs::json parser).
#include "avd/obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "avd/obs/json.hpp"

namespace avd::obs {
namespace {

TEST(Counter, IncrementsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, ConcurrentIncrementsAllLand) {
  Counter c;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.inc();
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Gauge, SetAddReset) {
  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Gauge, ConcurrentAddsAllLand) {
  Gauge g;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&g] {
      for (int i = 0; i < kPerThread; ++i) g.add(1.0);
    });
  for (std::thread& t : threads) t.join();
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kThreads) * kPerThread);
}

TEST(Histogram, LinearBinsAreExact) {
  Histogram h;
  for (std::uint64_t v = 0; v < Histogram::kLinearBins; ++v) {
    EXPECT_EQ(Histogram::bin_index(v), static_cast<int>(v));
    EXPECT_EQ(Histogram::bin_value(static_cast<int>(v)), v);
  }
}

TEST(Histogram, BinRelativeErrorBounded) {
  // Log-linear promise: the representative value of a bin is within ~7 %
  // of anything that maps into it.
  for (std::uint64_t v : {100ull, 1'000ull, 123'456ull, 7'000'000ull,
                          1'000'000'000ull, 987'654'321'000ull}) {
    const int idx = Histogram::bin_index(v);
    const double rep = static_cast<double>(Histogram::bin_value(idx));
    const double rel = std::abs(rep - static_cast<double>(v)) / static_cast<double>(v);
    EXPECT_LT(rel, 0.07) << "value " << v << " rep " << rep;
  }
}

TEST(Histogram, BinIndexIsMonotonic) {
  int prev = -1;
  for (std::uint64_t v = 0; v < 4096; ++v) {
    const int idx = Histogram::bin_index(v);
    EXPECT_GE(idx, prev);
    prev = idx;
  }
}

TEST(Histogram, CountSumMeanMax) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean_ns(), 0.0);
  EXPECT_EQ(h.percentile_ns(0.5), 0u);
  h.record_ns(10);
  h.record_ns(20);
  h.record_ns(30);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum_ns(), 60u);
  EXPECT_DOUBLE_EQ(h.mean_ns(), 20.0);
  EXPECT_EQ(h.max_ns(), 30u);
  h.record(std::chrono::nanoseconds(-5));  // clamped to 0
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum_ns(), 60u);
}

TEST(Histogram, PercentilesOrderedAndPlausible) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record_ns(v * 1000);
  const std::uint64_t p50 = h.percentile_ns(0.50);
  const std::uint64_t p95 = h.percentile_ns(0.95);
  const std::uint64_t p99 = h.percentile_ns(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // True p50 = 500µs, p99 = 990µs; allow the ~7 % bin error.
  EXPECT_NEAR(static_cast<double>(p50), 500'000.0, 0.1 * 500'000.0);
  EXPECT_NEAR(static_cast<double>(p99), 990'000.0, 0.1 * 990'000.0);
  const HistogramSummary s = h.summary();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.p50_ns, p50);
  EXPECT_EQ(s.p95_ns, p95);
  EXPECT_EQ(s.p99_ns, p99);
  EXPECT_EQ(s.max_ns, 1'000'000u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max_ns(), 0u);
  EXPECT_EQ(h.percentile_ns(0.99), 0u);
}

// The LatencyHistogram suite covers the same obs::Histogram the runtime's
// stage and frame latencies record into.
TEST(LatencyHistogram, SmallValuesAreExact) {
  Histogram h;
  for (std::uint64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(Histogram::bin_index(v), static_cast<int>(v));
    EXPECT_EQ(Histogram::bin_value(static_cast<int>(v)), v);
  }
  h.record_ns(7);
  EXPECT_EQ(h.percentile_ns(0.5), 7u);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max_ns(), 7u);
}

TEST(LatencyHistogram, BinValueStaysCloseToSample) {
  // Log-linear bins with 8 sub-buckets per octave: representative value
  // within ~7 % of any sample.
  for (std::uint64_t v : {20ull, 100ull, 1000ull, 123456ull, 9999999ull,
                          123456789ull, 55555555555ull}) {
    const int bin = Histogram::bin_index(v);
    const double rep = static_cast<double>(Histogram::bin_value(bin));
    const double rel = std::abs(rep - static_cast<double>(v)) /
                       static_cast<double>(v);
    EXPECT_LT(rel, 0.07) << "v=" << v << " rep=" << rep;
  }
}

TEST(LatencyHistogram, PercentilesOrderedAndBracketed) {
  Histogram h;
  // 100 samples: 1..100 microseconds.
  for (std::uint64_t i = 1; i <= 100; ++i) h.record_ns(i * 1000);
  const std::uint64_t p50 = h.percentile_ns(0.50);
  const std::uint64_t p95 = h.percentile_ns(0.95);
  const std::uint64_t p99 = h.percentile_ns(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Approximate but in the right neighbourhood.
  EXPECT_NEAR(static_cast<double>(p50), 50e3, 50e3 * 0.15);
  EXPECT_NEAR(static_cast<double>(p95), 95e3, 95e3 * 0.15);
  EXPECT_GE(h.max_ns(), 100000u);
  EXPECT_NEAR(h.mean_ns(), 50500.0, 1.0);
}

TEST(LatencyHistogram, EmptyHistogramIsZero) {
  Histogram h;
  EXPECT_EQ(h.percentile_ns(0.5), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean_ns(), 0.0);
}

TEST(LatencyHistogram, ConcurrentRecordingLosesNothing) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i)
        h.record_ns(static_cast<std::uint64_t>(i % 977) + 1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistry, SameNameSameObject) {
  MetricsRegistry reg;
  Counter& a = reg.counter("frames");
  Counter& b = reg.counter("frames");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1u);
  // Separate namespaces: a gauge named "frames" is a different object.
  Gauge& g = reg.gauge("frames");
  g.set(3.0);
  EXPECT_EQ(reg.counter("frames").value(), 1u);
}

TEST(MetricsRegistry, ResetValuesKeepsReferencesValid) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  Gauge& g = reg.gauge("g");
  Histogram& h = reg.histogram("h");
  c.inc(7);
  g.set(1.5);
  h.record_ns(100);
  reg.reset_values();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  // The same references still work after reset.
  c.inc();
  EXPECT_EQ(reg.counter("c").value(), 1u);
}

TEST(MetricsRegistry, JsonRoundTripsThroughParser) {
  MetricsRegistry reg;
  reg.counter("detect.frames").inc(12);
  reg.gauge("soc.throughput \"quoted\"").set(-3.25);
  Histogram& h = reg.histogram("latency");
  h.record_ns(1000);
  h.record_ns(2000);

  const std::string text = reg.to_json();
  const std::optional<json::Value> doc = json::parse(text);
  ASSERT_TRUE(doc.has_value()) << text;
  ASSERT_EQ(doc->type, json::Value::Type::Object);

  const json::Value* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  const json::Value* frames = counters->find("detect.frames");
  ASSERT_NE(frames, nullptr);
  EXPECT_DOUBLE_EQ(frames->number, 12.0);

  const json::Value* gauges = doc->find("gauges");
  ASSERT_NE(gauges, nullptr);
  const json::Value* tp = gauges->find("soc.throughput \"quoted\"");
  ASSERT_NE(tp, nullptr) << "gauge name must be escaped, then round-trip";
  EXPECT_DOUBLE_EQ(tp->number, -3.25);

  const json::Value* hists = doc->find("histograms");
  ASSERT_NE(hists, nullptr);
  const json::Value* lat = hists->find("latency");
  ASSERT_NE(lat, nullptr);
  const json::Value* count = lat->find("count");
  ASSERT_NE(count, nullptr);
  EXPECT_DOUBLE_EQ(count->number, 2.0);
  const json::Value* sum = lat->find("sum_ns");
  ASSERT_NE(sum, nullptr);
  EXPECT_DOUBLE_EQ(sum->number, 3000.0);
  for (const char* key : {"mean_ns", "p50_ns", "p95_ns", "p99_ns", "max_ns"})
    EXPECT_NE(lat->find(key), nullptr) << key;
}

TEST(MetricsRegistry, PrometheusExposition) {
  MetricsRegistry reg;
  reg.counter("detect.frames").inc(5);
  reg.gauge("queue-depth").set(2.0);
  reg.histogram("stage.latency").record_ns(500);

  const std::string text = reg.to_prometheus();
  // Names sanitised to [a-zA-Z0-9_:].
  EXPECT_NE(text.find("# TYPE detect_frames counter"), std::string::npos);
  EXPECT_NE(text.find("detect_frames 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE queue_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE stage_latency summary"), std::string::npos);
  EXPECT_NE(text.find("stage_latency{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(text.find("stage_latency{quantile=\"0.95\"}"), std::string::npos);
  EXPECT_NE(text.find("stage_latency{quantile=\"0.99\"}"), std::string::npos);
  EXPECT_NE(text.find("stage_latency_sum 500"), std::string::npos);
  EXPECT_NE(text.find("stage_latency_count 1"), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

TEST(MetricsRegistry, PrometheusHelpCarriesRawName) {
  MetricsRegistry reg;
  reg.counter("detect.frames").inc();
  const std::string text = reg.to_prometheus();
  // HELP precedes TYPE precedes the sample, and carries the raw (dotted)
  // name so the sanitisation stays reversible by a human.
  const auto help = text.find("# HELP detect_frames detect.frames\n");
  const auto type = text.find("# TYPE detect_frames counter\n");
  const auto sample = text.find("\ndetect_frames 1\n");
  ASSERT_NE(help, std::string::npos) << text;
  ASSERT_NE(type, std::string::npos) << text;
  ASSERT_NE(sample, std::string::npos) << text;
  EXPECT_LT(help, type);
  EXPECT_LT(type, sample);
}

TEST(MetricsRegistry, PrometheusCollidingNamesGetNumericSuffix) {
  MetricsRegistry reg;
  // "a.b" and "a_b" both sanitise to "a_b" — they must stay distinct series.
  reg.counter("a.b").inc(1);
  reg.counter("a_b").inc(2);
  const std::string text = reg.to_prometheus();
  EXPECT_NE(text.find("# HELP a_b a.b\n"), std::string::npos) << text;
  EXPECT_NE(text.find("# HELP a_b_2 a_b\n"), std::string::npos) << text;
  EXPECT_NE(text.find("\na_b 1\n"), std::string::npos) << text;
  EXPECT_NE(text.find("\na_b_2 2\n"), std::string::npos) << text;
}

TEST(MetricsRegistry, PrometheusCollisionSpansSections) {
  MetricsRegistry reg;
  // The exposition namespace is shared across counters, gauges and
  // histogram series (including the implicit _sum/_count).
  reg.counter("x").inc(1);
  reg.gauge("x").set(2.0);
  reg.counter("lat_sum").inc(9);       // collides with histogram "lat"'s _sum
  reg.histogram("lat").record_ns(100);
  const std::string text = reg.to_prometheus();
  EXPECT_NE(text.find("# TYPE x counter\n"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE x_2 gauge\n"), std::string::npos) << text;
  // Histogram "lat" cannot use the clean name: its _sum would collide with
  // the counter "lat_sum"; it moves to lat_2 wholesale.
  EXPECT_NE(text.find("# TYPE lat_2 summary\n"), std::string::npos) << text;
  EXPECT_NE(text.find("\nlat_2_sum 100\n"), std::string::npos) << text;
  EXPECT_NE(text.find("\nlat_sum 9\n"), std::string::npos) << text;
}

TEST(LabeledName, RendersSortedSanitisedAndEscaped) {
  EXPECT_EQ(labeled_name("runtime.frames", {{"stream", "3"}}),
            "runtime.frames{stream=\"3\"}");
  // Keys sort, so label order never creates a second series.
  EXPECT_EQ(labeled_name("m", {{"stream", "1"}, {"shard", "2"}}),
            labeled_name("m", {{"shard", "2"}, {"stream", "1"}}));
  // Keys sanitise to identifier characters; values escape like Prometheus.
  EXPECT_EQ(labeled_name("m", {{"bad key", "a\"b\\c\nd"}}),
            "m{bad_key=\"a\\\"b\\\\c\\nd\"}");
  // Braces in the base cannot fake a label block.
  EXPECT_EQ(labeled_name("a{b}c", {{"k", "v"}}), "a_b_c{k=\"v\"}");
  EXPECT_EQ(labeled_name("plain", {}), "plain");
}

TEST(LabeledName, ParseIsStrictInverse) {
  const Labels labels{{"shard", "2"}, {"stream", "1"}};
  const std::string flat = labeled_name("runtime.frames", labels);
  const std::optional<ParsedSeriesName> parsed = parse_labeled_name(flat);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->base, "runtime.frames");
  EXPECT_EQ(parsed->labels, labels);

  // Escaped values round-trip.
  const std::string tricky = labeled_name("m", {{"k", "a\"b\\c\nd"}});
  const std::optional<ParsedSeriesName> t = parse_labeled_name(tricky);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->labels[0].second, "a\"b\\c\nd");

  // Plain names and malformed renderings are not labeled series.
  EXPECT_FALSE(parse_labeled_name("plain").has_value());
  EXPECT_FALSE(parse_labeled_name("m{").has_value());
  EXPECT_FALSE(parse_labeled_name("m{}").has_value());
  EXPECT_FALSE(parse_labeled_name("m{k=\"v\"} ").has_value());
  EXPECT_FALSE(parse_labeled_name("m{k=v}").has_value());
  EXPECT_FALSE(parse_labeled_name("m{k=\"v\",}").has_value());
  EXPECT_FALSE(parse_labeled_name("m{k=\"\\x\"}").has_value());
  EXPECT_FALSE(parse_labeled_name("m{1k=\"v\"}").has_value());
}

TEST(MetricsRegistry, LabeledLookupIsFindOrCreateBySeries) {
  MetricsRegistry reg;
  Counter& a = reg.counter("frames", {{"stream", "0"}});
  Counter& b = reg.counter("frames", {{"stream", "0"}});
  Counter& other = reg.counter("frames", {{"stream", "1"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &other);
  // The labeled series IS the flat-named series.
  a.inc(3);
  EXPECT_EQ(reg.counter("frames{stream=\"0\"}").value(), 3u);
}

TEST(MetricsRegistry, RollupFoldsLabeledSeriesIntoBase) {
  MetricsRegistry reg;
  reg.counter("frames", {{"stream", "0"}}).inc(4);
  reg.counter("frames", {{"stream", "1"}}).inc(6);
  reg.gauge("depth", {{"stream", "0"}}).set(1.5);
  reg.gauge("depth", {{"stream", "1"}}).set(2.0);
  reg.histogram("lat", {{"stream", "0"}}).record_ns(100);
  reg.histogram("lat", {{"stream", "1"}}).record_ns(300);

  reg.rollup();
  EXPECT_EQ(reg.counter("frames").value(), 10u);
  EXPECT_DOUBLE_EQ(reg.gauge("depth").value(), 3.5);
  EXPECT_EQ(reg.histogram("lat").count(), 2u);
  EXPECT_EQ(reg.histogram("lat").sum_ns(), 400u);
  EXPECT_EQ(reg.histogram("lat").max_ns(), 300u);

  // rollup() overwrites, not accumulates: calling it again (after more
  // labeled growth) re-derives the base from the children.
  reg.counter("frames", {{"stream", "0"}}).inc(1);
  reg.rollup();
  reg.rollup();
  EXPECT_EQ(reg.counter("frames").value(), 11u);
  EXPECT_EQ(reg.histogram("lat").count(), 2u);
}

// rollup() caches which leaves fold where; a series registered after a
// fold (a new stream, a new shard, a new family) must join the next one.
TEST(MetricsRegistry, RollupPicksUpSeriesAddedAfterAFold) {
  MetricsRegistry reg;
  reg.counter("frames", {{"shard", "0"}, {"stream", "a"}}).inc(2);
  reg.rollup();
  EXPECT_EQ(reg.counter("frames").value(), 2u);

  reg.counter("frames", {{"shard", "0"}, {"stream", "b"}}).inc(3);
  reg.counter("frames", {{"shard", "1"}, {"stream", "c"}}).inc(5);
  reg.gauge("depth", {{"stream", "a"}}).set(1.5);
  reg.histogram("lat", {{"stream", "a"}}).record_ns(100);
  reg.rollup();
  EXPECT_EQ(reg.counter("frames").value(), 10u);
  EXPECT_EQ(reg.counter("frames", {{"shard", "0"}}).value(), 5u);
  EXPECT_EQ(reg.counter("frames", {{"shard", "1"}}).value(), 5u);
  EXPECT_DOUBLE_EQ(reg.gauge("depth").value(), 1.5);
  EXPECT_EQ(reg.histogram("lat").count(), 1u);
}

TEST(LabeledName, TwoLabelsSortEscapeAndRoundTrip) {
  // Keys render sorted whatever order the caller passes them in.
  EXPECT_EQ(labeled_name("runtime.frames",
                         {{"stream", "s3"}, {"shard", "0"}}),
            "runtime.frames{shard=\"0\",stream=\"s3\"}");
  // Escaping applies per value, independent of the other label.
  EXPECT_EQ(labeled_name("m", {{"stream", "a\"b"}, {"shard", "c\\d\ne"}}),
            "m{shard=\"c\\\\d\\ne\",stream=\"a\\\"b\"}");
  // Strict inverse with both labels, including escaped values.
  const Labels labels{{"shard", "0"}, {"stream", "s\"3\\x"}};
  const std::optional<ParsedSeriesName> parsed =
      parse_labeled_name(labeled_name("runtime.frames", labels));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->base, "runtime.frames");
  ASSERT_EQ(parsed->labels.size(), 2u);
  EXPECT_EQ(parsed->labels[0].first, "shard");
  EXPECT_EQ(parsed->labels[0].second, "0");
  EXPECT_EQ(parsed->labels[1].first, "stream");
  EXPECT_EQ(parsed->labels[1].second, "s\"3\\x");
}

TEST(MetricsRegistry, PrometheusRoundTripsTwoLabelSeries) {
  MetricsRegistry reg;
  reg.counter("name", {{"shard", "0"}, {"stream", "s3"}}).inc(7);
  const std::string text = reg.to_prometheus();
  // The exposition line carries exactly the canonical flat rendering, so
  // the flat registry key IS the Prometheus series identity.
  EXPECT_NE(text.find("name{shard=\"0\",stream=\"s3\"} 7\n"),
            std::string::npos);
}

TEST(MetricsRegistry, RollupProducesShardMarginalsAndStaysIdempotent) {
  MetricsRegistry reg;
  // shard= x stream= leaves, the sharded front door's shape.
  reg.counter("frames", {{"shard", "0"}, {"stream", "0"}}).inc(3);
  reg.counter("frames", {{"shard", "0"}, {"stream", "1"}}).inc(4);
  reg.counter("frames", {{"shard", "1"}, {"stream", "2"}}).inc(5);
  reg.gauge("depth", {{"shard", "0"}, {"stream", "0"}}).set(1.0);
  reg.gauge("depth", {{"shard", "1"}, {"stream", "1"}}).set(2.5);
  reg.histogram("lat", {{"shard", "0"}, {"stream", "0"}}).record_ns(100);
  reg.histogram("lat", {{"shard", "1"}, {"stream", "1"}}).record_ns(300);

  reg.rollup();
  // Per-shard marginals (last sorted label dropped)...
  EXPECT_EQ(reg.counter("frames", {{"shard", "0"}}).value(), 7u);
  EXPECT_EQ(reg.counter("frames", {{"shard", "1"}}).value(), 5u);
  EXPECT_DOUBLE_EQ(reg.gauge("depth", {{"shard", "0"}}).value(), 1.0);
  EXPECT_EQ(reg.histogram("lat", {{"shard", "0"}}).count(), 1u);
  // ...and the base equals the sum of the leaves, not leaves + marginals.
  EXPECT_EQ(reg.counter("frames").value(), 12u);
  EXPECT_DOUBLE_EQ(reg.gauge("depth").value(), 3.5);
  EXPECT_EQ(reg.histogram("lat").count(), 2u);
  EXPECT_EQ(reg.histogram("lat").sum_ns(), 400u);

  // Idempotence: the /metricsz handler and end-of-serve both fold; a second
  // (and third) rollup must not re-sum the shard marginals into the base.
  reg.rollup();
  reg.rollup();
  EXPECT_EQ(reg.counter("frames").value(), 12u);
  EXPECT_EQ(reg.counter("frames", {{"shard", "0"}}).value(), 7u);
  EXPECT_DOUBLE_EQ(reg.gauge("depth").value(), 3.5);
  EXPECT_EQ(reg.histogram("lat").count(), 2u);

  // New leaf growth re-derives marginals and base alike.
  reg.counter("frames", {{"shard", "0"}, {"stream", "1"}}).inc(1);
  reg.rollup();
  EXPECT_EQ(reg.counter("frames", {{"shard", "0"}}).value(), 8u);
  EXPECT_EQ(reg.counter("frames").value(), 13u);
}

TEST(MetricsRegistry, RollupIdempotentUnderConcurrentScrapes) {
  // Two scrape threads fold repeatedly while writers grow the leaves; after
  // everyone quiesces, one final fold must land exactly on the leaf totals
  // (a double-count would overshoot permanently).
  MetricsRegistry reg;
  Counter& a = reg.counter("rollup.race", {{"shard", "0"}, {"stream", "0"}});
  Counter& b = reg.counter("rollup.race", {{"shard", "1"}, {"stream", "1"}});
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t)
    threads.emplace_back([&reg] {
      for (int i = 0; i < 200; ++i) {
        reg.rollup();
        (void)reg.snapshot();
      }
    });
  for (int t = 0; t < 2; ++t)
    threads.emplace_back([&a, &b] {
      for (int i = 0; i < 1000; ++i) {
        a.inc();
        b.inc();
      }
    });
  for (std::thread& th : threads) th.join();
  reg.rollup();
  EXPECT_EQ(reg.counter("rollup.race").value(), 4000u);
  EXPECT_EQ(reg.counter("rollup.race", {{"shard", "0"}}).value(), 2000u);
  EXPECT_EQ(reg.counter("rollup.race", {{"shard", "1"}}).value(), 2000u);
}

TEST(Histogram, MergeFromAddsBinsCountsAndMax) {
  Histogram a;
  Histogram b;
  a.record_ns(100);
  b.record_ns(200);
  b.record_ns(300);
  a.merge_from(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.sum_ns(), 600u);
  EXPECT_EQ(a.max_ns(), 300u);
  // Percentiles see the merged distribution.
  EXPECT_GE(a.percentile_ns(0.99), a.percentile_ns(0.01));
}

TEST(MetricsRegistry, PrometheusLabeledSeriesShareOneFamily) {
  MetricsRegistry reg;
  reg.counter("runtime.frames", {{"stream", "0"}}).inc(4);
  reg.counter("runtime.frames", {{"stream", "1"}}).inc(6);
  reg.rollup();
  const std::string text = reg.to_prometheus();
  // One HELP and one TYPE for the whole family (base + both children)...
  EXPECT_EQ(text.find("# HELP runtime_frames runtime.frames\n"),
            text.rfind("# HELP runtime_frames runtime.frames\n"));
  EXPECT_EQ(text.find("# TYPE runtime_frames counter\n"),
            text.rfind("# TYPE runtime_frames counter\n"));
  // ...and three sample lines: the rollup plus the two labeled children.
  EXPECT_NE(text.find("\nruntime_frames 10\n"), std::string::npos) << text;
  EXPECT_NE(text.find("\nruntime_frames{stream=\"0\"} 4\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\nruntime_frames{stream=\"1\"} 6\n"),
            std::string::npos)
      << text;
}

TEST(MetricsRegistry, PrometheusLabeledHistogramMergesQuantileLabel) {
  MetricsRegistry reg;
  reg.histogram("lat", {{"stream", "0"}}).record_ns(500);
  const std::string text = reg.to_prometheus();
  EXPECT_NE(text.find("lat{stream=\"0\",quantile=\"0.5\"}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("lat_sum{stream=\"0\"} 500"), std::string::npos)
      << text;
  EXPECT_NE(text.find("lat_count{stream=\"0\"} 1"), std::string::npos)
      << text;
}

TEST(MetricsRegistry, PrometheusEscapesLabelValues) {
  MetricsRegistry reg;
  reg.counter("m", {{"path", "a\\b \"q\"\nend"}}).inc(1);
  const std::string text = reg.to_prometheus();
  // The exposition re-escapes backslash, quote and newline in label values.
  EXPECT_NE(text.find("m{path=\"a\\\\b \\\"q\\\"\\nend\"} 1"),
            std::string::npos)
      << text;
}

TEST(MetricsRegistry, PrometheusLabeledFamiliesKeepCollisionSuffixes) {
  MetricsRegistry reg;
  // Two distinct raw bases that sanitise identically: the labeled children
  // follow their family's suffixed name.
  reg.counter("a.b", {{"stream", "0"}}).inc(1);
  reg.counter("a_b", {{"stream", "0"}}).inc(2);
  const std::string text = reg.to_prometheus();
  EXPECT_NE(text.find("\na_b{stream=\"0\"} 1\n"), std::string::npos) << text;
  EXPECT_NE(text.find("\na_b_2{stream=\"0\"} 2\n"), std::string::npos)
      << text;
}

TEST(MetricsSnapshot, LookupsAndJson) {
  MetricsRegistry reg;
  reg.counter("c").inc(3);
  reg.gauge("g").set(1.5);
  reg.histogram("h").record_ns(700);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("c"), 3u);
  EXPECT_EQ(snap.counter("missing", 42), 42u);
  EXPECT_DOUBLE_EQ(snap.gauge("g"), 1.5);
  ASSERT_NE(snap.histogram("h"), nullptr);
  EXPECT_EQ(snap.histogram("h")->count, 1u);
  EXPECT_EQ(snap.histogram("missing"), nullptr);
  // The free to_json on a snapshot matches the registry's own exposition.
  EXPECT_EQ(to_json(snap), reg.to_json());
}

TEST(MetricsRegistry, GlobalIsSingleton) {
  EXPECT_EQ(&MetricsRegistry::global(), &MetricsRegistry::global());
}

}  // namespace
}  // namespace avd::obs
