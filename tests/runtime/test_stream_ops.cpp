// StreamServer's live introspection plane: every ops endpoint answers with a
// valid payload while a multi-stream serve() is in flight, /healthz flips
// 200 -> 503 under a forced SLO breach, and /profilez attributes samples to
// the live pipeline's spans.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "avd/obs/json.hpp"
#include "avd/obs/metrics.hpp"
#include "avd/obs/ops_server.hpp"
#include "avd/obs/trace.hpp"
#include "avd/runtime/stream_server.hpp"

namespace avd::runtime {
namespace {

using namespace std::chrono_literals;

core::TrainingBudget tiny() {
  core::TrainingBudget b;
  b.vehicle_pos = b.vehicle_neg = 30;
  b.pedestrian_pos = b.pedestrian_neg = 20;
  b.dbn_windows_per_class = 40;
  b.pairing_scenes = 20;
  return b;
}

std::vector<data::DriveSequence> streams(int n, int frames_per_segment,
                                         std::uint64_t seed) {
  std::vector<data::DriveSequence> seqs;
  for (std::uint64_t i = 0; i < static_cast<std::uint64_t>(n); ++i) {
    data::SequenceSpec spec =
        data::DriveSequence::canonical_drive({240, 136}, frames_per_segment);
    spec.seed = seed + i;
    seqs.emplace_back(spec);
  }
  return seqs;
}

core::AdaptiveSystemConfig control_only() {
  core::AdaptiveSystemConfig cfg;
  cfg.run_detectors = false;
  return cfg;
}

/// GET `target`, require HTTP 200 and (for .json/healthz-style bodies) that
/// the payload parses with the strict parser.
obs::json::Value get_json_ok(std::uint16_t port, const std::string& target,
                             int expect_status = 200) {
  const std::optional<obs::HttpResponse> res = obs::http_get(port, target);
  EXPECT_TRUE(res.has_value()) << target;
  if (!res.has_value()) return {};
  EXPECT_EQ(res->status, expect_status) << target;
  const std::optional<obs::json::Value> doc = obs::json::parse(res->body);
  EXPECT_TRUE(doc.has_value()) << target << " body: " << res->body;
  return doc.value_or(obs::json::Value{});
}

TEST(StreamOps, OpsPlaneDisabledByDefault) {
  const core::SystemModels models = core::build_system_models(tiny());
  const core::AdaptiveSystem system(models, control_only());
  StreamServer server(system, {});
  EXPECT_EQ(server.ops_server(), nullptr);
  EXPECT_EQ(server.profiler(), nullptr);
}

TEST(StreamOps, BindFailureThrows) {
  const core::SystemModels models = core::build_system_models(tiny());
  const core::AdaptiveSystem system(models, control_only());

  StreamServerConfig first_cfg;
  first_cfg.ops.enabled = true;
  StreamServer first(system, first_cfg);
  ASSERT_NE(first.ops_server(), nullptr);
  ASSERT_TRUE(first.ops_server()->running());

  StreamServerConfig clash;
  clash.ops.enabled = true;
  clash.ops.server.port = first.ops_server()->port();
  EXPECT_THROW(StreamServer(system, clash), std::runtime_error);
}

// The ladder is part of every serve: with admission off, /healthz reports
// "admission": false yet still carries each stream's ladder row (level 0),
// and admission() is non-null once a serve has run.
TEST(StreamOps, HealthzShowsTheDormantLadder) {
  const core::SystemModels models = core::build_system_models(tiny());
  const core::AdaptiveSystem system(models, control_only());
  StreamServerConfig sc;
  sc.ops.enabled = true;
  StreamServer server(system, sc);
  EXPECT_EQ(server.admission(), nullptr);
  const std::vector<StreamResult> results =
      server.serve_sequences(streams(2, 2, 7300));
  ASSERT_NE(server.admission(), nullptr);
  EXPECT_FALSE(server.admission()->config().enabled);

  const obs::json::Value healthz =
      get_json_ok(server.ops_server()->port(), "/healthz");
  ASSERT_NE(healthz.find("admission"), nullptr);
  EXPECT_FALSE(healthz.find("admission")->boolean);
  const obs::json::Value* rows = healthz.find("streams");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->array.size(), 2u);
  for (std::size_t s = 0; s < rows->array.size(); ++s) {
    const obs::json::Value& row = rows->array[s];
    ASSERT_NE(row.find("degrade_level"), nullptr);
    EXPECT_EQ(row.find("degrade_level")->number, 0.0);
    EXPECT_EQ(row.find("admitted")->number,
              static_cast<double>(results[s].report.frames.size()));
  }
}

TEST(StreamOps, EveryEndpointAnswersDuringLiveServe) {
  const core::SystemModels models = core::build_system_models(tiny());
  const core::AdaptiveSystem system(models, control_only());

  StreamServerConfig sc;
  sc.detect_workers = 2;
  // 8 streams x 24 frames x 20 ms holds / 2 workers ~ 1.9 s of serving, so
  // every scrape below (incl. the 0.5 s + 0.2 s profile windows) lands
  // mid-run.
  sc.simulated_accel_ms = 20.0;
  sc.slo.enabled = true;
  sc.slo.frame_budget_ms = 1e6;  // keep health HEALTHY despite the holds
  sc.slo.telemetry_period = std::chrono::milliseconds(2);
  sc.ops.enabled = true;
  sc.ops.server.handler_threads = 3;
  StreamServer server(system, sc);
  ASSERT_NE(server.ops_server(), nullptr);
  const std::uint16_t port = server.ops_server()->port();
  ASSERT_NE(port, 0);

  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);

  // The ops plane answers before any serve has run.
  (void)get_json_ok(port, "/healthz");
  (void)get_json_ok(port, "/flightz");

  std::vector<StreamResult> results;
  std::thread serving([&] {
    results = server.serve_sequences(streams(8, 4, 6100));
  });

  // Concurrent scrapes while the serve is in flight: one thread hammering
  // /metricsz, one /tracez, plus the full endpoint sweep inline.
  std::atomic<bool> stop_scraping{false};
  std::atomic<int> scrape_failures{0};
  const auto scrape_loop = [&](const char* target) {
    while (!stop_scraping.load()) {
      const auto res = obs::http_get(port, target);
      if (!res.has_value() || res->status != 200) scrape_failures.fetch_add(1);
      std::this_thread::sleep_for(2ms);
    }
  };
  std::thread scraper_a(scrape_loop, "/metricsz");
  std::thread scraper_b(scrape_loop, "/tracez");

  const auto metricsz = obs::http_get(port, "/metricsz");
  ASSERT_TRUE(metricsz.has_value());
  EXPECT_EQ(metricsz->status, 200);
  EXPECT_EQ(metricsz->content_type, obs::kPrometheusContentType);
  EXPECT_EQ(metricsz->body.back(), '\n');
  EXPECT_NE(metricsz->body.find("process_uptime_seconds "),
            std::string::npos);
  EXPECT_NE(metricsz->body.find("build_info{"), std::string::npos);

  const obs::json::Value metrics_json = get_json_ok(port, "/metricsz.json");
  EXPECT_NE(metrics_json.find("counters"), nullptr);

  const obs::json::Value healthz = get_json_ok(port, "/healthz");
  const obs::json::Value* fleet = healthz.find("fleet");
  ASSERT_NE(fleet, nullptr);
  EXPECT_FALSE(fleet->string.empty());

  const obs::json::Value tracez = get_json_ok(port, "/tracez");
  EXPECT_NE(tracez.find("span_stats"), nullptr);
  EXPECT_NE(tracez.find("retained"), nullptr);

  const obs::json::Value statusz = get_json_ok(port, "/statusz");
  ASSERT_NE(statusz.find("build"), nullptr);
  EXPECT_NE(statusz.find("build")->find("version"), nullptr);
  ASSERT_NE(statusz.find("config"), nullptr);
  EXPECT_EQ(statusz.find("config")->find("detect_workers")->number, 2.0);
  EXPECT_GT(statusz.find("uptime_seconds")->number, 0.0);

  const obs::json::Value flightz = get_json_ok(port, "/flightz");
  EXPECT_NE(flightz.find("streams"), nullptr);

  // /profilez mid-serve: the detect stage (1 ms simulated accelerator hold
  // per frame) dominates the open-span samples.
  const std::optional<obs::HttpResponse> profile =
      obs::http_get(port, "/profilez?seconds=0.5");
  ASSERT_TRUE(profile.has_value());
  EXPECT_EQ(profile->status, 200);
  EXPECT_NE(profile->body.find("detect_frame"), std::string::npos)
      << profile->body;

  const obs::json::Value profile_json =
      get_json_ok(port, "/profilez?seconds=0.2&format=json");
  ASSERT_NE(profile_json.find("stacks"), nullptr);
  EXPECT_GT(profile_json.find("ticks")->number, 0.0);

  // Bad query -> 400, unknown path -> 404; neither disturbs the serve.
  const auto bad = obs::http_get(port, "/profilez?seconds=banana");
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(bad->status, 400);
  // Regression: comma-decimal inputs ("1,5") must be rejected whole, not
  // strtod-parsed as the locale-dependent prefix "1". Same for trailing
  // junk and non-positive windows.
  for (const char* q : {"/profilez?seconds=1,5", "/profilez?seconds=0.5x",
                        "/profilez?seconds=0", "/profilez?seconds=-1",
                        "/profilez?seconds=%20"}) {
    const auto rejected = obs::http_get(port, q);
    ASSERT_TRUE(rejected.has_value()) << q;
    EXPECT_EQ(rejected->status, 400) << q;
  }
  const auto missing = obs::http_get(port, "/does-not-exist");
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->status, 404);

  serving.join();
  stop_scraping.store(true);
  scraper_a.join();
  scraper_b.join();
  EXPECT_EQ(scrape_failures.load(), 0);

  // After the serve the sampler has ingested the run's chains: /tracez now
  // carries span stats for the pipeline stages.
  const obs::json::Value after = get_json_ok(port, "/tracez");
  EXPECT_GT(after.find("frames_seen")->number, 0.0);
  bool saw_detect = false;
  for (const obs::json::Value& s : after.find("span_stats")->array) {
    const obs::json::Value* name = s.find("name");
    if (name != nullptr && name->string == "detect_frame") saw_detect = true;
  }
  EXPECT_TRUE(saw_detect);

  tracer.set_enabled(false);
  tracer.clear();

  ASSERT_EQ(results.size(), 8u);
  for (const StreamResult& r : results)
    EXPECT_FALSE(r.report.frames.empty());
}

TEST(StreamOps, HealthzFlipsTo503OnForcedBreach) {
  const core::SystemModels models = core::build_system_models(tiny());
  const core::AdaptiveSystem system(models, control_only());

  StreamServerConfig sc;
  sc.detect_workers = 2;
  sc.simulated_accel_ms = 5.0;    // stretch the run across many windows
  sc.slo.enabled = true;
  sc.slo.frame_budget_ms = 1e-4;  // 100 ns: every frame misses
  sc.slo.telemetry_period = std::chrono::milliseconds(1);
  sc.slo.hysteresis.breaches_to_worsen = 1;
  sc.slo.hysteresis.clears_to_recover = 1000;
  sc.ops.enabled = true;
  StreamServer server(system, sc);
  const std::uint16_t port = server.ops_server()->port();

  // Healthy (200) before the serve starts.
  const auto before = obs::http_get(port, "/healthz");
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(before->status, 200);

  std::vector<StreamResult> results;
  std::thread serving([&] {
    results = server.serve_sequences(streams(2, 8, 6200));
  });

  // Poll until the breach drives some stream UNHEALTHY and /healthz answers
  // 503 mid-serve. The serve keeps the streams breaching to its end, so the
  // flip must be observable before the deadline.
  bool saw_503 = false;
  const auto poll_deadline = std::chrono::steady_clock::now() + 30s;
  while (!saw_503 && std::chrono::steady_clock::now() < poll_deadline) {
    const auto res = obs::http_get(port, "/healthz");
    if (res.has_value() && res->status == 503) saw_503 = true;
    std::this_thread::sleep_for(5ms);
  }
  serving.join();

  // The breach landed: mid-serve if we caught it, and in any case the final
  // verdict keeps /healthz at 503 after the serve.
  const obs::json::Value after =
      get_json_ok(port, "/healthz", /*expect_status=*/503);
  EXPECT_EQ(after.find("fleet")->string, "UNHEALTHY");
  EXPECT_TRUE(saw_503);

  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(server.fleet_health(), obs::HealthState::Unhealthy);
}

}  // namespace
}  // namespace avd::runtime
