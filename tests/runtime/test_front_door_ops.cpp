// The sharded front door's ops surface under a live serve: all seven
// endpoints answer with valid payloads while two shards serve concurrently,
// their SLO monitors flap (every frame misses its budget) and the shards'
// health callbacks push fleet pressure into every shard's admission
// controller. Runs under ThreadSanitizer in scripts/check.sh, where it
// guards the shard-state reads of the handlers and of the fleet-pressure
// path against serve() publishing each shard's per-serve state.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <initializer_list>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "avd/obs/json.hpp"
#include "avd/obs/ops_server.hpp"
#include "avd/obs/trace.hpp"
#include "avd/runtime/sharded_server.hpp"

namespace avd::runtime {
namespace {

core::TrainingBudget tiny() {
  core::TrainingBudget b;
  b.vehicle_pos = b.vehicle_neg = 30;
  b.pedestrian_pos = b.pedestrian_neg = 20;
  b.dbn_windows_per_class = 40;
  b.pairing_scenes = 20;
  return b;
}

std::vector<data::DriveSequence> drives(int n, int frames_per_segment) {
  std::vector<data::DriveSequence> seqs;
  for (int i = 0; i < n; ++i) {
    data::SequenceSpec spec =
        data::DriveSequence::canonical_drive({240, 136}, frames_per_segment);
    spec.seed = 5150 + static_cast<std::uint64_t>(i);
    seqs.emplace_back(spec);
  }
  return seqs;
}

/// GET `target`; true when it answered `status` with a body the strict JSON
/// parser accepts (stored in `doc`).
bool get_json(std::uint16_t port, const std::string& target,
              std::initializer_list<int> statuses, obs::json::Value& doc) {
  const std::optional<obs::HttpResponse> res = obs::http_get(port, target);
  if (!res.has_value()) return false;
  bool status_ok = false;
  for (const int s : statuses) status_ok = status_ok || res->status == s;
  if (!status_ok) return false;
  std::optional<obs::json::Value> parsed = obs::json::parse(res->body);
  if (!parsed.has_value()) return false;
  doc = std::move(*parsed);
  return true;
}

/// One pass over every endpoint; returns the first failure, or "" when all
/// seven answered as documented.
std::string sweep(std::uint16_t port) {
  obs::json::Value doc;
  const auto metrics = obs::http_get(port, "/metricsz");
  if (!metrics || metrics->status != 200) return "/metricsz";
  if (!get_json(port, "/metricsz.json", {200}, doc)) return "/metricsz.json";

  // Every frame misses its budget, so the fleet may read 503 at any time.
  if (!get_json(port, "/healthz", {200, 503}, doc)) return "/healthz";
  if (doc.find("fleet") == nullptr || doc.find("admission") == nullptr ||
      doc.find("streams") == nullptr)
    return "/healthz top level";
  for (const obs::json::Value& row : doc.find("streams")->array)
    for (const char* key : {"shard", "stream", "state"})
      if (row.find(key) == nullptr) return std::string("/healthz row ") + key;

  if (!get_json(port, "/tracez", {200}, doc) ||
      doc.find("span_stats") == nullptr || doc.find("retained") == nullptr)
    return "/tracez";
  if (!get_json(port, "/flightz", {200}, doc) || doc.find("streams") == nullptr)
    return "/flightz";
  if (!get_json(port, "/flightz?shard=1", {200}, doc)) return "/flightz shard 1";
  for (const char* unknown : {"/flightz?shard=2", "/flightz?shard=-1",
                              "/flightz?shard=one"}) {
    const auto res = obs::http_get(port, unknown);
    if (!res || res->status != 404) return unknown;
  }

  if (!get_json(port, "/statusz", {200}, doc)) return "/statusz";
  const obs::json::Value* role = doc.find("role");
  const obs::json::Value* config = doc.find("config");
  if (role == nullptr || role->string != "sharded-front-door" ||
      config == nullptr || config->find("shards") == nullptr ||
      config->find("shards")->number != 2.0 || doc.find("shards") == nullptr ||
      doc.find("admission") == nullptr)
    return "/statusz shape";

  const auto profile = obs::http_get(port, "/profilez?seconds=0.1");
  if (!profile || profile->status != 200) return "/profilez";
  return "";
}

TEST(ShardedServer, FrontDoorAnswersEveryEndpointDuringLiveServe) {
  const core::SystemModels models = core::build_system_models(tiny());
  core::AdaptiveSystemConfig cfg;
  cfg.run_detectors = false;
  const core::AdaptiveSystem system(models, cfg);

  ShardedServerConfig fc;
  fc.shards = 2;
  fc.assign_override = {{"s0", 0}, {"s1", 1}, {"s2", 0}, {"s3", 1}};
  fc.fleet_pressure_fraction = 0.25;
  fc.shard.detect_workers = 1;
  // 2 streams x 24 frames x 15 ms per shard: ~0.7 s of serving per shard,
  // long enough for several sweeps to land mid-serve.
  fc.shard.simulated_accel_ms = 15.0;
  fc.shard.slo.enabled = true;
  fc.shard.slo.frame_budget_ms = 1e-4;  // every frame misses: health moves
  fc.shard.slo.telemetry_period = std::chrono::milliseconds(2);
  fc.shard.slo.hysteresis.breaches_to_worsen = 1;
  fc.shard.admission.enabled = true;
  fc.ops_enabled = true;
  fc.ops.handler_threads = 3;
  ShardedServer front(system, fc);
  ASSERT_NE(front.ops_server(), nullptr);
  const std::uint16_t port = front.ops_server()->port();

  // Before any serve the front door has no shard servers yet, but every
  // endpoint still answers.
  EXPECT_EQ(sweep(port), "");

  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);

  std::atomic<bool> done{false};
  std::vector<StreamResult> results;
  std::thread serving([&] {
    results = front.serve_sequences(drives(4, 4));
    done.store(true);
  });

  // A second scraper hammers the endpoints that walk every shard while the
  // sweep below runs, so handlers overlap each other and the health
  // callbacks.
  std::atomic<int> hammer_failures{0};
  std::thread hammer([&] {
    obs::json::Value doc;
    while (!done.load()) {
      if (!get_json(port, "/healthz", {200, 503}, doc) ||
          !get_json(port, "/statusz", {200}, doc))
        hammer_failures.fetch_add(1);
    }
  });

  int mid_serve_sweeps = 0;
  while (!done.load()) {
    const std::string failed = sweep(port);
    EXPECT_EQ(failed, "") << "mid-serve sweep failed at " << failed;
    if (!failed.empty()) break;
    if (!done.load()) ++mid_serve_sweeps;
  }
  serving.join();
  hammer.join();
  tracer.set_enabled(false);
  tracer.clear();

  EXPECT_GE(mid_serve_sweeps, 1);
  EXPECT_EQ(hammer_failures.load(), 0);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(sweep(port), "");

  // After the serve: one flat row per stream, named and placed as served.
  obs::json::Value healthz;
  ASSERT_TRUE(get_json(port, "/healthz", {200, 503}, healthz));
  const obs::json::Value* rows = healthz.find("streams");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->array.size(), 4u);
  std::set<std::string> names;
  for (const obs::json::Value& row : rows->array) {
    const std::string name = row.find("stream")->string;
    names.insert(name);
    EXPECT_EQ(row.find("shard")->number,
              static_cast<double>(front.shard_of(name)))
        << name;
    for (const char* key :
         {"degrade_level", "admitted", "shed", "coasted", "degraded_scans"})
      EXPECT_NE(row.find(key), nullptr) << name << " lacks " << key;
  }
  EXPECT_EQ(names, (std::set<std::string>{"s0", "s1", "s2", "s3"}));

  obs::json::Value statusz;
  ASSERT_TRUE(get_json(port, "/statusz", {200}, statusz));
  EXPECT_EQ(statusz.find("serves")->number, 1.0);
  ASSERT_EQ(statusz.find("shards")->array.size(), 2u);
  for (const obs::json::Value& shard : statusz.find("shards")->array)
    EXPECT_EQ(shard.find("streams")->number, 2.0);
}

}  // namespace
}  // namespace avd::runtime
