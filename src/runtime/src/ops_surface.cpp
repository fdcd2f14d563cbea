#include "ops_surface.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "avd/obs/build_info.hpp"
#include "avd/obs/json.hpp"
#include "avd/obs/metrics.hpp"

namespace avd::runtime {
namespace {

const char* json_bool(bool b) { return b ? "true" : "false"; }

/// `text` as a T when it is exactly one number. std::from_chars is
/// locale-independent: "1,5" is rejected instead of parsing as 1 (or as 1.5
/// under a comma-decimal locale).
template <typename T>
std::optional<T> parse_whole(const std::string& text) {
  T value{};
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size())
    return std::nullopt;
  return value;
}

/// `fn(shard index, server, its ObsView)` for every shard, in shard order.
template <typename Fn>
void each_shard(const OpsSurface::ShardWalk& walk, const Fn& fn) {
  int shard = 0;
  walk([&](const StreamServer& server) {
    server.with_obs(
        [&](const StreamServer::ObsView& view) { fn(shard, server, view); });
    ++shard;
  });
}

}  // namespace

OpsSurface::OpsSurface(Owner owner, const obs::OpsServerConfig& server,
                       ShardWalk walk)
    : owner_(owner),
      walk_(std::move(walk)),
      max_profile_seconds_(owner.config->ops.max_profile_seconds > 0.0
                               ? owner.config->ops.max_profile_seconds
                               : 10.0),
      profiler_(
          std::make_unique<obs::SampleProfiler>(owner.config->ops.profiler)),
      server_(std::make_unique<obs::OpsServer>(server)) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  // prometheus_response folds the registry first, so one scrape answers for
  // every shard: shard= marginals and the fleet base are fresh.
  server_->handle("/metricsz", [&registry](const obs::HttpRequest&) {
    return obs::prometheus_response(registry);
  });
  server_->handle("/metricsz.json", [&registry](const obs::HttpRequest&) {
    return obs::metrics_json_response(registry);
  });

  // Live health: mid-serve the SLO monitors answer with their current state;
  // between serves (or with monitoring off) the last serve's verdicts. 503 on
  // an UNHEALTHY fleet makes this a load balancer's readiness probe.
  server_->handle("/healthz", [this](const obs::HttpRequest&) {
    obs::HealthState fleet = obs::HealthState::Healthy;
    std::ostringstream rows;
    each_shard(walk_, [&](int shard, const StreamServer& server,
                          const auto& view) {
      const std::vector<std::string>& names = server.config().stream_names;
      fleet = std::max(fleet, obs::worst_of(view.health));
      // Ladder rows exist once a serve has built its controller; a serve
      // that has just reset the health vector may still show the previous
      // serve's controller, hence the bound on both sizes.
      const std::size_t laddered =
          view.admission ? static_cast<std::size_t>(view.admission->n_streams())
                         : 0;
      for (std::size_t s = 0; s < view.health.size(); ++s) {
        rows << (rows.tellp() > 0 ? "," : "") << "{\"shard\":" << shard
             << ",\"stream\":\""
             << obs::json::escape(s < names.size() ? names[s]
                                                   : std::to_string(s))
             << "\",\"state\":\"" << obs::to_string(view.health[s]) << '"';
        if (s < laddered) {
          const AdmissionStats st = view.admission->stats(static_cast<int>(s));
          rows << ",\"degrade_level\":"
               << static_cast<int>(view.admission->level(static_cast<int>(s)))
               << ",\"admitted\":" << st.admitted << ",\"shed\":" << st.shed
               << ",\"coasted\":" << st.coasted
               << ",\"degraded_scans\":" << st.degraded_scans;
        }
        rows << '}';
      }
    });
    std::ostringstream os;
    os << "{\"fleet\":\"" << obs::to_string(fleet) << "\",\"admission\":"
       << json_bool(owner_.config->admission.enabled) << ",\"streams\":["
       << rows.str() << "]}";
    return obs::HttpResponse{fleet == obs::HealthState::Unhealthy ? 503 : 200,
                             "application/json", os.str()};
  });

  server_->handle("/tracez", [this](const obs::HttpRequest&) {
    std::uint64_t frames = 0, retained_frames = 0, spans = 0, evicted = 0;
    std::ostringstream stats, retained;
    each_shard(walk_, [&](int, const StreamServer&, const auto& view) {
      if (view.sampler == nullptr) return;
      frames += view.sampler->frames_seen();
      retained_frames += view.sampler->frames_retained();
      spans += view.sampler->spans_seen();
      evicted += view.sampler->retained_evicted();
      for (const obs::SpanStats& s : view.sampler->stats())
        stats << (stats.tellp() > 0 ? "," : "") << obs::to_json(s);
      for (const obs::RetainedFrame& r : view.sampler->retained())
        retained << (retained.tellp() > 0 ? "," : "") << obs::to_json(r);
    });
    std::ostringstream os;
    os << "{\"frames_seen\":" << frames
       << ",\"frames_retained\":" << retained_frames
       << ",\"spans_seen\":" << spans << ",\"retained_evicted\":" << evicted
       << ",\"span_stats\":[" << stats.str() << "],\"retained\":["
       << retained.str() << "]}";
    return obs::HttpResponse{200, "application/json", os.str()};
  });

  server_->handle("/flightz", [this](const obs::HttpRequest& req) {
    const std::string arg = req.query_value("shard", "0");
    const std::optional<int> shard = parse_whole<int>(arg);
    if (!shard || *shard < 0 || *shard >= owner_.shards)
      return obs::HttpResponse{404, "text/plain; charset=utf-8",
                               "unknown shard: " + arg + "\n"};
    std::string body =
        "{\"reason\":\"no serve has run yet\",\"streams\":{},"
        "\"telemetry\":[],\"slo_transitions\":[]}";
    each_shard(walk_, [&](int m, const StreamServer&, const auto& view) {
      if (m == *shard && view.recorder != nullptr)
        body = view.recorder->dump("ops /flightz request");
    });
    return obs::HttpResponse{200, "application/json", std::move(body)};
  });

  server_->handle("/statusz", [this, &registry](const obs::HttpRequest&) {
    obs::publish_process_metrics(registry);  // keep in sync with /metricsz
    // Overload accounting over every stream of every shard; zero before the
    // first serve, but always present so parsers stay simple.
    AdmissionStats sum;
    int max_level = 0;
    bool live = false;
    std::ostringstream shards;
    each_shard(walk_, [&](int m, const StreamServer&, const auto& view) {
      shards << (m != 0 ? "," : "") << "{\"shard\":" << m
             << ",\"streams\":" << view.health.size() << '}';
      if (view.admission == nullptr) return;
      live = true;
      for (int s = 0; s < view.admission->n_streams(); ++s) {
        const AdmissionStats st = view.admission->stats(s);
        sum.admitted += st.admitted;
        sum.shed += st.shed;
        sum.shed_by_bucket += st.shed_by_bucket;
        sum.coasted += st.coasted;
        sum.degraded_scans += st.degraded_scans;
        max_level =
            std::max(max_level, static_cast<int>(view.admission->level(s)));
      }
    });
    const StreamServerConfig& c = *owner_.config;
    std::ostringstream os;
    os << "{\"role\":\"" << owner_.role << "\",\"build\":{\"version\":\""
       << obs::json::escape(obs::build_version()) << "\",\"mode\":\""
       << obs::json::escape(obs::build_mode())
       << "\"},\"uptime_seconds\":" << obs::process_uptime_seconds()
       << ",\"serves\":" << owner_.serves->load()
       << ",\"ops_requests\":" << server_->requests_served()
       << ",\"config\":{\"shards\":" << owner_.shards
       << ",\"fleet_pressure_fraction\":" << owner_.fleet_pressure_fraction
       << ",\"ingest_workers\":" << c.ingest_workers
       << ",\"control_workers\":" << c.control_workers
       << ",\"detect_workers\":" << c.detect_workers
       << ",\"queue_capacity\":" << c.queue_capacity
       << ",\"detect_policy\":\"" << to_string(c.detect_policy)
       << "\",\"cross_stream_batching\":" << json_bool(c.cross_stream_batching)
       << ",\"slo_enabled\":" << json_bool(c.slo.enabled)
       << ",\"frame_budget_ms\":" << c.slo.frame_budget_ms
       << ",\"admission_enabled\":" << json_bool(c.admission.enabled)
       << ",\"watchdog_enabled\":" << json_bool(c.watchdog.enabled)
       << ",\"fault_injection\":" << json_bool(c.fault_injector != nullptr)
       << ",\"ops_port\":" << server_->port()
       << ",\"profiler_hz\":" << profiler_->config().hz
       << ",\"max_profile_seconds\":" << max_profile_seconds_
       << "},\"shards\":[" << shards.str() << "],\"admission\":{\"live\":"
       << json_bool(live) << ",\"max_degrade_level\":" << max_level
       << ",\"admitted\":" << sum.admitted << ",\"shed\":" << sum.shed
       << ",\"shed_by_bucket\":" << sum.shed_by_bucket
       << ",\"coasted\":" << sum.coasted
       << ",\"degraded_scans\":" << sum.degraded_scans << "}}";
    return obs::HttpResponse{200, "application/json", os.str()};
  });

  // On-demand profile: blocks its handler thread for the window (clamped to
  // max_profile_seconds); concurrent requests serialise inside run_for().
  server_->handle("/profilez", [this](const obs::HttpRequest& req) {
    const std::string arg = req.query_value("seconds", "1");
    const std::optional<double> seconds = parse_whole<double>(arg);
    if (!seconds || !(*seconds > 0.0))
      return obs::HttpResponse{400, "text/plain; charset=utf-8",
                               "bad seconds value: " + arg + "\n"};
    const obs::ProfileReport report =
        profiler_->run_for(std::chrono::milliseconds(static_cast<long>(
            std::min(*seconds, max_profile_seconds_) * 1000.0)));
    if (req.query_value("format") == "json")
      return obs::HttpResponse{200, "application/json", report.to_json()};
    return obs::HttpResponse{200, "text/plain; charset=utf-8",
                             report.to_collapsed()};
  });

  if (!server_->start())
    throw std::runtime_error(std::string(owner_.role) +
                             ": ops server failed to bind " +
                             server.bind_address + ":" +
                             std::to_string(server.port));
}

OpsSurface::~OpsSurface() {
  server_->stop();
  profiler_->stop();
}

}  // namespace avd::runtime
