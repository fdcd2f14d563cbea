// profile_pipeline: one merged timeline + metrics dump for the whole stack.
//
// Enables the avd::obs tracer, serves the canonical drive through the
// concurrent StreamServer (which exercises core control steps, both
// detectors, soc partial reconfiguration and the runtime stages), then:
//
//   * writes a merged Chrome trace — wall-clock spans from every
//     instrumented layer plus the simulated-time event log — for
//     chrome://tracing or ui.perfetto.dev,
//   * runs the span-sampling profiler across the serve and writes the
//     aggregate as flamegraph.pl collapsed stacks (<trace stem>.collapsed —
//     CI uploads it as an artifact),
//   * prints the metrics registry as JSON and Prometheus text.
//
// Self-validating: exits non-zero if the trace is empty, is not valid JSON,
// lacks spans from any of the four instrumented layers, or if the sampled
// profile fails to attribute a plurality of stage samples to the detect
// stage (the heavy stage by construction). scripts/check.sh runs it as a
// smoke test.
//
//   build/examples/profile_pipeline [trace.json]
#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "avd/obs/frame_trace.hpp"
#include "avd/obs/json.hpp"
#include "avd/obs/metrics.hpp"
#include "avd/obs/sample_profiler.hpp"
#include "avd/obs/trace.hpp"
#include "avd/runtime/stream_server.hpp"
#include "avd/soc/trace_export.hpp"

int main(int argc, char** argv) {
  const std::string trace_path = argc > 1 ? argv[1] : "pipeline_profile.json";

  std::printf("=== profile_pipeline ===\n\n");
  std::printf("training models (small budget)...\n");
  avd::core::TrainingBudget budget;
  budget.vehicle_pos = budget.vehicle_neg = 60;
  budget.pedestrian_pos = budget.pedestrian_neg = 40;
  budget.dbn_windows_per_class = 60;
  budget.pairing_scenes = 30;
  const avd::core::SystemModels models = avd::core::build_system_models(budget);

  avd::core::AdaptiveSystemConfig cfg;
  cfg.run_detectors = true;
  const avd::core::AdaptiveSystem system(models, cfg);

  // Two streams of the canonical day->tunnel->dusk->dark drive: lighting
  // changes force soc reconfigurations, darkness exercises the DBN path.
  std::vector<avd::data::DriveSequence> streams;
  for (std::uint64_t i = 0; i < 2; ++i) {
    avd::data::SequenceSpec spec =
        avd::data::DriveSequence::canonical_drive({320, 180}, 10);
    spec.seed = 40 + i;
    streams.emplace_back(spec);
  }

  avd::obs::Tracer& tracer = avd::obs::Tracer::global();
  avd::obs::MetricsRegistry& registry = avd::obs::MetricsRegistry::global();
  tracer.clear();
  registry.reset_values();
  tracer.set_enabled(true);

  avd::runtime::StreamServerConfig sc;
  sc.detect_workers = 2;
  avd::runtime::StreamServer server(system, sc);
  std::printf("serving %zu streams (%d frames each), tracing enabled...\n",
              streams.size(), streams[0].frame_count());
  // The span-sampling profiler runs across the whole serve: at 97 Hz it
  // snapshots every worker's open span stack; the aggregate becomes the
  // .collapsed artifact below.
  avd::obs::SampleProfiler profiler;
  profiler.start();
  const std::vector<avd::runtime::StreamResult> results =
      server.serve_sequences(streams);
  const avd::obs::ProfileReport profile = profiler.stop();
  tracer.set_enabled(false);

  std::size_t frames = 0;
  for (const avd::runtime::StreamResult& r : results)
    frames += r.report.frames.size();

  // --- Merged trace: wall-clock spans + simulated-time server events. ---
  const std::vector<avd::obs::SpanRecord> spans = tracer.drain();
  const avd::soc::EventLog server_log = server.server_log();
  avd::soc::write_chrome_trace(server_log, spans, trace_path);
  std::printf("\nwrote merged trace to %s (%zu spans, %zu events, "
              "%llu dropped)\n",
              trace_path.c_str(), spans.size(), server_log.size(),
              static_cast<unsigned long long>(tracer.dropped()));

  // --- Collapsed-stack profile (flamegraph.pl input; CI artifact). -------
  const std::string collapsed_path =
      (trace_path.size() > 5 &&
       trace_path.compare(trace_path.size() - 5, 5, ".json") == 0
           ? trace_path.substr(0, trace_path.size() - 5)
           : trace_path) +
      ".collapsed";
  const std::string collapsed = profile.to_collapsed();
  {
    std::FILE* f = std::fopen(collapsed_path.c_str(), "wb");
    if (f != nullptr) {
      std::fwrite(collapsed.data(), 1, collapsed.size(), f);
      std::fclose(f);
    }
  }
  std::printf("wrote collapsed profile to %s (%llu ticks, %llu samples, "
              "%zu unique stacks)\n",
              collapsed_path.c_str(),
              static_cast<unsigned long long>(profile.ticks),
              static_cast<unsigned long long>(profile.samples),
              profile.stacks.size());

  // --- Metrics: the registry (runtime.stage.* included), both dumps. -----
  const std::string metrics_json = registry.to_json();
  std::printf("\nmetrics (JSON):\n%s\n", metrics_json.c_str());
  std::printf("\nmetrics (Prometheus):\n%s", registry.to_prometheus().c_str());

  // --- Self-validation (this doubles as the check.sh smoke test). ---
  bool ok = true;
  const auto fail = [&ok](const char* what) {
    std::printf("FAIL: %s\n", what);
    ok = false;
  };

  if (frames == 0) fail("no frames served");
  if (spans.empty()) fail("trace has no spans");
  std::set<std::string> sources;
  for (const avd::obs::SpanRecord& s : spans)
    sources.insert(std::string(s.source).substr(0, std::string(s.source).find('/')));
  std::printf("\nspan sources:");
  for (const std::string& s : sources) std::printf(" %s", s.c_str());
  std::printf("\n");
  for (const char* layer : {"core", "detect", "soc", "runtime"})
    if (!sources.contains(layer))
      fail((std::string("no spans from layer: ") + layer).c_str());

  const std::string trace = [&trace_path] {
    std::FILE* f = std::fopen(trace_path.c_str(), "rb");
    std::string text;
    if (f != nullptr) {
      char buf[4096];
      std::size_t n = 0;
      while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
      std::fclose(f);
    }
    return text;
  }();
  if (trace.empty()) fail("trace file empty or unreadable");
  const std::optional<avd::obs::json::Value> doc = avd::obs::json::parse(trace);
  if (!doc.has_value()) fail("trace is not valid JSON");
  if (!avd::obs::json::valid(metrics_json)) fail("metrics JSON invalid");

  // Sampled profile: non-empty, JSON form parseable, and a plurality of the
  // stage-rooted samples must land under detect_frame — the pipeline's heavy
  // stage runs both pixel-level detectors while ingest/control/report are
  // bookkeeping.
  if (profile.samples == 0) fail("profiler collected no samples");
  if (collapsed.empty()) fail("collapsed profile is empty");
  if (!avd::obs::json::valid(profile.to_json()))
    fail("profile JSON invalid");
  std::uint64_t by_stage[4] = {0, 0, 0, 0};  // ingest, control, detect, report
  const char* stage_names[4] = {"ingest_frame", "control_frame",
                                "detect_frame", "collect_report"};
  for (const avd::obs::ProfileStack& s : profile.stacks) {
    if (s.frames.empty()) continue;
    for (int i = 0; i < 4; ++i)
      if (s.frames.front() == stage_names[i]) by_stage[i] += s.samples;
  }
  std::printf("profile stage attribution:");
  for (int i = 0; i < 4; ++i)
    std::printf(" %s=%llu", stage_names[i],
                static_cast<unsigned long long>(by_stage[i]));
  std::printf("\n");
  if (by_stage[2] == 0) fail("profiler attributed no samples to detect");
  for (int i = 0; i < 4; ++i)
    if (i != 2 && by_stage[i] > by_stage[2])
      fail("detect is not the plurality stage in the sampled profile");

  // Causal linkage: every reported frame must assemble into one connected,
  // cross-thread span chain, and the exported trace must draw its flow arc.
  const std::vector<avd::obs::FrameTrace> frame_traces =
      avd::obs::assemble_frame_traces(spans);
  std::size_t connected_frames = 0;
  std::uint64_t critical_path_total = 0;
  for (const avd::obs::FrameTrace& t : frame_traces) {
    if (!t.has_span("collect_report")) continue;  // partial tail traces
    if (!t.connected() || t.thread_count() < 2)
      fail("frame trace not connected across threads");
    ++connected_frames;
    critical_path_total += t.critical_path_ns();
  }
  if (connected_frames < frames) fail("fewer connected frame traces than frames");
  std::printf("frame traces: %zu connected, mean critical path %.1f us\n",
              connected_frames,
              connected_frames > 0
                  ? static_cast<double>(critical_path_total) / 1000.0 /
                        static_cast<double>(connected_frames)
                  : 0.0);

  std::size_t flow_starts = 0, flow_finishes = 0;
  if (doc.has_value()) {
    if (const avd::obs::json::Value* events = doc->find("traceEvents")) {
      for (const avd::obs::json::Value& e : events->array) {
        const avd::obs::json::Value* ph = e.find("ph");
        if (ph == nullptr) continue;
        if (ph->string == "s") ++flow_starts;
        if (ph->string == "f") ++flow_finishes;
      }
    }
  }
  std::printf("flow arcs: %zu starts, %zu finishes\n", flow_starts,
              flow_finishes);
  if (flow_starts < frames) fail("exported trace is missing frame flow arcs");
  if (flow_starts != flow_finishes) fail("unbalanced flow start/finish events");

  // --- Flight recorder: force a breach, validate the dumped bundle. ---
  // A tiny second serve with an impossible frame budget trips the SLO
  // monitor to UNHEALTHY; the server dumps its flight bundle next to the
  // trace (CI uploads both). The bundle must parse, carry the transition,
  // and hold the breaching frames' connected chains.
  {
    const std::size_t slash = trace_path.rfind('/');
    avd::runtime::StreamServerConfig fc;
    fc.detect_workers = 2;
    fc.simulated_accel_ms = 1.0;
    fc.slo.enabled = true;
    fc.slo.frame_budget_ms = 1e-4;  // 100 ns: every frame breaches
    fc.slo.telemetry_period = std::chrono::milliseconds(1);
    fc.slo.hysteresis.breaches_to_worsen = 1;
    fc.slo.hysteresis.clears_to_recover = 1000;
    fc.slo.flight_dump_dir =
        slash == std::string::npos ? "." : trace_path.substr(0, slash);
    avd::runtime::StreamServer breach_server(system, fc);

    std::vector<avd::data::DriveSequence> short_streams;
    avd::data::SequenceSpec spec =
        avd::data::DriveSequence::canonical_drive({320, 180}, 6);
    spec.seed = 77;
    short_streams.emplace_back(spec);

    tracer.clear();
    tracer.set_enabled(true);
    breach_server.serve_sequences(short_streams);
    tracer.set_enabled(false);
    tracer.clear();

    const std::string& bundle_path = breach_server.last_flight_bundle_path();
    if (bundle_path.empty()) {
      fail("forced SLO breach produced no flight bundle");
    } else {
      std::FILE* f = std::fopen(bundle_path.c_str(), "rb");
      std::string text;
      if (f != nullptr) {
        char buf[4096];
        std::size_t n = 0;
        while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
          text.append(buf, n);
        std::fclose(f);
      }
      const std::optional<avd::obs::json::Value> bundle =
          avd::obs::json::parse(text);
      if (!bundle.has_value()) {
        fail("flight bundle is not valid JSON");
      } else {
        const avd::obs::json::Value* transitions =
            bundle->find("slo_transitions");
        if (transitions == nullptr || transitions->array.empty())
          fail("flight bundle carries no SLO transitions");
        std::size_t bundled_chains = 0;
        if (const avd::obs::json::Value* bstreams = bundle->find("streams")) {
          for (const auto& [id, entry] : bstreams->object) {
            const avd::obs::json::Value* bframes = entry.find("frames");
            if (bframes == nullptr) continue;
            for (const avd::obs::json::Value& frame : bframes->array) {
              const avd::obs::json::Value* connected =
                  frame.find("connected");
              if (connected == nullptr || !connected->boolean)
                fail("flight bundle frame chain not connected");
              const avd::obs::json::Value* fspans = frame.find("spans");
              if (fspans != nullptr && !fspans->array.empty())
                ++bundled_chains;
            }
          }
        }
        if (bundled_chains == 0)
          fail("flight bundle holds no frame chains");
        std::printf("flight bundle: %s (%zu chains, %zu transitions)\n",
                    bundle_path.c_str(), bundled_chains,
                    transitions != nullptr ? transitions->array.size() : 0);
      }
    }
  }

  std::printf("\nself-check: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}
