#include "avd/runtime/stream_server.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "avd/obs/frame_trace.hpp"
#include "avd/obs/metrics.hpp"
#include "avd/obs/telemetry.hpp"
#include "avd/obs/trace.hpp"
#include "avd/runtime/fault_injection.hpp"
#include "avd/runtime/thread_pool.hpp"
#include "ops_surface.hpp"

namespace avd::runtime {
namespace {

using Clock = std::chrono::steady_clock;

/// A frame after the control plane, waiting for pixel-level detection.
struct DetectTask {
  int stream = 0;
  core::ControlStep step;
  data::SequenceFrame meta;
  obs::TraceContext trace;      ///< parented on the control span
  std::uint64_t ingest_ns = 0;  ///< carried from the FrameTask
  AdmissionDecision decision;   ///< ladder verdict (defaults: full fidelity)
};

/// A finished per-frame report heading to the collector.
struct ReportTask {
  int stream = 0;
  core::AdaptiveFrameReport report;
  obs::TraceContext trace;      ///< parented on the detect span
  std::uint64_t ingest_ns = 0;  ///< frame entry time (latency measures here)
  bool backpressure_dropped = false;
  bool shed = false;            ///< refused by admission (never ran detect)
};

/// One frame's entry in the coast ledger (below): either the detections a
/// scan produced, or a placeholder for a frame the tracker must coast.
struct CoastEntry {
  bool coast = false;
  std::vector<det::Detection> dets;  ///< scan output (coast = false)
};

/// Mutable per-stream state: the sequential control-plane session plus the
/// reorder buffer that serialises MPMC-scheduled frames back into index
/// order. Guarded by its own mutex; different streams never contend.
struct StreamState {
  StreamState(const core::AdaptiveSystem& system,
              const det::TrackerConfig& tracker_config)
      : session(system.begin_session()), tracker(tracker_config) {}

  std::mutex mutex;
  core::AdaptiveSystem::StepSession session;
  int next_index = 0;
  std::map<int, FrameTask> pending;  // out-of-order frames (trace rides along)
  std::atomic<std::uint64_t> backpressure_drops{0};
  std::atomic<std::uint64_t> deadline_misses{0};
  std::atomic<int> frames_ingested{0};
  // Fault / overload accounting (see StreamResult).
  std::atomic<std::uint64_t> garbage_frames{0};
  std::atomic<std::uint64_t> source_retries{0};
  std::atomic<bool> source_failed{false};
  std::atomic<bool> watchdog_fired{false};
  // Liveness watchdog inputs: tracer-ns of the last pipeline progress on
  // this stream, and completion markers so a finished stream is never fired.
  std::atomic<std::uint64_t> last_progress_ns{0};
  std::atomic<bool> ingest_started{false};
  std::atomic<bool> ingest_done{false};
  std::atomic<int> collected{0};
  // --- the coast ledger (ladder level 2) -------------------------------
  // The IouTracker must see every frame of the stream exactly once, in
  // index order, with the frame's scan detections (or an empty update for
  // coasted/shed/dropped frames). Detect workers finish frames out of
  // order, so entries park in `coast_pending` until the frontier
  // (`coast_done`) reaches them; advancing the frontier feeds the tracker
  // and materialises coast_results for coast frames. coast_mutex is a leaf
  // lock: nothing is acquired while holding it, so the control-stage edge
  // state.mutex -> coast_mutex (of any stream) cannot deadlock.
  std::mutex coast_mutex;
  std::condition_variable coast_cv;
  int coast_done = -1;  ///< highest frame index fed to the tracker
  std::map<int, CoastEntry> coast_pending;
  std::map<int, std::vector<det::Detection>> coast_results;
  det::IouTracker tracker;
};

/// The per-stream labeled series the SLO rules read
/// (obs::standard_stream_rules_labeled with the same stream id). Resolved
/// once per serve(); collector-thread only.
struct StreamCounters {
  obs::Counter* frames = nullptr;
  obs::Counter* deadline_miss = nullptr;
  obs::Counter* backpressure_drops = nullptr;
  obs::Counter* reconfig_drops = nullptr;
  obs::Counter* reconfigs = nullptr;
  obs::Histogram* latency = nullptr;  ///< runtime.frame.latency_ns{stream=N}
  // Overload-control series.
  obs::Counter* shed = nullptr;
  obs::Counter* coasted = nullptr;
  obs::Counter* degraded_scans = nullptr;
  obs::Counter* garbage = nullptr;
  obs::Counter* source_retries = nullptr;
  obs::Gauge* degrade_level = nullptr;  ///< runtime.degrade.level{stream=N}
};

/// One pipeline stage's runtime.stage.*{stage=<name>} series (plus the
/// server's metric_labels). Resolved once per serve(); the mutators are
/// relaxed atomics, safe from every worker of the stage.
struct StageSeries {
  StageSeries(obs::MetricsRegistry& registry, obs::Labels labels,
              const char* stage) {
    labels.emplace_back("stage", stage);
    latency = &registry.histogram("runtime.stage.latency_ns", labels);
    processed = &registry.counter("runtime.stage.processed", labels);
    dropped = &registry.counter("runtime.stage.dropped", labels);
    queue_high_water = &registry.gauge("runtime.stage.queue_high_water", labels);
  }

  /// One frame through the stage, which it entered at `t0`.
  void record(Clock::time_point t0) const {
    latency->record(Clock::now() - t0);
    processed->inc();
  }
  /// Keep the deepest queue depth seen across serves. Called once writers
  /// have quiesced.
  void raise_high_water(std::size_t depth) const {
    queue_high_water->set(
        std::max(queue_high_water->value(), static_cast<double>(depth)));
  }

  obs::Histogram* latency = nullptr;
  obs::Counter* processed = nullptr;
  obs::Counter* dropped = nullptr;
  obs::Gauge* queue_high_water = nullptr;
};

std::string stream_entity(int stream) {
  return "stream" + std::to_string(stream);
}

}  // namespace

StreamServer::StreamServer(const core::AdaptiveSystem& system,
                           StreamServerConfig config)
    : system_(&system), config_(config) {
  config_.ingest_workers = std::max(1, config_.ingest_workers);
  config_.control_workers = std::max(1, config_.control_workers);
  config_.detect_workers = std::max(1, config_.detect_workers);
  if (config_.queue_capacity == 0) config_.queue_capacity = 1;
  if (config_.ops.enabled)
    ops_ = std::make_unique<OpsSurface>(
        OpsSurface::Owner{"stream-server", &config_, 1, 0.0, &serve_count_},
        config_.ops.server,
        [this](const auto& visit) { visit(*this); });
}

// The ops surface (and with it the listener) goes first: its handler
// threads read this server's per-serve state.
StreamServer::~StreamServer() { ops_.reset(); }

std::vector<StreamResult> StreamServer::serve_sequences(
    const std::vector<data::DriveSequence>& sequences) {
  std::vector<std::unique_ptr<FrameSource>> sources;
  sources.reserve(sequences.size());
  for (const data::DriveSequence& s : sequences) sources.push_back(make_source(s));
  return serve(std::move(sources));
}

std::vector<StreamResult> StreamServer::serve(
    std::vector<std::unique_ptr<FrameSource>> sources) {
  const int n_streams = static_cast<int>(sources.size());
  std::vector<StreamResult> results(sources.size());
  for (int s = 0; s < n_streams; ++s)
    results[static_cast<std::size_t>(s)].stream = s;
  {
    std::lock_guard<std::mutex> lock(obs_mutex_);
    stream_health_.assign(sources.size(), obs::HealthState::Healthy);
  }
  if (n_streams == 0) return results;

  const Clock::time_point epoch = Clock::now();
  const auto now_tp = [&epoch] {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - epoch)
                        .count();
    return soc::TimePoint{static_cast<std::uint64_t>(ns) * 1000ull};
  };

  obs::Tracer& tracer = obs::Tracer::global();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const std::uint64_t deadline_ns = static_cast<std::uint64_t>(
      std::max(0.0, config_.slo.frame_budget_ms) * 1e6);

  // Per-stream metrics are labeled series (stream=<id>); the fleet view
  // under the plain base names ("runtime.frames", "runtime.frame.latency_ns")
  // is produced by MetricsRegistry::rollup() — per telemetry sample while
  // serving and unconditionally before serve() returns.
  FaultInjector* injector = config_.fault_injector;
  if (injector != nullptr)
    for (int s = 0; s < n_streams; ++s)
      sources[static_cast<std::size_t>(s)] = injector->wrap(
          s, std::move(sources[static_cast<std::size_t>(s)]));

  // Label set of stream s: the configured extra labels (shard= from the
  // sharded front door) plus stream=<global name> (the local index unless
  // stream_names says otherwise). labeled_name() sorts keys, so insertion
  // order here is irrelevant.
  const auto stream_labels = [this](int s) {
    obs::Labels labels = config_.metric_labels;
    const auto us = static_cast<std::size_t>(s);
    labels.emplace_back("stream", us < config_.stream_names.size()
                                      ? config_.stream_names[us]
                                      : std::to_string(s));
    return labels;
  };

  std::vector<std::unique_ptr<StreamState>> streams;
  std::vector<StreamCounters> counters(sources.size());
  streams.reserve(sources.size());
  const std::uint64_t serve_start_ns = tracer.now_ns();
  for (int s = 0; s < n_streams; ++s) {
    streams.push_back(std::make_unique<StreamState>(
        *system_, config_.admission.ladder.coast_tracker));
    streams.back()->last_progress_ns.store(serve_start_ns,
                                           std::memory_order_relaxed);
    const obs::Labels labels = stream_labels(s);
    StreamCounters& c = counters[static_cast<std::size_t>(s)];
    c.frames = &registry.counter("runtime.frames", labels);
    c.deadline_miss = &registry.counter("runtime.deadline_miss", labels);
    c.backpressure_drops =
        &registry.counter("runtime.backpressure_drops", labels);
    c.reconfig_drops = &registry.counter("runtime.reconfig_drops", labels);
    c.reconfigs = &registry.counter("runtime.reconfigs", labels);
    c.latency = &registry.histogram("runtime.frame.latency_ns", labels);
    c.shed = &registry.counter("runtime.shed", labels);
    c.coasted = &registry.counter("runtime.coasted", labels);
    c.degraded_scans = &registry.counter("runtime.degraded_scans", labels);
    c.garbage = &registry.counter("runtime.garbage_frames", labels);
    c.source_retries = &registry.counter("runtime.source_retries", labels);
    c.degrade_level = &registry.gauge("runtime.degrade.level", labels);
    c.degrade_level->set(0.0);
  }
  const StageSeries ingest_stage(registry, config_.metric_labels, "ingest");
  const StageSeries control_stage(registry, config_.metric_labels, "control");
  const StageSeries detect_stage(registry, config_.metric_labels, "detect");
  const StageSeries report_stage(registry, config_.metric_labels, "report");
  // Latency of admitted (non-shed) frames only — the number the overload
  // SLO protects: shedding keeps THIS under the budget. A shard server
  // (metric_labels set) records the labeled series instead and rollup()
  // derives the fleet base; a standalone server writes the base directly.
  obs::Histogram& admitted_latency =
      config_.metric_labels.empty()
          ? registry.histogram("runtime.frame.admitted_latency_ns")
          : registry.histogram("runtime.frame.admitted_latency_ns",
                               config_.metric_labels);

  // Level-1/2 scans use a coarser pyramid derived from the system's params.
  det::SlidingWindowParams degraded_sliding = system_->config().sliding;
  degraded_sliding.stride_cells =
      std::max(1, degraded_sliding.stride_cells) *
      std::max(1, config_.admission.ladder.coarse_stride_multiplier);
  degraded_sliding.max_levels =
      std::min(degraded_sliding.max_levels,
               std::max(1, config_.admission.ladder.coarse_max_levels));

  // --- the overload-control plane --------------------------------------
  // Every serve runs the ladder. Dormant (admission off, no watchdog fire,
  // no fault plan) it holds every stream at Full, where each frame takes the
  // same scan as the sequential run().
  auto controller =
      std::make_unique<AdmissionController>(n_streams, config_.admission);
  AdmissionController& admission = *controller;

  // --- tail sampler + flight recorder ----------------------------------
  // Fresh per serve() so their contents describe exactly this run. The
  // sampler is marked from the collector mid-run and ingests assembled
  // chains once writers have quiesced; the recorder additionally collects
  // telemetry rows and SLO transitions as they happen.
  {
    obs::TraceSamplerConfig sc;
    sc.deadline_ns = deadline_ns;
    sc.head_sample_every = config_.slo.trace_head_sample_every;
    sc.max_retained = config_.slo.trace_max_retained;
    auto sampler = std::make_unique<obs::TraceSampler>(sc);
    obs::FlightRecorderConfig fc;
    fc.max_frames_per_stream = config_.slo.flight_frames_per_stream;
    auto recorder = std::make_unique<obs::FlightRecorder>(fc);
    std::ostringstream cfg;
    cfg << "{\"streams\":" << n_streams
        << ",\"ingest_workers\":" << config_.ingest_workers
        << ",\"control_workers\":" << config_.control_workers
        << ",\"detect_workers\":" << config_.detect_workers
        << ",\"queue_capacity\":" << config_.queue_capacity
        << ",\"detect_policy\":\"" << to_string(config_.detect_policy)
        << "\",\"frame_budget_ms\":" << config_.slo.frame_budget_ms << '}';
    recorder->set_config_json(cfg.str());
    // Swap under the obs lock, before workers start: with_obs() readers
    // may hold the previous serve's pointers mid-request otherwise, and
    // /healthz reads ladder levels and stats live.
    std::lock_guard<std::mutex> lock(obs_mutex_);
    admission_ = std::move(controller);
    sampler_ = std::move(sampler);
    recorder_ = std::move(recorder);
  }
  obs::FlightRecorder* const recorder = recorder_.get();
  last_flight_bundle_path_.clear();
  const std::uint64_t serve_id = serve_count_.fetch_add(1) + 1;
  std::atomic<bool> flight_dump_requested{false};

  {
    // Every ladder transition becomes a labeled gauge move, an instant span
    // on the tracer (so retained chains show WHY fidelity changed), and a
    // flight-recorder transition row (reusing the HealthTransition record
    // with a "/degrade" entity suffix).
    std::vector<StreamCounters>* counter_ptr = &counters;
    admission.set_transition_callback(
        [recorder, counter_ptr](const DegradeTransition& t) {
          const auto us = static_cast<std::size_t>(t.stream);
          if (us < counter_ptr->size())
            (*counter_ptr)[us].degrade_level->set(
                static_cast<double>(static_cast<int>(t.to)));
          obs::ScopedSpan span("degrade_transition", "runtime/admission",
                               {{"stream", t.stream},
                                {"from", static_cast<std::int64_t>(t.from)},
                                {"to", static_cast<std::int64_t>(t.to)}});
          obs::HealthTransition h;
          h.entity = stream_entity(t.stream) + "/degrade";
          h.from = obs::HealthState::Healthy;
          h.to = t.to == DegradeLevel::Full ? obs::HealthState::Healthy
                                            : obs::HealthState::Degraded;
          h.t_ns = t.t_ns;
          h.reason = std::string(to_string(t.from)) + " -> " +
                     to_string(t.to) + " (" + t.reason + ")";
          recorder->record_transition(h);
        });
  }

  // --- SLO health monitoring (optional) --------------------------------
  // One monitor per stream over the standard rule set, driven by an
  // always-on TelemetryExporter sampling the global registry: each sample
  // window's counter deltas are evaluated against the thresholds, with the
  // hysteresis config damping flapping.
  std::vector<std::unique_ptr<obs::SloMonitor>> monitors;
  std::unique_ptr<obs::TelemetryExporter> telemetry;
  if (config_.slo.enabled) {
    monitors.reserve(sources.size());  // moved into monitors_ once built
    for (int s = 0; s < n_streams; ++s) {
      auto monitor = std::make_unique<obs::SloMonitor>(
          stream_entity(s),
          obs::standard_stream_rules_labeled(
              stream_labels(s), config_.slo.deadline_miss_degraded,
              config_.slo.deadline_miss_unhealthy,
              config_.slo.drop_rate_degraded,
              config_.slo.drop_rate_unhealthy),
          config_.slo.hysteresis);
      // Every transition feeds the flight recorder; a transition to
      // UNHEALTHY requests a bundle dump, finalised once writers have
      // quiesced (so the breaching frames' chains are complete in it). The
      // user's callback chains after.
      const int stream = s;
      HealthCallback cb = health_callback_;
      auto* dump_requested = &flight_dump_requested;
      monitor->set_callback(
          [stream, cb, recorder, dump_requested](
              const obs::HealthTransition& t) {
            recorder->record_transition(t);
            if (t.to == obs::HealthState::Unhealthy)
              dump_requested->store(true, std::memory_order_relaxed);
            if (cb) cb(stream, t);
          });
      monitors.push_back(std::move(monitor));
    }
    obs::TelemetryConfig tc;
    tc.period = config_.slo.telemetry_period;
    tc.jsonl_path = config_.slo.telemetry_jsonl;
    tc.rollup_before_sample = true;  // rows carry per-stream AND fleet view
    // Raw pointers by value: the monitors move into monitors_ below and
    // outlive the exporter (stopped before the next serve() replaces them).
    std::vector<obs::SloMonitor*> monitor_ptrs;
    monitor_ptrs.reserve(monitors.size());
    for (auto& m : monitors) monitor_ptrs.push_back(m.get());
    // Health-driven ladder movement: after the monitors digest a window,
    // their states feed the admission controller (which ignores them unless
    // admission.enabled — the watchdog/fault-plan levers work without it).
    tc.on_sample = [monitor_ptrs, recorder, ladder = &admission](
                       const obs::TelemetrySample* prev,
                       const obs::TelemetrySample& cur) {
      recorder->record_telemetry_row(obs::to_json(cur));
      if (prev == nullptr) return;  // a window needs two samples
      for (obs::SloMonitor* m : monitor_ptrs) m->observe(*prev, cur);
      std::vector<obs::HealthState> states;
      states.reserve(monitor_ptrs.size());
      for (obs::SloMonitor* m : monitor_ptrs) states.push_back(m->state());
      ladder->on_health_windows(states);
    };
    telemetry = std::make_unique<obs::TelemetryExporter>(registry, tc);
    telemetry->start();
  }
  {
    // Publish this serve's monitors to the ops plane (/healthz reads live
    // states from them mid-run); empty when monitoring is disabled.
    std::lock_guard<std::mutex> lock(obs_mutex_);
    monitors_ = std::move(monitors);
  }

  BoundedQueue<FrameTask> control_q(config_.queue_capacity,
                                    OverflowPolicy::Block);
  BoundedQueue<DetectTask> detect_q(config_.queue_capacity,
                                    config_.detect_policy);
  BoundedQueue<ReportTask> report_q(config_.queue_capacity,
                                    OverflowPolicy::Block);

  // Per-frame report slots, written only by the collector thread.
  std::vector<std::vector<core::AdaptiveFrameReport>> slots(sources.size());
  std::vector<std::vector<bool>> filled(sources.size());

  std::atomic<std::size_t> next_source{0};
  std::atomic<int> live_ingest{config_.ingest_workers};
  std::atomic<int> live_control{config_.control_workers};
  std::atomic<int> live_detect{config_.detect_workers};

  // --- stage 1: ingest -------------------------------------------------
  // Each frame gets a fresh trace id here: the ingest span is the root of
  // the frame's causal chain, and the FrameTask carries {trace_id,
  // ingest-span id} across the queue so the control span parents on it.
  const auto ingest_loop = [&](int worker) {
    log_.record(now_tp(), "runtime/ingest",
                "worker " + std::to_string(worker) + " start");
    for (;;) {
      const std::size_t s = next_source.fetch_add(1);
      if (s >= sources.size()) break;
      FrameSource& src = *sources[s];
      StreamState& state = *streams[s];
      state.ingest_started.store(true, std::memory_order_relaxed);
      state.last_progress_ns.store(tracer.now_ns(), std::memory_order_relaxed);
      int index = 0;
      for (;;) {
        // A watchdog-fired stream is abandoned at the next opportunity: its
        // remaining frames would only be shed anyway, and an intermittently
        // stalling source stops occupying this worker.
        if (state.watchdog_fired.load(std::memory_order_relaxed)) break;
        const obs::TraceScope root(
            {tracer.enabled() ? obs::Tracer::new_trace_id() : 0, 0});
        obs::ScopedSpan span("ingest_frame", "runtime/ingest",
                             {{"stream", static_cast<std::int64_t>(s)},
                              {"frame", index}});
        const Clock::time_point t0 = Clock::now();
        // Transient source failures retry with exponential backoff; past
        // max_attempts (or on a non-transient exception) the stream is
        // truncated here rather than wedging the serve.
        std::optional<data::SequenceFrame> meta;
        int attempts = 0;
        double backoff_ms =
            static_cast<double>(config_.source_retry.backoff.count());
        for (;;) {
          try {
            meta = src.next();
            break;
          } catch (const TransientSourceError&) {
            if (++attempts >= std::max(1, config_.source_retry.max_attempts)) {
              state.source_failed.store(true, std::memory_order_relaxed);
              break;
            }
            state.source_retries.fetch_add(1);
            counters[s].source_retries->inc();
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(backoff_ms));
            backoff_ms *= std::max(1.0, config_.source_retry.backoff_multiplier);
          } catch (const std::exception&) {
            state.source_failed.store(true, std::memory_order_relaxed);
            break;
          }
        }
        if (!meta) break;
        ingest_stage.latency->record(Clock::now() - t0);
        if (config_.validate_frames && !std::isfinite(meta->light_level)) {
          // Garbage in, nothing out: refused BEFORE an index is assigned,
          // so the control plane's frame numbering stays dense and healthy
          // streams are unaffected bit for bit.
          state.garbage_frames.fetch_add(1);
          counters[s].garbage->inc();
          continue;
        }
        FrameTask task;
        task.stream = static_cast<int>(s);
        task.index = index++;
        task.meta = std::move(*meta);
        task.trace = span.context();
        task.ingest_ns = tracer.now_ns();
        control_q.push(std::move(task));
        state.last_progress_ns.store(tracer.now_ns(),
                                     std::memory_order_relaxed);
        ingest_stage.processed->inc();
      }
      state.frames_ingested.store(index);
      state.ingest_done.store(true, std::memory_order_relaxed);
    }
    if (live_ingest.fetch_sub(1) == 1) control_q.close();
    log_.record(now_tp(), "runtime/ingest",
                "worker " + std::to_string(worker) + " done");
  };

  // --- coast ledger operations (ladder level 2) ------------------------
  // Feed one frame's entry to the stream's tracker ledger and advance the
  // in-order frontier as far as it goes. coast_mutex is a leaf lock.
  const auto publish_entry = [&](StreamState& st, int index,
                                 CoastEntry entry) {
    bool advanced = false;
    {
      std::lock_guard<std::mutex> lock(st.coast_mutex);
      st.coast_pending.emplace(index, std::move(entry));
      for (auto it = st.coast_pending.find(st.coast_done + 1);
           it != st.coast_pending.end();
           it = st.coast_pending.find(st.coast_done + 1)) {
        CoastEntry& e = it->second;
        if (e.coast) {
          // No fresh detections: the tracker coasts every live box forward
          // by its last motion; confirmed tracks become the frame's output.
          std::vector<det::Track> tracks = st.tracker.update({});
          std::vector<det::Detection> dets;
          dets.reserve(tracks.size());
          for (const det::Track& t : tracks) {
            det::Detection d;
            d.box = t.box;
            d.score = t.last_score;
            d.class_id = t.class_id;
            dets.push_back(d);
          }
          st.coast_results.emplace(it->first, std::move(dets));
        } else {
          st.tracker.update(e.dets);
        }
        ++st.coast_done;
        st.coast_pending.erase(it);
        advanced = true;
      }
    }
    if (advanced) st.coast_cv.notify_all();
  };
  // Wait for the frontier to cross `index`, then take its coasted boxes.
  // Safe: the detect queue is FIFO, so every smaller index of this stream
  // already left it, and every leaving path publishes an entry; waits are
  // only ever on smaller indices, so no cycles.
  const auto take_coast = [&](StreamState& st, int index) {
    std::unique_lock<std::mutex> lock(st.coast_mutex);
    st.coast_cv.wait(lock, [&] { return st.coast_done >= index; });
    const auto it = st.coast_results.find(index);
    std::vector<det::Detection> dets = std::move(it->second);
    st.coast_results.erase(it);
    return dets;
  };

  // A frame that never reaches the detect scan still produces a report:
  // shed by admission (the ladder's level 3 or the token bucket; taken on
  // the control thread, so the frame skips the detect queue entirely) or
  // dropped by detect-queue backpressure — the serving-layer twin of the
  // paper's reconfiguration drop: the vehicle engine misses the frame, the
  // static pedestrian partition does not. Either way the tracker frontier
  // advances, as an empty update — exactly what miss-coasting is for.
  const auto emit_unscanned = [&](DetectTask&& task, bool shed) {
    StreamState& st = *streams[static_cast<std::size_t>(task.stream)];
    if (!shed) {
      st.backpressure_drops.fetch_add(1);
      detect_stage.dropped->inc();
    }
    const obs::TraceScope scope(task.trace);
    obs::ScopedSpan span(
        shed ? "shed_frame" : "drop_frame",
        shed ? "runtime/control" : "runtime/detect",
        {{"stream", task.stream},
         {"frame", task.step.index},
         {"level", static_cast<std::int64_t>(task.decision.level)}});
    task.step.record.vehicle_processed = false;
    ReportTask out;
    out.stream = task.stream;
    out.report = system_->evaluate_frame(task.step, task.meta);
    out.report.degrade_level = static_cast<int>(task.decision.level);
    out.trace = span.context();
    out.ingest_ns = task.ingest_ns;
    out.backpressure_dropped = !shed;
    out.shed = shed;
    publish_entry(st, task.step.index, CoastEntry{});
    report_q.push(std::move(out));
  };

  // --- stage 2: control (per-stream sequential) ------------------------
  const auto control_loop = [&](int worker) {
    log_.record(now_tp(), "runtime/control",
                "worker " + std::to_string(worker) + " start");
    while (std::optional<FrameTask> task = control_q.pop()) {
      StreamState& state = *streams[static_cast<std::size_t>(task->stream)];
      std::unique_lock<std::mutex> lock(state.mutex);
      if (task->index != state.next_index) {
        // Another worker holds an earlier frame of this stream; park the
        // whole task (trace context included) until the stream catches up.
        const int index = task->index;
        state.pending.emplace(index, std::move(*task));
        continue;
      }
      FrameTask current = std::move(*task);
      for (;;) {
        // Re-install the frame's context on whichever worker won the frame:
        // the control span parents on the ingest span across the thread hop.
        const obs::TraceScope scope(current.trace);
        obs::ScopedSpan span("control_frame", "runtime/control",
                             {{"stream", current.stream},
                              {"frame", current.index}});
        const Clock::time_point t0 = Clock::now();
        core::ControlStep step = state.session.control_step(current.meta);
        span.arg("mode", static_cast<std::int64_t>(step.sensed));
        control_stage.record(t0);
        ++state.next_index;
        state.last_progress_ns.store(tracer.now_ns(),
                                     std::memory_order_relaxed);

        // The admission verdict is taken here — per-stream sequential, so
        // a forced level (fault plan) keyed on the frame index yields a
        // deterministic transition sequence.
        const std::optional<int> forced =
            injector != nullptr
                ? injector->forced_degrade_level(current.stream, step.index)
                : std::nullopt;
        DetectTask dt;
        dt.stream = current.stream;
        dt.step = step;
        dt.meta = std::move(current.meta);
        dt.trace = span.context();
        dt.ingest_ns = current.ingest_ns;
        dt.decision = admission.decide(current.stream, step.index,
                                       tracer.now_ns(), forced);
        if (!dt.decision.admit) {
          emit_unscanned(std::move(dt), /*shed=*/true);
        } else {
          // The queue hands any dropped task back (the stale one under
          // DropOldest, this one under DropNewest) so no frame vanishes.
          std::optional<DetectTask> displaced;
          detect_q.push(std::move(dt), &displaced);
          if (displaced) emit_unscanned(std::move(*displaced), /*shed=*/false);
        }

        const auto it = state.pending.find(state.next_index);
        if (it == state.pending.end()) break;
        current = std::move(it->second);
        state.pending.erase(it);
      }
    }
    if (live_control.fetch_sub(1) == 1) detect_q.close();
    log_.record(now_tp(), "runtime/control",
                "worker " + std::to_string(worker) + " done");
  };

  // --- stage 3: detect (parallel, const) -------------------------------
  // One frame's pixel-level evaluation, run inline by a detect worker or as
  // one task of a gather on the scan pool (everything it touches is const,
  // per-stream-synchronised, or an MPMC queue). A level-2 coast frame takes
  // its boxes from the tracker once every earlier frame of the stream has
  // fed it (see the coast ledger; the worker published its entry); a scan
  // runs at the fidelity of its ladder level and feeds its boxes to the
  // ledger.
  const auto detect_one = [&](DetectTask& task) {
    const obs::TraceScope scope(task.trace);
    obs::ScopedSpan span("detect_frame", "runtime/detect",
                         {{"stream", task.stream},
                          {"frame", task.step.index},
                          {"mode", static_cast<std::int64_t>(
                                       task.step.sensed)}});
    const Clock::time_point t0 = Clock::now();
    StreamState& st = *streams[static_cast<std::size_t>(task.stream)];
    const DegradeLevel level = task.decision.level;
    const bool coast = task.decision.coast;
    std::vector<det::Detection> dets;
    core::AdaptiveSystem::EvaluateOptions opts;
    if (coast) {
      span.arg("coast", 1);
      dets = take_coast(st, task.step.index);
      opts.provided_detections = &dets;
    } else {
      if (level == DegradeLevel::CoarseScan || level == DegradeLevel::SkipCoast)
        opts.sliding_override = &degraded_sliding;
      opts.out_detections = &dets;
    }
    ReportTask out;
    out.stream = task.stream;
    out.report = system_->evaluate_frame(task.step, task.meta, opts);
    out.report.degrade_level = static_cast<int>(level);
    out.report.detect_coasted = coast;
    out.trace = span.context();
    out.ingest_ns = task.ingest_ns;
    if (!coast) {
      // Only a scan occupies the accelerator.
      if (config_.simulated_accel_ms > 0.0 && task.step.record.vehicle_processed)
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            config_.simulated_accel_ms));
      publish_entry(st, task.step.index, CoastEntry{false, std::move(dets)});
    }
    if (injector != nullptr) {
      const double slow_ms =
          injector->detect_slowdown_ms(task.stream, task.step.index);
      if (slow_ms > 0.0)
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(slow_ms));
    }
    st.last_progress_ns.store(tracer.now_ns(), std::memory_order_relaxed);
    detect_stage.record(t0);
    report_q.push(std::move(out));
  };

  // Every worker gathers: one blocking pop plus opportunistic try_pops up to
  // the gather bound, so a sparse queue costs nothing. Without cross-stream
  // batching the bound is 1 and a gather is the one frame popped; with it,
  // the gather is whatever is ALREADY queued, across every stream on this
  // server, and needs the shared pool to fan onto.
  const bool batching = config_.cross_stream_batching &&
                        config_.scan_pool != nullptr &&
                        config_.detect_batch_max > 1;
  const std::size_t gather_max =
      batching ? static_cast<std::size_t>(config_.detect_batch_max) : 1;
  const auto detect_loop = [&](int worker) {
    log_.record(now_tp(), "runtime/detect",
                "worker " + std::to_string(worker) + " start");
    std::vector<DetectTask> scans;
    std::vector<DetectTask> coasts;
    const auto stash = [&](DetectTask&& t) {
      (t.decision.coast ? coasts : scans).push_back(std::move(t));
    };
    while (std::optional<DetectTask> first = detect_q.pop()) {
      scans.clear();
      coasts.clear();
      stash(std::move(*first));
      DetectTask extra;
      while (scans.size() + coasts.size() < gather_max &&
             detect_q.try_pop(extra))
        stash(std::move(extra));
      // Coast-ledger discipline: publish EVERY gathered coast entry before
      // anything in this gather may block in take_coast. A worker that
      // blocked while still holding unpublished entries could deadlock
      // against another worker doing the same with the interleaved indices
      // of the opposite stream; publishing first keeps the global
      // invariant that every popped frame is published without waiting.
      for (DetectTask& t : coasts)
        publish_entry(*streams[static_cast<std::size_t>(t.stream)],
                      t.step.index, CoastEntry{true, {}});
      // Scan frames are independent const evaluations: one runs inline,
      // more run as one indexed batch on the shared pool, whatever stream
      // each frame belongs to.
      if (scans.size() == 1) {
        detect_one(scans.front());
      } else if (!scans.empty()) {
        config_.scan_pool->run_indexed(
            static_cast<int>(scans.size()), [&scans, &detect_one](int i) {
              detect_one(scans[static_cast<std::size_t>(i)]);
            });
      }
      // Scatter coast frames in canonical (stream, index) order — a coast
      // frame's same-stream predecessors in this gather are consumed
      // before it waits, and its report lands via the same order-
      // insensitive collector as everything else.
      std::sort(coasts.begin(), coasts.end(),
                [](const DetectTask& a, const DetectTask& b) {
                  return a.stream != b.stream ? a.stream < b.stream
                                              : a.step.index < b.step.index;
                });
      for (DetectTask& t : coasts) detect_one(t);
    }
    if (live_detect.fetch_sub(1) == 1) report_q.close();
    log_.record(now_tp(), "runtime/detect",
                "worker " + std::to_string(worker) + " done");
  };

  // --- stage 4: report collector ---------------------------------------
  const auto collect_loop = [&] {
    log_.record(now_tp(), "runtime/report", "collector start");
    while (std::optional<ReportTask> task = report_q.pop()) {
      const obs::TraceScope scope(task->trace);
      obs::ScopedSpan span("collect_report", "runtime/report",
                           {{"stream", task->stream},
                            {"frame", task->report.index}});
      const Clock::time_point t0 = Clock::now();
      const auto us = static_cast<std::size_t>(task->stream);
      auto& stream_slots = slots[us];
      auto& stream_filled = filled[us];
      const auto index = static_cast<std::size_t>(task->report.index);
      if (index >= stream_slots.size()) {
        stream_slots.resize(index + 1);
        stream_filled.resize(index + 1, false);
      }
      // Critical-path latency of this frame: ingest-enqueue to
      // report-dequeue on the tracer timebase. Feeds the latency histogram,
      // the deadline counter the frame_deadline SLO rule watches, and the
      // span (as an arg) so traces carry the number too.
      const std::uint64_t now_ns = tracer.now_ns();
      const std::uint64_t latency_ns =
          now_ns >= task->ingest_ns ? now_ns - task->ingest_ns : 0;
      span.arg("latency_us", static_cast<std::int64_t>(latency_ns / 1000u));
      StreamCounters& c = counters[us];
      c.latency->record_ns(latency_ns);
      if (!task->shed) admitted_latency.record_ns(latency_ns);
      c.frames->inc();
      if (deadline_ns > 0 && latency_ns > deadline_ns) {
        c.deadline_miss->inc();
        streams[us]->deadline_misses.fetch_add(1);
        // Tail sampling: a deadline miss makes this frame's chain worth
        // keeping verbatim when the rings are ingested after the run.
        sampler_->mark_interesting(task->trace.trace_id);
      }
      if (task->backpressure_dropped) {
        c.backpressure_drops->inc();
        sampler_->mark_interesting(task->trace.trace_id);
      }
      if (task->shed) {
        c.shed->inc();
        sampler_->mark_interesting(task->trace.trace_id);
      } else if (task->report.detect_coasted) {
        c.coasted->inc();
      } else if (task->report.degrade_level > 0 &&
                 !task->backpressure_dropped) {
        c.degraded_scans->inc();
      }
      // Shed frames are an explicit admission verdict, not a reconfig cost;
      // keep them out of the reconfiguration-loss SLO rule.
      if (!task->report.vehicle_processed && !task->backpressure_dropped &&
          !task->shed)
        c.reconfig_drops->inc();
      if (task->report.reconfig_triggered) c.reconfigs->inc();
      stream_slots[index] = std::move(task->report);
      stream_filled[index] = true;
      streams[us]->collected.fetch_add(1, std::memory_order_relaxed);
      streams[us]->last_progress_ns.store(now_ns, std::memory_order_relaxed);
      report_stage.record(t0);
    }
    log_.record(now_tp(), "runtime/report", "collector done");
  };

  // --- liveness watchdog -----------------------------------------------
  // Polls per-stream progress timestamps; a stream that is started,
  // incomplete and silent past the timeout is pinned to Shed (degrade
  // level 3) and its source abandoned — the wedge becomes an accounted
  // event instead of a hung serve.
  std::atomic<bool> watchdog_stop{false};
  std::thread watchdog_thread;
  if (config_.watchdog.enabled) {
    const std::uint64_t timeout_ns = static_cast<std::uint64_t>(
        std::max<std::int64_t>(1, config_.watchdog.timeout.count())) *
        1000000ull;
    watchdog_thread = std::thread([&, timeout_ns] {
      while (!watchdog_stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(config_.watchdog.poll);
        const std::uint64_t now = tracer.now_ns();
        for (int s = 0; s < n_streams; ++s) {
          StreamState& st = *streams[static_cast<std::size_t>(s)];
          if (st.watchdog_fired.load(std::memory_order_relaxed)) continue;
          if (!st.ingest_started.load(std::memory_order_relaxed)) continue;
          const bool complete =
              st.ingest_done.load(std::memory_order_relaxed) &&
              st.collected.load(std::memory_order_relaxed) ==
                  st.frames_ingested.load();
          if (complete) continue;
          const std::uint64_t last =
              st.last_progress_ns.load(std::memory_order_relaxed);
          if (now > last && now - last > timeout_ns) {
            st.watchdog_fired.store(true, std::memory_order_relaxed);
            admission.force_level(s, DegradeLevel::Shed, "watchdog");
            registry.counter("runtime.watchdog_fired", stream_labels(s))
                .inc();
            log_.record(now_tp(), "runtime/watchdog",
                        "stream " + std::to_string(s) +
                            " wedged; forcing degrade level 3");
          }
        }
      }
    });
  }

  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(config_.ingest_workers +
                                           config_.control_workers +
                                           config_.detect_workers) +
                  1);
  for (int i = 0; i < config_.ingest_workers; ++i)
    workers.emplace_back(ingest_loop, i);
  for (int i = 0; i < config_.control_workers; ++i)
    workers.emplace_back(control_loop, i);
  if (config_.scan_pool != nullptr && !batching) {
    // Shared-pool mode: one launcher thread publishes the detect loops as an
    // indexed batch on the scanner's pool and helps run them. Ingest,
    // control and the collector stay dedicated threads, so the queues always
    // drain and close — pooled detect loops terminate even when every pool
    // thread is parked in detect_q.pop(). Nested scans inside a pooled
    // detect worker (sliding.pool == scan_pool) self-help, so sharing one
    // pool cannot deadlock.
    //
    // With cross-stream batching the roles invert: detect workers stay
    // dedicated threads acting as batch coordinators (gather from the
    // queue, fan the batch onto the pool, help run it), so every pool
    // thread is available to execute frames instead of being parked in
    // detect_q.pop().
    workers.emplace_back([this, &detect_loop] {
      config_.scan_pool->run_indexed(config_.detect_workers, detect_loop);
    });
  } else {
    for (int i = 0; i < config_.detect_workers; ++i)
      workers.emplace_back(detect_loop, i);
  }
  workers.emplace_back(collect_loop);
  for (std::thread& t : workers) t.join();
  if (watchdog_thread.joinable()) {
    watchdog_stop.store(true, std::memory_order_relaxed);
    watchdog_thread.join();
  }

  // Queue-depth high-water marks of the queues each stage drains.
  control_stage.raise_high_water(control_q.stats().high_water);
  detect_stage.raise_high_water(detect_q.stats().high_water);
  report_stage.raise_high_water(report_q.stats().high_water);

  // Fold the labeled per-stream series into the fleet base names — even
  // with monitoring disabled, direct post-serve readers of e.g.
  // "runtime.frame.latency_ns" see the fleet aggregate.
  registry.rollup();

  // One final telemetry window catches counters the last periodic sample
  // missed, then the monitors' verdicts become part of the results.
  if (telemetry) telemetry->stop();

  // Writers have quiesced: feed the tail sampler and the flight recorder
  // from the tracer rings. snapshot() (not drain()) leaves the spans in
  // place for callers that export their own traces after serve().
  if (tracer.enabled()) {
    const std::vector<obs::SpanRecord> spans = tracer.snapshot();
    const std::vector<obs::FrameTrace> chains =
        obs::assemble_frame_traces(spans);
    sampler_->ingest(chains);
    for (const obs::FrameTrace& chain : chains) recorder->record_frame(chain);
    registry.gauge("obs.sampler.frames_seen")
        .set(static_cast<double>(sampler_->frames_seen()));
    registry.gauge("obs.sampler.frames_retained")
        .set(static_cast<double>(sampler_->frames_retained()));
    registry.gauge("obs.sampler.spans_seen")
        .set(static_cast<double>(sampler_->spans_seen()));
  }

  // Finalise a dump requested by an UNHEALTHY transition, now that the
  // breaching frames' chains are in the recorder.
  if (flight_dump_requested.load(std::memory_order_relaxed)) {
    std::string dir = config_.slo.flight_dump_dir;
    if (dir.empty()) {
      if (const char* env = std::getenv("AVD_FLIGHT_DIR")) dir = env;
    }
    if (!dir.empty()) {
      const std::string path = dir + "/flight_bundle_serve" +
                               std::to_string(serve_id) + ".json";
      if (recorder->dump_to_file(path, "health transition to UNHEALTHY"))
        last_flight_bundle_path_ = path;
    }
  }

  // --- assemble per-stream results -------------------------------------
  for (int s = 0; s < n_streams; ++s) {
    const auto us = static_cast<std::size_t>(s);
    StreamState& state = *streams[us];
    StreamResult& result = results[us];
    const int expected = state.frames_ingested.load();
    if (static_cast<int>(slots[us].size()) != expected)
      throw std::logic_error("StreamServer: stream " + std::to_string(s) +
                             " lost frames (" +
                             std::to_string(slots[us].size()) + "/" +
                             std::to_string(expected) + ")");
    for (std::size_t i = 0; i < filled[us].size(); ++i)
      if (!filled[us][i])
        throw std::logic_error("StreamServer: stream " + std::to_string(s) +
                               " missing frame " + std::to_string(i));
    result.report.frames = std::move(slots[us]);
    result.report.reconfigs = state.session.reconfigs();
    result.report.log = state.session.log();
    result.backpressure_drops = state.backpressure_drops.load();
    result.deadline_misses = state.deadline_misses.load();
    result.garbage_frames = state.garbage_frames.load();
    result.source_retries = state.source_retries.load();
    result.source_failed = state.source_failed.load();
    result.watchdog_fired = state.watchdog_fired.load();
    const AdmissionStats stats = admission.stats(s);
    result.shed_frames = stats.shed;
    result.coasted_frames = stats.coasted;
    result.degraded_scans = stats.degraded_scans;
    result.degrade_level = admission.level(s);
    result.degrade_transitions = admission.transitions(s);
    if (config_.slo.enabled) {
      result.health = monitors_[us]->state();
      result.health_transitions = monitors_[us]->transitions();
      std::lock_guard<std::mutex> lock(obs_mutex_);
      stream_health_[us] = result.health;
    }
    std::ostringstream os;
    os << "stream " << s << " complete: " << result.report.frames.size()
       << " frames, " << result.report.reconfigs.size() << " reconfigs, "
       << result.backpressure_drops << " backpressure drops, "
       << result.shed_frames << " shed, " << result.coasted_frames
       << " coasted, degrade level " << static_cast<int>(result.degrade_level);
    if (config_.slo.enabled)
      os << ", health " << obs::to_string(result.health);
    log_.record(now_tp(), "runtime/server", os.str());
  }
  return results;
}

void StreamServer::with_obs(
    const std::function<void(const ObsView&)>& fn) const {
  std::lock_guard<std::mutex> lock(obs_mutex_);
  ObsView view{{}, admission_.get(), sampler_.get(), recorder_.get()};
  if (monitors_.empty()) {
    view.health = stream_health_;
  } else {
    view.health.reserve(monitors_.size());
    for (const auto& m : monitors_) view.health.push_back(m->state());
  }
  fn(view);
}

obs::HealthState StreamServer::fleet_health() const {
  obs::HealthState worst = obs::HealthState::Healthy;
  with_obs(
      [&worst](const ObsView& view) { worst = obs::worst_of(view.health); });
  return worst;
}

AdmissionController* StreamServer::admission() const {
  std::lock_guard<std::mutex> lock(obs_mutex_);
  return admission_.get();
}

obs::OpsServer* StreamServer::ops_server() const {
  return ops_ ? ops_->server() : nullptr;
}

obs::SampleProfiler* StreamServer::profiler() const {
  return ops_ ? ops_->profiler() : nullptr;
}

}  // namespace avd::runtime
