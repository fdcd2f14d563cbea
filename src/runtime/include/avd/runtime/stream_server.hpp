// StreamServer: the concurrent multi-stream serving runtime.
//
// Runs the adaptive pipeline as a staged dataflow over bounded queues:
//
//   sources ── ingest ──> [control queue] ── control ──> [detect queue]
//              workers      (always Block)   workers       (configurable)
//                                                             │
//   results <── collector <── [report queue] <── detect ──────┘
//                               (Block)          workers
//
// * ingest   — pulls frames from N FrameSources (one worker per source at a
//              time) into the control queue.
// * control  — the sequential per-stream brain: lighting classification,
//              reconfiguration decisions, frame scheduling, via
//              core::AdaptiveSystem::StepSession. Frames of one stream are
//              processed strictly in index order (a per-stream reorder
//              buffer absorbs MPMC scheduling); different streams proceed
//              concurrently.
// * detect   — the heavy, embarrassingly parallel stage: pixel-level
//              detection through the const AdaptiveSystem::evaluate_frame.
//              This pool is the throughput knob.
// * report   — a single collector slots per-frame reports into per-stream
//              result vectors (order-insensitive by construction).
//
// Determinism: with the default Block policy every per-stream report is
// bit-identical to the sequential AdaptiveSystem::run() on the same
// sequence, whatever the worker counts — enforced by tests/runtime. With a
// drop policy on the detect queue, overflowing frames are not lost silently:
// they surface as vehicle_processed=false reports (the pedestrian engine,
// like the paper's static partition, is unaffected), exactly the shape of
// the paper's reconfiguration frame drop.
//
// Overload control: every serve runs the degradation ladder
// (avd/runtime/admission.hpp). At its dormant default every stream stays at
// level Full, whose frames take the same scan as the sequential run();
// admission control, the watchdog and fault plans move streams down it.
//
// Metrics: each stage records into the global obs::MetricsRegistry as
// runtime.stage.{latency_ns,processed,dropped,queue_high_water}{stage=…}
// (plus metric_labels), beside the per-stream runtime.* series the SLO
// rules read. The registry accumulates across serves; take deltas around a
// serve to account for it alone.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "avd/core/adaptive_system.hpp"
#include "avd/obs/flight_recorder.hpp"
#include "avd/obs/metrics.hpp"
#include "avd/obs/ops_server.hpp"
#include "avd/obs/sample_profiler.hpp"
#include "avd/obs/slo.hpp"
#include "avd/obs/trace_sampler.hpp"
#include "avd/runtime/admission.hpp"
#include "avd/runtime/bounded_queue.hpp"
#include "avd/runtime/frame_source.hpp"
#include "avd/soc/event_log.hpp"

namespace avd::runtime {

class ThreadPool;      // avd/runtime/thread_pool.hpp
class FaultInjector;   // avd/runtime/fault_injection.hpp

/// Retry policy for transient source failures: a source throwing
/// TransientSourceError is retried with exponential backoff; past
/// max_attempts total tries the stream ends there (StreamResult::source_failed)
/// instead of wedging the serve.
struct SourceRetryConfig {
  int max_attempts = 3;
  std::chrono::milliseconds backoff{1};
  double backoff_multiplier = 2.0;
};

/// Health monitoring attached to a serve() call: an always-on
/// obs::TelemetryExporter samples the global MetricsRegistry for the run's
/// duration and per-stream obs::SloMonitors evaluate each window
/// (frame-deadline misses vs the 20 ms / 50 fps budget, queue drop rate,
/// reconfiguration frame loss beyond the paper's one-frame cost).
struct StreamSloConfig {
  /// Off by default: monitoring costs one background sampling thread; the
  /// per-stream counters feeding it are recorded regardless.
  bool enabled = false;
  /// Per-frame end-to-end (ingest -> report) deadline. The paper's frame
  /// budget: one 50 fps frame.
  double frame_budget_ms = 20.0;
  /// Telemetry sampling period.
  std::chrono::milliseconds telemetry_period{20};
  /// Optional append-only JSONL sink for the telemetry samples.
  std::string telemetry_jsonl;
  /// Hysteresis of the per-stream health state machines.
  obs::SloConfig hysteresis;
  /// Thresholds for the standard rule set (obs::standard_stream_rules).
  double deadline_miss_degraded = 0.05;
  double deadline_miss_unhealthy = 0.25;
  double drop_rate_degraded = 0.01;
  double drop_rate_unhealthy = 0.10;
  /// Tail-based trace sampling (active whenever the tracer was enabled
  /// during serve(), independent of `enabled` above): every Nth frame chain
  /// is retained as a healthy baseline (0 = none), deadline misses and
  /// backpressure drops are always retained, everything else folds into
  /// per-span-name SpanStats.
  std::uint64_t trace_head_sample_every = 64;
  /// Bound of the sampler's retained-chain FIFO.
  std::size_t trace_max_retained = 256;
  /// Flight recorder: frame chains remembered per stream.
  std::size_t flight_frames_per_stream = 32;
  /// Directory for automatic flight-recorder bundles, written at the end of
  /// a serve() during which some stream transitioned to UNHEALTHY. Empty:
  /// the AVD_FLIGHT_DIR environment variable is consulted, and when that is
  /// unset too the bundle stays in memory (flight_recorder()->dump()).
  std::string flight_dump_dir;
};

/// The live introspection plane: an embedded obs::OpsServer owned by the
/// StreamServer for its whole lifetime (not per serve()), so a fleet
/// operator can scrape metrics, read health, pull traces and profile the
/// pipeline *while it serves*. Endpoints installed:
///
///   /metricsz       Prometheus text exposition (rollup() first)
///   /metricsz.json  registry snapshot as JSON
///   /healthz        fleet + per-stream SLO states; 503 when UNHEALTHY
///   /tracez         tail-sampler retained chains + per-span-name stats
///   /flightz        flight-recorder bundle, on demand
///   /statusz        uptime, build identity, serving configuration
///   /profilez       span-sampling profile over ?seconds=N (collapsed text;
///                   ?format=json for the structured report)
struct StreamOpsConfig {
  /// Off by default: the ops plane costs a listener socket plus
  /// 1 + handler_threads background threads.
  bool enabled = false;
  /// Listener shape. Default binds 127.0.0.1 on an ephemeral port — read it
  /// back via StreamServer::ops_server()->port().
  obs::OpsServerConfig server;
  /// Sampling shape of the /profilez profiler.
  obs::SampleProfilerConfig profiler;
  /// Upper bound on one /profilez window; larger ?seconds= values clamp.
  double max_profile_seconds = 10.0;
};

struct StreamServerConfig {
  /// Workers pumping sources into the control queue. More than one only
  /// helps when several streams are served (a source is never shared).
  int ingest_workers = 1;
  /// Workers running the per-stream control plane. Cheap stage; 1-2 suffice
  /// unless use_image_light_estimate renders frames during control.
  int control_workers = 1;
  /// Workers running pixel-level detection — the scaling knob.
  int detect_workers = 2;
  /// Capacity of every inter-stage queue.
  std::size_t queue_capacity = 16;
  /// Backpressure policy of the detect queue only; control and report
  /// queues always block (the control plane must see every frame).
  OverflowPolicy detect_policy = OverflowPolicy::Block;
  /// Milliseconds each detect task additionally occupies its worker,
  /// modelling a blocking dispatch to the PL accelerator (which the paper
  /// runs at one frame per 20 ms). 0 = off. Used by the scaling bench so
  /// serving concurrency is measurable independent of host CPU count.
  double simulated_accel_ms = 0.0;
  /// When set, the detect stage's workers run as cooperative tasks on this
  /// pool instead of dedicated std::threads — install the SAME pool as
  /// core::AdaptiveSystemConfig::sliding.pool so frame-level parallelism,
  /// the HOG scanner's level/band parallelism and the dark scan's blob
  /// gather + DBN batch scoring all share one set of OS threads
  /// instead of oversubscribing. The pool is caller-helping, so detect
  /// throughput never drops below one worker even on a zero-thread pool;
  /// per-stream results stay bit-identical either way. Not owned.
  ThreadPool* scan_pool = nullptr;
  /// Cross-stream detect batching: each detect worker gathers up to
  /// detect_batch_max queued frames from ALL streams and runs them as one
  /// indexed batch on `scan_pool`, so a sparse stream never strands detect
  /// cores behind a busy neighbour. Requires scan_pool (silently off
  /// without one). Per-stream results stay bit-identical to the sequential
  /// run (test-enforced): detection is a const per-frame evaluation, and
  /// coast-ledger tracker updates are serialised by frame index regardless
  /// of batch completion order. Level-2 coast frames are excluded from
  /// batches (they block on the ledger frontier) and handled in canonical
  /// (stream, index) order after the batch.
  bool cross_stream_batching = false;
  /// Largest detect batch one worker gathers (>= 1).
  int detect_batch_max = 8;
  /// Extra labels appended to every per-stream labeled series this server
  /// publishes — the sharded front door passes {{"shard","<m>"}} so one
  /// registry holds shard= x stream= leaves that rollup() folds into
  /// per-shard marginals and the fleet base. The stream= label is always
  /// added on top of these.
  obs::Labels metric_labels;
  /// Fleet-global values for the stream= label, indexed like the sources
  /// passed to serve(). Streams beyond the vector (or when it is empty)
  /// fall back to the local index rendered in decimal.
  std::vector<std::string> stream_names;
  /// Telemetry + SLO health monitoring for this server's serve() calls.
  StreamSloConfig slo;
  /// Embedded ops server + on-demand profiler (see StreamOpsConfig).
  StreamOpsConfig ops;
  /// The overload-control plane (see avd/runtime/admission.hpp): per-stream
  /// token-bucket admission and the SloMonitor-driven degradation ladder.
  /// The ladder runs in every serve; admission.enabled switches on
  /// health-driven level changes and the bucket. The watchdog and fault
  /// plans pin levels either way.
  AdmissionConfig admission;
  /// Per-stream liveness watchdog: a stream making no pipeline progress for
  /// watchdog.timeout is pinned to DegradeLevel::Shed and its source is
  /// abandoned at the next ingest opportunity — a wedged stream becomes a
  /// degrade-level-3 event with StreamResult accounting, not a hung serve.
  /// (A source blocked *inside* next() forever can only be reaped once that
  /// call returns; the watchdog cannot cancel foreign blocking calls.)
  WatchdogConfig watchdog;
  /// Retry-with-backoff for sources throwing TransientSourceError.
  SourceRetryConfig source_retry;
  /// Refuse frames whose light level is non-finite at ingest (before an
  /// index is assigned, so the control plane's frame numbering stays dense);
  /// refused frames are counted per stream as garbage_frames.
  bool validate_frames = true;
  /// Deterministic fault plans for this server's serves (not owned; use one
  /// injector per serve — its counters and retry bookkeeping accumulate).
  /// Sources are wrapped with the plan's source faults, detect workers apply
  /// its slowdowns, and ForceDegrade specs pin the ladder per frame.
  FaultInjector* fault_injector = nullptr;
};

/// Everything one stream produced.
struct StreamResult {
  int stream = 0;
  core::AdaptiveRunReport report;
  /// Frames that overflowed the detect queue (drop policies only); they are
  /// still present in report.frames, marked vehicle_processed = false.
  std::uint64_t backpressure_drops = 0;
  /// Frames whose ingest -> report latency exceeded slo.frame_budget_ms.
  std::uint64_t deadline_misses = 0;
  /// Final health of the stream's SLO state machine (HEALTHY when
  /// monitoring was disabled) and every transition it went through.
  obs::HealthState health = obs::HealthState::Healthy;
  std::vector<obs::HealthTransition> health_transitions;
  /// Overload-control accounting (all zero while the ladder stays at Full).
  /// Shed frames are still present in report.frames with
  /// vehicle_processed = false and degrade_level = 3.
  std::uint64_t shed_frames = 0;
  /// Level-2 frames served from the tracker instead of a scan.
  std::uint64_t coasted_frames = 0;
  /// Scans run at reduced fidelity (level 1, or the level-2 scan frames).
  std::uint64_t degraded_scans = 0;
  /// Frames refused at ingest validation (non-finite light level); they
  /// never received a frame index and are absent from report.frames.
  std::uint64_t garbage_frames = 0;
  /// Transient source failures that were retried successfully.
  std::uint64_t source_retries = 0;
  /// True when the source failed permanently (retries exhausted or a
  /// non-transient exception); the stream is truncated at that frame.
  bool source_failed = false;
  /// True when the liveness watchdog pinned this stream to Shed.
  bool watchdog_fired = false;
  /// Ladder level at the end of the serve and every transition taken.
  DegradeLevel degrade_level = DegradeLevel::Full;
  std::vector<DegradeTransition> degrade_transitions;
};

class StreamServer {
 public:
  /// Throws std::runtime_error when config.ops.enabled and the ops listener
  /// cannot bind (port taken, bad address) — a server that silently serves
  /// without its introspection plane is worse than one that fails fast.
  explicit StreamServer(const core::AdaptiveSystem& system,
                        StreamServerConfig config = {});
  /// Stops the ops server (first — its handler threads read members) and
  /// the profiler.
  ~StreamServer();
  StreamServer(const StreamServer&) = delete;
  StreamServer& operator=(const StreamServer&) = delete;

  /// Serve every source to completion; results are indexed like `sources`.
  [[nodiscard]] std::vector<StreamResult> serve(
      std::vector<std::unique_ptr<FrameSource>> sources);

  /// Convenience: one SequenceFrameSource per sequence.
  [[nodiscard]] std::vector<StreamResult> serve_sequences(
      const std::vector<data::DriveSequence>& sequences);

  /// Worker lifecycle + stream completion events (wall-clock ns timestamps),
  /// exportable with soc::write_chrome_trace.
  [[nodiscard]] const soc::EventLog& server_log() const { return log_; }
  [[nodiscard]] const StreamServerConfig& config() const { return config_; }

  /// Invoked (from the telemetry thread) on every per-stream health
  /// transition while serve() runs; requires config().slo.enabled.
  using HealthCallback =
      std::function<void(int stream, const obs::HealthTransition&)>;
  void set_health_callback(HealthCallback cb) { health_callback_ = std::move(cb); }

  /// Per-stream health after the most recent serve() (empty before any).
  [[nodiscard]] const std::vector<obs::HealthState>& stream_health() const {
    return stream_health_;
  }
  /// Live per-stream health: mid-serve the SLO monitors answer with their
  /// current state-machine position; between serves (or with monitoring
  /// disabled) the last serve's verdicts answer. This is what /healthz
  /// renders, exposed directly so a fronting aggregator (the sharded
  /// server) can fold shard health without an HTTP hop.
  [[nodiscard]] std::vector<obs::HealthState> live_stream_health() const;
  /// Worst-of rollup of stream_health(): one saturated stream is visible
  /// here no matter how many healthy neighbours it has.
  [[nodiscard]] obs::HealthState fleet_health() const { return fleet_health_; }

  /// Tail sampler fed by the most recent serve() (nullptr before any).
  /// Retained chains and SpanStats cover that serve's frames.
  [[nodiscard]] obs::TraceSampler* trace_sampler() const {
    return sampler_.get();
  }
  /// Flight recorder fed by the most recent serve() (nullptr before any):
  /// last-N frame chains per stream, telemetry rows and SLO transitions,
  /// dumpable on demand via obs::FlightRecorder::dump().
  [[nodiscard]] obs::FlightRecorder* flight_recorder() const {
    return recorder_.get();
  }
  /// Path of the bundle the most recent serve() wrote on an UNHEALTHY
  /// transition; empty when none was written.
  [[nodiscard]] const std::string& last_flight_bundle_path() const {
    return last_flight_bundle_path_;
  }

  /// The admission controller of the most recent serve() with at least one
  /// source (nullptr before any). Live during a serve: /healthz and
  /// /statusz read current levels and stats from it.
  [[nodiscard]] AdmissionController* admission() const {
    return admission_.get();
  }

  /// The embedded ops listener (nullptr unless config().ops.enabled).
  /// Running from construction to destruction; its port() is where
  /// /metricsz etc. answer.
  [[nodiscard]] obs::OpsServer* ops_server() const { return ops_.get(); }
  /// The /profilez profiler (nullptr unless config().ops.enabled). Usable
  /// directly too: profiler()->run_for(...) during a serve() on another
  /// thread.
  [[nodiscard]] obs::SampleProfiler* profiler() const {
    return profiler_.get();
  }

 private:
  void install_ops_endpoints();

  const core::AdaptiveSystem* system_;
  StreamServerConfig config_;
  soc::EventLog log_;
  HealthCallback health_callback_;
  /// Guards the swap of the per-serve observability objects (sampler_,
  /// recorder_, monitors_, stream_health_, fleet_health_) between serve()
  /// and the ops handler threads. The objects themselves are internally
  /// thread-safe; only the pointers/containers need the lock.
  mutable std::mutex obs_mutex_;
  std::vector<obs::HealthState> stream_health_;
  obs::HealthState fleet_health_ = obs::HealthState::Healthy;
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<obs::TraceSampler> sampler_;
  std::unique_ptr<obs::FlightRecorder> recorder_;
  std::vector<std::unique_ptr<obs::SloMonitor>> monitors_;
  std::unique_ptr<obs::SampleProfiler> profiler_;
  std::unique_ptr<obs::OpsServer> ops_;
  std::string last_flight_bundle_path_;
  std::atomic<std::uint64_t> serve_count_{0};  ///< bundle names + /statusz
};

}  // namespace avd::runtime
