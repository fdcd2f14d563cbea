#include "workloads.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "avd/core/adaptive_system.hpp"
#include "avd/detect/multi_model_scan.hpp"
#include "avd/image/color.hpp"
#include "avd/image/filter.hpp"
#include "avd/image/morphology.hpp"
#include "avd/image/resize.hpp"
#include "avd/image/threshold.hpp"
#include "avd/obs/frame_trace.hpp"
#include "avd/obs/metrics.hpp"
#include "avd/obs/trace.hpp"
#include "avd/runtime/stream_server.hpp"
#include "avd/runtime/thread_pool.hpp"

namespace perfbench {
namespace {

using namespace avd;
using Clock = std::chrono::steady_clock;

/// Every run times at least this many frames, so p90 has ten samples past it.
constexpr std::size_t kMinFrames = 100;
/// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 3;
/// Frames run untimed after set-up, so lazy allocations and cold caches are
/// not billed to the first timed frames.
constexpr std::size_t kWarmupFrames = 6;
/// Frames per segment of the HD canonical drive (6 segments, 54 frames; the
/// closed loop repeats the drive until a run holds kMinFrames frames).
constexpr int kHdFramesPerSegment = 9;
/// The dark-only drive: segments of fresh scenes, all dark.
constexpr int kNightSegments = 6;
constexpr int kNightFramesPerSegment = 9;
/// serve_640: cameras, and the rate each one is offered at.
constexpr int kServeStreams = 4;
constexpr double kServeFpsPerStream = 5.0;
/// Samples of the traced-run replays (bench-timed public calls).
constexpr std::size_t kImageReplayFrames = 16;
constexpr std::size_t kPoolReplayFrames = 6;
constexpr std::size_t kServeRenderSamples = 8;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double ms_since(Clock::time_point t) { return 1e3 * seconds_since(t); }

/// CPUs this process may run on.
int cpu_budget() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

/// Moves the calling thread to the next CPU it may run on, in turn, and
/// restores its CPU mask when destroyed. On a shared machine a CPU's speed
/// drifts with its neighbours' load; a single-threaded loop that visits every
/// CPU samples all of them instead of whichever one the scheduler left it on.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
};

/// Pool workers such that workers plus the calling thread fit the CPUs,
/// capped so the workload keeps its shape on larger machines.
int pool_workers() { return std::clamp(cpu_budget() - 1, 0, 3); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Run fn(0..n-1) on a helper pool sized like the scan pool. Used for input
/// generation and reference checks, never inside a timed phase.
void parallel_for(int n, const std::function<void(int)>& fn) {
  runtime::ThreadPool helpers(pool_workers());
  helpers.run_indexed(n, fn);
}

std::uint64_t counter_value(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

struct CounterDeltas {
  static constexpr const char* kNames[] = {
      "detect.hogsvm.frames",       "detect.hogsvm.levels",
      "detect.hogsvm.blocks_normalised", "detect.hogsvm.windows_scanned",
      "detect.hogsvm.raw_detections", "detect.dark.blobs",
      "detect.dark.dbn_windows",    "detect.dark.taillights",
      "soc.reconfig.count"};
  std::map<std::string, double> start;
  std::map<std::string, double> delta;

  void begin() {
    for (const char* n : kNames) start[n] = static_cast<double>(counter_value(n));
  }
  void end() {
    for (const char* n : kNames)
      delta[n] = static_cast<double>(counter_value(n)) - start[n];
  }
  [[nodiscard]] double operator[](const char* name) const {
    const auto it = delta.find(name);
    return it == delta.end() ? 0.0 : it->second;
  }
};

// --- set-up ----------------------------------------------------------------

/// The program under test: trained models, the adaptive system, its scan
/// pool and (serve_640) the server. Destroyed server-first.
struct Deployment {
  std::unique_ptr<runtime::ThreadPool> pool;
  std::unique_ptr<core::AdaptiveSystem> system;
  std::unique_ptr<runtime::StreamServer> server;
};

runtime::StreamServerConfig serve_config(runtime::ThreadPool* pool) {
  // examples/multi_stream_serve's configuration, except that every paced
  // camera gets its own ingest worker: a source is pinned to one ingest
  // worker until it ends, so fewer workers than paced cameras would hold
  // whole streams back.
  runtime::StreamServerConfig sc;
  sc.ingest_workers = kServeStreams;
  sc.control_workers = 2;
  sc.detect_workers = 4;
  sc.queue_capacity = 8;
  sc.detect_policy = runtime::OverflowPolicy::Block;
  sc.scan_pool = pool;
  return sc;
}

/// Build the deployment kSetupRepeats times; keep the last, return the
/// median build time in `setup_s`.
Deployment set_up(bool with_pool, bool with_server, double& setup_s) {
  std::vector<double> times;
  Deployment d;
  for (int r = 0; r < kSetupRepeats; ++r) {
    d = Deployment{};
    const Clock::time_point t0 = Clock::now();
    core::SystemModels models = core::build_system_models(core::TrainingBudget{});
    if (with_pool) d.pool = std::make_unique<runtime::ThreadPool>(pool_workers());
    core::AdaptiveSystemConfig cfg;
    cfg.sliding.pool = d.pool.get();
    d.system = std::make_unique<core::AdaptiveSystem>(std::move(models), cfg);
    if (with_server)
      d.server = std::make_unique<runtime::StreamServer>(
          *d.system, serve_config(d.pool.get()));
    times.push_back(seconds_since(t0));
  }
  setup_s = median(times);
  return d;
}

// --- the HD closed loop -----------------------------------------------------

/// A pre-rendered drive. Frames before `first_timed` only warm up the
/// control plane and carry no pixels.
struct HdDrive {
  std::vector<data::SequenceFrame> metas;
  std::vector<img::RgbImage> pixels;
  int first_timed = 0;
  std::vector<double> render_ms;
};

HdDrive render_drive(const data::SequenceSpec& spec, int first_timed) {
  const data::DriveSequence sequence(spec);
  HdDrive drive;
  drive.first_timed = first_timed;
  const int n = sequence.frame_count();
  for (int i = 0; i < n; ++i) drive.metas.push_back(sequence.frame(i));
  drive.pixels.resize(static_cast<std::size_t>(n));
  std::vector<double> render_ms(static_cast<std::size_t>(n), -1.0);
  parallel_for(n - first_timed, [&](int k) {
    const auto i = static_cast<std::size_t>(first_timed + k);
    const Clock::time_point t0 = Clock::now();
    drive.pixels[i] = data::render_scene(drive.metas[i].scene);
    render_ms[i] = ms_since(t0);
  });
  for (const double ms : render_ms)
    if (ms >= 0.0) drive.render_ms.push_back(ms);
  return drive;
}

/// One frame of the closed loop, as the bench composed it.
struct FrameRun {
  int frame = 0;  ///< index into the drive
  core::ControlStep step;
  bool processed = false;
  std::vector<det::Detection> dets;
  det::MatchResult match;
  double ms = 0.0;
  bool threw = false;
};

/// Vehicle detection for the loaded configuration, the way
/// AdaptiveSystem::evaluate_frame picks the detector.
std::vector<det::Detection> detect_for_config(const core::AdaptiveSystem& system,
                                              const core::ControlStep& step,
                                              const img::RgbImage& pixels) {
  const std::string& config = step.record.vehicle_config;
  if (config == "dark") {
    const obs::ScopedSpan span("detect.dark", "perfbench");
    return system.models().dark.detect(pixels);
  }
  if (config != "day-dusk")
    throw std::runtime_error("perfbench: unexpected configuration " + config);
  img::ImageU8 gray;
  {
    const obs::ScopedSpan span("image.rgb_to_gray", "perfbench");
    gray = img::rgb_to_gray(pixels);
  }
  const obs::ScopedSpan span("detect.hogsvm", "perfbench");
  return det::detect_multiscale(
      gray, system.models().vehicle_model_for(step.sensed),
      system.config().sliding);
}

FrameRun process_frame(core::AdaptiveSystem::StepSession& session,
                       const core::AdaptiveSystem& system, const HdDrive& drive,
                       int frame) {
  FrameRun out;
  out.frame = frame;
  const auto i = static_cast<std::size_t>(frame);
  const data::SequenceFrame& meta = drive.metas[i];
  const obs::TraceScope root({obs::Tracer::global().enabled()
                                  ? obs::Tracer::new_trace_id()
                                  : 0,
                              0});
  const Clock::time_point t0 = Clock::now();
  try {
    const obs::ScopedSpan frame_span("bench.frame", "perfbench",
                                     {{"frame", frame}});
    {
      const obs::ScopedSpan span("core.control_step", "perfbench");
      out.step = session.control_step(meta);
    }
    out.processed = out.step.record.vehicle_processed;
    if (out.processed) {
      out.dets = detect_for_config(system, out.step, drive.pixels[i]);
      std::vector<img::Rect> truth;
      truth.reserve(meta.scene.vehicles.size());
      for (const data::VehicleSpec& v : meta.scene.vehicles)
        truth.push_back(v.body);
      const obs::ScopedSpan span("detect.match", "perfbench");
      out.match =
          det::match_detections(out.dets, truth, system.config().match_iou);
    }
  } catch (const std::exception&) {
    out.threw = true;
  }
  out.ms = ms_since(t0);
  return out;
}

struct TimedPhase {
  std::vector<FrameRun> frames;
  double wall_s = 0.0;
  std::vector<obs::SpanRecord> spans;  ///< traced phases only
  std::uint64_t dropped_spans = 0;
};

void drain_into(TimedPhase& phase) {
  obs::Tracer& tracer = obs::Tracer::global();
  phase.dropped_spans += tracer.dropped();
  std::vector<obs::SpanRecord> spans = tracer.drain();
  phase.spans.insert(phase.spans.end(), spans.begin(), spans.end());
}

/// One stream, closed loop: frame k+1 starts when frame k returns. Passes
/// over the timed frames repeat until `seconds` have elapsed and at least
/// `min_frames` frames ran; the control plane session carries across passes.
TimedPhase run_closed_loop(const core::AdaptiveSystem& system,
                           const HdDrive& drive, double seconds,
                           std::size_t min_frames, bool traced,
                           bool rotate_cpus) {
  core::AdaptiveSystem::StepSession session = system.begin_session();
  for (int i = 0; i < drive.first_timed; ++i)
    (void)session.control_step(drive.metas[static_cast<std::size_t>(i)]);

  TimedPhase phase;
  obs::Tracer& tracer = obs::Tracer::global();
  if (traced) {
    tracer.clear();
    tracer.set_enabled(true);
  }
  const int n = static_cast<int>(drive.metas.size());
  CpuRotation rotation;
  const Clock::time_point t0 = Clock::now();
  for (bool done = false; !done;) {
    for (int i = drive.first_timed; i < n && !done; ++i) {
      if (rotate_cpus) rotation.next();
      phase.frames.push_back(process_frame(session, system, drive, i));
      // The pool is idle between frames, so the rings may be drained here;
      // keeping them short means no span is overwritten.
      if (traced && phase.frames.size() % 16 == 0) drain_into(phase);
      done = phase.frames.size() >= min_frames && seconds_since(t0) >= seconds;
    }
  }
  phase.wall_s = seconds_since(t0);
  if (traced) {
    tracer.set_enabled(false);
    drain_into(phase);
  }
  return phase;
}

bool same_detections(const std::vector<det::Detection>& a,
                     const std::vector<det::Detection>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const det::Detection& x, const det::Detection& y) {
                      return x.box == y.box && x.score == y.score &&
                             x.class_id == y.class_id;
                    });
}

bool same_match(const det::MatchResult& a, const det::MatchResult& b) {
  return a.true_positives == b.true_positives &&
         a.false_negatives == b.false_negatives &&
         a.false_positives == b.false_positives;
}

/// Reference check: every frame the loop ran must equal
/// AdaptiveSystem::evaluate_frame for the same ControlStep. Returns the
/// number of frames that differ (or threw).
std::int64_t check_closed_loop(const core::AdaptiveSystem& system,
                               const HdDrive& drive,
                               const std::vector<const TimedPhase*>& phases) {
  // One evaluation per distinct (frame, configuration, model, processed).
  using Key = std::tuple<int, std::string, int, bool>;
  std::map<Key, std::size_t> index;
  std::vector<const FrameRun*> representatives;
  for (const TimedPhase* phase : phases)
    for (const FrameRun& run : phase->frames) {
      if (run.threw) continue;
      const Key key{run.frame, run.step.record.vehicle_config,
                    static_cast<int>(run.step.sensed), run.processed};
      if (index.emplace(key, representatives.size()).second)
        representatives.push_back(&run);
    }

  struct Reference {
    core::AdaptiveFrameReport report;
    std::vector<det::Detection> dets;
    bool threw = false;
  };
  std::vector<Reference> refs(representatives.size());
  parallel_for(static_cast<int>(refs.size()), [&](int k) {
    const FrameRun& run = *representatives[static_cast<std::size_t>(k)];
    Reference& ref = refs[static_cast<std::size_t>(k)];
    core::AdaptiveSystem::EvaluateOptions options;
    options.out_detections = &ref.dets;
    try {
      ref.report = system.evaluate_frame(
          run.step, drive.metas[static_cast<std::size_t>(run.frame)], options);
    } catch (const std::exception&) {
      ref.threw = true;
    }
  });

  std::int64_t failed = 0;
  for (const TimedPhase* phase : phases)
    for (const FrameRun& run : phase->frames) {
      if (run.threw) {
        ++failed;
        continue;
      }
      const Reference& ref =
          refs[index.at(Key{run.frame, run.step.record.vehicle_config,
                            static_cast<int>(run.step.sensed), run.processed})];
      const bool same = !ref.threw &&
                        ref.report.vehicle_processed == run.processed &&
                        same_detections(ref.dets, run.dets) &&
                        same_match(ref.report.vehicle_match, run.match);
      failed += same ? 0 : 1;
    }
  return failed;
}

struct Quality {
  det::MatchResult match;
  std::size_t processed = 0;
  std::size_t offered = 0;

  void add(bool was_processed, const det::MatchResult& m) {
    ++offered;
    if (!was_processed) return;
    ++processed;
    match.true_positives += m.true_positives;
    match.false_negatives += m.false_negatives;
    match.false_positives += m.false_positives;
  }
  [[nodiscard]] double recall() const {
    const int truth = match.true_positives + match.false_negatives;
    return truth > 0 ? static_cast<double>(match.true_positives) / truth : 0.0;
  }
  [[nodiscard]] double precision() const {
    const int claimed = match.true_positives + match.false_positives;
    return claimed > 0 ? static_cast<double>(match.true_positives) / claimed
                       : 0.0;
  }
  [[nodiscard]] double availability() const {
    return offered > 0 ? static_cast<double>(processed) /
                             static_cast<double>(offered)
                       : 0.0;
  }
};

void put(RunResult& r, const std::string& name, double value,
         std::size_t samples, const std::string& source) {
  r.ledger[name] = {value, samples, source};
}

void add_latency_metrics(RunResult& r, const std::vector<double>& frame_ms,
                         double fps) {
  if (highest_supported_percentile(frame_ms.size()) < 90.0)
    r.check_failures.push_back("too few frame latencies for p90: " +
                               std::to_string(frame_ms.size()));
  const auto q = [&](double p) {
    return frame_ms.empty() ? 0.0 : quantile(frame_ms, p);
  };
  r.end_to_end.push_back({"fps", "1/s", fps});
  r.end_to_end.push_back({"frame_ms_p50", "ms", q(0.50)});
  r.end_to_end.push_back({"frame_ms_p90", "ms", q(0.90)});
  r.notes.push_back(
      "latency samples: " + std::to_string(frame_ms.size()) +
      ", highest percentile with >=10 samples beyond it: p" +
      std::to_string(highest_supported_percentile(frame_ms.size())));
}

void add_quality_metrics(RunResult& r, const Quality& q, double setup_s) {
  r.end_to_end.push_back({"vehicle_availability", "ratio", q.availability()});
  r.end_to_end.push_back({"setup_s", "s", setup_s});
  r.end_to_end.push_back({"rss_mb", "MB", peak_rss_mb()});
  r.notes.push_back("quality over " + std::to_string(q.processed) +
                    " processed frames: vehicle_recall " +
                    std::to_string(q.recall()) + ", vehicle_precision " +
                    std::to_string(q.precision()));
}

/// Detection quality as the detect layer's yield: recall is truth found
/// over truth, precision is useful detections over detections emitted.
void put_quality(RunResult& r, const Quality& q) {
  if (q.processed == 0) return;
  put(r, "detect.vehicle_recall", q.recall(), q.processed,
      "ground truth matched / ground truth, processed frames");
  put(r, "detect.vehicle_precision", q.precision(), q.processed,
      "matched detections / detections, processed frames");
}

// --- ledger helpers ----------------------------------------------------------

/// Span durations summed per trace (one trace = one frame), per name.
using PerFrameMs = std::map<std::uint64_t, std::map<std::string, double>>;

PerFrameMs per_frame_ms(const std::vector<obs::SpanRecord>& spans) {
  PerFrameMs out;
  for (const obs::SpanRecord& s : spans)
    if (s.trace_id != 0)
      out[s.trace_id][s.name] += static_cast<double>(s.end_ns - s.begin_ns) / 1e6;
  return out;
}

/// Mean per frame of the first span name in `names` that occurs at all,
/// over the frames where it occurs.
void put_span_metric(RunResult& r, const PerFrameMs& frames,
                     const std::string& metric,
                     std::initializer_list<const char*> names) {
  for (const char* name : names) {
    std::vector<double> values;
    for (const auto& [trace, by_name] : frames) {
      const auto it = by_name.find(name);
      if (it != by_name.end()) values.push_back(it->second);
    }
    if (values.empty()) continue;
    put(r, metric, mean(values), values.size(),
        std::string("span ") + name + ", per-frame sum");
    return;
  }
}

void put_span_metrics(RunResult& r, const std::vector<obs::SpanRecord>& spans) {
  const PerFrameMs frames = per_frame_ms(spans);
  put_span_metric(r, frames, "core.control_step_ms",
                  {"core.control_step", "control_step"});
  put_span_metric(r, frames, "image.rgb_to_gray_ms", {"image.rgb_to_gray"});
  put_span_metric(r, frames, "hog.front_end_ms", {"hog_front_end"});
  put_span_metric(r, frames, "ml.svm_score_ms", {"scan_band"});
  put_span_metric(r, frames, "ml.dbn_batch_ms", {"dbn_batch_forward"});
  put_span_metric(r, frames, "detect.hogsvm_ms",
                  {"detect.hogsvm", "detect_multiscale"});
  put_span_metric(r, frames, "detect.nms_ms", {"nms"});
  put_span_metric(r, frames, "detect.dark_ms", {"detect.dark", "dark_detect"});
  put_span_metric(r, frames, "detect.dark.preprocess_ms",
                  {"threshold_morphology"});
  put_span_metric(r, frames, "detect.dark.taillights_ms", {"dbn_scan"});
  put_span_metric(r, frames, "detect.dark.pairing_ms", {"pairing"});
  put_span_metric(r, frames, "detect.match_ms", {"detect.match"});
}

void put_counter_metrics(RunResult& r, const CounterDeltas& c,
                         double dark_frames) {
  const double hog_frames = c["detect.hogsvm.frames"];
  const auto hog_n = static_cast<std::size_t>(hog_frames);
  if (hog_frames > 0) {
    put(r, "hog.levels", c["detect.hogsvm.levels"] / hog_frames, hog_n,
        "counter detect.hogsvm.levels per scan");
    put(r, "hog.blocks_normalised",
        c["detect.hogsvm.blocks_normalised"] / hog_frames, hog_n,
        "counter detect.hogsvm.blocks_normalised per scan");
    put(r, "ml.windows_scanned", c["detect.hogsvm.windows_scanned"] / hog_frames,
        hog_n, "counter detect.hogsvm.windows_scanned per scan");
  }
  if (dark_frames > 0) {
    const auto dark_n = static_cast<std::size_t>(dark_frames);
    put(r, "ml.dbn_windows", c["detect.dark.dbn_windows"] / dark_frames, dark_n,
        "counter detect.dark.dbn_windows per dark frame");
    put(r, "detect.dark.blobs", c["detect.dark.blobs"] / dark_frames, dark_n,
        "counter detect.dark.blobs per dark frame");
    if (c["detect.dark.dbn_windows"] > 0)
      put(r, "detect.dark.taillight_yield",
          c["detect.dark.taillights"] / c["detect.dark.dbn_windows"], dark_n,
          "counters taillights / dbn_windows");
  }
  put(r, "soc.reconfigs", c["soc.reconfig.count"], 1,
      "counter soc.reconfig.count, run total");
}

// --- traced-run replays (bench-timed public calls, outside any timed phase) -

/// The four image calls that make up DarkVehicleDetector::preprocess,
/// replayed from outside on dark frames; their composition must equal
/// preprocess() itself.
void replay_dark_preprocess(RunResult& r, const core::AdaptiveSystem& system,
                            const HdDrive& drive, const TimedPhase& phase) {
  const det::DarkVehicleDetector& dark = system.models().dark;
  const det::DarkDetectorConfig& cfg = dark.config();
  std::set<int> frames;
  for (const FrameRun& run : phase.frames)
    if (run.processed && run.step.record.vehicle_config == "dark" &&
        frames.size() < kImageReplayFrames)
      frames.insert(run.frame);
  std::vector<double> ycc_ms, roi_ms, down_ms, close_ms;
  for (const int f : frames) {
    const img::RgbImage& px = drive.pixels[static_cast<std::size_t>(f)];
    Clock::time_point t0 = Clock::now();
    const img::YcbcrImage ycc = img::rgb_to_ycbcr(px);
    ycc_ms.push_back(ms_since(t0));
    t0 = Clock::now();
    const img::ImageU8 mask = img::taillight_roi_mask(ycc, cfg.threshold);
    roi_ms.push_back(ms_since(t0));
    if (cfg.downsample_factor <= 1 || mask.width() % cfg.downsample_factor != 0 ||
        mask.height() % cfg.downsample_factor != 0) {
      r.check_failures.push_back("dark replay: frame not divisible by the "
                                 "downsample factor");
      return;
    }
    t0 = Clock::now();
    img::ImageU8 down = img::downsample_or(mask, cfg.downsample_factor);
    down_ms.push_back(ms_since(t0));
    if (cfg.median_prefilter) down = img::median3x3(down);
    t0 = Clock::now();
    const img::ImageU8 closed = img::close(down, cfg.closing);
    close_ms.push_back(ms_since(t0));
    if (!(closed == dark.preprocess(px)))
      r.check_failures.push_back("dark replay: composed image calls differ "
                                 "from DarkVehicleDetector::preprocess");
  }
  if (frames.empty()) return;
  put(r, "image.rgb_to_ycbcr_ms", mean(ycc_ms), ycc_ms.size(),
      "replayed img::rgb_to_ycbcr");
  put(r, "image.roi_mask_ms", mean(roi_ms), roi_ms.size(),
      "replayed img::taillight_roi_mask");
  put(r, "image.downsample_or_ms", mean(down_ms), down_ms.size(),
      "replayed img::downsample_or");
  put(r, "image.close_ms", mean(close_ms), close_ms.size(),
      "replayed img::close");
}

/// detect_multiscale on one thread and on the pool, same frames, same
/// detections required.
void replay_pool_speedup(RunResult& r, const core::AdaptiveSystem& system,
                         const HdDrive& drive, const TimedPhase& phase) {
  if (system.config().sliding.pool == nullptr) return;
  std::vector<const FrameRun*> runs;
  std::set<int> seen;
  for (const FrameRun& run : phase.frames)
    if (run.processed && run.step.record.vehicle_config == "day-dusk" &&
        runs.size() < kPoolReplayFrames && seen.insert(run.frame).second)
      runs.push_back(&run);
  double single_ms = 0.0;
  double pooled_ms = 0.0;
  for (const FrameRun* run : runs) {
    const img::ImageU8 gray =
        img::rgb_to_gray(drive.pixels[static_cast<std::size_t>(run->frame)]);
    const det::HogSvmModel& model =
        system.models().vehicle_model_for(run->step.sensed);
    det::SlidingWindowParams one_thread = system.config().sliding;
    one_thread.pool = nullptr;
    Clock::time_point t0 = Clock::now();
    const std::vector<det::Detection> a =
        det::detect_multiscale(gray, model, one_thread);
    single_ms += ms_since(t0);
    t0 = Clock::now();
    const std::vector<det::Detection> b =
        det::detect_multiscale(gray, model, system.config().sliding);
    pooled_ms += ms_since(t0);
    if (!same_detections(a, b))
      r.check_failures.push_back("pool replay: detections depend on the pool");
  }
  if (!runs.empty() && pooled_ms > 0.0)
    put(r, "runtime.pool_speedup", single_ms / pooled_ms, runs.size(),
        "replayed detect_multiscale, one thread / pool");
}

/// Share of the bench's frame spans that their direct children cover.
void put_attributed(RunResult& r, const std::vector<obs::SpanRecord>& spans,
                    const char* frame_name) {
  std::map<std::uint64_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      children;
  for (const obs::SpanRecord& s : spans)
    children[s.parent_span_id].emplace_back(s.begin_ns, s.end_ns);
  double frame_ns = 0.0;
  double covered = 0.0;
  std::size_t n = 0;
  for (const obs::SpanRecord& s : spans) {
    if (std::string_view(s.name) != frame_name) continue;
    ++n;
    frame_ns += static_cast<double>(s.end_ns - s.begin_ns);
    covered += static_cast<double>(
        covered_ns(s.begin_ns, s.end_ns, children[s.span_id]));
  }
  if (n > 0 && frame_ns > 0.0)
    put(r, "ledger.attributed_pct", 100.0 * covered / frame_ns, n,
        "child-span coverage of bench.frame");
}

// --- the two HD workloads ----------------------------------------------------

struct HdWorkload {
  data::SequenceSpec spec;
  bool pooled = false;
  /// Time only frames after the dark configuration is loaded.
  bool start_in_dark = false;
};

RunResult run_hd(const HdWorkload& w, const RunOptions& options) {
  RunResult r;
  double setup_s = 0.0;
  const Deployment d = set_up(w.pooled, false, setup_s);
  const core::AdaptiveSystem& system = *d.system;

  int first_timed = 0;
  if (w.start_in_dark) {
    const data::DriveSequence sequence(w.spec);
    core::AdaptiveSystem::StepSession session = system.begin_session();
    first_timed = -1;
    for (int i = 0; i < sequence.frame_count() && first_timed < 0; ++i) {
      const core::ControlStep step = session.control_step(sequence.frame(i));
      if (step.record.vehicle_processed && step.record.vehicle_config == "dark")
        first_timed = i;
    }
    if (first_timed < 0)
      throw std::runtime_error("perfbench: the dark configuration never loaded");
  }
  const Clock::time_point render_start = Clock::now();
  const HdDrive drive = render_drive(w.spec, first_timed);
  const double render_s = seconds_since(render_start);
  r.notes.push_back("drive: " + std::to_string(drive.metas.size()) +
                    " frames, " + std::to_string(first_timed) +
                    " control-plane warm-up frames, pool workers " +
                    std::to_string(w.pooled ? pool_workers() : 0));

  (void)run_closed_loop(system, drive, 0.0, kWarmupFrames, false, !w.pooled);
  const TimedPhase untraced = run_closed_loop(system, drive, options.seconds,
                                              kMinFrames, false, !w.pooled);
  std::vector<const TimedPhase*> checked{&untraced};
  TimedPhase traced;
  CounterDeltas counters;
  if (options.trace) {
    counters.begin();
    traced = run_closed_loop(system, drive, options.seconds, kMinFrames, true,
                             !w.pooled);
    counters.end();
    checked.push_back(&traced);
  }

  const Clock::time_point check_start = Clock::now();
  const std::int64_t mismatched = check_closed_loop(system, drive, checked);
  r.notes.push_back("phases: set-up " + std::to_string(kSetupRepeats) + " x " +
                    std::to_string(setup_s) + " s, render " +
                    std::to_string(render_s) + " s, timed " +
                    std::to_string(untraced.wall_s) + " s, reference check " +
                    std::to_string(seconds_since(check_start)) + " s");
  for (const TimedPhase* phase : checked)
    r.attempted += static_cast<std::int64_t>(phase->frames.size());
  r.failed = mismatched;

  const double untraced_fps =
      static_cast<double>(untraced.frames.size()) / untraced.wall_s;
  if (!options.trace) {
    std::vector<double> frame_ms;
    Quality q;
    for (const FrameRun& run : untraced.frames) {
      frame_ms.push_back(run.ms);
      q.add(run.processed, run.match);
    }
    add_latency_metrics(r, frame_ms, untraced_fps);
    add_quality_metrics(r, q, setup_s);
    return r;
  }

  double dark_frames = 0.0;
  double hog_dets = 0.0;
  Quality traced_quality;
  for (const FrameRun& run : traced.frames) {
    traced_quality.add(run.processed, run.match);
    if (!run.processed) continue;
    if (run.step.record.vehicle_config == "dark")
      dark_frames += 1.0;
    else
      hog_dets += static_cast<double>(run.dets.size());
  }
  put(r, "datasets.render_ms", mean(drive.render_ms), drive.render_ms.size(),
      "render_scene, input generation (frames rendered concurrently)");
  put_span_metrics(r, traced.spans);
  put_counter_metrics(r, counters, dark_frames);
  put_quality(r, traced_quality);
  if (counters["detect.hogsvm.raw_detections"] > 0)
    put(r, "detect.nms_keep_ratio",
        hog_dets / counters["detect.hogsvm.raw_detections"],
        static_cast<std::size_t>(counters["detect.hogsvm.frames"]),
        "final detections / counter raw_detections");
  replay_dark_preprocess(r, system, drive, traced);
  replay_pool_speedup(r, system, drive, traced);
  const double traced_fps =
      static_cast<double>(traced.frames.size()) / traced.wall_s;
  put(r, "obs.trace_overhead_pct", 100.0 * (untraced_fps / traced_fps - 1.0), 2,
      "traced vs untraced fps");
  put(r, "obs.dropped_spans", static_cast<double>(traced.dropped_spans), 1,
      "tracer ring overwrites");
  put_attributed(r, traced.spans, "bench.frame");
  r.spans = std::move(traced.spans);
  return r;
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"datasets.render_ms", "ms"},
      {"core.control_step_ms", "ms"},
      {"soc.reconfigs", "count"},
      {"image.rgb_to_gray_ms", "ms"},
      {"image.rgb_to_ycbcr_ms", "ms"},
      {"image.roi_mask_ms", "ms"},
      {"image.downsample_or_ms", "ms"},
      {"image.close_ms", "ms"},
      {"hog.front_end_ms", "ms"},
      {"hog.levels", "count"},
      {"hog.blocks_normalised", "count"},
      {"ml.svm_score_ms", "ms"},
      {"ml.windows_scanned", "count"},
      {"ml.dbn_batch_ms", "ms"},
      {"ml.dbn_windows", "count"},
      {"detect.hogsvm_ms", "ms"},
      {"detect.nms_ms", "ms"},
      {"detect.nms_keep_ratio", "ratio"},
      {"detect.dark_ms", "ms"},
      {"detect.dark.preprocess_ms", "ms"},
      {"detect.dark.taillights_ms", "ms"},
      {"detect.dark.pairing_ms", "ms"},
      {"detect.dark.blobs", "count"},
      {"detect.dark.taillight_yield", "ratio"},
      {"detect.match_ms", "ms"},
      {"detect.vehicle_recall", "ratio"},
      {"detect.vehicle_precision", "ratio"},
      {"runtime.pool_speedup", "x"},
      {"runtime.ingest_ms", "ms"},
      {"runtime.control_ms", "ms"},
      {"runtime.detect_ms", "ms"},
      {"runtime.report_ms", "ms"},
      {"runtime.control.wait_ms", "ms"},
      {"runtime.detect.wait_ms", "ms"},
      {"runtime.report.wait_ms", "ms"},
      {"runtime.source_lag_ms_p90", "ms"},
      {"runtime.backpressure_drops", "count"},
      {"obs.trace_overhead_pct", "%"},
      {"obs.dropped_spans", "count"},
      {"ledger.attributed_pct", "%"},
  };
  return metrics;
}

RunResult run_drive_hd(const RunOptions& options) {
  HdWorkload w;
  w.spec = data::DriveSequence::canonical_drive({1920, 1080},
                                                kHdFramesPerSegment);
  w.spec.coherent_motion = true;
  w.spec.seed = options.seed;
  w.pooled = true;
  return run_hd(w, options);
}

RunResult run_night_hd(const RunOptions& options) {
  HdWorkload w;
  w.spec.frame_size = {1920, 1080};
  for (int s = 0; s < kNightSegments; ++s)
    w.spec.segments.push_back(
        {data::LightingCondition::Dark, kNightFramesPerSegment, -1.0});
  w.spec.coherent_motion = true;
  w.spec.seed = options.seed;
  w.start_in_dark = true;
  return run_hd(w, options);
}

// --- serve_640 ---------------------------------------------------------------

namespace {

/// An open-loop camera: frame k is handed out no earlier than its due time,
/// whatever the server's state. Records how late each pull came.
class PacedSource final : public runtime::FrameSource {
 public:
  PacedSource(data::DriveSequence sequence, PacedSchedule schedule, int stream,
              Clock::time_point origin, std::vector<double>* lag_ms)
      : sequence_(std::move(sequence)),
        schedule_(schedule),
        stream_(stream),
        origin_(origin),
        lag_ms_(lag_ms) {}

  [[nodiscard]] int frame_count() const override {
    return sequence_.frame_count() - next_;
  }

  [[nodiscard]] std::optional<data::SequenceFrame> next() override {
    if (next_ >= sequence_.frame_count()) return std::nullopt;
    const double pulled_s =
        std::chrono::duration<double>(Clock::now() - origin_).count();
    lag_ms_->push_back(1e3 * schedule_.lateness_s(stream_, next_, pulled_s));
    const double due_s = schedule_.due_s(stream_, next_);
    if (pulled_s < due_s) {
      const obs::ScopedSpan span("bench.source_wait", "perfbench");
      std::this_thread::sleep_until(
          origin_ + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(due_s)));
    }
    return sequence_.frame(next_++);
  }

 private:
  data::DriveSequence sequence_;
  PacedSchedule schedule_;
  int stream_ = 0;
  Clock::time_point origin_;
  std::vector<double>* lag_ms_;
  int next_ = 0;
};

/// Samples of a latency histogram, reconstructed bin by bin and spread
/// evenly inside each bin, so percentiles move smoothly instead of jumping
/// between bin midpoints.
std::vector<double> histogram_samples_ms(const obs::Histogram& h) {
  const std::uint64_t total = h.count();
  // Bounds [lo, hi) of a bin: the smallest value mapping to it or beyond.
  const auto first_at_or_after = [](int bin) {
    std::uint64_t lo = 0;
    std::uint64_t hi = std::uint64_t{1} << 62;
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      if (obs::Histogram::bin_index(mid) >= bin)
        hi = mid;
      else
        lo = mid + 1;
    }
    return lo;
  };
  std::vector<int> bins;  // bin of the k-th smallest sample
  for (std::uint64_t k = 1; k <= total; ++k)
    bins.push_back(obs::Histogram::bin_index(h.percentile_ns(
        static_cast<double>(k) / static_cast<double>(total))));
  std::vector<double> out;
  for (std::size_t i = 0; i < bins.size();) {
    std::size_t j = i;
    while (j < bins.size() && bins[j] == bins[i]) ++j;
    const auto lo = static_cast<double>(first_at_or_after(bins[i]));
    const auto hi = static_cast<double>(first_at_or_after(bins[i] + 1));
    const auto count = static_cast<double>(j - i);
    for (std::size_t k = i; k < j; ++k)
      out.push_back(
          (lo + (static_cast<double>(k - i) + 0.5) / count * (hi - lo)) / 1e6);
    i = j;
  }
  return out;
}

struct ServePhase {
  std::vector<runtime::StreamResult> results;
  double wall_s = 0.0;
  std::vector<double> latency_ms;  ///< from runtime.frame.latency_ns
  double latency_mean_ms = 0.0;
  std::vector<double> lag_ms;
  std::vector<obs::SpanRecord> spans;
  std::uint64_t dropped_spans = 0;
  bool threw = false;
};

/// Serve the sequences through paced sources. The registry is reset first,
/// so the latency histograms and `counters` cover this serve alone.
ServePhase serve_paced(runtime::StreamServer& server,
                       const std::vector<data::DriveSequence>& sequences,
                       bool traced, CounterDeltas& counters) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  obs::Tracer& tracer = obs::Tracer::global();
  registry.reset_values();
  counters.begin();
  if (traced) {
    tracer.clear();
    tracer.set_enabled(true);
  }
  ServePhase phase;
  const PacedSchedule schedule{kServeFpsPerStream,
                               static_cast<int>(sequences.size())};
  std::vector<std::vector<double>> lags(sequences.size());
  const Clock::time_point origin = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::unique_ptr<runtime::FrameSource>> sources;
  for (std::size_t s = 0; s < sequences.size(); ++s)
    sources.push_back(std::make_unique<PacedSource>(
        sequences[s], schedule, static_cast<int>(s), origin, &lags[s]));
  try {
    phase.results = server.serve(std::move(sources));
  } catch (const std::exception&) {
    phase.threw = true;
  }
  phase.wall_s = seconds_since(origin);
  counters.end();
  if (traced) {
    tracer.set_enabled(false);
    phase.dropped_spans = tracer.dropped();
    phase.spans = tracer.drain();
  }
  obs::Histogram latency;
  for (std::size_t s = 0; s < sequences.size(); ++s) {
    latency.merge_from(registry.histogram("runtime.frame.latency_ns",
                                          {{"stream", std::to_string(s)}}));
    phase.lag_ms.insert(phase.lag_ms.end(), lags[s].begin(), lags[s].end());
  }
  phase.latency_ms = histogram_samples_ms(latency);
  phase.latency_mean_ms = latency.mean_ns() / 1e6;
  return phase;
}

bool same_report(const core::AdaptiveFrameReport& a,
                 const core::AdaptiveFrameReport& b) {
  return a.index == b.index && a.light_level == b.light_level &&
         a.sensed == b.sensed && a.active_config == b.active_config &&
         a.vehicle_processed == b.vehicle_processed &&
         a.pedestrian_processed == b.pedestrian_processed &&
         a.reconfig_triggered == b.reconfig_triggered &&
         a.vehicles_truth == b.vehicles_truth &&
         same_match(a.vehicle_match, b.vehicle_match) &&
         a.degrade_level == b.degrade_level &&
         a.detect_coasted == b.detect_coasted;
}

/// Frames of a serve that are missing or differ from sequential run().
std::int64_t check_serve(const ServePhase& phase,
                         const std::vector<core::AdaptiveRunReport>& reference) {
  std::int64_t failed = 0;
  for (std::size_t s = 0; s < reference.size(); ++s) {
    const auto& want = reference[s].frames;
    if (phase.threw || s >= phase.results.size()) {
      failed += static_cast<std::int64_t>(want.size());
      continue;
    }
    const auto& got = phase.results[s].report.frames;
    for (std::size_t i = 0; i < want.size(); ++i)
      failed += i < got.size() && same_report(got[i], want[i]) ? 0 : 1;
  }
  return failed;
}

/// Stage times, queue waits and attribution from the traced serve's chains.
void put_chain_metrics(RunResult& r, const std::vector<obs::SpanRecord>& spans,
                       const ServePhase& phase) {
  const std::map<std::uint64_t, std::uint64_t> self = self_times_ns(spans);
  std::vector<double> ingest, control, detect, report;
  std::vector<double> control_wait, detect_wait, report_wait, exact_latency;
  double window_ns = 0.0;
  double covered = 0.0;
  const auto ms = [](std::uint64_t ns) { return static_cast<double>(ns) / 1e6; };
  const auto gap = [&](const obs::SpanRecord* from, const obs::SpanRecord* to) {
    return to->begin_ns > from->end_ns ? ms(to->begin_ns - from->end_ns) : 0.0;
  };
  for (const obs::FrameTrace& chain : obs::assemble_frame_traces(spans)) {
    const obs::SpanRecord* stage[4] = {};
    std::uint64_t source_wait = 0;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals;
    for (const obs::SpanRecord& s : chain.spans) {
      const std::string_view name = s.name;
      if (name == "bench.source_wait") {
        source_wait += s.end_ns - s.begin_ns;
        continue;
      }
      intervals.emplace_back(s.begin_ns, s.end_ns);
      if (name == "ingest_frame") stage[0] = &s;
      if (name == "control_frame") stage[1] = &s;
      if (name == "detect_frame") stage[2] = &s;
      if (name == "collect_report") stage[3] = &s;
    }
    if (std::find(std::begin(stage), std::end(stage), nullptr) !=
        std::end(stage))
      continue;  // an incomplete chain (dropped spans)
    ingest.push_back(ms(self.at(stage[0]->span_id)));
    control.push_back(ms(stage[1]->end_ns - stage[1]->begin_ns));
    detect.push_back(ms(stage[2]->end_ns - stage[2]->begin_ns));
    report.push_back(ms(stage[3]->end_ns - stage[3]->begin_ns));
    control_wait.push_back(gap(stage[0], stage[1]));
    detect_wait.push_back(gap(stage[1], stage[2]));
    report_wait.push_back(gap(stage[2], stage[3]));
    exact_latency.push_back(
        static_cast<double>(stage[3]->arg("latency_us", 0)) / 1e3);
    // The frame's time in the pipeline, minus the source's pacing wait
    // (which sits inside the ingest span).
    const std::uint64_t begin = stage[0]->begin_ns;
    const std::uint64_t end = stage[3]->end_ns;
    window_ns += static_cast<double>(end - begin - source_wait);
    covered += static_cast<double>(covered_ns(begin, end, intervals) -
                                   source_wait);
  }
  const std::size_t n = ingest.size();
  if (n == 0) return;
  put(r, "runtime.ingest_ms", mean(ingest), n,
      "span ingest_frame self time (minus the pacing wait)");
  put(r, "runtime.control_ms", mean(control), n, "span control_frame");
  put(r, "runtime.detect_ms", mean(detect), n, "span detect_frame");
  put(r, "runtime.report_ms", mean(report), n, "span collect_report");
  put(r, "runtime.control.wait_ms", mean(control_wait), n,
      "gap ingest_frame -> control_frame");
  put(r, "runtime.detect.wait_ms", mean(detect_wait), n,
      "gap control_frame -> detect_frame");
  put(r, "runtime.report.wait_ms", mean(report_wait), n,
      "gap detect_frame -> collect_report");
  if (window_ns > 0.0)
    put(r, "ledger.attributed_pct", 100.0 * covered / window_ns, n,
        "span coverage of ingest -> report chains");
  if (!phase.latency_ms.empty())
    r.notes.push_back(
        "latency cross-check (traced run): p50 from runtime.frame.latency_ns " +
        std::to_string(quantile(phase.latency_ms, 0.5)) +
        " ms, from the chains' collect_report spans " +
        std::to_string(quantile(exact_latency, 0.5)) + " ms over " +
        std::to_string(n) + " chains");
}

}  // namespace

RunResult run_serve_640(const RunOptions& options) {
  RunResult r;
  double setup_s = 0.0;
  Deployment d = set_up(true, true, setup_s);

  // One canonical drive per camera, one seed per camera, independent draws;
  // long enough to offer `seconds` of frames and at least kMinFrames in all.
  const int frames_per_stream = std::max(
      static_cast<int>(std::ceil(options.seconds * kServeFpsPerStream)),
      static_cast<int>(kMinFrames + kServeStreams - 1) / kServeStreams);
  const int per_segment = (frames_per_stream + 5) / 6;
  std::vector<data::DriveSequence> sequences;
  for (int s = 0; s < kServeStreams; ++s) {
    data::SequenceSpec spec =
        data::DriveSequence::canonical_drive({640, 360}, per_segment);
    spec.seed = options.seed * kServeStreams + static_cast<std::uint64_t>(s);
    spec.coherent_motion = false;
    sequences.emplace_back(spec);
  }

  // Warm-up: one unpaced serve of short drives (every mode, one frame each).
  std::vector<data::DriveSequence> warmup;
  for (int s = 0; s < kServeStreams; ++s) {
    data::SequenceSpec spec = data::DriveSequence::canonical_drive({640, 360}, 1);
    spec.seed = sequences[static_cast<std::size_t>(s)].frame(0).scene.noise_seed;
    warmup.emplace_back(spec);
  }
  (void)d.server->serve_sequences(warmup);

  CounterDeltas counters;
  const ServePhase untraced = serve_paced(*d.server, sequences, false, counters);
  std::vector<const ServePhase*> checked{&untraced};
  ServePhase traced;
  if (options.trace) {
    traced = serve_paced(*d.server, sequences, true, counters);
    checked.push_back(&traced);
  }

  std::vector<core::AdaptiveRunReport> reference(sequences.size());
  parallel_for(static_cast<int>(sequences.size()), [&](int s) {
    reference[static_cast<std::size_t>(s)] =
        d.system->run(sequences[static_cast<std::size_t>(s)]);
  });
  std::int64_t offered = 0;
  for (const data::DriveSequence& seq : sequences) offered += seq.frame_count();
  for (const ServePhase* phase : checked) {
    r.attempted += offered;
    r.failed += check_serve(*phase, reference);
  }
  r.notes.push_back("serve: " + std::to_string(kServeStreams) + " cameras x " +
                    std::to_string(sequences[0].frame_count()) +
                    " frames, offered " +
                    std::to_string(kServeFpsPerStream * kServeStreams) +
                    " fps aggregate, scan pool workers " +
                    std::to_string(pool_workers()));

  const auto quality = [](const ServePhase& phase) {
    Quality q;
    for (const runtime::StreamResult& res : phase.results)
      for (const core::AdaptiveFrameReport& f : res.report.frames)
        q.add(f.vehicle_processed, f.vehicle_match);
    return q;
  };
  if (!options.trace) {
    const Quality q = quality(untraced);
    add_latency_metrics(r, untraced.latency_ms,
                        static_cast<double>(q.offered) / untraced.wall_s);
    add_quality_metrics(r, q, setup_s);
    return r;
  }

  // Rendering happens inside the detect stage; time a sample from outside.
  std::vector<double> render_ms;
  for (std::size_t k = 0; k < kServeRenderSamples; ++k) {
    const data::DriveSequence& seq = sequences[k % sequences.size()];
    const data::SequenceFrame meta =
        seq.frame(static_cast<int>(k) % seq.frame_count());
    const Clock::time_point t0 = Clock::now();
    (void)data::render_scene(meta.scene);
    render_ms.push_back(ms_since(t0));
  }
  put(r, "datasets.render_ms", mean(render_ms), render_ms.size(),
      "render_scene on sampled served frames");
  put_span_metrics(r, traced.spans);
  put_counter_metrics(r, counters,
                      static_cast<double>(std::count_if(
                          traced.spans.begin(), traced.spans.end(),
                          [](const obs::SpanRecord& s) {
                            return std::string_view(s.name) == "dark_detect";
                          })));
  put_chain_metrics(r, traced.spans, traced);
  put_quality(r, quality(traced));
  std::uint64_t drops = 0;
  for (const runtime::StreamResult& res : traced.results)
    drops += res.backpressure_drops;
  put(r, "runtime.backpressure_drops", static_cast<double>(drops), 1,
      "StreamResult::backpressure_drops, run total");
  if (!traced.lag_ms.empty())
    put(r, "runtime.source_lag_ms_p90", quantile(traced.lag_ms, 0.9),
        traced.lag_ms.size(), "paced source: pull time minus due time");
  r.notes.push_back("mean frame latency: untraced " +
                    std::to_string(untraced.latency_mean_ms) + " ms, traced " +
                    std::to_string(traced.latency_mean_ms) + " ms");
  if (untraced.latency_mean_ms > 0.0)
    put(r, "obs.trace_overhead_pct",
        100.0 * (traced.latency_mean_ms / untraced.latency_mean_ms - 1.0), 2,
        "traced vs untraced mean frame latency (open loop: fps is paced)");
  put(r, "obs.dropped_spans", static_cast<double>(traced.dropped_spans), 1,
      "tracer ring overwrites");
  r.spans = std::move(traced.spans);
  return r;
}

}  // namespace perfbench
