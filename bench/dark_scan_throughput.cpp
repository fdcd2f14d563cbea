// Dark-scan throughput: the GEMM-backed batched taillight scan against the
// per-window reference path, and the dark front end that feeds it.
//
// Three configurations over the same trained dark detector and the same set
// of procedural night masks:
//   reference — one Dbn::posterior call per 9x9 window (the retained
//               correctness oracle, detect_taillights_reference)
//   batch_1t  — gather every blob's windows into one packed patch matrix,
//               score through Dbn::posterior_batch (one GEMM per layer),
//               scatter back per blob; single-threaded
//   batch_4t  — same, with gather and batch scoring on a 4-thread
//               avd::runtime::ThreadPool
//
// Batching replaces per-window weight-matrix traversals (81x20 + 20x8 + 8x4
// loads per window) with per-batch ones, so the weights stream from cache
// once per chunk instead of once per window. Acceptance (ISSUE 6): >= 3x
// throughput over the reference, with detections identical across every
// configuration and batch_windows value (the batched forward is bit-exact
// per row, so this is an equality check, not a tolerance).
//
// The preprocess part times DarkVehicleDetector::preprocess (the fused
// threshold + OR-pool pass, then the closing) on one thread over rendered
// dark frames at 1920x1080 (factor 3 divides it: the OR-pooling path) and
// 640x360 (640 is not a multiple of 3: the nearest-sample path), and checks
// every output against the composed public image calls it is defined as.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <type_traits>
#include <vector>

#include "avd/detect/dark_training.hpp"
#include "avd/image/color.hpp"
#include "avd/image/filter.hpp"
#include "avd/image/resize.hpp"
#include "avd/runtime/thread_pool.hpp"
#include "bench_report.hpp"

namespace {

using avd::det::DarkVehicleDetector;
using avd::det::TaillightDetection;
using Clock = std::chrono::steady_clock;

std::vector<avd::img::ImageU8> make_masks(const DarkVehicleDetector& det) {
  // Eight busy night scenes: multi-vehicle 640x360 frames (the paper's
  // downsampled dark resolution) whose blob population mixes true lamps,
  // streaks and noise specks like a dense urban drive — the workload the
  // batched scan exists for.
  std::vector<avd::img::ImageU8> masks;
  avd::data::SceneGenerator gen(avd::data::LightingCondition::Dark, 321);
  for (int i = 0; i < 8; ++i) {
    const int vehicles = 2 + i % 4;  // 2-5 per frame
    masks.push_back(det.preprocess(
        avd::data::render_scene(gen.random_scene({640, 360}, vehicles))));
  }
  return masks;
}

bool lights_identical(const std::vector<TaillightDetection>& a,
                      const std::vector<TaillightDetection>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!(a[i].center == b[i].center) || a[i].cls != b[i].cls ||
        a[i].confidence != b[i].confidence ||  // exact: bit-identical forward
        !(a[i].blob_box == b[i].blob_box) || a[i].blob_area != b[i].blob_area)
      return false;
  return true;
}

std::vector<avd::img::RgbImage> render_dark_frames(avd::img::Size size,
                                                   int count) {
  std::vector<avd::img::RgbImage> frames;
  avd::data::SceneGenerator gen(avd::data::LightingCondition::Dark, 654);
  for (int i = 0; i < count; ++i)
    frames.push_back(
        avd::data::render_scene(gen.random_scene(size, 2 + i % 4)));
  return frames;
}

/// preprocess() spelled out as the public whole-image calls it replaced.
avd::img::ImageU8 composed_preprocess(const avd::img::RgbImage& frame,
                                      const avd::det::DarkDetectorConfig& cfg) {
  namespace img = avd::img;
  img::ImageU8 mask =
      img::taillight_roi_mask(img::rgb_to_ycbcr(frame), cfg.threshold);
  const int f = cfg.downsample_factor;
  if (f > 1 && mask.width() % f == 0 && mask.height() % f == 0)
    mask = img::downsample_or(mask, f);
  else if (f > 1)
    mask = img::resize_nearest(mask, {std::max(1, mask.width() / f),
                                      std::max(1, mask.height() / f)});
  if (cfg.median_prefilter) mask = img::median3x3(mask);
  return img::close(mask, cfg.closing);
}

/// Full-input-set passes per second, best of five ~0.4 s windows (each at
/// least 3 reps). The best-window estimator discards noisy-neighbour
/// slowdowns — on a shared core a single long window measures the
/// neighbours as much as the scan. `out` receives the per-input results
/// of one pass for equality checks.
template <typename In, typename Fn>
double measure(const std::vector<In>& masks, const Fn& scan,
               std::vector<std::invoke_result_t<Fn, const In&>>* out) {
  out->clear();
  for (const auto& m : masks) out->push_back(scan(m));  // warm-up + canonical
  double best = 0.0;
  for (int window = 0; window < 5; ++window) {
    int reps = 0;
    const Clock::time_point t0 = Clock::now();
    double seconds = 0.0;
    do {
      for (const auto& m : masks) (void)scan(m);
      ++reps;
      seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    } while (reps < 3 || seconds < 0.4);
    best = std::max(best, reps * static_cast<double>(masks.size()) / seconds);
  }
  return best;
}

bool all_identical(const std::vector<std::vector<TaillightDetection>>& a,
                   const std::vector<std::vector<TaillightDetection>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!lights_identical(a[i], b[i])) return false;
  return true;
}

}  // namespace

int main() {
  std::printf("=== bench: dark_scan_throughput ===\n\n");
  avd::bench::BenchReport report("dark_scan_throughput");

  std::printf("training dark detector (DBN + pairing SVM)...\n");
  avd::det::DarkTrainingSpec spec;
  spec.windows.per_class = 120;
  spec.dbn.pretrain.epochs = 12;
  spec.dbn.finetune_epochs = 30;
  spec.pairing_scenes = 60;
  DarkVehicleDetector detector = avd::det::train_dark_detector(spec);
  const std::vector<avd::img::ImageU8> masks = make_masks(detector);

  std::size_t total_windows = 0, total_blobs = 0;
  for (const auto& m : masks) {
    for (const auto& blob : avd::img::find_blobs(
             m, avd::img::Connectivity::Eight,
             detector.config().min_blob_area)) {
      ++total_blobs;
      const avd::img::Rect region = avd::img::inflated(blob.bbox, 4);
      total_windows +=
          avd::det::dark_window_anchors(region.x, region.right(), 9, 2).size() *
          avd::det::dark_window_anchors(region.y, region.bottom(), 9, 2).size();
    }
  }

  std::vector<std::vector<TaillightDetection>> ref, b1, b4;
  const double ref_sps = measure(
      masks,
      [&](const avd::img::ImageU8& m) {
        return detector.detect_taillights_reference(m);
      },
      &ref);
  const double b1_sps = measure(
      masks,
      [&](const avd::img::ImageU8& m) { return detector.detect_taillights(m); },
      &b1);
  avd::runtime::ThreadPool pool(4);
  detector.set_scan_pool(&pool);
  const double b4_sps = measure(
      masks,
      [&](const avd::img::ImageU8& m) { return detector.detect_taillights(m); },
      &b4);
  detector.set_scan_pool(nullptr);

  // Chunk-size sweep: detections must be identical for every batch_windows.
  bool identical_across_batches = true;
  for (const int batch : {1, 64, 4096}) {
    avd::det::DarkDetectorConfig cfg = detector.config();
    cfg.batch_windows = batch;
    const DarkVehicleDetector swept(detector.dbn(), detector.pairing_svm(),
                                    cfg);
    for (std::size_t i = 0; i < masks.size(); ++i)
      identical_across_batches &=
          lights_identical(swept.detect_taillights(masks[i]), ref[i]);
  }

  // The front end, single-threaded (preprocess never touches the pool).
  const auto preprocess = [&](const avd::img::RgbImage& f) {
    return detector.preprocess(f);
  };
  const std::vector<avd::img::RgbImage> hd =
      render_dark_frames({1920, 1080}, 3);
  const std::vector<avd::img::RgbImage> sd =
      render_dark_frames({640, 360}, 8);
  std::vector<avd::img::ImageU8> hd_masks, sd_masks;
  const double hd_fps = measure(hd, preprocess, &hd_masks);
  const double sd_fps = measure(sd, preprocess, &sd_masks);
  bool preprocess_composed = true;
  for (std::size_t i = 0; i < hd.size(); ++i)
    preprocess_composed &=
        hd_masks[i] == composed_preprocess(hd[i], detector.config());
  for (std::size_t i = 0; i < sd.size(); ++i)
    preprocess_composed &=
        sd_masks[i] == composed_preprocess(sd[i], detector.config());

  const double speedup_1t = ref_sps > 0.0 ? b1_sps / ref_sps : 0.0;
  const double speedup_4t = ref_sps > 0.0 ? b4_sps / ref_sps : 0.0;
  const bool identical = all_identical(ref, b1) && all_identical(ref, b4) &&
                         identical_across_batches;
  const double best = std::max(speedup_1t, speedup_4t);

  std::printf("\n%-10s | %10s | %8s | %9s\n", "config", "masks/s", "speedup",
              "identical");
  std::printf("%-10s | %10.2f | %8s | %9s\n", "reference", ref_sps, "1.00x",
              "-");
  std::printf("%-10s | %10.2f | %7.2fx | %9s\n", "batch_1t", b1_sps, speedup_1t,
              all_identical(ref, b1) ? "yes" : "NO");
  std::printf("%-10s | %10.2f | %7.2fx | %9s\n", "batch_4t", b4_sps, speedup_4t,
              all_identical(ref, b4) ? "yes" : "NO");
  std::printf("  (%zu masks, %zu blobs, %zu windows/pass, batch sweep %s)\n\n",
              masks.size(), total_blobs, total_windows,
              identical_across_batches ? "identical" : "DIVERGED");
  std::printf("acceptance >=3x vs per-window reference: %s\n\n",
              best >= 3.0 ? "PASS" : "FAIL");

  std::printf("%-16s | %10s | %18s\n", "preprocess", "frames/s",
              "= composed calls");
  std::printf("%-16s | %10.1f | %18s\n", "1920x1080 pooled", hd_fps,
              preprocess_composed ? "yes" : "NO");
  std::printf("%-16s | %10.1f | %18s\n", "640x360 nearest", sd_fps,
              preprocess_composed ? "yes" : "NO");

  report.metric("reference.masks_per_s", ref_sps, "1/s");
  report.metric("batch_1t.masks_per_s", b1_sps, "1/s");
  report.metric("batch_4t.masks_per_s", b4_sps, "1/s");
  report.metric("batch_1t.speedup", speedup_1t, "x");
  report.metric("batch_4t.speedup", speedup_4t, "x");
  report.metric("windows_per_pass", static_cast<double>(total_windows),
                "windows");
  report.metric("preprocess_1080p.frames_per_s", hd_fps, "1/s");
  report.metric("preprocess_360p.frames_per_s", sd_fps, "1/s");
  report.check("detections_identical_across_configs", identical);
  report.check("preprocess_equals_composed_calls", preprocess_composed);
  report.check("speedup_at_least_3x", best >= 3.0);
  report.note("workload",
              "8 procedural 640x360 night masks (2-5 vehicles each), trained "
              "81-20-8-4 DBN, stride-2 9x9 windows, batch_windows sweep "
              "{1,64,4096}; preprocess on 3 rendered 1920x1080 and 8 640x360 "
              "dark frames, one thread, factor 3");
  report.write();
  return identical && preprocess_composed ? 0 : 1;
}
