// DarkVehicleDetector::preprocess is the fused front end followed by the
// optional median and the closing; it must equal the composition of the
// public whole-image calls it replaced, for every downsample path.
#include <gtest/gtest.h>

#include <algorithm>

#include "avd/datasets/scene.hpp"
#include "avd/detect/dark_detector.hpp"
#include "avd/image/color.hpp"
#include "avd/image/filter.hpp"
#include "avd/image/resize.hpp"

namespace avd::det {
namespace {

/// preprocess() spelled out as the public image calls, one pass each.
img::ImageU8 composed_preprocess(const img::RgbImage& frame,
                                 const DarkDetectorConfig& cfg) {
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

DarkVehicleDetector untrained(const DarkDetectorConfig& cfg) {
  // preprocess() never touches the models; untrained ones of the right
  // shape keep this test free of training time.
  return {ml::Dbn({data::kTaillightInputs, 20, 8}, data::kTaillightClasses),
          ml::LinearSvm(std::vector<float>(DarkVehicleDetector::kPairFeatureCount,
                                           0.0f),
                        0.0f),
          cfg};
}

TEST(DarkFrontEnd, PreprocessEqualsComposedImageCalls) {
  data::SceneGenerator gen(data::LightingCondition::Dark, 41);
  // 960x540 pools at factors 2-4 except 4 on the rows; 640x360 takes the
  // nearest path at factor 3 (the 640-wide serving frames).
  for (const img::Size size : {img::Size{960, 540}, img::Size{640, 360}}) {
    const img::RgbImage frame = data::render_scene(gen.random_scene(size, 3));
    for (const int factor : {1, 2, 3, 4}) {
      for (const bool median : {false, true}) {
        DarkDetectorConfig cfg;
        cfg.downsample_factor = factor;
        cfg.median_prefilter = median;
        cfg.closing = {5, 3};
        const img::ImageU8 got = untrained(cfg).preprocess(frame);
        EXPECT_TRUE(got == composed_preprocess(frame, cfg))
            << size.width << "x" << size.height << " factor " << factor
            << " median " << median;
      }
    }
  }
}

}  // namespace
}  // namespace avd::det
