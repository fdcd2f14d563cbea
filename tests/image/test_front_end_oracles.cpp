// Exhaustive oracles for the exact dark front end.
//
//  - rgb_to_ycbcr / rgb_to_gray against the scalar luma_of/cb_of/cr_of over
//    every one of the 2^24 RGB inputs;
//  - the fused taillight_roi_mask(RgbImage, params, factor) against the
//    four-call composition it is defined as, over the whole cube and on
//    rendered and random frames at pooled and nearest-path sizes;
//  - dilate/erode/close/open against a brute-force-by-definition reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "avd/datasets/scene.hpp"
#include "avd/image/color.hpp"
#include "avd/image/morphology.hpp"
#include "avd/image/resize.hpp"
#include "avd/image/threshold.hpp"

namespace avd::img {
namespace {

/// Every RGB triple once: pixel index i holds (i >> 16, i >> 8, i) bytes.
const RgbImage& rgb_cube() {
  static const RgbImage cube = [] {
    RgbImage c(4096, 4096);
    auto r = c.r().pixels();
    auto g = c.g().pixels();
    auto b = c.b().pixels();
    for (std::size_t i = 0; i < r.size(); ++i) {
      r[i] = static_cast<std::uint8_t>(i >> 16);
      g[i] = static_cast<std::uint8_t>(i >> 8);
      b[i] = static_cast<std::uint8_t>(i);
    }
    return c;
  }();
  return cube;
}

const YcbcrImage& cube_ycc() {
  static const YcbcrImage ycc = rgb_to_ycbcr(rgb_cube());
  return ycc;
}

/// The definition of the fused mask: the public calls the dark front end
/// used to make, one whole-image pass each.
ImageU8 composed_mask(const RgbImage& rgb, const TaillightThresholdParams& p,
                      int factor) {
  const ImageU8 mask = taillight_roi_mask(rgb_to_ycbcr(rgb), p);
  if (factor == 1) return mask;
  if (mask.width() % factor == 0 && mask.height() % factor == 0)
    return downsample_or(mask, factor);
  return resize_nearest(mask, {std::max(1, mask.width() / factor),
                               std::max(1, mask.height() / factor)});
}

TaillightThresholdParams with(std::uint8_t luma, std::uint8_t cr,
                              std::uint8_t cb) {
  TaillightThresholdParams p;
  p.luma_min = luma;
  p.cr_min = cr;
  p.cb_max = cb;
  return p;
}

/// Default, plus every gate at and next to its always-true / never-true end.
std::vector<TaillightThresholdParams> parameter_sets() {
  const TaillightThresholdParams d;
  return {d,
          with(0, d.cr_min, d.cb_max),
          with(1, d.cr_min, d.cb_max),
          with(255, d.cr_min, d.cb_max),
          with(d.luma_min, 0, d.cb_max),
          with(d.luma_min, 255, d.cb_max),
          with(d.luma_min, d.cr_min, 0),
          with(d.luma_min, d.cr_min, 254),
          with(d.luma_min, d.cr_min, 255)};
}

std::string describe(const TaillightThresholdParams& p, int factor) {
  return "luma_min=" + std::to_string(p.luma_min) +
         " cr_min=" + std::to_string(p.cr_min) +
         " cb_max=" + std::to_string(p.cb_max) +
         " factor=" + std::to_string(factor);
}

// --- (a) colour kernels against the scalar oracles --------------------------

TEST(ColorOracle, YcbcrPlanesMatchScalarOnWholeCube) {
  const RgbImage& cube = rgb_cube();
  const YcbcrImage& ycc = cube_ycc();
  auto r = cube.r().pixels();
  auto g = cube.g().pixels();
  auto b = cube.b().pixels();
  auto y = ycc.y.pixels();
  auto cb = ycc.cb.pixels();
  auto cr = ycc.cr.pixels();
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < r.size(); ++i)
    mismatches += (y[i] != luma_of(r[i], g[i], b[i])) +
                  (cb[i] != cb_of(r[i], g[i], b[i])) +
                  (cr[i] != cr_of(r[i], g[i], b[i]));
  EXPECT_EQ(mismatches, 0u);
}

TEST(ColorOracle, GrayMatchesScalarOnWholeCube) {
  const RgbImage& cube = rgb_cube();
  const ImageU8 gray = rgb_to_gray(cube);
  auto r = cube.r().pixels();
  auto g = cube.g().pixels();
  auto b = cube.b().pixels();
  auto out = gray.pixels();
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < r.size(); ++i)
    mismatches += out[i] != luma_of(r[i], g[i], b[i]);
  EXPECT_EQ(mismatches, 0u);
}

// --- (b) fused mask against its composition --------------------------------

TEST(FusedRoiMask, MatchesCompositionOnWholeCube) {
  // Factor 1 compares every RGB input one to one; factors 2 and 4 pool
  // neighbouring blue values and catch an off-by-one in the row/column walk.
  for (const TaillightThresholdParams& p : parameter_sets()) {
    const ImageU8 expected = taillight_roi_mask(cube_ycc(), p);
    EXPECT_TRUE(taillight_roi_mask(rgb_cube(), p, 1) == expected)
        << describe(p, 1);
  }
  const TaillightThresholdParams defaults;
  const ImageU8 full = taillight_roi_mask(cube_ycc(), defaults);
  for (const int factor : {2, 4})
    EXPECT_TRUE(taillight_roi_mask(rgb_cube(), defaults, factor) ==
                downsample_or(full, factor))
        << describe(defaults, factor);
}

const RgbImage& rendered_hd() {
  static const RgbImage frame = [] {
    data::SceneGenerator gen(data::LightingCondition::Dark, 17);
    return data::render_scene(gen.random_scene({1920, 1080}, 4));
  }();
  return frame;
}

std::vector<RgbImage> rendered_frames() {
  data::SceneGenerator gen(data::LightingCondition::Dark, 29);
  std::vector<RgbImage> frames;
  frames.push_back(rendered_hd());
  frames.push_back(data::render_scene(gen.random_scene({640, 360}, 3)));
  frames.push_back(rendered_hd().crop({700, 400, 641, 361}));
  // 1xN: the column through the most lit pixels of the HD frame.
  const ImageU8 mask = composed_mask(rendered_hd(), {}, 1);
  int best_x = 0;
  int best_count = -1;
  for (int x = 0; x < mask.width(); ++x) {
    int count = 0;
    for (int y = 0; y < mask.height(); ++y) count += mask(x, y) != 0;
    if (count > best_count) {
      best_count = count;
      best_x = x;
    }
  }
  frames.push_back(rendered_hd().crop({best_x, 0, 1, 1080}));
  frames.push_back(rendered_hd().crop({best_x, 0, 1, 1079}));
  return frames;
}

TEST(FusedRoiMask, MatchesCompositionOnRenderedDarkFrames) {
  ASSERT_GT(count_nonzero(composed_mask(rendered_hd(), {}, 1)), 0u)
      << "the rendered frame should light some taillight pixels";
  for (const RgbImage& frame : rendered_frames()) {
    for (int factor = 1; factor <= 4; ++factor) {
      for (const TaillightThresholdParams& p :
           {TaillightThresholdParams{}, with(1, 0, 255)}) {
        const ImageU8 fused = taillight_roi_mask(frame, p, factor);
        const ImageU8 expected = composed_mask(frame, p, factor);
        EXPECT_TRUE(fused == expected)
            << frame.width() << "x" << frame.height() << " "
            << describe(p, factor);
      }
    }
  }
}

TEST(FusedRoiMask, MatchesCompositionOnRandomRedFrames) {
  // Dense red/white noise lights about half the pixels, so every pooled
  // block and every sampled pixel of the nearest path is exercised.
  std::mt19937 rng(5);
  std::uniform_int_distribution<int> bright(120, 255);
  std::uniform_int_distribution<int> any(0, 255);
  for (const Size size : {Size{1, 1}, Size{1, 7}, Size{7, 1}, Size{6, 6},
                          Size{9, 12}, Size{640, 360}, Size{641, 361}}) {
    RgbImage frame(size);
    for (int y = 0; y < size.height; ++y)
      for (int x = 0; x < size.width; ++x)
        frame.set_pixel(x, y,
                        {static_cast<std::uint8_t>(bright(rng)),
                         static_cast<std::uint8_t>(any(rng) / 2),
                         static_cast<std::uint8_t>(any(rng) / 2)});
    for (int factor = 1; factor <= 4; ++factor)
      for (const TaillightThresholdParams& p : parameter_sets())
        EXPECT_TRUE(taillight_roi_mask(frame, p, factor) ==
                    composed_mask(frame, p, factor))
            << size.width << "x" << size.height << " " << describe(p, factor);
  }
}

TEST(FusedRoiMask, RejectsBadFactorAndEmptyNearestSource) {
  EXPECT_THROW((void)taillight_roi_mask(RgbImage(6, 6), {}, 0),
               std::invalid_argument);
  EXPECT_THROW((void)taillight_roi_mask(RgbImage(6, 6), {}, -3),
               std::invalid_argument);
  // Like resize_nearest on the empty composed mask.
  EXPECT_THROW((void)taillight_roi_mask(RgbImage(0, 5), {}, 3),
               std::invalid_argument);
  EXPECT_EQ(taillight_roi_mask(RgbImage(0, 0), {}, 3).size(), (Size{0, 0}));
}

// --- (c) morphology against the definition ---------------------------------

bool set_at(const ImageU8& m, int x, int y) {
  return m.in_bounds(x, y) && m(x, y) != 0;
}

/// Dilation by definition: any in-bounds pixel under the SE is set.
ImageU8 dilate_by_definition(const ImageU8& m, StructuringElement se) {
  ImageU8 out(m.size());
  for (int y = 0; y < m.height(); ++y)
    for (int x = 0; x < m.width(); ++x) {
      bool any = false;
      for (int dy = -se.radius_y(); dy <= se.radius_y(); ++dy)
        for (int dx = -se.radius_x(); dx <= se.radius_x(); ++dx)
          any = any || set_at(m, x + dx, y + dy);
      out(x, y) = any ? 255 : 0;
    }
  return out;
}

/// Erosion by definition: every pixel under the SE is set, and pixels
/// outside the image count as background.
ImageU8 erode_by_definition(const ImageU8& m, StructuringElement se) {
  ImageU8 out(m.size());
  for (int y = 0; y < m.height(); ++y)
    for (int x = 0; x < m.width(); ++x) {
      bool all = true;
      for (int dy = -se.radius_y(); dy <= se.radius_y(); ++dy)
        for (int dx = -se.radius_x(); dx <= se.radius_x(); ++dx)
          all = all && set_at(m, x + dx, y + dy);
      out(x, y) = all ? 255 : 0;
    }
  return out;
}

std::vector<ImageU8> morphology_masks() {
  std::mt19937 rng(23);
  std::vector<ImageU8> masks;
  for (const Size size : {Size{1, 1}, Size{1, 9}, Size{9, 1}, Size{2, 3},
                          Size{13, 7}, Size{31, 17}}) {
    for (const int density_pct : {10, 50, 90}) {
      ImageU8 m(size);
      std::uniform_int_distribution<int> pct(0, 99);
      std::uniform_int_distribution<int> value(1, 255);  // any non-zero is set
      for (auto& v : m.pixels())
        v = pct(rng) < density_pct ? static_cast<std::uint8_t>(value(rng)) : 0;
      masks.push_back(std::move(m));
    }
  }
  // Blobs touching every border: full first/last rows and columns, plus a
  // block in each corner of a larger frame.
  ImageU8 frame(20, 14, 0);
  for (int x = 0; x < 20; ++x) frame(x, 0) = frame(x, 13) = 255;
  for (int y = 0; y < 14; ++y) frame(0, y) = frame(19, y) = 255;
  masks.push_back(frame);
  ImageU8 corners(17, 11, 0);
  for (int y = 0; y < 4; ++y)
    for (int x = 0; x < 5; ++x) {
      corners(x, y) = 255;
      corners(16 - x, y) = 7;
      corners(x, 10 - y) = 1;
      corners(16 - x, 10 - y) = 255;
    }
  masks.push_back(corners);
  masks.push_back(ImageU8(8, 6, 255));
  return masks;
}

TEST(MorphologyOracle, MatchesDefinitionForEverySeUpTo7x5) {
  const std::vector<ImageU8> masks = morphology_masks();
  for (const int w : {1, 3, 5, 7}) {
    for (const int h : {1, 3, 5}) {
      const StructuringElement se{w, h};
      for (std::size_t i = 0; i < masks.size(); ++i) {
        const ImageU8& m = masks[i];
        const ImageU8 dil = dilate_by_definition(m, se);
        const ImageU8 ero = erode_by_definition(m, se);
        const std::string where = "mask " + std::to_string(i) + " (" +
                                  std::to_string(m.width()) + "x" +
                                  std::to_string(m.height()) + ") SE " +
                                  std::to_string(w) + "x" + std::to_string(h);
        EXPECT_TRUE(dilate(m, se) == dil) << where;
        EXPECT_TRUE(erode(m, se) == ero) << where;
        EXPECT_TRUE(close(m, se) == erode_by_definition(dil, se)) << where;
        EXPECT_TRUE(open(m, se) == dilate_by_definition(ero, se)) << where;
      }
    }
  }
}

}  // namespace
}  // namespace avd::img
