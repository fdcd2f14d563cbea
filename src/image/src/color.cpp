#include "avd/image/color.hpp"

#include <algorithm>
#include <cmath>

#include "bt601.hpp"

namespace avd::img {
namespace {

std::uint8_t clamp_u8(float v) {
  return static_cast<std::uint8_t>(std::clamp(std::lround(v), 0L, 255L));
}

}  // namespace

// The scalar oracles: the BT.601 expressions rounded through libm. The image
// kernels below must match them on every RGB input (tests/image enforce it
// over the whole 2^24 cube).
std::uint8_t luma_of(std::uint8_t r, std::uint8_t g, std::uint8_t b) {
  return clamp_u8(bt601::luma(r, g, b));
}

std::uint8_t cb_of(std::uint8_t r, std::uint8_t g, std::uint8_t b) {
  return clamp_u8(bt601::cb(r, g, b));
}

std::uint8_t cr_of(std::uint8_t r, std::uint8_t g, std::uint8_t b) {
  return clamp_u8(bt601::cr(r, g, b));
}

YcbcrImage rgb_to_ycbcr(const RgbImage& rgb) {
  YcbcrImage out{ImageU8(rgb.size()), ImageU8(rgb.size()), ImageU8(rgb.size())};
  // Byte stores may alias the image headers, so the width is hoisted into a
  // local: a bound reloaded every iteration keeps the loop scalar.
  const int width = rgb.width();
  for (int yy = 0; yy < rgb.height(); ++yy) {
    const std::uint8_t* __restrict r = rgb.r().row(yy).data();
    const std::uint8_t* __restrict g = rgb.g().row(yy).data();
    const std::uint8_t* __restrict b = rgb.b().row(yy).data();
    std::uint8_t* __restrict oy = out.y.row(yy).data();
    std::uint8_t* __restrict ocb = out.cb.row(yy).data();
    std::uint8_t* __restrict ocr = out.cr.row(yy).data();
    // One loop per plane: GCC vectorises each, not the three-output body.
    for (int x = 0; x < width; ++x)
      oy[x] = bt601::round_u8(bt601::luma(r[x], g[x], b[x]));
    for (int x = 0; x < width; ++x)
      ocb[x] = bt601::round_u8(bt601::cb(r[x], g[x], b[x]));
    for (int x = 0; x < width; ++x)
      ocr[x] = bt601::round_u8(bt601::cr(r[x], g[x], b[x]));
  }
  return out;
}

RgbImage ycbcr_to_rgb(const YcbcrImage& ycc) {
  RgbImage out(ycc.size());
  for (int yy = 0; yy < ycc.height(); ++yy) {
    auto iy = ycc.y.row(yy);
    auto icb = ycc.cb.row(yy);
    auto icr = ycc.cr.row(yy);
    auto r = out.r().row(yy);
    auto g = out.g().row(yy);
    auto b = out.b().row(yy);
    for (int x = 0; x < ycc.width(); ++x) {
      const float y = iy[x];
      const float cb = static_cast<float>(icb[x]) - 128.0f;
      const float cr = static_cast<float>(icr[x]) - 128.0f;
      r[x] = clamp_u8(y + 1.402f * cr);
      g[x] = clamp_u8(y - 0.344136f * cb - 0.714136f * cr);
      b[x] = clamp_u8(y + 1.772f * cb);
    }
  }
  return out;
}

ImageU8 rgb_to_gray(const RgbImage& rgb) {
  ImageU8 out(rgb.size());
  const int width = rgb.width();
  for (int yy = 0; yy < rgb.height(); ++yy) {
    const std::uint8_t* __restrict r = rgb.r().row(yy).data();
    const std::uint8_t* __restrict g = rgb.g().row(yy).data();
    const std::uint8_t* __restrict b = rgb.b().row(yy).data();
    std::uint8_t* __restrict o = out.row(yy).data();
    for (int x = 0; x < width; ++x)
      o[x] = bt601::round_u8(bt601::luma(r[x], g[x], b[x]));
  }
  return out;
}

RgbImage gray_to_rgb(const ImageU8& gray) {
  return {gray, gray, gray};
}

}  // namespace avd::img
