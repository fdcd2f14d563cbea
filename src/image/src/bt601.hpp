// The unrounded BT.601 full-range expressions behind luma_of/cb_of/cr_of.
//
// rgb_to_ycbcr/rgb_to_gray round these exact float values and the fused
// taillight mask thresholds them at the rounding boundaries, so every caller
// must see the same operation order and no FMA contraction (color.cpp and
// threshold.cpp build with -ffp-contract=off, see src/image/CMakeLists.txt).
#pragma once

#include <algorithm>
#include <cstdint>

namespace avd::img::bt601 {

[[nodiscard]] inline float luma(float r, float g, float b) {
  return 0.299f * r + 0.587f * g + 0.114f * b;
}

[[nodiscard]] inline float cb(float r, float g, float b) {
  return 128.0f - 0.168736f * r - 0.331264f * g + 0.5f * b;
}

[[nodiscard]] inline float cr(float r, float g, float b) {
  return 128.0f + 0.5f * r - 0.418688f * g - 0.081312f * b;
}

/// std::clamp(std::lround(v), 0, 255) without the libm call, so the pixel
/// loops vectorise. For v >= 0 truncation is floor and v - k is the exact
/// fractional part, so adding (v - k >= 0.5) rounds half away from zero as
/// lround does; a negative v truncates to k <= 0 and clamps to 0 either way.
/// The clamp is on the integer: float min/max carry NaN branches that keep
/// GCC from vectorising.
[[nodiscard]] inline std::uint8_t round_u8(float v) {
  const int k = static_cast<int>(v);
  const int rounded = k + (v - static_cast<float>(k) >= 0.5f);
  return static_cast<std::uint8_t>(std::min(std::max(rounded, 0), 255));
}

}  // namespace avd::img::bt601
