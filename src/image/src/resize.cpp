#include "avd/image/resize.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "nearest_map.hpp"

namespace avd::img {
namespace {

void check_out_size(Size out) {
  if (out.width <= 0 || out.height <= 0)
    throw std::invalid_argument("resize: non-positive output size");
}

// Maps output pixel centre to source coordinates (align-centres convention).
struct LinearMap {
  float scale;
  [[nodiscard]] float operator()(int out_coord) const {
    return (static_cast<float>(out_coord) + 0.5f) * scale - 0.5f;
  }
};

}  // namespace

ImageU8 resize_bilinear(const ImageU8& src, Size out_size) {
  check_out_size(out_size);
  if (src.empty()) throw std::invalid_argument("resize: empty source");
  if (src.size() == out_size) return src;

  ImageU8 out(out_size);
  const LinearMap mx{static_cast<float>(src.width()) / out_size.width};
  const LinearMap my{static_cast<float>(src.height()) / out_size.height};

  // The x mapping is identical for every row: hoist the per-column source
  // indices (with at_clamped's border clamp baked in) and lerp weights out
  // of the pixel loop. Same per-pixel arithmetic as computing them inline —
  // output bytes are unchanged, the map is just computed once per column
  // instead of once per pixel.
  std::vector<int> x0c(static_cast<std::size_t>(out_size.width));
  std::vector<int> x1c(static_cast<std::size_t>(out_size.width));
  std::vector<float> wxs(static_cast<std::size_t>(out_size.width));
  for (int ox = 0; ox < out_size.width; ++ox) {
    const float fx = mx(ox);
    const int x0 = static_cast<int>(std::floor(fx));
    x0c[static_cast<std::size_t>(ox)] = std::clamp(x0, 0, src.width() - 1);
    x1c[static_cast<std::size_t>(ox)] = std::clamp(x0 + 1, 0, src.width() - 1);
    wxs[static_cast<std::size_t>(ox)] = fx - static_cast<float>(x0);
  }

  for (int oy = 0; oy < out_size.height; ++oy) {
    const float fy = my(oy);
    const int y0 = static_cast<int>(std::floor(fy));
    const float wy = fy - static_cast<float>(y0);
    const auto r0 = src.row(std::clamp(y0, 0, src.height() - 1));
    const auto r1 = src.row(std::clamp(y0 + 1, 0, src.height() - 1));
    auto orow = out.row(oy);
    for (int ox = 0; ox < out_size.width; ++ox) {
      const std::size_t sx0 = static_cast<std::size_t>(x0c[static_cast<std::size_t>(ox)]);
      const std::size_t sx1 = static_cast<std::size_t>(x1c[static_cast<std::size_t>(ox)]);
      const float wx = wxs[static_cast<std::size_t>(ox)];
      const float p00 = r0[sx0];
      const float p10 = r0[sx1];
      const float p01 = r1[sx0];
      const float p11 = r1[sx1];
      const float top = p00 + (p10 - p00) * wx;
      const float bot = p01 + (p11 - p01) * wx;
      orow[ox] = static_cast<std::uint8_t>(std::lround(top + (bot - top) * wy));
    }
  }
  return out;
}

RgbImage resize_bilinear(const RgbImage& src, Size out_size) {
  return {resize_bilinear(src.r(), out_size), resize_bilinear(src.g(), out_size),
          resize_bilinear(src.b(), out_size)};
}

std::vector<int> nearest_source_indices(int src_len, int out_len) {
  // Same align-centres LinearMap as resize_bilinear: each output pixel takes
  // the source pixel whose centre is nearest its own mapped centre. The old
  // top-left mapping (ox * sw / ow) sampled up to half a source pixel to the
  // upper-left of bilinear, so a nearest-resized mask drifted relative to
  // the bilinear-resized frame it annotates.
  const LinearMap m{static_cast<float>(src_len) / out_len};
  std::vector<int> idx(static_cast<std::size_t>(std::max(out_len, 0)));
  for (int o = 0; o < out_len; ++o)
    idx[static_cast<std::size_t>(o)] = std::clamp(
        static_cast<int>(std::floor(m(o) + 0.5f)), 0, src_len - 1);
  return idx;
}

ImageU8 resize_nearest(const ImageU8& src, Size out_size) {
  check_out_size(out_size);
  if (src.empty()) throw std::invalid_argument("resize: empty source");
  ImageU8 out(out_size);
  const std::vector<int> xs = nearest_source_indices(src.width(), out_size.width);
  const std::vector<int> ys = nearest_source_indices(src.height(), out_size.height);
  for (int oy = 0; oy < out_size.height; ++oy) {
    auto srow = src.row(ys[static_cast<std::size_t>(oy)]);
    auto orow = out.row(oy);
    for (int ox = 0; ox < out_size.width; ++ox)
      orow[ox] = srow[xs[static_cast<std::size_t>(ox)]];
  }
  return out;
}

ImageU8 downsample_box(const ImageU8& src, int factor) {
  if (factor <= 0) throw std::invalid_argument("downsample: factor must be positive");
  if (src.width() % factor != 0 || src.height() % factor != 0)
    throw std::invalid_argument("downsample: dimensions not divisible by factor");
  ImageU8 out(src.width() / factor, src.height() / factor);
  const int area = factor * factor;
  for (int oy = 0; oy < out.height(); ++oy) {
    auto orow = out.row(oy);
    for (int ox = 0; ox < out.width(); ++ox) {
      int sum = 0;
      for (int dy = 0; dy < factor; ++dy) {
        auto srow = src.row(oy * factor + dy);
        for (int dx = 0; dx < factor; ++dx) sum += srow[ox * factor + dx];
      }
      orow[ox] = static_cast<std::uint8_t>((sum + area / 2) / area);
    }
  }
  return out;
}

ImageU8 downsample_or(const ImageU8& src, int factor) {
  if (factor <= 0) throw std::invalid_argument("downsample: factor must be positive");
  if (src.width() % factor != 0 || src.height() % factor != 0)
    throw std::invalid_argument("downsample: dimensions not divisible by factor");
  ImageU8 out(src.width() / factor, src.height() / factor);
  for (int oy = 0; oy < out.height(); ++oy) {
    auto orow = out.row(oy);
    for (int ox = 0; ox < out.width(); ++ox) {
      std::uint8_t v = 0;
      for (int dy = 0; dy < factor && v == 0; ++dy) {
        auto srow = src.row(oy * factor + dy);
        for (int dx = 0; dx < factor; ++dx) {
          if (srow[ox * factor + dx] != 0) {
            v = 255;
            break;
          }
        }
      }
      orow[ox] = v;
    }
  }
  return out;
}

}  // namespace avd::img
