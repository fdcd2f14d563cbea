#include "avd/image/threshold.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "bt601.hpp"
#include "nearest_map.hpp"

namespace avd::img {
namespace {

void check_same_size(const ImageU8& a, const ImageU8& b, const char* what) {
  if (a.size() != b.size())
    throw std::invalid_argument(std::string(what) + ": size mismatch");
}

/// The taillight gates on the unrounded BT.601 values. With
/// u = clamp(lround(v), 0, 255) and lround rounding half away from zero:
///   u >= t  <=>  v >= t - 0.5   for 1 <= t <= 255 (t = 0 always holds),
///   u <= t  <=>  v <  t + 0.5   for 0 <= t <= 254 (t = 255 always holds).
/// Both bounds are exact in float; the always-true gates become infinities.
struct RoiGates {
  float luma_lo;
  float cr_lo;
  float cb_hi;

  explicit RoiGates(const TaillightThresholdParams& p)
      : luma_lo(at_least(p.luma_min)),
        cr_lo(at_least(p.cr_min)),
        cb_hi(p.cb_max == 255 ? std::numeric_limits<float>::infinity()
                              : static_cast<float>(p.cb_max) + 0.5f) {}

  static float at_least(std::uint8_t t) {
    return t == 0 ? -std::numeric_limits<float>::infinity()
                  : static_cast<float>(t) - 0.5f;
  }

  [[nodiscard]] bool operator()(float r, float g, float b) const {
    // Non-short-circuit &: no branch, so the row loop vectorises.
    return (bt601::luma(r, g, b) >= luma_lo) & (bt601::cr(r, g, b) >= cr_lo) &
           (bt601::cb(r, g, b) < cb_hi);
  }
};

/// acc[x] |= gate(pixel x) over one source row.
void or_roi_row(const RoiGates& gates, const std::uint8_t* __restrict r,
                const std::uint8_t* __restrict g,
                const std::uint8_t* __restrict b, int width,
                std::uint8_t* __restrict acc) {
  for (int x = 0; x < width; ++x)
    acc[x] |= static_cast<std::uint8_t>(gates(r[x], g[x], b[x]));
}

}  // namespace

ImageU8 threshold_binary(const ImageU8& src, std::uint8_t threshold) {
  ImageU8 out(src.size());
  auto s = src.pixels();
  auto o = out.pixels();
  for (std::size_t i = 0; i < s.size(); ++i) o[i] = s[i] >= threshold ? 255 : 0;
  return out;
}

ImageU8 threshold_band(const ImageU8& src, std::uint8_t lo, std::uint8_t hi) {
  if (lo > hi) throw std::invalid_argument("threshold_band: lo > hi");
  ImageU8 out(src.size());
  auto s = src.pixels();
  auto o = out.pixels();
  for (std::size_t i = 0; i < s.size(); ++i)
    o[i] = (s[i] >= lo && s[i] <= hi) ? 255 : 0;
  return out;
}

ImageU8 mask_and(const ImageU8& a, const ImageU8& b) {
  check_same_size(a, b, "mask_and");
  ImageU8 out(a.size());
  auto pa = a.pixels();
  auto pb = b.pixels();
  auto o = out.pixels();
  for (std::size_t i = 0; i < pa.size(); ++i)
    o[i] = (pa[i] != 0 && pb[i] != 0) ? 255 : 0;
  return out;
}

ImageU8 mask_or(const ImageU8& a, const ImageU8& b) {
  check_same_size(a, b, "mask_or");
  ImageU8 out(a.size());
  auto pa = a.pixels();
  auto pb = b.pixels();
  auto o = out.pixels();
  for (std::size_t i = 0; i < pa.size(); ++i)
    o[i] = (pa[i] != 0 || pb[i] != 0) ? 255 : 0;
  return out;
}

ImageU8 mask_not(const ImageU8& a) {
  ImageU8 out(a.size());
  auto pa = a.pixels();
  auto o = out.pixels();
  for (std::size_t i = 0; i < pa.size(); ++i) o[i] = pa[i] != 0 ? 0 : 255;
  return out;
}

std::size_t count_nonzero(const ImageU8& mask) {
  std::size_t n = 0;
  for (auto v : mask.pixels()) n += v != 0;
  return n;
}

ImageU8 taillight_roi_mask(const YcbcrImage& ycc, const TaillightThresholdParams& p) {
  ImageU8 out(ycc.size());
  for (int y = 0; y < ycc.height(); ++y) {
    auto ly = ycc.y.row(y);
    auto cb = ycc.cb.row(y);
    auto cr = ycc.cr.row(y);
    auto o = out.row(y);
    for (int x = 0; x < ycc.width(); ++x) {
      const bool bright = ly[x] >= p.luma_min;
      const bool red = cr[x] >= p.cr_min && cb[x] <= p.cb_max;
      o[x] = (bright && red) ? 255 : 0;
    }
  }
  return out;
}

ImageU8 taillight_roi_mask(const RgbImage& rgb, const TaillightThresholdParams& p,
                           int factor) {
  if (factor <= 0)
    throw std::invalid_argument("taillight_roi_mask: factor must be positive");
  const RoiGates gates(p);
  const int w = rgb.width();
  const int h = rgb.height();
  const ImageU8& rp = rgb.r();
  const ImageU8& gp = rgb.g();
  const ImageU8& bp = rgb.b();

  if (w % factor != 0 || h % factor != 0) {
    // resize_nearest path: threshold only the sampled pixels.
    if (rgb.empty()) throw std::invalid_argument("resize: empty source");
    ImageU8 out(std::max(1, w / factor), std::max(1, h / factor));
    const std::vector<int> xs = nearest_source_indices(w, out.width());
    const std::vector<int> ys = nearest_source_indices(h, out.height());
    for (int oy = 0; oy < out.height(); ++oy) {
      const int sy = ys[static_cast<std::size_t>(oy)];
      auto r = rp.row(sy);
      auto g = gp.row(sy);
      auto b = bp.row(sy);
      auto orow = out.row(oy);
      for (int ox = 0; ox < out.width(); ++ox) {
        const auto sx = static_cast<std::size_t>(xs[static_cast<std::size_t>(ox)]);
        orow[ox] = gates(r[sx], g[sx], b[sx]) ? 255 : 0;
      }
    }
    return out;
  }

  // OR-pooling path: the factor source rows of an output row accumulate into
  // one full-width row, which then pools factor columns per output pixel.
  ImageU8 out(w / factor, h / factor);
  std::vector<std::uint8_t> acc(static_cast<std::size_t>(w));
  for (int oy = 0; oy < out.height(); ++oy) {
    std::fill(acc.begin(), acc.end(), std::uint8_t{0});
    for (int sy = oy * factor; sy < (oy + 1) * factor; ++sy)
      or_roi_row(gates, rp.row(sy).data(), gp.row(sy).data(), bp.row(sy).data(),
                 w, acc.data());
    auto orow = out.row(oy);
    for (int ox = 0; ox < out.width(); ++ox) {
      std::uint8_t any = 0;
      for (int dx = 0; dx < factor; ++dx)
        any |= acc[static_cast<std::size_t>(ox * factor + dx)];
      orow[ox] = any != 0 ? 255 : 0;
    }
  }
  return out;
}

}  // namespace avd::img
