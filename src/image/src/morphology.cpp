#include "avd/image/morphology.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace avd::img {
namespace {

void check_se(StructuringElement se) {
  if (se.width <= 0 || se.height <= 0 || se.width % 2 == 0 || se.height % 2 == 0)
    throw std::invalid_argument("morphology: SE dimensions must be positive odd");
}

// Rectangular SEs are separable: a horizontal 1xW pass followed by a vertical
// Hx1 pass. `Any` selects dilation (OR: any set) vs erosion (AND: all set).
// Both passes combine whole row spans, so the loops carry no per-pixel
// branches. Pixels outside the image are background: under erosion a shift
// that reaches past the border clears the span it uncovers.
template <bool Any>
void combine(std::uint8_t* __restrict dst, const std::uint8_t* __restrict src,
             int n) {
  for (int x = 0; x < n; ++x) {
    if constexpr (Any) {
      dst[x] |= src[x];
    } else {
      dst[x] &= src[x];
    }
  }
}

template <bool Any>
ImageU8 horizontal_pass(const ImageU8& src, int rx) {
  const int w = src.width();
  ImageU8 out(src.size());
  std::vector<std::uint8_t> set(static_cast<std::size_t>(w));
  for (int y = 0; y < src.height(); ++y) {
    const std::uint8_t* s = src.row(y).data();
    std::uint8_t* o = out.row(y).data();
    // Normalise to 0/255 first: AND of two non-zero values can be zero.
    for (int x = 0; x < w; ++x) set[x] = s[x] != 0 ? 255 : 0;
    std::copy(set.begin(), set.end(), o);
    for (int dx = 1; dx <= rx; ++dx) {
      const int n = std::max(0, w - dx);  // pixels whose x + dx is inside
      combine<Any>(o, set.data() + dx, n);       // right neighbour
      combine<Any>(o + (w - n), set.data(), n);  // left neighbour
      if constexpr (!Any) {
        std::fill(o + n, o + w, std::uint8_t{0});
        std::fill(o, o + (w - n), std::uint8_t{0});
      }
    }
  }
  return out;
}

/// `src` is already 0/255 (the horizontal pass normalised it).
template <bool Any>
ImageU8 vertical_pass(const ImageU8& src, int ry) {
  const int w = src.width();
  const int h = src.height();
  ImageU8 out(src.size());
  for (int y = 0; y < h; ++y) {
    std::uint8_t* o = out.row(y).data();
    if (!Any && (y - ry < 0 || y + ry >= h)) continue;  // stays background
    const int lo = std::max(0, y - ry);
    const int hi = std::min(h - 1, y + ry);
    std::copy_n(src.row(lo).data(), w, o);
    for (int yy = lo + 1; yy <= hi; ++yy) combine<Any>(o, src.row(yy).data(), w);
  }
  return out;
}

}  // namespace

ImageU8 dilate(const ImageU8& mask, StructuringElement se) {
  check_se(se);
  return vertical_pass<true>(horizontal_pass<true>(mask, se.radius_x()),
                             se.radius_y());
}

ImageU8 erode(const ImageU8& mask, StructuringElement se) {
  check_se(se);
  return vertical_pass<false>(horizontal_pass<false>(mask, se.radius_x()),
                              se.radius_y());
}

ImageU8 close(const ImageU8& mask, StructuringElement se) {
  return erode(dilate(mask, se), se);
}

ImageU8 open(const ImageU8& mask, StructuringElement se) {
  return dilate(erode(mask, se), se);
}

}  // namespace avd::img
