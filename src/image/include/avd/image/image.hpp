// Planar single-channel image container plus a 3-plane RGB wrapper.
//
// The container is deliberately simple: contiguous row-major storage,
// value-semantic, bounds-checked access in debug builds via at(). All image
// algorithms in the library operate on these types.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "avd/image/geometry.hpp"

namespace avd::img {

/// Single-channel row-major image.
template <typename T>
class Image {
 public:
  using value_type = T;

  Image() = default;
  Image(int width, int height, T fill = T{})
      : width_(width), height_(height), data_(checked_area(width, height), fill) {}
  explicit Image(Size size, T fill = T{}) : Image(size.width, size.height, fill) {}

  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] int height() const { return height_; }
  [[nodiscard]] Size size() const { return {width_, height_}; }
  [[nodiscard]] Rect bounds() const { return {0, 0, width_, height_}; }
  [[nodiscard]] bool empty() const { return data_.empty(); }
  [[nodiscard]] std::size_t pixel_count() const { return data_.size(); }

  /// Unchecked access (asserts in debug builds).
  [[nodiscard]] T& operator()(int x, int y) {
    assert(in_bounds(x, y));
    return data_[static_cast<std::size_t>(y) * width_ + x];
  }
  [[nodiscard]] const T& operator()(int x, int y) const {
    assert(in_bounds(x, y));
    return data_[static_cast<std::size_t>(y) * width_ + x];
  }

  /// Checked access; throws std::out_of_range.
  [[nodiscard]] T& at(int x, int y) {
    if (!in_bounds(x, y)) throw std::out_of_range("Image::at");
    return (*this)(x, y);
  }
  [[nodiscard]] const T& at(int x, int y) const {
    if (!in_bounds(x, y)) throw std::out_of_range("Image::at");
    return (*this)(x, y);
  }

  /// Clamped read: coordinates outside the image are clamped to the border.
  [[nodiscard]] T at_clamped(int x, int y) const {
    if (empty()) return T{};
    x = x < 0 ? 0 : (x >= width_ ? width_ - 1 : x);
    y = y < 0 ? 0 : (y >= height_ ? height_ - 1 : y);
    return (*this)(x, y);
  }

  [[nodiscard]] bool in_bounds(int x, int y) const {
    return x >= 0 && x < width_ && y >= 0 && y < height_;
  }

  [[nodiscard]] std::span<T> row(int y) {
    assert(y >= 0 && y < height_);
    return {data_.data() + static_cast<std::size_t>(y) * width_,
            static_cast<std::size_t>(width_)};
  }
  [[nodiscard]] std::span<const T> row(int y) const {
    assert(y >= 0 && y < height_);
    return {data_.data() + static_cast<std::size_t>(y) * width_,
            static_cast<std::size_t>(width_)};
  }

  [[nodiscard]] std::span<T> pixels() & { return data_; }
  [[nodiscard]] std::span<const T> pixels() const& { return data_; }
  /// A span into a temporary dangles once the full expression ends
  /// (`for (auto v : make_image().pixels())` reads freed memory): name the
  /// image first.
  std::span<const T> pixels() && = delete;
  std::span<const T> pixels() const&& = delete;

  void fill(T value) { std::fill(data_.begin(), data_.end(), value); }

  /// Copy of the sub-image at `roi` (clipped to bounds).
  [[nodiscard]] Image crop(const Rect& roi) const {
    const Rect r = intersect(roi, bounds());
    Image out(r.width, r.height);
    for (int y = 0; y < r.height; ++y) {
      auto src = row(r.y + y);
      std::copy(src.begin() + r.x, src.begin() + r.x + r.width, out.row(y).begin());
    }
    return out;
  }

  /// Paste `patch` with its top-left corner at `origin` (clipped).
  void paste(const Image& patch, Point origin) {
    const Rect dst = intersect({origin.x, origin.y, patch.width(), patch.height()},
                               bounds());
    for (int y = 0; y < dst.height; ++y) {
      auto src = patch.row(y + (dst.y - origin.y));
      auto dstrow = row(dst.y + y);
      const int sx = dst.x - origin.x;
      std::copy(src.begin() + sx, src.begin() + sx + dst.width,
                dstrow.begin() + dst.x);
    }
  }

  friend bool operator==(const Image& a, const Image& b) {
    return a.width_ == b.width_ && a.height_ == b.height_ && a.data_ == b.data_;
  }

 private:
  static std::size_t checked_area(int w, int h) {
    if (w < 0 || h < 0) throw std::invalid_argument("Image: negative dimensions");
    return static_cast<std::size_t>(w) * static_cast<std::size_t>(h);
  }

  int width_ = 0;
  int height_ = 0;
  std::vector<T> data_;
};

using ImageU8 = Image<std::uint8_t>;
using ImageF32 = Image<float>;

/// Planar RGB image (three same-sized U8 planes).
class RgbImage {
 public:
  RgbImage() = default;
  RgbImage(int width, int height)
      : r_(width, height), g_(width, height), b_(width, height) {}
  explicit RgbImage(Size size) : RgbImage(size.width, size.height) {}
  RgbImage(ImageU8 r, ImageU8 g, ImageU8 b)
      : r_(std::move(r)), g_(std::move(g)), b_(std::move(b)) {
    if (r_.size() != g_.size() || g_.size() != b_.size())
      throw std::invalid_argument("RgbImage: plane size mismatch");
  }

  [[nodiscard]] int width() const { return r_.width(); }
  [[nodiscard]] int height() const { return r_.height(); }
  [[nodiscard]] Size size() const { return r_.size(); }
  [[nodiscard]] Rect bounds() const { return r_.bounds(); }
  [[nodiscard]] bool empty() const { return r_.empty(); }

  [[nodiscard]] ImageU8& r() { return r_; }
  [[nodiscard]] ImageU8& g() { return g_; }
  [[nodiscard]] ImageU8& b() { return b_; }
  [[nodiscard]] const ImageU8& r() const { return r_; }
  [[nodiscard]] const ImageU8& g() const { return g_; }
  [[nodiscard]] const ImageU8& b() const { return b_; }

  struct Pixel {
    std::uint8_t r = 0, g = 0, b = 0;
    friend constexpr bool operator==(const Pixel&, const Pixel&) = default;
  };

  [[nodiscard]] Pixel pixel(int x, int y) const {
    return {r_(x, y), g_(x, y), b_(x, y)};
  }
  void set_pixel(int x, int y, Pixel p) {
    r_(x, y) = p.r;
    g_(x, y) = p.g;
    b_(x, y) = p.b;
  }
  void set_pixel_clipped(int x, int y, Pixel p) {
    if (r_.in_bounds(x, y)) set_pixel(x, y, p);
  }

  void fill(Pixel p) {
    r_.fill(p.r);
    g_.fill(p.g);
    b_.fill(p.b);
  }

  [[nodiscard]] RgbImage crop(const Rect& roi) const {
    return {r_.crop(roi), g_.crop(roi), b_.crop(roi)};
  }

 private:
  ImageU8 r_, g_, b_;
};

using RgbPixel = RgbImage::Pixel;

}  // namespace avd::img
