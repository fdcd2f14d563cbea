#include "avd/image/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "temp_dir.hpp"
namespace avd::img {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::unique_temp_dir("avd_io_test");
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const char* name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

TEST_F(IoTest, PgmRoundTrip) {
  ImageU8 img(13, 7);
  for (int y = 0; y < img.height(); ++y)
    for (int x = 0; x < img.width(); ++x)
      img(x, y) = static_cast<std::uint8_t>((x * 19 + y * 7) % 256);
  write_pgm(img, path("a.pgm"));
  EXPECT_EQ(read_pgm(path("a.pgm")), img);
}

TEST_F(IoTest, PpmRoundTrip) {
  RgbImage rgb(5, 4);
  for (int y = 0; y < 4; ++y)
    for (int x = 0; x < 5; ++x)
      rgb.set_pixel(x, y,
                    {static_cast<std::uint8_t>(x * 40),
                     static_cast<std::uint8_t>(y * 60),
                     static_cast<std::uint8_t>(x + y)});
  write_ppm(rgb, path("b.ppm"));
  const RgbImage back = read_ppm(path("b.ppm"));
  ASSERT_EQ(back.size(), rgb.size());
  for (int y = 0; y < 4; ++y)
    for (int x = 0; x < 5; ++x) EXPECT_EQ(back.pixel(x, y), rgb.pixel(x, y));
}

TEST_F(IoTest, ReadMissingFileThrows) {
  EXPECT_THROW(read_pgm(path("nope.pgm")), std::runtime_error);
  EXPECT_THROW(read_ppm(path("nope.ppm")), std::runtime_error);
}

TEST_F(IoTest, ReadWrongMagicThrows) {
  std::ofstream(path("bad.pgm")) << "P6\n2 2\n255\nxxxx";
  EXPECT_THROW(read_pgm(path("bad.pgm")), std::runtime_error);
}

TEST_F(IoTest, ReadTruncatedPayloadThrows) {
  std::ofstream(path("trunc.pgm"), std::ios::binary) << "P5\n4 4\n255\nab";
  EXPECT_THROW(read_pgm(path("trunc.pgm")), std::runtime_error);
}

// A 20-byte file whose header declares 900 MB of payload is refused before
// anything of that size is allocated.
TEST_F(IoTest, ReadRefusesPayloadLargerThanTheStream) {
  const std::string header = "P5\n30000 30000\n255\nx";
  ASSERT_EQ(header.size(), 20u);
  std::ofstream(path("huge.pgm"), std::ios::binary) << header;
  EXPECT_THROW(read_pgm(path("huge.pgm")), std::runtime_error);
  std::string ppm = header;
  ppm[1] = '6';
  std::ofstream(path("huge.ppm"), std::ios::binary) << ppm;
  EXPECT_THROW(read_ppm(path("huge.ppm")), std::runtime_error);
}

TEST_F(IoTest, ReadRefusesOverflowingDimensions) {
  std::ofstream(path("wide.pgm"), std::ios::binary)
      << "P5\n2147483647 2147483647\n255\nabcd";
  EXPECT_THROW(read_pgm(path("wide.pgm")), std::runtime_error);
  std::ofstream(path("long.pgm"), std::ios::binary)
      << "P5\n99999999999 2\n255\nabcd";
  EXPECT_THROW(read_pgm(path("long.pgm")), std::runtime_error);
}

TEST_F(IoTest, ReadHonorsCommentLines) {
  ImageU8 img(2, 2);
  img(0, 0) = 1;
  img(1, 0) = 2;
  img(0, 1) = 3;
  img(1, 1) = 4;
  std::ofstream out(path("c.pgm"), std::ios::binary);
  out << "P5\n# a comment\n2 2\n# another\n255\n";
  out.write("\x01\x02\x03\x04", 4);
  out.close();
  EXPECT_EQ(read_pgm(path("c.pgm")), img);
}

TEST_F(IoTest, UnsupportedMaxvalThrows) {
  std::ofstream(path("d.pgm"), std::ios::binary) << "P5\n2 2\n65535\nabcdefgh";
  EXPECT_THROW(read_pgm(path("d.pgm")), std::runtime_error);
}

TEST_F(IoTest, WriteToUnwritablePathThrows) {
  EXPECT_THROW(write_pgm(ImageU8(2, 2), "/nonexistent-dir/x.pgm"),
               std::runtime_error);
}

}  // namespace
}  // namespace avd::img
