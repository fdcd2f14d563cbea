#include "avd/image/io.hpp"

#include <cstdint>
#include <fstream>
#include <sstream>

namespace avd::img {
namespace {

void write_header(std::ofstream& out, const char* magic, int w, int h) {
  out << magic << '\n' << w << ' ' << h << "\n255\n";
}

// Reads the next whitespace-separated token, skipping '#' comment lines.
std::string next_token(std::istream& in) {
  std::string tok;
  while (in >> tok) {
    if (tok[0] == '#') {
      std::string rest;
      std::getline(in, rest);
      continue;
    }
    return tok;
  }
  throw std::runtime_error("pnm: unexpected end of header");
}

struct PnmHeader {
  int width = 0;
  int height = 0;
  int maxval = 0;
};

int header_int(std::istream& in) {
  const std::string tok = next_token(in);
  try {
    return std::stoi(tok);
  } catch (const std::exception&) {
    throw std::runtime_error("pnm: bad header number '" + tok + "'");
  }
}

/// Parses the header and checks that the stream still holds the
/// width x height x `channels` payload bytes it declares, so a hostile
/// header cannot make the reader allocate more than the input's size.
PnmHeader read_header(std::istream& in, const std::string& expected_magic,
                      std::uint64_t channels) {
  const std::string magic = next_token(in);
  if (magic != expected_magic)
    throw std::runtime_error("pnm: bad magic '" + magic + "', expected " +
                             expected_magic);
  PnmHeader h;
  h.width = header_int(in);
  h.height = header_int(in);
  h.maxval = header_int(in);
  if (h.width <= 0 || h.height <= 0 || h.maxval != 255)
    throw std::runtime_error("pnm: unsupported header");
  in.get();  // single whitespace before binary payload
  const std::istream::pos_type payload = in.tellg();
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(payload);
  if (!in || payload < 0 || end < payload)
    throw std::runtime_error("pnm: cannot size payload");
  // Each factor is below 2^31, so the product cannot wrap a uint64.
  const std::uint64_t declared = static_cast<std::uint64_t>(h.width) *
                                 static_cast<std::uint64_t>(h.height) *
                                 channels;
  if (declared > static_cast<std::uint64_t>(end - payload))
    throw std::runtime_error("pnm: header declares " +
                             std::to_string(declared) +
                             " payload bytes, stream holds " +
                             std::to_string(end - payload));
  return h;
}

}  // namespace

void write_pgm(const ImageU8& image, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("write_pgm: cannot open " + path);
  write_header(out, "P5", image.width(), image.height());
  out.write(reinterpret_cast<const char*>(image.pixels().data()),
            static_cast<std::streamsize>(image.pixel_count()));
  if (!out) throw std::runtime_error("write_pgm: write failed for " + path);
}

void write_ppm(const RgbImage& image, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("write_ppm: cannot open " + path);
  write_header(out, "P6", image.width(), image.height());
  std::vector<std::uint8_t> rowbuf(static_cast<std::size_t>(image.width()) * 3);
  for (int y = 0; y < image.height(); ++y) {
    auto r = image.r().row(y);
    auto g = image.g().row(y);
    auto b = image.b().row(y);
    for (int x = 0; x < image.width(); ++x) {
      rowbuf[3 * x + 0] = r[x];
      rowbuf[3 * x + 1] = g[x];
      rowbuf[3 * x + 2] = b[x];
    }
    out.write(reinterpret_cast<const char*>(rowbuf.data()),
              static_cast<std::streamsize>(rowbuf.size()));
  }
  if (!out) throw std::runtime_error("write_ppm: write failed for " + path);
}

ImageU8 read_pgm(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("read_pgm: cannot open " + path);
  const PnmHeader h = read_header(in, "P5", 1);
  ImageU8 image(h.width, h.height);
  in.read(reinterpret_cast<char*>(image.pixels().data()),
          static_cast<std::streamsize>(image.pixel_count()));
  if (!in) throw std::runtime_error("read_pgm: truncated payload in " + path);
  return image;
}

RgbImage read_ppm(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("read_ppm: cannot open " + path);
  const PnmHeader h = read_header(in, "P6", 3);
  RgbImage image(h.width, h.height);
  std::vector<std::uint8_t> rowbuf(static_cast<std::size_t>(h.width) * 3);
  for (int y = 0; y < h.height; ++y) {
    in.read(reinterpret_cast<char*>(rowbuf.data()),
            static_cast<std::streamsize>(rowbuf.size()));
    if (!in) throw std::runtime_error("read_ppm: truncated payload in " + path);
    auto r = image.r().row(y);
    auto g = image.g().row(y);
    auto b = image.b().row(y);
    for (int x = 0; x < h.width; ++x) {
      r[x] = rowbuf[3 * x + 0];
      g[x] = rowbuf[3 * x + 1];
      b[x] = rowbuf[3 * x + 2];
    }
  }
  return image;
}

}  // namespace avd::img
