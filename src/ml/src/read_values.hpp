// Bounded reads for the text model loaders.
#pragma once

#include <cstddef>
#include <istream>
#include <stdexcept>
#include <vector>

namespace avd::ml {

/// Appends `count` whitespace-separated values from `in` to `out`, throwing
/// std::runtime_error(`what`) when the stream runs out first. The vector
/// grows as values arrive, so memory follows the bytes actually present,
/// never a count a header merely claims.
template <typename T>
void read_values(std::istream& in, std::size_t count, std::vector<T>& out,
                 const char* what) {
  for (std::size_t i = 0; i < count; ++i) {
    T v{};
    if (!(in >> v)) throw std::runtime_error(what);
    out.push_back(v);
  }
}

}  // namespace avd::ml
