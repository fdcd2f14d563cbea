// The index map behind resize_nearest, shared with kernels that fuse a
// nearest resize into another pass so they visit exactly the pixels
// resize_nearest would keep.
#pragma once

#include <vector>

namespace avd::img {

/// The source index resize_nearest samples for each of `out_len` output
/// positions along an axis of `src_len` pixels (align-centres, clamped).
[[nodiscard]] std::vector<int> nearest_source_indices(int src_len, int out_len);

}  // namespace avd::img
