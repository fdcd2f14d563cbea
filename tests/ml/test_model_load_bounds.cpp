// The text model loaders take external bytes: a header that claims more
// values than the stream holds must fail as truncated, before anything of
// the claimed size is allocated.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "avd/detect/hog_svm_detector.hpp"
#include "avd/ml/dbn.hpp"
#include "avd/ml/svm.hpp"

namespace avd::ml {
namespace {

TEST(ModelLoadBounds, DbnHugeLayerCountThrows) {
  // 400M layer sizes would be 1.6 GB of ints if sized from the header.
  std::stringstream ss("dbn 400000000 4");
  EXPECT_THROW(Dbn::load(ss), std::runtime_error);
}

TEST(ModelLoadBounds, DbnHugeLayerSizesThrow) {
  // A 20000x20000 weight matrix would be 1.6 GB of floats.
  std::stringstream ss("dbn 2 4\n20000 20000\n0.5 0.25");
  EXPECT_THROW(Dbn::load(ss), std::runtime_error);
}

TEST(ModelLoadBounds, DbnNonPositiveSizesThrow) {
  std::stringstream negative("dbn 2 4\n-3 5\n");
  EXPECT_THROW(Dbn::load(negative), std::runtime_error);
  std::stringstream one_class("dbn 2 1\n3 5\n");
  EXPECT_THROW(Dbn::load(one_class), std::runtime_error);
}

TEST(ModelLoadBounds, SvmHugeDimensionHeaderOnlyThrows) {
  std::stringstream ss("svm 1000000000000 0");
  EXPECT_THROW(LinearSvm::load(ss), std::runtime_error);
}

TEST(ModelLoadBounds, HogSvmModelHugeSvmDimensionThrows) {
  // HogSvmModel::load reads scalars, then delegates the vector to
  // LinearSvm::load, so the same bound covers it.
  std::stringstream ss(
      "hogsvm day 64 64 1 8 9 2 1 0.2\nsvm 1000000000000 0 1.5");
  EXPECT_THROW(det::HogSvmModel::load(ss), std::runtime_error);
}

}  // namespace
}  // namespace avd::ml
