#include "avd/datasets/dataset_io.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "temp_dir.hpp"
namespace avd::data {
namespace {

class DatasetIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::unique_temp_dir("avd_dataset_io").string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(DatasetIoTest, RoundTripPreservesEverything) {
  VehiclePatchSpec spec;
  spec.condition = LightingCondition::Dusk;
  spec.n_positive = 6;
  spec.n_negative = 4;
  spec.dark_fraction = 0.5;
  const PatchDataset original = make_vehicle_patches(spec);

  save_dataset(original, dir_);
  const PatchDataset back = load_dataset(dir_);

  EXPECT_EQ(back.condition, LightingCondition::Dusk);
  ASSERT_EQ(back.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(back.patches[i].gray, original.patches[i].gray) << i;
    EXPECT_EQ(back.patches[i].label, original.patches[i].label) << i;
    EXPECT_EQ(back.patches[i].very_dark, original.patches[i].very_dark) << i;
  }
}

TEST_F(DatasetIoTest, FilesOnDiskAreReadablePgms) {
  VehiclePatchSpec spec;
  spec.n_positive = 2;
  spec.n_negative = 1;
  save_dataset(make_vehicle_patches(spec), dir_);
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/index.txt"));
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/patch_00000.pgm"));
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/patch_00002.pgm"));
}

TEST_F(DatasetIoTest, MissingDirectoryThrows) {
  EXPECT_THROW((void)load_dataset(dir_ + "/nope"), std::runtime_error);
}

TEST_F(DatasetIoTest, BadHeaderThrows) {
  std::filesystem::create_directories(dir_);
  std::ofstream(dir_ + "/index.txt") << "not-a-dataset 3 day\n";
  EXPECT_THROW((void)load_dataset(dir_), std::runtime_error);
}

TEST_F(DatasetIoTest, BadConditionThrows) {
  std::filesystem::create_directories(dir_);
  std::ofstream(dir_ + "/index.txt") << "avd-patches 0 noon\n";
  EXPECT_THROW((void)load_dataset(dir_), std::runtime_error);
}

TEST_F(DatasetIoTest, TruncatedIndexThrows) {
  std::filesystem::create_directories(dir_);
  std::ofstream(dir_ + "/index.txt") << "avd-patches 2 day\npatch.pgm 1 0\n";
  EXPECT_THROW((void)load_dataset(dir_), std::runtime_error);
}

TEST_F(DatasetIoTest, BadLabelThrows) {
  VehiclePatchSpec spec;
  spec.n_positive = 1;
  spec.n_negative = 0;
  save_dataset(make_vehicle_patches(spec), dir_);
  std::ofstream(dir_ + "/index.txt")
      << "avd-patches 1 day\npatch_00000.pgm 7 0\n";
  EXPECT_THROW((void)load_dataset(dir_), std::runtime_error);
}

TEST_F(DatasetIoTest, MissingPatchFileThrows) {
  std::filesystem::create_directories(dir_);
  std::ofstream(dir_ + "/index.txt")
      << "avd-patches 1 day\nmissing.pgm 1 0\n";
  EXPECT_THROW((void)load_dataset(dir_), std::runtime_error);
}

TEST_F(DatasetIoTest, EmptyDatasetRoundTrips) {
  PatchDataset empty;
  empty.condition = LightingCondition::Dark;
  save_dataset(empty, dir_);
  const PatchDataset back = load_dataset(dir_);
  EXPECT_EQ(back.size(), 0u);
  EXPECT_EQ(back.condition, LightingCondition::Dark);
}

}  // namespace
}  // namespace avd::data
