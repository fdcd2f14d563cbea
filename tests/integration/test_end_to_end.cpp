// End-to-end integration: every module working together on realistic flows.
#include <gtest/gtest.h>

#include "avd/core/adaptive_system.hpp"
#include "avd/image/color.hpp"
#include "avd/image/draw.hpp"
#include "avd/image/io.hpp"
#include "temp_dir.hpp"

#include <filesystem>

namespace avd {
namespace {

core::TrainingBudget small_budget() {
  core::TrainingBudget b;
  b.vehicle_pos = b.vehicle_neg = 50;
  b.pedestrian_pos = b.pedestrian_neg = 35;
  b.dbn_windows_per_class = 70;
  b.pairing_scenes = 35;
  return b;
}

class EndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::AdaptiveSystemConfig cfg;
    cfg.run_detectors = true;
    cfg.sliding.score_threshold = 0.0;
    system_ = new core::AdaptiveSystem(
        core::build_system_models(small_budget()), cfg);
  }
  static void TearDownTestSuite() {
    delete system_;
    system_ = nullptr;
  }
  static core::AdaptiveSystem& system() { return *system_; }

 private:
  static core::AdaptiveSystem* system_;
};

core::AdaptiveSystem* EndToEndTest::system_ = nullptr;

TEST_F(EndToEndTest, ShortDriveWithDetectionProducesSaneReport) {
  data::SequenceSpec spec;
  spec.frame_size = {480, 270};
  spec.vehicles_per_frame = 1;
  spec.pedestrians_per_frame = 0;
  spec.segments = {{data::LightingCondition::Day, 6},
                   {data::LightingCondition::Dark, 6}};
  const auto report = system().run(data::DriveSequence(spec));

  ASSERT_EQ(report.frames.size(), 12u);
  EXPECT_EQ(report.reconfig_count(), 1);
  EXPECT_EQ(report.dropped_vehicle_frames(), 1);

  // Detection ran on processed frames and found a reasonable share of the
  // ground truth across both conditions.
  const det::MatchResult total = report.total_vehicle_match();
  EXPECT_GT(total.true_positives, 3);
  const int truth_frames = 11;  // 12 frames minus the dropped one
  EXPECT_LE(total.true_positives, truth_frames);
}

TEST_F(EndToEndTest, DetectionQualityTrackedPerFrame) {
  data::SequenceSpec spec;
  spec.frame_size = {480, 270};
  spec.vehicles_per_frame = 2;
  spec.segments = {{data::LightingCondition::Dark, 5}};
  const auto report = system().run(data::DriveSequence(spec));
  for (const auto& f : report.frames) {
    EXPECT_EQ(f.vehicles_truth, 2);
    if (f.vehicle_processed) {
      EXPECT_EQ(f.vehicle_match.true_positives + f.vehicle_match.false_negatives,
                2);
    }
  }
}

TEST_F(EndToEndTest, PedestrianDetectorFindsRenderedPedestrian) {
  data::SceneSpec scene;
  scene.condition = data::LightingCondition::Day;
  scene.frame_size = {160, 128};
  scene.horizon_y = 30;
  data::PedestrianSpec p;
  p.body = {64, 55, 30, 62};
  scene.pedestrians.push_back(p);
  scene.noise_seed = 3;
  const img::ImageU8 gray = img::rgb_to_gray(data::render_scene(scene));
  const auto dets = system().detect_pedestrians(gray);
  ASSERT_FALSE(dets.empty());
  EXPECT_EQ(dets[0].class_id, det::kClassPedestrian);
  const det::MatchResult m = det::match_detections(dets, {p.body}, 0.25);
  EXPECT_EQ(m.true_positives, 1);
}

TEST_F(EndToEndTest, AnnotatedFrameRoundTripsThroughPpm) {
  // The Fig. 5 workflow: render, detect, annotate, write, read back.
  data::SceneGenerator gen(data::LightingCondition::Dark, 12);
  const data::SceneSpec scene = gen.random_scene({480, 270}, 1);
  img::RgbImage frame = data::render_scene(scene);
  const auto dets =
      system().detect_vehicles(frame, data::LightingCondition::Dark);
  for (const auto& d : dets) img::draw_rect(frame, d.box, {0, 255, 0}, 2);

  const auto dir = test::unique_temp_dir("avd_e2e");
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "annotated.ppm").string();
  img::write_ppm(frame, path);
  const img::RgbImage back = img::read_ppm(path);
  EXPECT_EQ(back.size(), frame.size());
  std::filesystem::remove_all(dir);
}

TEST_F(EndToEndTest, WrongPipelineForConditionPerformsWorse) {
  // Running the HOG day model on dark frames misses vehicles that the dark
  // pipeline finds — the premise of the whole adaptive design.
  data::SceneGenerator gen(data::LightingCondition::Dark, 41);
  int dark_hits = 0, day_hits = 0;
  for (int i = 0; i < 6; ++i) {
    const data::SceneSpec scene = gen.random_scene({480, 270}, 1);
    const img::RgbImage frame = data::render_scene(scene);
    const auto via_dark =
        system().detect_vehicles(frame, data::LightingCondition::Dark);
    const auto via_day =
        system().detect_vehicles(frame, data::LightingCondition::Day);
    const std::vector<img::Rect> truth{scene.vehicles[0].body};
    dark_hits += det::match_detections(via_dark, truth, 0.25).true_positives;
    day_hits += det::match_detections(via_day, truth, 0.25).true_positives;
  }
  EXPECT_GT(dark_hits, day_hits);
}

}  // namespace
}  // namespace avd
