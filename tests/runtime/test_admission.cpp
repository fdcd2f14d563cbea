// AdmissionController in isolation: ladder hysteresis (fast worsen, slow
// recover), the token bucket on a synthetic timeline, sticky force_level,
// fault-plan pinning and fleet pressure. No StreamServer involved — decide()
// and on_health_windows() are driven directly, so every expectation here is
// exact, not statistical.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "avd/runtime/admission.hpp"

namespace avd::runtime {
namespace {

using obs::HealthState;

AdmissionConfig ladder_config(int escalate = 2, int recover = 3) {
  AdmissionConfig c;
  c.enabled = true;
  c.ladder.escalate_after_windows = escalate;
  c.ladder.recover_after_windows = recover;
  return c;
}

TEST(Admission, StartsAtFullAndAdmitsEverything) {
  AdmissionController ac(2, ladder_config());
  for (int i = 0; i < 10; ++i) {
    const AdmissionDecision d = ac.decide(0, i, 0);
    EXPECT_TRUE(d.admit);
    EXPECT_EQ(d.level, DegradeLevel::Full);
    EXPECT_FALSE(d.coast);
  }
  EXPECT_EQ(ac.stats(0).admitted, 10u);
  EXPECT_EQ(ac.stats(0).shed, 0u);
  EXPECT_TRUE(ac.transitions(0).empty());
}

TEST(Admission, FirstDegradedWindowDropsToCoarseScan) {
  AdmissionController ac(1, ladder_config());
  ac.on_health_windows({HealthState::Degraded});
  EXPECT_EQ(ac.level(0), DegradeLevel::CoarseScan);
  const auto ts = ac.transitions(0);
  ASSERT_EQ(ts.size(), 1u);
  EXPECT_EQ(ts[0].from, DegradeLevel::Full);
  EXPECT_EQ(ts[0].to, DegradeLevel::CoarseScan);
  EXPECT_EQ(ts[0].reason, "health:degraded");
  EXPECT_EQ(ts[0].frame, -1);  // window-driven, not frame-driven
}

TEST(Admission, EscalatesOneRungPerEscalateAfterWindows) {
  AdmissionController ac(1, ladder_config(/*escalate=*/2));
  ac.on_health_windows({HealthState::Degraded});  // -> CoarseScan, streak reset
  EXPECT_EQ(ac.level(0), DegradeLevel::CoarseScan);
  ac.on_health_windows({HealthState::Degraded});  // streak 1: dwell
  EXPECT_EQ(ac.level(0), DegradeLevel::CoarseScan);
  ac.on_health_windows({HealthState::Degraded});  // streak 2: escalate
  EXPECT_EQ(ac.level(0), DegradeLevel::SkipCoast);
  ac.on_health_windows({HealthState::Degraded});
  EXPECT_EQ(ac.level(0), DegradeLevel::SkipCoast);
  ac.on_health_windows({HealthState::Degraded});
  EXPECT_EQ(ac.level(0), DegradeLevel::Shed);
  // Shed is the floor; more degraded windows change nothing.
  ac.on_health_windows({HealthState::Degraded});
  EXPECT_EQ(ac.level(0), DegradeLevel::Shed);
  EXPECT_EQ(ac.transitions(0).size(), 3u);
}

TEST(Admission, UnhealthyShedsImmediately) {
  AdmissionController ac(1, ladder_config());
  ac.on_health_windows({HealthState::Unhealthy});
  EXPECT_EQ(ac.level(0), DegradeLevel::Shed);
  const AdmissionDecision d = ac.decide(0, 0, 0);
  EXPECT_FALSE(d.admit);
  EXPECT_STREQ(d.shed_reason, "shed-level");
  EXPECT_EQ(ac.stats(0).shed, 1u);
  EXPECT_EQ(ac.stats(0).shed_by_bucket, 0u);
}

TEST(Admission, MaxDegradedLevelCapsDegradedEscalationButNotUnhealthy) {
  AdmissionConfig cfg = ladder_config(/*escalate=*/1);
  cfg.ladder.max_degraded_level = 2;  // DEGRADED may reach SkipCoast, no more
  AdmissionController ac(1, cfg);
  for (int w = 0; w < 10; ++w)
    ac.on_health_windows({HealthState::Degraded});
  EXPECT_EQ(ac.level(0), DegradeLevel::SkipCoast);
  EXPECT_EQ(ac.transitions(0).size(), 2u);  // Full -> Coarse -> SkipCoast
  // UNHEALTHY ignores the cap.
  ac.on_health_windows({HealthState::Unhealthy});
  EXPECT_EQ(ac.level(0), DegradeLevel::Shed);
}

TEST(Admission, RecoveryIsSlowOneRungPerStreak) {
  // escalate=2: a single degraded window mid-recovery resets the healthy
  // streak but does NOT itself escalate (the dwell is 2 windows).
  AdmissionController ac(1, ladder_config(/*escalate=*/2, /*recover=*/3));
  ac.on_health_windows({HealthState::Unhealthy});  // -> Shed
  ASSERT_EQ(ac.level(0), DegradeLevel::Shed);

  // Two healthy windows: not enough; the third steps ONE rung up.
  ac.on_health_windows({HealthState::Healthy});
  ac.on_health_windows({HealthState::Healthy});
  EXPECT_EQ(ac.level(0), DegradeLevel::Shed);
  ac.on_health_windows({HealthState::Healthy});
  EXPECT_EQ(ac.level(0), DegradeLevel::SkipCoast);

  // A degraded window mid-recovery resets the healthy streak.
  ac.on_health_windows({HealthState::Healthy});
  ac.on_health_windows({HealthState::Healthy});
  ac.on_health_windows({HealthState::Degraded});  // streak reset (level holds)
  EXPECT_EQ(ac.level(0), DegradeLevel::SkipCoast);
  ac.on_health_windows({HealthState::Healthy});
  ac.on_health_windows({HealthState::Healthy});
  EXPECT_EQ(ac.level(0), DegradeLevel::SkipCoast);
  ac.on_health_windows({HealthState::Healthy});
  EXPECT_EQ(ac.level(0), DegradeLevel::CoarseScan);

  // All the way home needs another full streak.
  ac.on_health_windows({HealthState::Healthy});
  ac.on_health_windows({HealthState::Healthy});
  ac.on_health_windows({HealthState::Healthy});
  EXPECT_EQ(ac.level(0), DegradeLevel::Full);
}

TEST(Admission, SkipCoastScansEveryNthFrameByIndex) {
  AdmissionConfig cfg = ladder_config(/*escalate=*/1);
  cfg.ladder.skip_modulus = 3;
  AdmissionController ac(1, cfg);
  ac.on_health_windows({HealthState::Degraded});  // CoarseScan
  ac.on_health_windows({HealthState::Degraded});  // SkipCoast
  ASSERT_EQ(ac.level(0), DegradeLevel::SkipCoast);
  for (int i = 0; i < 9; ++i) {
    const AdmissionDecision d = ac.decide(0, i, 0);
    EXPECT_TRUE(d.admit);
    EXPECT_EQ(d.coast, i % 3 != 0) << "frame " << i;
  }
  const AdmissionStats st = ac.stats(0);
  EXPECT_EQ(st.admitted, 9u);
  EXPECT_EQ(st.coasted, 6u);
  EXPECT_EQ(st.degraded_scans, 3u);
}

TEST(Admission, TokenBucketOnCallerTimeline) {
  AdmissionConfig cfg;
  cfg.enabled = true;
  cfg.bucket.rate_fps = 10.0;  // one token per 100 ms
  cfg.bucket.burst = 2.0;
  AdmissionController ac(1, cfg);

  // Burst of 2 admitted at t=0, third refused by the bucket.
  EXPECT_TRUE(ac.decide(0, 0, 0).admit);
  EXPECT_TRUE(ac.decide(0, 1, 0).admit);
  const AdmissionDecision refused = ac.decide(0, 2, 0);
  EXPECT_FALSE(refused.admit);
  EXPECT_STREQ(refused.shed_reason, "token-bucket");

  // 100 ms later exactly one token has dripped in.
  const std::uint64_t t1 = 100'000'000;
  EXPECT_TRUE(ac.decide(0, 3, t1).admit);
  EXPECT_FALSE(ac.decide(0, 4, t1).admit);

  // A long idle stretch refills to burst, never beyond.
  const std::uint64_t t2 = t1 + 10'000'000'000ull;
  EXPECT_TRUE(ac.decide(0, 5, t2).admit);
  EXPECT_TRUE(ac.decide(0, 6, t2).admit);
  EXPECT_FALSE(ac.decide(0, 7, t2).admit);

  const AdmissionStats st = ac.stats(0);
  EXPECT_EQ(st.admitted, 5u);
  EXPECT_EQ(st.shed, 3u);
  EXPECT_EQ(st.shed_by_bucket, 3u);
}

// Disabled is the dormant ladder every StreamServer serve runs: health
// windows and the bucket are ignored, while fault plans and force_level()
// still pin levels.
TEST(Admission, DisabledIgnoresHealthAndBucketButHonoursPins) {
  AdmissionConfig cfg = ladder_config(/*escalate=*/1);
  cfg.enabled = false;
  cfg.bucket.rate_fps = 1.0;
  cfg.bucket.burst = 1.0;
  AdmissionController ac(2, cfg);
  for (int i = 0; i < 5; ++i)
    ac.on_health_windows({HealthState::Unhealthy, HealthState::Degraded});
  for (int i = 0; i < 5; ++i) {
    const AdmissionDecision d = ac.decide(0, i, 0);
    EXPECT_TRUE(d.admit) << "frame " << i;
    EXPECT_EQ(d.level, DegradeLevel::Full);
  }
  EXPECT_EQ(ac.stats(0).shed_by_bucket, 0u);
  EXPECT_TRUE(ac.transitions().empty());

  EXPECT_EQ(ac.decide(1, 0, 0, /*forced_level=*/2).level,
            DegradeLevel::SkipCoast);
  ac.force_level(0, DegradeLevel::Shed, "watchdog");
  EXPECT_FALSE(ac.decide(0, 5, 0).admit);
}

TEST(Admission, ForceLevelIsSticky) {
  AdmissionController ac(1, ladder_config());
  ac.force_level(0, DegradeLevel::Shed, "watchdog");
  EXPECT_EQ(ac.level(0), DegradeLevel::Shed);
  // Neither healthy windows nor fault plans move a stuck stream.
  for (int i = 0; i < 20; ++i) ac.on_health_windows({HealthState::Healthy});
  EXPECT_EQ(ac.level(0), DegradeLevel::Shed);
  const AdmissionDecision d = ac.decide(0, 0, 0, /*forced_level=*/0);
  EXPECT_FALSE(d.admit);
  EXPECT_EQ(ac.level(0), DegradeLevel::Shed);
  const auto ts = ac.transitions(0);
  ASSERT_EQ(ts.size(), 1u);
  EXPECT_EQ(ts[0].reason, "watchdog");
}

TEST(Admission, FaultPlanPinsThenReleasesToHealthTarget) {
  AdmissionController ac(1, ladder_config());
  ac.on_health_windows({HealthState::Degraded});  // health wants CoarseScan
  ASSERT_EQ(ac.level(0), DegradeLevel::CoarseScan);

  // Plan pins frame 5 to SkipCoast; the pin carries the frame index.
  const AdmissionDecision pinned = ac.decide(0, 5, 0, /*forced_level=*/2);
  EXPECT_TRUE(pinned.admit);
  EXPECT_EQ(pinned.level, DegradeLevel::SkipCoast);
  // Released on the next unpinned frame: back to the health machine's level.
  const AdmissionDecision released = ac.decide(0, 6, 0, std::nullopt);
  EXPECT_EQ(released.level, DegradeLevel::CoarseScan);

  const auto ts = ac.transitions(0);
  ASSERT_EQ(ts.size(), 3u);
  EXPECT_EQ(ts[1].reason, "fault-plan");
  EXPECT_EQ(ts[1].frame, 5);
  EXPECT_EQ(ts[2].reason, "fault-plan-release");
  EXPECT_EQ(ts[2].frame, 6);
}

TEST(Admission, FleetPressureSkipsTheEscalationDwell) {
  AdmissionConfig slow = ladder_config(/*escalate=*/100);
  AdmissionController calm(2, slow);
  // Without fleet pressure the 100-window dwell holds both streams at 1.
  for (int i = 0; i < 4; ++i)
    calm.on_health_windows({HealthState::Degraded, HealthState::Degraded});
  EXPECT_EQ(calm.level(0), DegradeLevel::CoarseScan);

  AdmissionConfig pressured = slow;
  pressured.ladder.fleet_escalate_fraction = 0.5;
  AdmissionController fleet(2, pressured);
  for (int i = 0; i < 3; ++i)
    fleet.on_health_windows({HealthState::Degraded, HealthState::Degraded});
  // First window: Full->CoarseScan; with >= half the fleet hot, each further
  // window escalates a rung regardless of the dwell.
  EXPECT_EQ(fleet.level(0), DegradeLevel::Shed);
  EXPECT_EQ(fleet.level(1), DegradeLevel::Shed);
  bool saw_fleet_reason = false;
  for (const DegradeTransition& t : fleet.transitions(0))
    if (t.reason == "health:fleet-pressure") saw_fleet_reason = true;
  EXPECT_TRUE(saw_fleet_reason);
}

TEST(Admission, ExternalFleetPressureSkipsTheDwellAndClears) {
  // The cross-shard signal: no local fraction configured at all, yet a
  // raised external flag escalates one rung per window just like internal
  // fleet pressure — and dropping it restores the slow dwell.
  AdmissionConfig slow = ladder_config(/*escalate=*/100);
  AdmissionController ac(2, slow);
  ac.set_fleet_pressure(true);
  for (int i = 0; i < 3; ++i)
    ac.on_health_windows({HealthState::Degraded, HealthState::Healthy});
  EXPECT_EQ(ac.level(0), DegradeLevel::Shed);
  EXPECT_EQ(ac.level(1), DegradeLevel::Full);  // healthy stream untouched
  bool saw_fleet_reason = false;
  for (const DegradeTransition& t : ac.transitions(0))
    if (t.reason == "health:fleet-pressure") saw_fleet_reason = true;
  EXPECT_TRUE(saw_fleet_reason);

  AdmissionController calm(2, slow);
  calm.set_fleet_pressure(true);
  calm.set_fleet_pressure(false);  // cleared before any window: normal dwell
  for (int i = 0; i < 4; ++i)
    calm.on_health_windows({HealthState::Degraded, HealthState::Degraded});
  EXPECT_EQ(calm.level(0), DegradeLevel::CoarseScan);
}

TEST(Admission, TransitionCallbackFiresOncePerTransition) {
  AdmissionController ac(1, ladder_config(/*escalate=*/1));
  std::vector<DegradeTransition> seen;
  ac.set_transition_callback(
      [&seen](const DegradeTransition& t) { seen.push_back(t); });
  ac.on_health_windows({HealthState::Degraded});
  ac.on_health_windows({HealthState::Degraded});
  ac.on_health_windows({HealthState::Degraded});
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].to, DegradeLevel::CoarseScan);
  EXPECT_EQ(seen[1].to, DegradeLevel::SkipCoast);
  EXPECT_EQ(seen[2].to, DegradeLevel::Shed);
  EXPECT_EQ(ac.transitions().size(), 3u);  // all-streams view agrees
}

TEST(Admission, StreamsAreIndependent) {
  AdmissionController ac(3, ladder_config());
  ac.on_health_windows(
      {HealthState::Healthy, HealthState::Degraded, HealthState::Unhealthy});
  EXPECT_EQ(ac.level(0), DegradeLevel::Full);
  EXPECT_EQ(ac.level(1), DegradeLevel::CoarseScan);
  EXPECT_EQ(ac.level(2), DegradeLevel::Shed);
  EXPECT_TRUE(ac.decide(0, 0, 0).admit);
  EXPECT_TRUE(ac.decide(1, 0, 0).admit);
  EXPECT_FALSE(ac.decide(2, 0, 0).admit);
}

}  // namespace
}  // namespace avd::runtime
