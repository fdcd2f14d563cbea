#include "avd/runtime/admission.hpp"

#include <algorithm>
#include <cmath>

namespace avd::runtime {
namespace {

constexpr int kLevels = 4;

DegradeLevel clamp_level(int raw) {
  return static_cast<DegradeLevel>(std::clamp(raw, 0, kLevels - 1));
}

DegradeLevel step_down(DegradeLevel level) {
  return clamp_level(static_cast<int>(level) - 1);
}

DegradeLevel step_up(DegradeLevel level) {
  return clamp_level(static_cast<int>(level) + 1);
}

}  // namespace

const char* to_string(DegradeLevel level) {
  switch (level) {
    case DegradeLevel::Full: return "full";
    case DegradeLevel::CoarseScan: return "coarse-scan";
    case DegradeLevel::SkipCoast: return "skip-coast";
    case DegradeLevel::Shed: return "shed";
  }
  return "?";
}

AdmissionController::AdmissionController(int n_streams, AdmissionConfig config)
    : config_(config) {
  config_.ladder.coarse_stride_multiplier =
      std::max(1, config_.ladder.coarse_stride_multiplier);
  config_.ladder.coarse_max_levels =
      std::max(1, config_.ladder.coarse_max_levels);
  config_.ladder.skip_modulus = std::max(2, config_.ladder.skip_modulus);
  config_.ladder.escalate_after_windows =
      std::max(1, config_.ladder.escalate_after_windows);
  config_.ladder.max_degraded_level =
      std::clamp(config_.ladder.max_degraded_level, 1, kLevels - 1);
  config_.ladder.recover_after_windows =
      std::max(1, config_.ladder.recover_after_windows);
  streams_.resize(static_cast<std::size_t>(std::max(0, n_streams)));
  for (StreamSlot& slot : streams_) slot.tokens = config_.bucket.burst;
}

void AdmissionController::set_transition_callback(TransitionCallback cb) {
  std::lock_guard<std::mutex> lock(mutex_);
  callback_ = std::move(cb);
}

void AdmissionController::set_level_locked(
    StreamSlot& slot, int stream, DegradeLevel to, int frame,
    const char* reason, std::uint64_t t_ns,
    std::vector<DegradeTransition>& fired) {
  if (slot.level == to) return;
  DegradeTransition t;
  t.stream = stream;
  t.from = slot.level;
  t.to = to;
  t.frame = frame;
  t.reason = reason;
  t.t_ns = t_ns;
  slot.level = to;
  slot.transitions.push_back(t);
  fired.push_back(std::move(t));
}

AdmissionDecision AdmissionController::decide(int stream, int frame_index,
                                              std::uint64_t now_ns,
                                              std::optional<int> forced_level) {
  AdmissionDecision d;
  std::vector<DegradeTransition> fired;
  TransitionCallback callback;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    StreamSlot& slot = streams_.at(static_cast<std::size_t>(stream));
    if (!slot.sticky) {
      if (forced_level) {
        // A fault plan pins the level from this frame until released.
        set_level_locked(slot, stream, clamp_level(*forced_level), frame_index,
                         "fault-plan", now_ns, fired);
        slot.plan_forced = true;
      } else if (slot.plan_forced) {
        // Plan released: fall back to whatever the health machine wants.
        set_level_locked(slot, stream, slot.health_target, frame_index,
                         "fault-plan-release", now_ns, fired);
        slot.plan_forced = false;
      }
    }
    d.level = slot.level;
    if (slot.level == DegradeLevel::Shed) {
      d.admit = false;
      d.shed_reason = "shed-level";
      ++slot.stats.shed;
    } else if (config_.enabled && config_.bucket.rate_fps > 0.0) {
      // Refill on the caller's timeline so tests can drive it synthetically.
      if (!slot.bucket_primed) {
        slot.bucket_primed = true;
        slot.bucket_refill_ns = now_ns;
      }
      const std::uint64_t elapsed =
          now_ns >= slot.bucket_refill_ns ? now_ns - slot.bucket_refill_ns : 0;
      slot.bucket_refill_ns = now_ns;
      slot.tokens = std::min(
          config_.bucket.burst,
          slot.tokens +
              static_cast<double>(elapsed) * config_.bucket.rate_fps / 1e9);
      if (slot.tokens < 1.0) {
        d.admit = false;
        d.shed_reason = "token-bucket";
        ++slot.stats.shed;
        ++slot.stats.shed_by_bucket;
      } else {
        slot.tokens -= 1.0;
      }
    }
    if (d.admit) {
      ++slot.stats.admitted;
      if (slot.level == DegradeLevel::SkipCoast) {
        d.coast = (frame_index % config_.ladder.skip_modulus) != 0;
        if (d.coast)
          ++slot.stats.coasted;
        else
          ++slot.stats.degraded_scans;
      } else if (slot.level == DegradeLevel::CoarseScan) {
        ++slot.stats.degraded_scans;
      }
    }
    callback = callback_;
  }
  if (callback)
    for (const DegradeTransition& t : fired) callback(t);
  return d;
}

void AdmissionController::on_health_windows(
    const std::vector<obs::HealthState>& states) {
  if (!config_.enabled) return;
  std::vector<DegradeTransition> fired;
  TransitionCallback callback;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t n = std::min(states.size(), streams_.size());
    // Fleet pressure: enough of the fleet degraded at once and escalation
    // skips the per-stream dwell. The external flag carries the same signal
    // from across shards (set by the sharded front door).
    bool fleet_pressure = external_fleet_pressure_;
    if (!fleet_pressure && config_.ladder.fleet_escalate_fraction > 0.0 &&
        n > 0) {
      std::size_t hot = 0;
      for (std::size_t s = 0; s < n; ++s)
        if (states[s] != obs::HealthState::Healthy) ++hot;
      fleet_pressure =
          static_cast<double>(hot) >=
          config_.ladder.fleet_escalate_fraction * static_cast<double>(n);
    }
    for (std::size_t s = 0; s < n; ++s) {
      StreamSlot& slot = streams_[s];
      const char* reason = "health";
      switch (states[s]) {
        case obs::HealthState::Unhealthy:
          slot.healthy_streak = 0;
          slot.degraded_streak = 0;
          slot.health_target = DegradeLevel::Shed;
          reason = "health:unhealthy";
          break;
        case obs::HealthState::Degraded:
          slot.healthy_streak = 0;
          ++slot.degraded_streak;
          reason = fleet_pressure ? "health:fleet-pressure" : "health:degraded";
          if (slot.health_target == DegradeLevel::Full) {
            // Fast worsen: the first degraded window drops fidelity.
            slot.health_target = DegradeLevel::CoarseScan;
            slot.degraded_streak = 0;
          } else if (static_cast<int>(slot.health_target) <
                         config_.ladder.max_degraded_level &&
                     (fleet_pressure ||
                      slot.degraded_streak >=
                          config_.ladder.escalate_after_windows)) {
            slot.health_target = step_up(slot.health_target);
            slot.degraded_streak = 0;
          }
          break;
        case obs::HealthState::Healthy:
          slot.degraded_streak = 0;
          ++slot.healthy_streak;
          reason = "health:recovered";
          if (slot.health_target != DegradeLevel::Full &&
              slot.healthy_streak >= config_.ladder.recover_after_windows) {
            // Slow recover: one rung per streak of healthy windows.
            slot.health_target = step_down(slot.health_target);
            slot.healthy_streak = 0;
          }
          break;
      }
      if (!slot.sticky && !slot.plan_forced && slot.level != slot.health_target)
        set_level_locked(slot, static_cast<int>(s), slot.health_target, -1,
                         reason, 0, fired);
    }
    callback = callback_;
  }
  if (callback)
    for (const DegradeTransition& t : fired) callback(t);
}

void AdmissionController::set_fleet_pressure(bool pressure) {
  std::lock_guard<std::mutex> lock(mutex_);
  external_fleet_pressure_ = pressure;
}

void AdmissionController::force_level(int stream, DegradeLevel level,
                                      const std::string& reason) {
  std::vector<DegradeTransition> fired;
  TransitionCallback callback;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    StreamSlot& slot = streams_.at(static_cast<std::size_t>(stream));
    slot.sticky = true;
    slot.health_target = level;
    set_level_locked(slot, stream, level, -1, reason.c_str(), 0, fired);
    callback = callback_;
  }
  if (callback)
    for (const DegradeTransition& t : fired) callback(t);
}

DegradeLevel AdmissionController::level(int stream) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return streams_.at(static_cast<std::size_t>(stream)).level;
}

AdmissionStats AdmissionController::stats(int stream) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return streams_.at(static_cast<std::size_t>(stream)).stats;
}

std::vector<DegradeTransition> AdmissionController::transitions(
    int stream) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return streams_.at(static_cast<std::size_t>(stream)).transitions;
}

std::vector<DegradeTransition> AdmissionController::transitions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<DegradeTransition> out;
  for (const StreamSlot& slot : streams_)
    out.insert(out.end(), slot.transitions.begin(), slot.transitions.end());
  return out;
}

}  // namespace avd::runtime
