// Adaptive load shedding for the scoring service: a CoDel-style
// controller on measured queue delay.
//
// The signal is the *minimum* queue delay (submit → batch formation) seen
// in each evaluation interval — the CoDel insight: a transient burst
// leaves at least one low-delay sample per interval, but a standing queue
// keeps even the luckiest request above the target, so gating on the
// interval minimum ignores bursts and fires only on sustained overload.
//
// On a bad interval the controller enters brownout: the service rejects
// a deterministic fraction of admissions with RejectReason::kOverloaded.
// (Batch formation needs no brownout posture: it is work-conserving, so a
// worker never waits for co-riders in the first place.)
// The fraction follows AIMD: additive increase while intervals stay bad
// (ramping with the square root of the consecutive-bad count so a deep
// overload sheds aggressively), halved on every good interval. Recovery
// is hysteretic — the controller only reports healthy again after
// `recover_intervals` consecutive good intervals with shedding fully off,
// so readiness does not flap at the brownout boundary.
//
// Shedding is deterministic, not random: a fixed-point accumulator sheds
// exactly ⌊N·fraction⌋..⌈N·fraction⌉ of any N consecutive admissions, so
// tests assert exact counts and two runs shed identically.
//
// Thread-safety: record_delay() and should_shed() are lock-free
// (admission/worker hot paths); tick() takes a mutex only when an
// interval boundary is crossed. All timing flows through caller-supplied
// clock readings — deterministic under runtime::FakeClock.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>

namespace mev::serve {

/// Controller state, exported as the mev.serve.overload_state gauge
/// (numeric value = enum value) and surfaced through /readyz.
enum class OverloadState : std::uint8_t {
  kHealthy = 0,     // no sustained queueing; shedding off
  kBrownout = 1,    // sustained delay above target; shedding admissions
  kRecovering = 2,  // delay back under target; shed fraction decaying
};

inline const char* to_string(OverloadState state) noexcept {
  switch (state) {
    case OverloadState::kHealthy: return "healthy";
    case OverloadState::kBrownout: return "brownout";
    case OverloadState::kRecovering: return "recovering";
  }
  return "unknown";
}

struct OverloadConfig {
  /// Off by default: shedding rejects work, so a service only sheds when
  /// its operator opted in. Disabled, every method is an inert no-op.
  bool enabled = false;
  /// An interval whose *minimum* queue delay exceeds this is bad.
  std::uint64_t target_delay_ms = 5;
  /// Evaluation interval.
  std::uint64_t interval_ms = 100;
  /// Additive shed increase per bad interval (scaled by sqrt of the
  /// consecutive-bad count).
  double shed_step = 0.05;
  /// Shedding ceiling — some fraction is always admitted, so the
  /// controller keeps receiving delay samples to recover on.
  double max_shed = 0.90;
  /// Consecutive good intervals (with shed already decayed to zero)
  /// required to report kHealthy again.
  std::size_t recover_intervals = 3;
};

class OverloadController {
 public:
  explicit OverloadController(OverloadConfig config) : config_(config) {}

  /// Worker side: one measured submit→batch-formation delay. Lock-free
  /// interval-minimum tracking.
  void record_delay(std::uint64_t delay_ms) noexcept;

  /// Admission side: true when this submission should be rejected with
  /// kOverloaded. Deterministic fixed-point: any N consecutive calls shed
  /// ⌊N·fraction⌋..⌈N·fraction⌉.
  bool should_shed() noexcept;

  /// Advances the interval state machine; cheap no-op (one relaxed load)
  /// until `interval_ms` has elapsed since the last close. Call from the
  /// worker loop / pump / submit path — any thread.
  void tick(std::uint64_t now_ms);

  OverloadState state() const noexcept {
    return state_.load(std::memory_order_relaxed);
  }
  double shed_fraction() const noexcept {
    return static_cast<double>(shed_ppm_.load(std::memory_order_relaxed)) /
           1e6;
  }
  bool enabled() const noexcept { return config_.enabled; }
  const OverloadConfig& config() const noexcept { return config_; }

 private:
  void close_interval(std::uint64_t now_ms);

  OverloadConfig config_;

  /// Interval-minimum delay; UINT64_MAX = no sample this interval.
  std::atomic<std::uint64_t> min_delay_ms_{UINT64_MAX};
  /// End of the current interval; 0 until the first tick.
  std::atomic<std::uint64_t> interval_end_ms_{0};
  /// Shed fraction in parts-per-million (fixed-point, so should_shed()
  /// needs no floating point on the admission path).
  std::atomic<std::uint32_t> shed_ppm_{0};
  /// Fixed-point shed accumulator: a call sheds iff adding shed_ppm_
  /// crosses a whole-million boundary.
  std::atomic<std::uint64_t> shed_acc_{0};
  std::atomic<OverloadState> state_{OverloadState::kHealthy};

  std::mutex interval_mutex_;  // serializes close_interval
  std::size_t consecutive_bad_ = 0;
  std::size_t consecutive_good_ = 0;
  double shed_ = 0.0;  // authoritative fraction (mirrored into shed_ppm_)
};

}  // namespace mev::serve
