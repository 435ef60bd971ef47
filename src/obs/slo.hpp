// SloTracker: multi-window burn-rate tracking for the serving layer's two
// objectives, built on obs/window.hpp.
//
//   availability  fraction of requests resolved without a rejection
//   latency       fraction of *completed* requests under the threshold
//
// Burn rate (the SRE-workbook definition): the rate at which the error
// budget is being spent, as a multiple of the sustainable rate —
//
//   burn(window) = (bad/total over window) / (1 - objective)
//
// 1.0 burns exactly the budget over the SLO period; a 99.9% objective
// with 1% of requests failing burns at 10x. Two windows are reported per
// objective: fast (~5 min, catches an active incident in minutes) and
// slow (~1 h, filters blips). One bucket ring answers both — the fast
// window is a sub-span query over the same slots. A fast burn above
// `fast_burn_alert` (default 14.4 = the conventional 2%-budget-in-1h
// page) raises an ADVISORY flag: /readyz appends it to the reason text
// but never flips 503 on it — shedding is the overload controller's job,
// and an SLO page must not amplify an incident by draining traffic.
//
// Error budget remaining is lifetime-based: 1 - (bad/total)/(1-objective)
// over all requests since start, 1.0 when idle, negative when overspent.
//
// All timestamps come from the caller's runtime::Clock, so a FakeClock
// test pins every burn rate exactly (tests/obs/test_slo.cpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "obs/metrics.hpp"
#include "obs/window.hpp"

namespace mev::obs {

struct SloConfig {
  /// Objectives as target good-fractions.
  double availability_objective = 0.999;
  double latency_objective = 0.99;
  /// A completed request slower than this counts against the latency
  /// objective.
  std::uint64_t latency_threshold_us = 100'000;
  /// Shared bucket ring: 240 x 15 s = 1 h of history. The slow window is
  /// the full span; the fast window queries a 5-minute sub-span.
  std::uint64_t bucket_us = 15'000'000;
  std::size_t buckets = 240;
  std::uint64_t fast_window_us = 300'000'000;    // 5 min
  std::uint64_t slow_window_us = 3'600'000'000;  // 1 h
  /// Fast-burn advisory threshold (14.4 = 2% of a 30-day budget in 1 h).
  double fast_burn_alert = 14.4;
};

class SloTracker {
 public:
  explicit SloTracker(SloConfig config = {});

  /// One resolved request. `ok` = resolved without rejection; latency_us
  /// is consulted only when ok (rejections do not skew the latency
  /// objective — they already burned availability).
  void record(std::uint64_t now_us, bool ok,
              std::uint64_t latency_us) noexcept;

  struct Objective {
    double objective = 0.0;
    std::uint64_t fast_total = 0, fast_bad = 0;
    std::uint64_t slow_total = 0, slow_bad = 0;
    double fast_burn = 0.0, slow_burn = 0.0;
    std::uint64_t lifetime_total = 0, lifetime_bad = 0;
    double budget_remaining = 1.0;
  };
  struct Snapshot {
    Objective availability;
    Objective latency;
    /// True when either objective's fast burn exceeds fast_burn_alert.
    bool fast_burn_alert = false;
  };

  Snapshot snapshot(std::uint64_t now_us) const noexcept;

  /// /sloz body: {"availability":{...},"latency":{...},
  /// "fast_burn_alert":bool,...} with burn rates, windowed counts, and
  /// budget remaining per objective.
  std::string to_json(std::uint64_t now_us) const;

  /// Registers the mev.slo.* gauge mirrors (fast/slow burn and budget
  /// remaining per objective, labeled {objective=...}).
  void register_gauges(MetricsRegistry* registry);
  /// Pushes the current snapshot into the registered gauges (no-op when
  /// register_gauges was never called).
  void refresh_gauges(std::uint64_t now_us) noexcept;

  const SloConfig& config() const noexcept { return config_; }

 private:
  struct WindowedObjective {
    explicit WindowedObjective(const WindowConfig& w)
        : total(w), bad(w) {}
    SlidingCounter total;
    SlidingCounter bad;
    std::atomic<std::uint64_t> lifetime_total{0};
    std::atomic<std::uint64_t> lifetime_bad{0};
  };

  Objective read(const WindowedObjective& w, double objective,
                 std::uint64_t now_us) const noexcept;

  SloConfig config_;
  WindowedObjective availability_;
  WindowedObjective latency_;

  struct ObjectiveGauges {
    Gauge fast_burn, slow_burn, budget_remaining;
  };
  ObjectiveGauges availability_gauges_;
  ObjectiveGauges latency_gauges_;
};

}  // namespace mev::obs
