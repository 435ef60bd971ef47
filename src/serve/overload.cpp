#include "serve/overload.hpp"

#include <algorithm>
#include <cmath>

namespace mev::serve {

void OverloadController::record_delay(std::uint64_t delay_ms) noexcept {
  if (!config_.enabled) return;
  std::uint64_t current = min_delay_ms_.load(std::memory_order_relaxed);
  while (delay_ms < current &&
         !min_delay_ms_.compare_exchange_weak(current, delay_ms,
                                              std::memory_order_relaxed)) {
  }
}

bool OverloadController::should_shed() noexcept {
  if (!config_.enabled) return false;
  const std::uint64_t ppm = shed_ppm_.load(std::memory_order_relaxed);
  if (ppm == 0) return false;
  const std::uint64_t before =
      shed_acc_.fetch_add(ppm, std::memory_order_relaxed);
  return before / 1'000'000 != (before + ppm) / 1'000'000;
}

void OverloadController::tick(std::uint64_t now_ms) {
  if (!config_.enabled) return;
  const std::uint64_t end = interval_end_ms_.load(std::memory_order_relaxed);
  if (end != 0 && now_ms < end) return;
  close_interval(now_ms);
}

void OverloadController::close_interval(std::uint64_t now_ms) {
  std::lock_guard<std::mutex> lock(interval_mutex_);
  const std::uint64_t end = interval_end_ms_.load(std::memory_order_relaxed);
  if (end == 0) {
    // First tick: open the first interval, nothing to evaluate yet.
    interval_end_ms_.store(now_ms + config_.interval_ms,
                           std::memory_order_relaxed);
    return;
  }
  if (now_ms < end) return;  // raced another closer

  const std::uint64_t interval_min =
      min_delay_ms_.exchange(UINT64_MAX, std::memory_order_relaxed);
  interval_end_ms_.store(now_ms + config_.interval_ms,
                         std::memory_order_relaxed);

  // No sample (idle interval) counts as good: an idle service has no
  // standing queue by definition, and recovery must proceed even when
  // shedding has choked off most of the traffic.
  const bool bad =
      interval_min != UINT64_MAX && interval_min > config_.target_delay_ms;

  if (bad) {
    consecutive_good_ = 0;
    ++consecutive_bad_;
    shed_ = std::min(
        kMaxShed,
        shed_ + kShedStep * std::sqrt(static_cast<double>(consecutive_bad_)));
    state_.store(OverloadState::kBrownout, std::memory_order_relaxed);
  } else {
    consecutive_bad_ = 0;
    ++consecutive_good_;
    shed_ /= 2.0;
    if (shed_ < 0.005) shed_ = 0.0;
    const OverloadState state = state_.load(std::memory_order_relaxed);
    if (state == OverloadState::kBrownout)
      state_.store(OverloadState::kRecovering, std::memory_order_relaxed);
    else if (state == OverloadState::kRecovering && shed_ == 0.0 &&
             consecutive_good_ >= kRecoverIntervals)
      state_.store(OverloadState::kHealthy, std::memory_order_relaxed);
  }
  shed_ppm_.store(static_cast<std::uint32_t>(shed_ * 1e6),
                  std::memory_order_relaxed);
}

}  // namespace mev::serve
