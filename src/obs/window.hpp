// Sliding-window aggregation: the lock-free time-bucketed primitive under
// the SLO tracker, the windowed /metrics percentiles, and the score-drift
// layer.
//
// Model: a ring of N time buckets, each `bucket_us` wide. A timestamp's
// epoch is now_us / bucket_us; it lands in slot epoch % N. Writers rotate
// slots lazily on record: the first writer to reach a slot whose stored
// epoch is older CASes the new epoch in (FlightRecorder's bank-swap
// idiom) and clears the payload; losers retry against the updated tag. A
// writer holding a timestamp OLDER than the slot's epoch (a reader-visible
// clock jump, a pathologically delayed thread) drops its sample instead
// of corrupting a newer bucket.
//
// Consistency contract (telemetry-grade, pinned by tests/obs/
// test_window.cpp): a record racing the rotation of its own bucket may be
// lost or attributed to the adjacent bucket — the smear is bounded by one
// bucket boundary crossing and never produces phantom counts. Reads are
// wait-free and similarly approximate at the rotating edge. All totals
// are exact whenever record and read do not straddle a live rotation,
// which is what a FakeClock gives tests: fully deterministic windows.
//
// Timestamps come from the caller (the injectable runtime::Clock), never
// from a global clock, so every window is deterministic under FakeClock.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "obs/histogram.hpp"

namespace mev::obs {

/// Geometry of one sliding window: `buckets` slots of `bucket_us` each,
/// covering a span of buckets * bucket_us. Defaults: 60 x 5 s = 5 min.
struct WindowConfig {
  std::uint64_t bucket_us = 5'000'000;
  std::size_t buckets = 60;

  std::uint64_t span_us() const noexcept {
    return bucket_us * static_cast<std::uint64_t>(buckets);
  }
};

namespace detail {

/// Rotation tag stored per slot: epoch + 1, so 0 means "never written"
/// (epoch 0 is a real epoch when clocks start at 0, as FakeClock does).
///
/// Returns true when the caller may record into the slot for `epoch`;
/// false when the caller's timestamp is older than the slot's current
/// occupant (stale writer — drop the sample). The winner of a rotation
/// CAS clears the payload via `clear` before returning.
template <typename Clear>
bool claim_slot(std::atomic<std::uint64_t>& tag_cell, std::uint64_t epoch,
                Clear&& clear) noexcept {
  const std::uint64_t tag = epoch + 1;
  std::uint64_t seen = tag_cell.load(std::memory_order_acquire);
  for (;;) {
    if (seen == tag) return true;
    if (seen > tag) return false;  // our timestamp is behind this slot
    if (tag_cell.compare_exchange_weak(seen, tag, std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
      clear();
      return true;
    }
  }
}

}  // namespace detail

/// Lock-free windowed counter: add() charges the current time bucket,
/// total() sums the buckets still inside the queried window. One atomic
/// add on the hot path after the (usually no-op) rotation check.
class SlidingCounter {
 public:
  explicit SlidingCounter(WindowConfig config = {});

  void add(std::uint64_t now_us, std::uint64_t n = 1) noexcept;

  /// Sum over the trailing `window_us` (0 or anything >= the span = the
  /// full span). Buckets whose epoch fell off the window are skipped —
  /// a clock jump past N buckets therefore reads as 0, not as stale data.
  std::uint64_t total(std::uint64_t now_us,
                      std::uint64_t window_us = 0) const noexcept;

  /// total() divided by the seconds actually observed: the elapsed time
  /// is clamped to the window span AND to the time since the first add,
  /// so a partially-filled first window reports its true rate instead of
  /// amortizing over buckets that never existed.
  double rate_per_s(std::uint64_t now_us,
                    std::uint64_t window_us = 0) const noexcept;

  const WindowConfig& config() const noexcept { return config_; }

 private:
  struct Slot {
    std::atomic<std::uint64_t> tag{0};  // epoch + 1; 0 = empty
    std::atomic<std::uint64_t> value{0};
  };

  WindowConfig config_;
  std::unique_ptr<Slot[]> slots_;
  /// us timestamp of the first add + 1 (0 = none yet); CAS-set once.
  std::atomic<std::uint64_t> first_add_{0};
};

/// Lock-free windowed Log2Histogram: per-slot atomic bucket counts plus
/// count/sum/min/max, reassembled into an ordinary Log2Histogram on read
/// so exporters reuse the existing percentile math.
class SlidingHistogram {
 public:
  explicit SlidingHistogram(WindowConfig config = {});

  void record(std::uint64_t now_us, std::uint64_t value) noexcept;

  /// Merged histogram of the trailing `window_us` (0 = full span).
  Log2Histogram merged(std::uint64_t now_us,
                       std::uint64_t window_us = 0) const noexcept;

  const WindowConfig& config() const noexcept { return config_; }

 private:
  struct Slot {
    std::atomic<std::uint64_t> tag{0};
    std::array<std::atomic<std::uint64_t>, Log2Histogram::kBuckets> counts{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{~std::uint64_t{0}};
    std::atomic<std::uint64_t> max{0};
  };

  WindowConfig config_;
  std::unique_ptr<Slot[]> slots_;
};

/// Linear score bins over [0, 1] for distribution-drift detection: the
/// verdict-confidence population in kScoreBins equal-width bins.
inline constexpr std::size_t kScoreBins = 10;
using ScoreBins = std::array<std::uint64_t, kScoreBins>;

/// Bin index for a confidence score; values outside [0, 1] clamp to the
/// edge bins, 1.0 lands in the last bin.
std::size_t score_bin(double score) noexcept;

/// Windowed population of score bins (the "current" side of a PSI).
class SlidingScoreHistogram {
 public:
  explicit SlidingScoreHistogram(WindowConfig config = {});

  void record(std::uint64_t now_us, double score) noexcept;

  /// Per-bin totals over the trailing `window_us` (0 = full span).
  ScoreBins bins(std::uint64_t now_us,
                 std::uint64_t window_us = 0) const noexcept;

  const WindowConfig& config() const noexcept { return config_; }

 private:
  struct Slot {
    std::atomic<std::uint64_t> tag{0};
    std::array<std::atomic<std::uint64_t>, kScoreBins> counts{};
  };

  WindowConfig config_;
  std::unique_ptr<Slot[]> slots_;
};

/// Population stability index between a reference and a current bin
/// population: sum over bins of (q_i - p_i) * ln(q_i / p_i). Each side is
/// normalized to proportions and smoothed against a common pseudo-sample
/// (+0.5 per bin on 1000), so empty bins never divide by zero AND
/// identical distributions score 0 regardless of population size — the
/// reference is frozen while the current window keeps growing, and a
/// count-sensitive floor would read that imbalance as drift. 0 when
/// either population is empty (no evidence = no drift). Conventional
/// reading: < 0.1 stable, 0.1-0.25 moderate shift, > 0.25 major shift.
double psi(const ScoreBins& reference, const ScoreBins& current) noexcept;

}  // namespace mev::obs
