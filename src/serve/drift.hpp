// Score-distribution drift detection for the serving layer: verdict
// confidences (P(malware) per scored row) are binned into a frozen
// *reference* population captured at startup (or after swap_model()) and
// a sliding *current* window, and compared with the population stability
// index (obs::psi). A model swap resets the reference — the new model's
// own early traffic becomes the new baseline — so drift always means
// "the query mix changed", not "the model changed".
//
// Why this matters here: the paper's black-box attackers (and the
// adaptive ones in the defense chapters) shift the score distribution of
// their probe stream long before any single verdict looks anomalous. A
// per-client PSI (net/client_stats.hpp keys one ScoreDrift per API key)
// surfaces which caller's mix moved.
//
// The window (60 s) and the reference size (256 scores) are the constants
// below; the service and every per-client tracker use the same ones.
//
// Built on the obs/window.hpp primitives. Thread-safety is telemetry-grade:
// record() is lock-free; a record racing reset_reference() may land in
// the discarded baseline (bounded loss, never corruption).
#pragma once

#include <atomic>
#include <cstdint>

#include "obs/window.hpp"

namespace mev::serve {

/// The current-side sliding window: 12 x 5 s = 60 s, compared in full
/// against the reference.
inline constexpr obs::WindowConfig kDriftWindow{5'000'000, 12};
/// Scores accumulated before the reference freezes. Until frozen, psi()
/// reports 0 (no baseline = no evidence of drift).
inline constexpr std::uint64_t kDriftReferenceMinCount = 256;

/// One drift tracker: a frozen reference bin population plus a sliding
/// current window of obs::kScoreBins linear bins over [0, 1].
class ScoreDrift {
 public:
  ScoreDrift() = default;

  ScoreDrift(const ScoreDrift&) = delete;
  ScoreDrift& operator=(const ScoreDrift&) = delete;

  /// Records one verdict confidence: always feeds the current window;
  /// feeds the reference too until it freezes at kDriftReferenceMinCount.
  void record(std::uint64_t now_us, double score) noexcept;

  /// Discards the frozen reference and starts re-capturing from the next
  /// records (called on swap_model()).
  void reset_reference() noexcept;

  bool reference_frozen() const noexcept {
    return frozen_.load(std::memory_order_acquire);
  }
  std::uint64_t reference_count() const noexcept {
    return reference_count_.load(std::memory_order_relaxed);
  }

  /// PSI between the frozen reference and the trailing current window at
  /// `now_us`; 0 while the reference is still capturing.
  double psi(std::uint64_t now_us) const noexcept;

  obs::ScoreBins reference() const noexcept;

 private:
  obs::SlidingScoreHistogram current_{kDriftWindow};
  std::array<std::atomic<std::uint64_t>, obs::kScoreBins> reference_bins_{};
  std::atomic<std::uint64_t> reference_count_{0};
  std::atomic<bool> frozen_{false};
};

}  // namespace mev::serve
