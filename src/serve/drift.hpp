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
// Built on the obs/window.hpp primitives. Thread-safety is telemetry-grade:
// record() is lock-free; a record racing reset_reference() may land in
// the discarded baseline (bounded loss, never corruption).
#pragma once

#include <atomic>
#include <cstdint>

#include "obs/window.hpp"

namespace mev::serve {

struct DriftConfig {
  /// Geometry of the current-side sliding window. Default 12 x 5 s.
  obs::WindowConfig window{5'000'000, 12};
  /// Trailing span compared against the reference (0 = the ring's full
  /// span, i.e. 60 s by default).
  std::uint64_t window_us = 0;
  /// Scores accumulated before the reference freezes. Until frozen,
  /// psi() reports 0 (no baseline = no evidence of drift).
  std::uint64_t reference_min_count = 256;
};

/// One drift tracker: a frozen reference bin population plus a sliding
/// current window of obs::kScoreBins linear bins over [0, 1].
class ScoreDrift {
 public:
  explicit ScoreDrift(DriftConfig config = {});

  ScoreDrift(const ScoreDrift&) = delete;
  ScoreDrift& operator=(const ScoreDrift&) = delete;

  /// Records one verdict confidence: always feeds the current window;
  /// feeds the reference too until it freezes at reference_min_count.
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

  const DriftConfig& config() const noexcept { return config_; }

 private:
  DriftConfig config_;
  obs::SlidingScoreHistogram current_;
  std::array<std::atomic<std::uint64_t>, obs::kScoreBins> reference_bins_{};
  std::atomic<std::uint64_t> reference_count_{0};
  std::atomic<bool> frozen_{false};
};

}  // namespace mev::serve
