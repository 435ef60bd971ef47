#include "serve/drift.hpp"

namespace mev::serve {

void ScoreDrift::record(std::uint64_t now_us, double score) noexcept {
  current_.record(now_us, score);
  if (frozen_.load(std::memory_order_acquire)) return;
  reference_bins_[obs::score_bin(score)].fetch_add(1,
                                                   std::memory_order_relaxed);
  const std::uint64_t n =
      reference_count_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (n >= kDriftReferenceMinCount)
    frozen_.store(true, std::memory_order_release);
}

void ScoreDrift::reset_reference() noexcept {
  // Freeze first so concurrent records stop feeding the bins we are about
  // to clear; a record that already passed the gate may still smear one
  // count into the fresh baseline — telemetry-grade, bounded by the
  // number of in-flight records.
  frozen_.store(true, std::memory_order_release);
  for (auto& bin : reference_bins_) bin.store(0, std::memory_order_relaxed);
  reference_count_.store(0, std::memory_order_relaxed);
  frozen_.store(false, std::memory_order_release);
}

double ScoreDrift::psi(std::uint64_t now_us) const noexcept {
  if (!reference_frozen()) return 0.0;
  return obs::psi(reference(), current_.bins(now_us));
}

obs::ScoreBins ScoreDrift::reference() const noexcept {
  obs::ScoreBins bins{};
  for (std::size_t i = 0; i < obs::kScoreBins; ++i)
    bins[i] = reference_bins_[i].load(std::memory_order_relaxed);
  return bins;
}

}  // namespace mev::serve
