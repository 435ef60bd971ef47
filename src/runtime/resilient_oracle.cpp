#include "runtime/resilient_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <string>

namespace mev::runtime {

namespace {

constexpr std::size_t kMaxAttempts = 5;
constexpr double kInitialBackoffMs = 10.0;
constexpr double kMaxBackoffMs = 1000.0;
constexpr double kJitter = 0.1;

/// Wait before the attempt that follows the `failures`-th consecutive
/// failure: min(1000, 10·2^(failures−1)) ms, scaled by a uniform factor in
/// [0.9, 1.1).
std::uint64_t backoff_delay_ms(std::size_t failures, math::Rng& jitter_rng) {
  const double delay = std::min(
      kMaxBackoffMs,
      kInitialBackoffMs * std::pow(2.0, static_cast<double>(failures - 1)));
  return static_cast<std::uint64_t>(
      std::llround(delay * jitter_rng.uniform(1.0 - kJitter, 1.0 + kJitter)));
}

}  // namespace

ResilientOracle::ResilientOracle(CountOracle& inner, Clock* clock)
    : inner_(&inner),
      clock_(clock != nullptr ? clock : &SystemClock::instance()),
      jitter_rng_(0x5eedULL) {}

std::vector<int> ResilientOracle::label_counts(const math::Matrix& counts) {
  if (counts.rows() == 0) return {};
  ++stats_.calls;
  std::vector<int> labels = label_batch(counts);
  record_queries(counts.rows());
  return labels;
}

std::vector<int> ResilientOracle::label_batch(const math::Matrix& counts) {
  for (std::size_t attempt = 0; attempt < kMaxAttempts; ++attempt) {
    if (consecutive_failures_ > 0) {
      const std::uint64_t delay_ms =
          backoff_delay_ms(consecutive_failures_, jitter_rng_);
      clock_->sleep_ms(delay_ms);
      stats_.backoff_ms += delay_ms;
    }
    ++stats_.attempts;
    if (attempt > 0) ++stats_.retries;
    try {
      std::vector<int> labels = inner_->label_counts(counts);
      if (labels.size() == counts.rows()) {
        consecutive_failures_ = 0;
        return labels;
      }
      ++stats_.garbled_batches;  // wrong-length response: retryable
    } catch (const OracleError& e) {
      if (!e.transient()) {
        stats_.failed_queries += counts.rows();
        throw;
      }
      if (e.kind() == FaultKind::kTimeout) ++stats_.timeouts;
      if (e.kind() == FaultKind::kGarbled) ++stats_.garbled_batches;
    }
    ++consecutive_failures_;
  }

  // Attempts exhausted. A multi-row batch may be suffering partial failure
  // (one poisoned row, a batch-size cap): bisect and retry each half with
  // a fresh attempt budget.
  if (counts.rows() > 1) {
    ++stats_.bisections;
    const std::size_t mid = counts.rows() / 2;
    std::vector<int> labels = label_batch(counts.slice_rows(0, mid));
    const std::vector<int> right =
        label_batch(counts.slice_rows(mid, counts.rows()));
    labels.insert(labels.end(), right.begin(), right.end());
    return labels;
  }

  stats_.failed_queries += 1;
  throw PermanentOracleError("ResilientOracle: row failed after " +
                             std::to_string(kMaxAttempts) + " attempts");
}

}  // namespace mev::runtime
