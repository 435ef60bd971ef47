// ResilientOracle — the retry decorator for a flaky label oracle. Per
// batch it runs one loop:
//
//   1. up to 5 attempts, treating OracleError::transient() failures and
//      wrong-length responses as retryable;
//   2. before any attempt that follows a failure, a backoff wait of
//      min(1000, 10·2^(n−1)) ms, jittered ±10% from a fixed-seed stream,
//      where n counts consecutive failures. The count carries across
//      batches and calls and resets on any success, so a sustained outage
//      settles at one attempt per second;
//   3. batch bisection: a multi-row batch that exhausts its attempts is
//      split in half and each half retried independently, so one poisoned
//      row (or an oracle with a batch-size cap) cannot sink the whole
//      submission. A single row that exhausts its attempts throws
//      PermanentOracleError.
//
// Permanent errors propagate immediately. queries() counts LOGICAL rows
// successfully labeled — identical to what a fault-free oracle would
// report — while stats() exposes the cost of getting there (attempts,
// retries, backoff time).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "math/rng.hpp"
#include "runtime/clock.hpp"
#include "runtime/oracle.hpp"
#include "runtime/oracle_error.hpp"

namespace mev::runtime {

struct ResilienceStats {
  std::size_t calls = 0;            // outer label_counts() calls
  std::size_t attempts = 0;         // inner submissions (incl. retries)
  std::size_t retries = 0;          // attempts beyond the first per batch
  std::size_t timeouts = 0;
  std::size_t garbled_batches = 0;  // wrong-length or garbled responses
  std::size_t bisections = 0;       // batch splits after exhausted attempts
  std::size_t failed_queries = 0;   // rows abandoned as permanently failed
  std::uint64_t backoff_ms = 0;     // total time spent waiting
};

class ResilientOracle final : public CountOracle {
 public:
  /// `clock` defaults to the shared SystemClock; tests inject a FakeClock
  /// so backoff waits are simulated, not slept.
  explicit ResilientOracle(CountOracle& inner, Clock* clock = nullptr);

  std::vector<int> label_counts(const math::Matrix& counts) override;

  /// Cumulative over the oracle's lifetime.
  const ResilienceStats& stats() const noexcept { return stats_; }

 private:
  std::vector<int> label_batch(const math::Matrix& counts);

  CountOracle* inner_;
  Clock* clock_;
  math::Rng jitter_rng_;
  ResilienceStats stats_;
  std::size_t consecutive_failures_ = 0;
};

}  // namespace mev::runtime
