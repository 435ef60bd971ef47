// Retry policy: exponential backoff with deterministic jitter plus
// per-call and per-run deadline budgets. Pure policy + a delay function;
// the loop that applies it lives in ResilientOracle.
#pragma once

#include <cstddef>
#include <cstdint>

#include "math/rng.hpp"

namespace mev::runtime {

struct RetryPolicy {
  /// Attempts per batch before giving up (and, for multi-row batches,
  /// bisecting). Must be >= 1.
  std::size_t max_attempts = 5;

  std::uint64_t initial_backoff_ms = 10;
  double backoff_multiplier = 2.0;
  std::uint64_t max_backoff_ms = 1000;

  /// Multiplicative jitter: the delay is scaled by a uniform factor in
  /// [1 - jitter, 1 + jitter). Drawn from a stream with a fixed seed
  /// (0x5eed) so a retried run is exactly reproducible.
  double jitter = 0.1;

  /// Wall-clock budget for one label_counts call, including backoff and
  /// breaker-cooldown waits (0 = unlimited).
  std::uint64_t call_deadline_ms = 0;

  /// Wall-clock budget for the oracle's whole lifetime, measured from its
  /// first call (0 = unlimited).
  std::uint64_t run_deadline_ms = 0;

  /// Single attempt, no backoff — decorator becomes (almost) a pass-through.
  static RetryPolicy none();
};

/// Delay before retry number `retry_index` (0 = delay after the first
/// failure): min(max, initial * multiplier^retry_index), jittered. The rng
/// is consumed only when jitter > 0.
std::uint64_t backoff_delay_ms(const RetryPolicy& policy,
                               std::size_t retry_index, math::Rng& jitter_rng);

}  // namespace mev::runtime
