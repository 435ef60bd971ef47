// Serving-side observability: the counter block every ScoringService
// exposes. Its latency digests are obs::Log2Histogram (obs/histogram.hpp).
//
// Percentile accuracy: p50/p95/p99 come from obs::Log2Histogram, which
// buckets values in [2^(i-1), 2^i) and interpolates by rank inside the
// winning bucket, so a reported percentile is at most one octave from the
// true one — plenty for capacity planning, cheap enough to sit on the
// batch completion path (the bound is pinned by
// tests/obs/test_histogram.cpp).
#pragma once

#include <cstdint>
#include <string>

#include "obs/histogram.hpp"

namespace mev::serve {

/// Point-in-time copy of a service's counters and histograms, returned by
/// ScoringService::stats(). Requests are counted once each; rows follow
/// the request they belong to. The counters and histograms are read from
/// the service's registry cells (mev.serve.*, see
/// ScoringService::metrics()), so Prometheus exports the same values.
struct ServiceStats {
  std::uint64_t accepted_requests = 0;
  std::uint64_t accepted_rows = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_shutting_down = 0;
  std::uint64_t rejected_deadline = 0;
  /// Shed at admission by the overload controller (kOverloaded).
  std::uint64_t rejected_overloaded = 0;
  /// Batches failed by a throwing/garbling model (kInternalError), counted
  /// per request.
  std::uint64_t rejected_internal = 0;
  /// Stage breakdown of rejected_deadline (the three always sum to it):
  /// expired on arrival / while queued / after dequeue but before
  /// inference.
  std::uint64_t expired_at_admission = 0;
  std::uint64_t expired_in_queue = 0;
  std::uint64_t expired_post_dequeue = 0;
  std::uint64_t completed_requests = 0;
  std::uint64_t completed_rows = 0;
  std::uint64_t batches = 0;
  std::uint64_t model_swaps = 0;
  /// Requests an idle worker pulled from a shard it does not own.
  std::uint64_t stolen_requests = 0;
  /// Submissions whose home shard ring was full and landed on a neighbor.
  std::uint64_t spilled_submissions = 0;
  /// submit_with_callback() callbacks that threw (contained + counted).
  std::uint64_t callback_errors = 0;
  /// Watchdog verdicts: healthy→stalled transitions, stalled→healthy
  /// transitions, and the current number of stalled workers.
  std::uint64_t worker_stalls = 0;
  std::uint64_t worker_recoveries = 0;
  std::uint64_t stalled_workers = 0;
  /// Batches failed inside the worker's containment try-block (throwing
  /// model, garbled output, session rebuild failure) — the thread
  /// survived each one.
  std::uint64_t batch_failures = 0;
  /// Overload controller posture: OverloadState enum value (0 healthy,
  /// 1 brownout, 2 recovering) and the admission shed fraction [0, 1).
  std::uint64_t overload_state = 0;
  double shed_fraction = 0.0;
  /// Score-distribution drift: PSI of the current confidence window
  /// against the frozen reference (0 until the reference freezes), and
  /// whether it has frozen yet. <0.1 stable, 0.1-0.25 moderate, >0.25
  /// major shift.
  double score_psi = 0.0;
  bool drift_reference_frozen = false;
  /// Availability-objective burn rates (fast ~5 min / slow ~1 h windows)
  /// and lifetime error budget remaining (1.0 = untouched; negative =
  /// overspent). See obs/slo.hpp for the formula.
  double slo_fast_burn = 0.0;
  double slo_slow_burn = 0.0;
  double slo_budget_remaining = 1.0;

  obs::Log2Histogram batch_rows;      // rows per scored batch
  obs::Log2Histogram queue_delay_us;  // submit -> batch formation, per request
  obs::Log2Histogram e2e_latency_us;  // submit -> verdict ready, per request

  std::uint64_t rejected_total() const noexcept {
    return rejected_queue_full + rejected_shutting_down + rejected_deadline +
           rejected_overloaded + rejected_internal;
  }

  /// Multi-line human-readable dump (the examples print this).
  std::string to_string() const;
};

}  // namespace mev::serve
