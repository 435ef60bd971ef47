#include "runtime/resilient_oracle.hpp"

#include <algorithm>
#include <string>

#include "runtime/log_hook.hpp"

namespace mev::runtime {

ResilientOracle::ResilientOracle(CountOracle& inner, RetryPolicy retry,
                                 CircuitBreakerConfig breaker, Clock* clock)
    : inner_(&inner),
      retry_(retry),
      clock_(clock != nullptr ? clock : &SystemClock::instance()),
      breaker_(breaker, *(clock != nullptr ? clock
                                           : &SystemClock::instance())),
      jitter_rng_(0x5eedULL) {
  if (retry_.max_attempts == 0) retry_.max_attempts = 1;
}

std::vector<int> ResilientOracle::label_counts(const math::Matrix& counts) {
  if (counts.rows() == 0) return {};
  if (!run_started_) {
    run_started_ = true;
    run_started_ms_ = clock_->now_ms();
  }
  ++stats_.calls;
  const std::uint64_t call_deadline =
      retry_.call_deadline_ms > 0 ? clock_->now_ms() + retry_.call_deadline_ms
                                  : 0;
  std::vector<int> labels = label_batch(counts, call_deadline);
  record_queries(counts.rows());
  return labels;
}

ResilienceStats ResilientOracle::stats() const {
  ResilienceStats s = stats_;
  s.breaker_trips = breaker_.trips();
  return s;
}

std::vector<int> ResilientOracle::label_batch(
    const math::Matrix& counts, std::uint64_t call_deadline_ms) {
  for (std::size_t attempt = 0; attempt < retry_.max_attempts; ++attempt) {
    wait_for_breaker(call_deadline_ms);
    ++stats_.attempts;
    if (attempt > 0) ++stats_.retries;
    try {
      std::vector<int> labels = inner_->label_counts(counts);
      if (labels.size() == counts.rows()) {
        breaker_.record_success();
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
    breaker_.record_failure();
    if (attempt + 1 < retry_.max_attempts) {
      const std::uint64_t delay_ms =
          backoff_delay_ms(retry_, attempt, jitter_rng_);
      log(LogLevel::kWarn, "runtime.oracle", "oracle call failed, retrying",
          {LogField::u64_value("attempt", attempt + 1),
           LogField::u64_value("rows", counts.rows()),
           LogField::u64_value("backoff_ms", delay_ms)});
      wait(delay_ms, call_deadline_ms);
    }
  }

  // Attempts exhausted. A multi-row batch may be suffering partial failure
  // (one poisoned row, a batch-size cap): bisect and retry each half with
  // a fresh attempt budget.
  if (counts.rows() > 1) {
    ++stats_.bisections;
    log(LogLevel::kWarn, "runtime.oracle", "batch exhausted retries, bisecting",
        {LogField::u64_value("rows", counts.rows())});
    const std::size_t mid = counts.rows() / 2;
    std::vector<int> labels =
        label_batch(counts.slice_rows(0, mid), call_deadline_ms);
    const std::vector<int> right =
        label_batch(counts.slice_rows(mid, counts.rows()), call_deadline_ms);
    labels.insert(labels.end(), right.begin(), right.end());
    return labels;
  }

  stats_.failed_queries += 1;
  throw PermanentOracleError(
      "ResilientOracle: row failed after " +
      std::to_string(retry_.max_attempts) + " attempts");
}

void ResilientOracle::wait(std::uint64_t ms, std::uint64_t call_deadline_ms) {
  const std::uint64_t target = clock_->now_ms() + ms;
  if (call_deadline_ms > 0 && target > call_deadline_ms)
    throw DeadlineExceededError(
        "ResilientOracle: per-call deadline of " +
        std::to_string(retry_.call_deadline_ms) + " ms exceeded");
  if (retry_.run_deadline_ms > 0 &&
      target > run_started_ms_ + retry_.run_deadline_ms)
    throw DeadlineExceededError("ResilientOracle: per-run deadline of " +
                                std::to_string(retry_.run_deadline_ms) +
                                " ms exceeded");
  if (ms == 0) return;
  clock_->sleep_ms(ms);
  stats_.backoff_ms += ms;
}

void ResilientOracle::wait_for_breaker(std::uint64_t call_deadline_ms) {
  while (!breaker_.allow())
    wait(std::max<std::uint64_t>(breaker_.cooldown_remaining_ms(), 1),
         call_deadline_ms);
}

}  // namespace mev::runtime
