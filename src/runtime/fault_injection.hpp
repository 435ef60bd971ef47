// Deterministic fault injection for oracle stacks. FaultInjectingOracle
// wraps any CountOracle and, driven by a seeded RNG, turns some calls into
// transient failures, timeouts, oversized-batch rejections, or garbled
// (wrong-length) responses. The fault sequence is a pure function of
// (profile.seed, call sequence), so a test that fails once fails every
// time — and the resilience suite can assert that a retried run converges
// to the fault-free result bit-for-bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "math/rng.hpp"
#include "runtime/clock.hpp"
#include "runtime/oracle.hpp"
#include "runtime/oracle_error.hpp"

namespace mev::runtime {

struct FaultProfile {
  std::string name = "none";

  /// Probability a call throws TransientOracleError before reaching the
  /// inner oracle.
  double transient_rate = 0.0;
  /// Probability a call times out: the clock advances by 50 ms, then
  /// OracleTimeoutError is thrown.
  double timeout_rate = 0.0;
  /// Probability a successful response is garbled (last label dropped,
  /// so the batch size no longer matches).
  double garble_rate = 0.0;
  /// The first N calls fail unconditionally (cold-start outage burst).
  std::size_t fail_first_calls = 0;
  /// When > 0, batches with more rows than this are always rejected with
  /// a TransientOracleError — exercises the resilient layer's bisection.
  std::size_t max_batch_rows = 0;

  std::uint64_t seed = 0xFA17ULL;

  static FaultProfile none();
  /// 30% of calls fail transiently.
  static FaultProfile flaky();
  /// 25% of calls time out (each costing 50 ms of clock).
  static FaultProfile slow();
  /// 25% of responses come back with a wrong length.
  static FaultProfile garbled();
  /// The first 4 calls fail, then 10% transient failures.
  static FaultProfile outage();
  /// Batches above 3 rows are rejected; forces bisection on every round.
  static FaultProfile tiny_batches();
  /// Everything at once: transient + timeout + garble + small batch cap.
  static FaultProfile chaos();

  /// All non-trivial built-in profiles (everything above except none()) —
  /// the equivalence-matrix tests iterate over these.
  static std::vector<FaultProfile> builtin_profiles();
};

class FaultInjectingOracle final : public CountOracle {
 public:
  /// `clock` defaults to the shared SystemClock (timeouts then really
  /// cost wall time); tests pass a FakeClock.
  FaultInjectingOracle(CountOracle& inner, FaultProfile profile,
                       Clock* clock = nullptr);

  std::vector<int> label_counts(const math::Matrix& counts) override;

  struct InjectedCounts {
    std::size_t calls = 0;
    std::size_t outage = 0;
    std::size_t oversized = 0;
    std::size_t timeouts = 0;
    std::size_t transient = 0;
    std::size_t garbled = 0;
    std::size_t faults() const noexcept {
      return outage + oversized + timeouts + transient + garbled;
    }
  };
  const InjectedCounts& injected() const noexcept { return injected_; }
  const FaultProfile& profile() const noexcept { return profile_; }

 private:
  CountOracle* inner_;
  FaultProfile profile_;
  Clock* clock_;
  math::Rng rng_;
  InjectedCounts injected_;
};

}  // namespace mev::runtime
