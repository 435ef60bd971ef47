#include "runtime/fault_injection.hpp"

#include <string>

namespace mev::runtime {

namespace {

/// Clock time an injected timeout costs before it throws.
constexpr std::uint64_t kTimeoutCostMs = 50;

}  // namespace

FaultProfile FaultProfile::none() { return FaultProfile{}; }

FaultProfile FaultProfile::flaky() {
  FaultProfile p;
  p.name = "flaky";
  p.transient_rate = 0.3;
  return p;
}

FaultProfile FaultProfile::slow() {
  FaultProfile p;
  p.name = "slow";
  p.timeout_rate = 0.25;
  return p;
}

FaultProfile FaultProfile::garbled() {
  FaultProfile p;
  p.name = "garbled";
  p.garble_rate = 0.25;
  return p;
}

FaultProfile FaultProfile::outage() {
  FaultProfile p;
  p.name = "outage";
  p.fail_first_calls = 4;
  p.transient_rate = 0.1;
  return p;
}

FaultProfile FaultProfile::tiny_batches() {
  FaultProfile p;
  p.name = "tiny_batches";
  p.max_batch_rows = 3;
  return p;
}

FaultProfile FaultProfile::chaos() {
  FaultProfile p;
  p.name = "chaos";
  p.transient_rate = 0.15;
  p.timeout_rate = 0.1;
  p.garble_rate = 0.1;
  p.max_batch_rows = 64;
  return p;
}

std::vector<FaultProfile> FaultProfile::builtin_profiles() {
  return {flaky(), slow(), garbled(), outage(), tiny_batches(), chaos()};
}

FaultInjectingOracle::FaultInjectingOracle(CountOracle& inner,
                                           FaultProfile profile, Clock* clock)
    : inner_(&inner),
      profile_(std::move(profile)),
      clock_(clock != nullptr ? clock : &SystemClock::instance()),
      rng_(profile_.seed) {}

std::vector<int> FaultInjectingOracle::label_counts(
    const math::Matrix& counts) {
  const std::size_t call = ++injected_.calls;
  // A fixed number of draws per call keeps the fault sequence aligned with
  // the call sequence regardless of which branch fires.
  const double u_timeout = rng_.uniform();
  const double u_transient = rng_.uniform();
  const double u_garble = rng_.uniform();

  if (call <= profile_.fail_first_calls) {
    ++injected_.outage;
    throw TransientOracleError("fault injection [" + profile_.name +
                               "]: outage (call " + std::to_string(call) +
                               " of first " +
                               std::to_string(profile_.fail_first_calls) +
                               ")");
  }
  if (profile_.max_batch_rows > 0 && counts.rows() > profile_.max_batch_rows) {
    ++injected_.oversized;
    throw TransientOracleError(
        "fault injection [" + profile_.name + "]: batch of " +
        std::to_string(counts.rows()) + " rows exceeds oracle cap of " +
        std::to_string(profile_.max_batch_rows));
  }
  if (u_timeout < profile_.timeout_rate) {
    ++injected_.timeouts;
    clock_->sleep_ms(kTimeoutCostMs);
    throw OracleTimeoutError("fault injection [" + profile_.name +
                             "]: timeout after " +
                             std::to_string(kTimeoutCostMs) + " ms");
  }
  if (u_transient < profile_.transient_rate) {
    ++injected_.transient;
    throw TransientOracleError("fault injection [" + profile_.name +
                               "]: transient failure");
  }

  std::vector<int> labels = inner_->label_counts(counts);
  record_queries(counts.rows());
  if (u_garble < profile_.garble_rate && !labels.empty()) {
    ++injected_.garbled;
    labels.pop_back();  // truncated response: length no longer matches
  }
  return labels;
}

}  // namespace mev::runtime
