// ServiceOracle: the black-box CountOracle backed by a ScoringService
// instead of a privately-owned InferenceSession — so attacker queries ride
// the exact same admission/batching/hot-swap path as external traffic
// (the realistic deployment: the oracle IS the service, Rosenberg et al.
// 2017). Labels are bit-identical to core::DetectorOracle on the same
// model, so BlackBoxResult is unchanged (asserted by the equivalence
// test in tests/serve/).
//
// Service rejections surface as runtime::OracleError subclasses, which
// plugs the service's backpressure into the retry decorator: wrap a
// ServiceOracle in a runtime::ResilientOracle and queue-full or deadline
// rejections are retried with backoff like any transient oracle fault
// (ServiceOracle.DeadlineRejectionsAreRetriedByResilientOracle checks
// this).
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/oracle.hpp"
#include "serve/scoring_service.hpp"

namespace mev::serve {

class ServiceOracle final : public runtime::CountOracle {
 public:
  /// `service` must outlive the oracle. `deadline_ms` is forwarded as the
  /// per-submission deadline (0 = none).
  explicit ServiceOracle(ScoringService& service,
                         std::uint64_t deadline_ms = 0)
      : service_(&service), deadline_ms_(deadline_ms) {}

  /// Submits the rows and waits for the verdicts. Throws
  /// runtime::TransientOracleError on queue_full/deadline rejections
  /// (retryable: the service may drain) and runtime::PermanentOracleError
  /// when the service is shutting down.
  std::vector<int> label_counts(const math::Matrix& counts) override;

 private:
  ScoringService* service_;
  std::uint64_t deadline_ms_;
};

}  // namespace mev::serve
