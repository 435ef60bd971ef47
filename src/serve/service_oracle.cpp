#include "serve/service_oracle.hpp"

#include <string>

#include "runtime/oracle_error.hpp"

namespace mev::serve {

std::vector<int> ServiceOracle::label_counts(const math::Matrix& counts) {
  record_queries(counts.rows());
  SubmitOptions options;
  options.deadline_ms = deadline_ms_;

  // The service's one submit-and-wait: score() pumps the batch itself
  // when the service has no workers.
  const ScoreResult result = service_->score(counts, options);
  if (!result.ok()) {
    const std::string what =
        std::string("ServiceOracle: submission rejected: ") +
        to_string(result.rejected);
    if (result.rejected == RejectReason::kShuttingDown)
      throw runtime::PermanentOracleError(what);
    throw runtime::TransientOracleError(what);
  }
  std::vector<int> labels(result.verdicts.size());
  for (std::size_t i = 0; i < labels.size(); ++i)
    labels[i] = result.verdicts[i].predicted_class;
  return labels;
}

}  // namespace mev::serve
