// The label-only oracle interface of the black-box threat model (paper
// Fig. 2): the attacker can submit raw API-count rows and gets back hard
// 0/1 labels, nothing else.
//
// The interface lives in the runtime layer (below core) so that the
// resilience decorators — FaultInjectingOracle and ResilientOracle — can
// wrap any oracle without depending on the detector stack.
// core/blackbox.hpp re-exports it as mev::core::CountOracle.
//
// Threading: like nn::InferenceSession, an oracle instance is a
// per-thread object (the query counter is not atomic); share the
// underlying detector, not the oracle.
#pragma once

#include <cstddef>
#include <vector>

#include "math/matrix.hpp"

namespace mev::runtime {

/// A label-only view of the target system.
class CountOracle {
 public:
  virtual ~CountOracle() = default;

  /// Labels raw count rows (0 clean / 1 malware). Each call counts
  /// row-count queries. Implementations signal failure by throwing —
  /// OracleError subclasses (runtime/oracle_error.hpp) classify the
  /// failure as transient or permanent for the retry layer.
  virtual std::vector<int> label_counts(const math::Matrix& counts) = 0;

  std::size_t queries() const noexcept { return queries_; }

 protected:
  void record_queries(std::size_t n) noexcept { queries_ += n; }

 private:
  std::size_t queries_ = 0;
};

}  // namespace mev::runtime
