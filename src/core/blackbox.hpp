// Black-box attack framework (paper Fig. 2, proposed as future work; built
// here following Papernot et al. 2017's practical black-box attack):
//
//   1. the attacker holds a small SEED set of its own samples (counts);
//   2. the TARGET detector is reachable only as a label oracle;
//   3. the attacker trains a substitute on oracle labels, then grows its
//      dataset by Jacobian-based augmentation: for each sample x, add
//      x' = clamp(x + lambda * sign(dF_y(x)/dx)) — points pushed toward
//      the substitute's decision boundary, where oracle labels are most
//      informative;
//   4. after the final round, JSMA on the substitute yields adversarial
//      examples that transfer to the target.
//
// Every feature-space point is REALIZED back into an integer API-count
// vector before querying the oracle (the attacker can only submit actual
// samples), via the attacker transform's inverse.
//
// The oracle interface lives in src/runtime/ together with the retry
// decorator for flaky oracles (backoff and bisection, see
// runtime/resilient_oracle.hpp). Pass a runtime::ResilientOracle here and
// the per-round stats pick up its retry counters. The run starts no
// server: a caller that wants the run scrapeable wraps it in an
// obs::AdminServer on the same tracer and registry.
#pragma once

#include <memory>
#include <vector>

#include "core/detector.hpp"
#include "data/dataset.hpp"
#include "features/pipeline.hpp"
#include "features/transform.hpp"
#include "nn/network.hpp"
#include "nn/trainer.hpp"
#include "runtime/oracle.hpp"
#include "runtime/resilient_oracle.hpp"

namespace mev::obs {
class Tracer;
class MetricsRegistry;
class Logger;
}  // namespace mev::obs

namespace mev::core {

/// The label-only oracle interface, re-exported from the runtime layer so
/// existing core-level oracles and call sites are unaffected by the move.
using runtime::CountOracle;

/// Wraps a MalwareDetector as the oracle. Each oracle owns its inference
/// session, so several oracles can query one shared detector concurrently.
class DetectorOracle final : public CountOracle {
 public:
  explicit DetectorOracle(const MalwareDetector& detector)
      : detector_(&detector), session_(detector.make_session()) {}
  std::vector<int> label_counts(const math::Matrix& counts) override;

 private:
  const MalwareDetector* detector_;
  nn::InferenceSession session_;
};

struct BlackBoxConfig {
  std::size_t augmentation_rounds = 4;
  nn::MlpConfig substitute_architecture;  // input dim must match vocab size
  nn::TrainConfig training_per_round;
  /// Stop augmenting when the dataset reaches this many rows. Must be at
  /// least the seed row count.
  std::size_t max_dataset_rows = 8192;

  /// Observability sinks (traces never affect the trajectory). Each round
  /// emits a mev.core.blackbox.round span with label/train/augment
  /// sub-spans, and the oracle query/retry/timeout counters are folded
  /// into the registry. nullptr = the ambient obs::current_tracer()/current_registry(); the
  /// resolved pair is also installed as the obs::Scope for the run, so
  /// nested trainer epochs and JSMA crafting land in the same trace.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  /// Structured log destination for round progress; nullptr =
  /// obs::default_logger().
  obs::Logger* logger = nullptr;
};

struct BlackBoxRoundStats {
  std::size_t dataset_rows = 0;
  std::size_t oracle_queries = 0;   // cumulative over this run
  double oracle_agreement = 0.0;    // substitute vs oracle on this round's set
  /// Retry counters, cumulative over this run, when the supplied
  /// oracle is a runtime::ResilientOracle; all-zero otherwise.
  runtime::ResilienceStats resilience;
  /// Wall-clock duration of this round's phases, in microseconds, read
  /// from the tracer's clock (deterministic under an injected FakeClock;
  /// real time otherwise). augment_us is 0 for the final round, which
  /// does not augment.
  std::uint64_t label_us = 0;
  std::uint64_t train_us = 0;
  std::uint64_t augment_us = 0;
};

struct BlackBoxResult {
  std::shared_ptr<nn::Network> substitute;
  features::CountTransform attacker_transform;  // fit on the seed counts
  std::vector<BlackBoxRoundStats> rounds;
  std::size_t total_queries = 0;
};

/// Inverts the attacker's count transform feature-wise, producing the
/// smallest integer count vector whose features dominate `features`.
/// Throws std::invalid_argument when the transform is unfitted or its
/// dimension does not match `features`.
math::Matrix realize_counts(const features::CountTransform& transform,
                            const math::Matrix& features);

/// Runs the Fig. 2 loop. `seed_counts` are the attacker's own samples
/// (labels unknown to the attacker; the oracle provides them).
BlackBoxResult run_blackbox_framework(CountOracle& oracle,
                                      const math::Matrix& seed_counts,
                                      const BlackBoxConfig& config);

}  // namespace mev::core
