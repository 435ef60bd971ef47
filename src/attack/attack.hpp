// What an evasion attack returns.
//
// An attack perturbs normalized feature vectors (rows in [0,1]) of malware
// samples so a model classifies them as clean. All attacks in this library
// are ADD-ONLY: feature values may only increase, mirroring the paper's
// functionality-preserving constraint ("only API calls are added and not
// deleting any existing features", §II-B.1). Each attack (Jsma,
// RandomAddition) crafts against a strictly read-only model: it runs its
// own InferenceSession(s), so several attacks may share one network
// concurrently.
#pragma once

#include <vector>

#include "math/matrix.hpp"

namespace mev::attack {

/// Crafting output for a batch of samples.
struct AttackResult {
  math::Matrix adversarial;            // same shape as the input batch
  std::vector<bool> evaded;            // per sample: craft model fooled?
  std::vector<std::size_t> features_changed;  // per sample: #perturbed dims
  std::vector<double> l2_perturbation;        // per sample: ||adv - x||_2

  std::size_t size() const noexcept { return evaded.size(); }

  /// Fraction of samples that evade the CRAFT model (attack success rate).
  double success_rate() const noexcept;

  /// Mean number of perturbed features per sample.
  double mean_features_changed() const noexcept;

  /// Mean L2 perturbation per sample.
  double mean_l2() const noexcept;
};

}  // namespace mev::attack
