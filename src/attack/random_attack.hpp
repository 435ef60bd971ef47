// Random-addition baseline: perturbs the same feature budget as JSMA but
// picks the features uniformly at random. The paper uses this control to
// show "randomly adding features does not decrease the detection rates"
// (§III-A) — i.e. JSMA's gradient guidance, not the perturbation mass,
// causes the evasion.
#pragma once

#include <cstdint>

#include "attack/attack.hpp"
#include "nn/network.hpp"

namespace mev::attack {

struct RandomAdditionConfig {
  float theta = 0.1f;
  float gamma = 0.025f;
  int target_class = 0;
  std::uint64_t seed = 99;
};

class RandomAddition {
 public:
  explicit RandomAddition(RandomAdditionConfig config);

  /// Crafts against `model` (read-only) with the same add-only budget
  /// JSMA would spend, on randomly chosen features.
  AttackResult craft(const nn::Network& model, const math::Matrix& x) const;

  const RandomAdditionConfig& config() const noexcept { return config_; }

 private:
  RandomAdditionConfig config_;
};

}  // namespace mev::attack
