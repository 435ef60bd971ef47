// Defensive distillation (§II-C.2, Papernot et al. 2016):
//  1. train a teacher at softmax temperature T on hard labels;
//  2. label the training set with the teacher's temperature-T soft
//     probabilities;
//  3. train a student (the deployed model) on the soft labels at the same
//     temperature T;
//  4. deploy the student at T = 1, which sharpens the softmax and shrinks
//     input gradients, raising the attacker's required distortion.
#pragma once

#include <memory>

#include "nn/network.hpp"
#include "nn/trainer.hpp"

namespace mev::defense {

struct DistillationConfig {
  nn::MlpConfig teacher_architecture;
  nn::MlpConfig student_architecture;
  float temperature = 50.0f;  // the paper evaluates T = 50
  nn::TrainConfig teacher_training;
  nn::TrainConfig student_training;
};

struct DistillationResult {
  std::shared_ptr<nn::Network> teacher;
  std::shared_ptr<nn::Network> student;  // the defended model (use at T=1)
};

/// Runs the full teacher -> soft labels -> student pipeline.
DistillationResult defensive_distillation(
    const nn::LabeledData& train_data, const DistillationConfig& config);

}  // namespace mev::defense
