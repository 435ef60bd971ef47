#include "defense/distillation.hpp"

#include <stdexcept>

#include "nn/session.hpp"

namespace mev::defense {

DistillationResult defensive_distillation(const nn::LabeledData& train_data,
                                          const DistillationConfig& config) {
  if (config.temperature < 1.0f)
    throw std::invalid_argument(
        "defensive_distillation: temperature must be >= 1");

  DistillationResult result;

  // 1. Teacher, trained with the temperature in its loss.
  result.teacher =
      std::make_shared<nn::Network>(nn::make_mlp(config.teacher_architecture));
  nn::TrainConfig teacher_cfg = config.teacher_training;
  teacher_cfg.temperature = config.temperature;
  nn::train(*result.teacher, train_data, teacher_cfg);

  // 2. Soft labels at temperature T.
  nn::InferenceSession teacher_session(*result.teacher, train_data.x.rows());
  const math::Matrix& soft_labels =
      teacher_session.predict_proba(train_data.x, config.temperature);

  // 3. Student trained on soft labels at temperature T. The softmax-CE
  //    gradient carries a 1/T factor, so the learning rate is scaled by T
  //    to keep the effective step size temperature-independent (the
  //    standard gradient compensation in distillation).
  result.student =
      std::make_shared<nn::Network>(nn::make_mlp(config.student_architecture));
  nn::TrainConfig student_cfg = config.student_training;
  student_cfg.temperature = config.temperature;
  student_cfg.learning_rate *= config.temperature;
  nn::train_soft(*result.student, train_data.x, soft_labels, student_cfg);

  // 4. Deployment at T = 1 is the caller's default:
  //    InferenceSession::predict and predict_proba use temperature 1
  //    unless told otherwise.
  return result;
}

}  // namespace mev::defense
