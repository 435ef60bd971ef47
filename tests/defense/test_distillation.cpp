#include "defense/distillation.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "nn/session.hpp"

namespace mev::defense {
namespace {

nn::LabeledData blobs(std::size_t n, std::uint64_t seed) {
  math::Rng rng(seed);
  nn::LabeledData data;
  data.x = math::Matrix(n, 2);
  data.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int label = static_cast<int>(i % 2);
    data.x(i, 0) = static_cast<float>(label + 0.25 * rng.normal());
    data.x(i, 1) = static_cast<float>(label + 0.25 * rng.normal());
    data.labels[i] = label;
  }
  return data;
}

DistillationConfig config() {
  DistillationConfig cfg;
  cfg.teacher_architecture.dims = {2, 16, 2};
  cfg.teacher_architecture.seed = 1;
  cfg.student_architecture.dims = {2, 16, 2};
  cfg.student_architecture.seed = 2;
  cfg.temperature = 20.0f;
  cfg.teacher_training.epochs = 25;
  cfg.teacher_training.batch_size = 32;
  cfg.teacher_training.learning_rate = 0.01f;
  cfg.student_training.epochs = 25;
  cfg.student_training.batch_size = 32;
  return cfg;
}

TEST(Distillation, RejectsSubUnitTemperature) {
  auto cfg = config();
  cfg.temperature = 0.5f;
  EXPECT_THROW(defensive_distillation(blobs(32, 3), cfg),
               std::invalid_argument);
}

TEST(Distillation, StudentLearnsTheTask) {
  const auto data = blobs(300, 4);
  const auto result = defensive_distillation(data, config());
  ASSERT_NE(result.teacher, nullptr);
  ASSERT_NE(result.student, nullptr);
  EXPECT_GT(nn::accuracy(*result.student, data.x, data.labels), 0.9);
}

TEST(Distillation, StudentLogitsAreInflatedByTemperature) {
  // The defense mechanism: the student fits logits/T to the soft labels,
  // so its raw logits at T=1 deployment are inflated, saturating the
  // softmax and shrinking dF/dX where the softmax saturates.
  const auto data = blobs(300, 5);
  auto cfg = config();
  cfg.temperature = 50.0f;
  cfg.student_training.epochs = 60;
  const auto result = defensive_distillation(data, cfg);

  nn::Network plain = nn::make_mlp(cfg.teacher_architecture);
  nn::TrainConfig tc;
  tc.epochs = 60;
  tc.batch_size = 32;
  nn::train(plain, data, tc);

  const math::Matrix probe = data.x.slice_rows(0, 50);
  nn::InferenceSession student_session(*result.student);
  nn::InferenceSession plain_session(plain);
  const double student_scale = student_session.forward(probe).max_abs();
  const double plain_scale = plain_session.forward(probe).max_abs();
  EXPECT_GT(student_scale, plain_scale);
}

TEST(Distillation, TeacherAndStudentAgreeMostly) {
  const auto data = blobs(200, 6);
  const auto result = defensive_distillation(data, config());
  nn::InferenceSession teacher_session(*result.teacher);
  nn::InferenceSession student_session(*result.student);
  const auto teacher_preds = teacher_session.predict(data.x);
  const auto student_preds = student_session.predict(data.x);
  std::size_t agree = 0;
  for (std::size_t i = 0; i < teacher_preds.size(); ++i)
    if (teacher_preds[i] == student_preds[i]) ++agree;
  EXPECT_GT(static_cast<double>(agree) / teacher_preds.size(), 0.85);
}

}  // namespace
}  // namespace mev::defense
