#include "eval/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace mev::eval {
namespace {

TEST(Confusion, CountsAllQuadrants) {
  // labels:      1 1 0 0 1 0
  // predictions: 1 0 0 1 1 0
  const auto cm = confusion({1, 1, 0, 0, 1, 0}, {1, 0, 0, 1, 1, 0});
  EXPECT_EQ(cm.true_positive, 2u);
  EXPECT_EQ(cm.false_negative, 1u);
  EXPECT_EQ(cm.true_negative, 2u);
  EXPECT_EQ(cm.false_positive, 1u);
  EXPECT_EQ(cm.total(), 6u);
}

TEST(Confusion, Rates) {
  const auto cm = confusion({1, 1, 0, 0, 1, 0}, {1, 0, 0, 1, 1, 0});
  EXPECT_NEAR(cm.tpr(), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(cm.tnr(), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(cm.accuracy(), 4.0 / 6.0, 1e-9);
  EXPECT_NEAR(cm.precision(), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(cm.f1(), 2.0 / 3.0, 1e-9);
}

TEST(Confusion, NanForAbsentClassMatchesPaperTable6) {
  // A malware-only evaluation set has no negatives -> TNR is "nan".
  const auto cm = confusion({1, 1, 1}, {1, 0, 1});
  EXPECT_TRUE(std::isnan(cm.tnr()));
  EXPECT_NEAR(cm.tpr(), 2.0 / 3.0, 1e-9);

  const auto clean_only = confusion({0, 0}, {0, 1});
  EXPECT_TRUE(std::isnan(clean_only.tpr()));
  EXPECT_NEAR(clean_only.tnr(), 0.5, 1e-9);
}

TEST(Confusion, SizeMismatchThrows) {
  EXPECT_THROW(confusion({1}, {1, 0}), std::invalid_argument);
}

TEST(DetectionRate, Basics) {
  EXPECT_DOUBLE_EQ(detection_rate({1, 1, 0, 1}), 0.75);
  EXPECT_TRUE(std::isnan(detection_rate({})));
}

TEST(DetectionRate, AllDetectedAndNone) {
  EXPECT_DOUBLE_EQ(detection_rate({1, 1}), 1.0);
  EXPECT_DOUBLE_EQ(detection_rate({0, 0}), 0.0);
}

TEST(Confusion, PerfectClassifier) {
  const auto cm = confusion({1, 0, 1, 0}, {1, 0, 1, 0});
  EXPECT_DOUBLE_EQ(cm.accuracy(), 1.0);
  EXPECT_DOUBLE_EQ(cm.tpr(), 1.0);
  EXPECT_DOUBLE_EQ(cm.tnr(), 1.0);
  EXPECT_DOUBLE_EQ(cm.f1(), 1.0);
}

TEST(Confusion, F1NanWhenNoPositivesPredicted) {
  const auto cm = confusion({1, 1}, {0, 0});
  EXPECT_TRUE(std::isnan(cm.precision()));
  EXPECT_TRUE(std::isnan(cm.f1()));
}

}  // namespace
}  // namespace mev::eval
