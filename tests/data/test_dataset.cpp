#include "data/dataset.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace mev::data {
namespace {

TEST(DatasetSpec, PaperNumbersMatchTable1) {
  const DatasetSpec s = DatasetSpec::paper();
  EXPECT_EQ(s.train_total(), 57170u);
  EXPECT_EQ(s.train_clean, 28594u);
  EXPECT_EQ(s.train_malware, 28576u);
  EXPECT_EQ(s.val_total(), 578u);
  EXPECT_EQ(s.test_total(), 45028u);
  EXPECT_EQ(s.test_malware, 28874u);
}

TEST(DatasetSpec, ScaledPreservesProportionsRoughly) {
  const DatasetSpec s = DatasetSpec::scaled(0.1);
  EXPECT_NEAR(static_cast<double>(s.train_clean), 2859.4, 1.0);
  EXPECT_NEAR(static_cast<double>(s.test_malware), 2887.4, 1.0);
}

TEST(DatasetSpec, ScaledEnforcesMinimum) {
  const DatasetSpec s = DatasetSpec::scaled(0.0001, 16);
  EXPECT_GE(s.val_clean, 16u);
  EXPECT_GE(s.val_malware, 16u);
}

TEST(DatasetSpec, ScaledRejectsBadFactor) {
  EXPECT_THROW(DatasetSpec::scaled(0.0), std::invalid_argument);
  EXPECT_THROW(DatasetSpec::scaled(1.5), std::invalid_argument);
}

TEST(DatasetSpec, DescribeMentionsAllSplits) {
  const std::string text = describe(DatasetSpec::paper());
  EXPECT_NE(text.find("57170"), std::string::npos);
  EXPECT_NE(text.find("578"), std::string::npos);
  EXPECT_NE(text.find("45028"), std::string::npos);
}

CountDataset make_dataset() {
  CountDataset ds;
  ds.counts = math::Matrix{{1, 0}, {0, 2}, {3, 3}};
  ds.labels = {kCleanLabel, kMalwareLabel, kMalwareLabel};
  return ds;
}

TEST(CountDataset, CountLabel) {
  const CountDataset ds = make_dataset();
  EXPECT_EQ(ds.size(), 3u);
  EXPECT_EQ(ds.count_label(kCleanLabel), 1u);
  EXPECT_EQ(ds.count_label(kMalwareLabel), 2u);
}

TEST(CountDataset, IndicesOf) {
  const CountDataset ds = make_dataset();
  const auto idx = ds.indices_of(kMalwareLabel);
  ASSERT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx[0], 1u);
  EXPECT_EQ(idx[1], 2u);
}

TEST(Labels, ConventionMatchesPaper) {
  // Eq. 1: i = 0 is clean, i = 1 is malware.
  EXPECT_EQ(kCleanLabel, 0);
  EXPECT_EQ(kMalwareLabel, 1);
}

}  // namespace
}  // namespace mev::data
