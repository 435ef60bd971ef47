#include "attack/source_attack.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "data/synthetic.hpp"
#include "features/transform.hpp"
#include "nn/session.hpp"
#include "nn/trainer.hpp"

namespace mev::attack {
namespace {

struct Fixture {
  const data::ApiVocab& vocab = data::ApiVocab::instance();
  data::GenerativeModel generator{vocab, data::GenerativeConfig{}};
  std::unique_ptr<features::FeaturePipeline> pipeline;
  nn::Network net;
  data::ApiLog malware_log;

  Fixture() {
    math::Rng rng(31);
    const data::CountDataset train = generator.generate_dataset(150, 150, rng);
    auto transform = std::make_unique<features::CountTransform>();
    transform->fit(train.counts);
    pipeline = std::make_unique<features::FeaturePipeline>(
        vocab, std::move(transform));

    nn::MlpConfig cfg;
    cfg.dims = {vocab.size(), 32, 2};
    cfg.seed = 32;
    net = nn::make_mlp(cfg);
    nn::LabeledData data{pipeline->features_from_counts(train.counts),
                         train.labels};
    nn::TrainConfig tc;
    tc.epochs = 15;
    nn::train(net, data, tc);

    malware_log = generator.generate_log(data::kMalwareLabel, "m.exe", rng);
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

TEST(SourceAttack, PerCallDeltaIsNonNegative) {
  auto& f = fixture();
  const auto counts = f.pipeline->extractor().extract(f.malware_log);
  const auto delta = per_call_feature_delta(*f.pipeline, counts);
  ASSERT_EQ(delta.size(), f.vocab.size());
  for (float d : delta) EXPECT_GE(d, 0.0f);
}

TEST(SourceAttack, PerCallDeltaMatchesSingleInsertion) {
  auto& f = fixture();
  const auto counts = f.pipeline->extractor().extract(f.malware_log);
  const auto delta = per_call_feature_delta(*f.pipeline, counts);
  // Verify against an actual single-API insertion for a few features.
  const auto base = f.pipeline->features_from_counts_row(counts);
  for (std::size_t j = 0; j < f.vocab.size(); j += 97) {
    auto bumped = counts;
    bumped[j] += 1.0f;
    const auto after = f.pipeline->features_from_counts_row(bumped);
    EXPECT_NEAR(after[j] - base[j], delta[j], 1e-6);
  }
}

TEST(SourceAttack, SelectApiValidation) {
  auto& f = fixture();
  const std::vector<float> feats(f.vocab.size(), 0.5f);
  const std::vector<float> bad_delta(3, 0.1f);
  EXPECT_THROW(select_api_to_add(f.net, feats, bad_delta),
               std::invalid_argument);
  // All features saturated: nothing admissible.
  const std::vector<float> saturated(f.vocab.size(), 1.0f);
  EXPECT_THROW(select_api_to_add(f.net, saturated), std::runtime_error);
}

TEST(SourceAttack, SelectApiReturnsGrowableFeature) {
  auto& f = fixture();
  const auto feats = f.pipeline->features_from_log(f.malware_log);
  const std::size_t j = select_api_to_add(f.net, feats);
  EXPECT_LT(j, f.vocab.size());
  EXPECT_LT(feats[j], 1.0f);
}

TEST(SourceAttack, LiveTestPointsCountAndStart) {
  auto& f = fixture();
  const auto result =
      run_live_test(f.net, f.net, *f.pipeline, f.malware_log, 8);
  ASSERT_EQ(result.points.size(), 9u);  // k = 0..8
  EXPECT_EQ(result.points.front().insertions, 0u);
  EXPECT_EQ(result.points.back().insertions, 8u);
  EXPECT_FALSE(result.api_name.empty());
  EXPECT_TRUE(f.vocab.contains(result.api_name));
}

TEST(SourceAttack, InsertionsNeverRaiseConfidenceWhenChosenWell) {
  auto& f = fixture();
  const auto result =
      run_live_test(f.net, f.net, *f.pipeline, f.malware_log, 8);
  // The white-box choice (craft == target) must not increase confidence at
  // full budget vs no insertion.
  EXPECT_LE(result.points.back().malware_confidence,
            result.points.front().malware_confidence + 1e-6);
}

TEST(SourceAttack, ZeroInsertionMatchesPlainScan) {
  auto& f = fixture();
  const auto result =
      run_live_test(f.net, *f.pipeline, f.malware_log, /*feature=*/3, 2);
  const auto feats = f.pipeline->features_from_log(f.malware_log);
  nn::InferenceSession session(f.net);
  const math::Matrix& probs =
      session.predict_proba(math::Matrix::row_vector(feats));
  EXPECT_NEAR(result.points[0].malware_confidence,
              probs(0, data::kMalwareLabel), 1e-6);
}

TEST(SourceAttack, FeatureIndexOutOfRangeThrows) {
  auto& f = fixture();
  EXPECT_THROW(
      run_live_test(f.net, *f.pipeline, f.malware_log, f.vocab.size(), 2),
      std::invalid_argument);
}

TEST(SourceAttack, InsertionsActuallyLandInLog) {
  auto& f = fixture();
  data::ApiLog log = f.malware_log;
  const std::string api = f.vocab.name(7);
  const std::size_t before = log.count_api(api);
  log.append_calls(api, 5);
  EXPECT_EQ(log.count_api(api), before + 5);
}

}  // namespace
}  // namespace mev::attack
