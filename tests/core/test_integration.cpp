// End-to-end integration tests at tiny scale: the full paper pipeline from
// synthetic logs to attacks and defenses.
#include <gtest/gtest.h>

#include <cmath>

#include "attack/jsma.hpp"
#include "attack/random_attack.hpp"
#include "attack/source_attack.hpp"
#include "core/detector.hpp"
#include "core/experiment_config.hpp"
#include "core/greybox.hpp"
#include "core/substitute.hpp"
#include "data/synthetic.hpp"
#include "defense/adversarial_training.hpp"
#include "defense/classifier.hpp"
#include "eval/metrics.hpp"

namespace mev {
namespace {

struct World {
  core::ExperimentConfig config = core::ExperimentConfig::tiny();
  const data::ApiVocab& vocab = data::ApiVocab::instance();
  data::GenerativeModel generator{vocab, data::GenerativeConfig{}};
  data::DatasetBundle bundle;
  core::DetectorTrainingResult trained;
  math::Matrix malware_features;
  math::Matrix malware_counts;

  World() {
    math::Rng rng(config.seed);
    bundle = generator.generate_bundle(config.dataset_spec(), rng);
    trained = core::train_detector(bundle, config.target_architecture(),
                                   config.target_training(), vocab);
    const auto rows = bundle.test.indices_of(data::kMalwareLabel);
    std::vector<std::size_t> sel(
        rows.begin(),
        rows.begin() + std::min<std::size_t>(rows.size(), 60));
    malware_features = trained.test_features.gather_rows(sel);
    malware_counts = bundle.test.counts.gather_rows(sel);
  }
};

World& world() {
  static World w;
  return w;
}

double detection_rate(const nn::Network& net, const math::Matrix& x) {
  nn::InferenceSession session(net);
  const auto preds = session.predict(x);
  return eval::detection_rate({preds.begin(), preds.end()});
}

TEST(Integration, WhiteBoxJsmaDefeatsDetector) {
  auto& w = world();
  auto& net = w.trained.detector->network();
  const double baseline = detection_rate(net, w.malware_features);
  attack::JsmaConfig cfg;
  cfg.theta = 1.0f;
  cfg.gamma = 0.05f;
  cfg.early_stop = false;
  const auto crafted = attack::Jsma(cfg).craft(net, w.malware_features);
  const double attacked = detection_rate(net, crafted.adversarial);
  EXPECT_GT(baseline, 0.7);
  EXPECT_LT(attacked, baseline - 0.4);
}

TEST(Integration, RandomAdditionIsHarmless) {
  // The paper's control: random additions with the same budget do not
  // meaningfully reduce detection.
  auto& w = world();
  auto& net = w.trained.detector->network();
  const double baseline = detection_rate(net, w.malware_features);
  attack::RandomAdditionConfig cfg;
  cfg.theta = 1.0f;
  cfg.gamma = 0.05f;
  const auto crafted =
      attack::RandomAddition(cfg).craft(net, w.malware_features);
  const double attacked = detection_rate(net, crafted.adversarial);
  EXPECT_GT(attacked, baseline - 0.15);
}

TEST(Integration, AdversarialTrainingRecoversDetection) {
  auto& w = world();
  auto& net = w.trained.detector->network();
  attack::JsmaConfig cfg;
  cfg.theta = 1.0f;
  cfg.gamma = 0.05f;
  cfg.early_stop = false;
  const auto crafted = attack::Jsma(cfg).craft(net, w.malware_features);
  const double before = detection_rate(net, crafted.adversarial);

  math::Rng rng(4242);
  const auto clean_pool = w.generator.generate_dataset(60, 0, rng);
  const math::Matrix clean_features =
      w.trained.detector->features_of_counts(clean_pool.counts);
  const auto set = defense::build_adversarial_training_set(
      w.trained.train_features, w.bundle.train.labels, crafted.adversarial,
      &clean_features);
  defense::AdversarialTrainingConfig at{w.config.target_architecture(),
                                        w.config.target_training()};
  auto hardened = defense::adversarial_training(set, at);
  const double after = detection_rate(*hardened, crafted.adversarial);
  EXPECT_GT(after, before + 0.3);
  // Malware detection must not collapse.
  EXPECT_GT(detection_rate(*hardened, w.malware_features), 0.6);
}

TEST(Integration, GreyBoxDeploymentIsRealizable) {
  // Crafted grey-box examples must correspond to integer count additions.
  auto& w = world();
  const auto attacker_data = [&] {
    math::Rng rng(777);
    const auto spec = w.config.dataset_spec();
    return w.generator.generate_dataset(spec.train_clean,
                                        spec.train_malware, rng);
  }();
  auto sub = core::train_substitute_exact_features(
      attacker_data, w.config, w.trained.detector->pipeline());
  const auto& transform = dynamic_cast<const features::CountTransform&>(
      sub.pipeline.transform());
  const auto map = core::make_greybox_count_map(
      transform, w.trained.detector->pipeline(), w.malware_counts);

  attack::JsmaConfig cfg;
  cfg.theta = 0.5f;
  cfg.gamma = 0.05f;
  cfg.early_stop = false;
  const math::Matrix craft = map.to_craft_space(w.malware_features);
  const auto crafted = attack::Jsma(cfg).craft(*sub.network, craft);
  const math::Matrix additions = core::additions_from_count_perturbation(
      transform, craft, crafted.adversarial);
  for (std::size_t i = 0; i < additions.size(); ++i) {
    EXPECT_GE(additions.data()[i], 0.0f);
    EXPECT_EQ(additions.data()[i], std::floor(additions.data()[i]));
  }
}

TEST(Integration, LiveTestThroughFullPipeline) {
  auto& w = world();
  math::Rng rng(31337);
  const data::ApiLog log =
      w.generator.generate_log(data::kMalwareLabel, "live.exe", rng);
  auto& net = w.trained.detector->network();
  const auto result = attack::run_live_test(
      net, net, w.trained.detector->pipeline(), log, 8);
  ASSERT_EQ(result.points.size(), 9u);
  // White-box selection: confidence at k=8 is no higher than at k=0.
  EXPECT_LE(result.points.back().malware_confidence,
            result.points.front().malware_confidence + 1e-6);
}

TEST(Integration, DetectorAgreesAcrossLogAndFeaturePaths) {
  auto& w = world();
  math::Rng rng(606);
  nn::InferenceSession session = w.trained.detector->make_session();
  for (int i = 0; i < 5; ++i) {
    const auto counts = w.generator.generate_counts(data::kMalwareLabel, rng);
    const data::ApiLog log =
        w.generator.log_from_counts(counts, "agree.exe", rng);
    const auto via_log = w.trained.detector->scan(session, log);
    math::Matrix m(1, counts.size());
    m.set_row(0, counts);
    const auto via_counts =
        w.trained.detector->scan_counts(session, m).front();
    EXPECT_EQ(via_log.predicted_class, via_counts.predicted_class);
  }
}

}  // namespace
}  // namespace mev
