// Reproduces Table V (the adversarial-training dataset) and Table VI
// (defense testing results): TPR/TNR of No Defense, Adversarial Training,
// Defensive Distillation (T=50), Feature Squeezing and Dimensionality
// Reduction (k=19) on the clean test set, the malware test set, and
// grey-box adversarial examples (theta=0.1, gamma=0.02).
//
// Expected shape (paper Table VI):
//   NoDefense:    advex TPR collapses (0.304) while malware TPR is 0.883;
//   AdvTraining:  advex TPR recovers (0.931) with TNR intact (0.995);
//   Distillation: advex TPR improves modestly, clean/malware degrade;
//   FeaSqueezing: advex detected ~0.554 but clean/malware rates degrade;
//   DimReduct:    advex & malware recover (0.913/0.914), TNR drops (0.674).
//
//   ./bench_table6_defense [tiny|fast|full]
#include <iostream>
#include <memory>

#include "attack/jsma.hpp"
#include "bench_common.hpp"
#include "core/greybox.hpp"
#include "core/substitute.hpp"
#include "defense/adversarial_training.hpp"
#include "defense/classifier.hpp"
#include "defense/dim_reduction.hpp"
#include "defense/distillation.hpp"
#include "defense/feature_squeezing.hpp"
#include "eval/report.hpp"
#include "features/transform.hpp"

using namespace mev;

namespace {

struct DefenseRow {
  std::string name;
  double clean_tnr = 0.0;
  double malware_tpr = 0.0;
  double advex_tpr = 0.0;
};

DefenseRow evaluate(defense::Classifier& clf, const math::Matrix& clean,
                    const math::Matrix& malware, const math::Matrix& advex) {
  DefenseRow row;
  row.name = clf.name();
  row.clean_tnr = 1.0 - eval::detection_rate(clf.classify(clean));
  row.malware_tpr = eval::detection_rate(clf.classify(malware));
  row.advex_tpr = eval::detection_rate(clf.classify(advex));
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  auto env = bench::make_environment(bench::parse_scale(argc, argv));

  // --- grey-box adversarial examples at the paper's defense operating
  //     point (theta=0.1, gamma=0.02) --------------------------------------
  std::cerr << "# training the substitute and crafting advex "
               "(theta=0.1, gamma=0.02)...\n";
  const data::CountDataset attacker_data = bench::attacker_dataset(env);
  auto sub =
      core::train_substitute_exact_features(attacker_data, env.config,
                                           env.detector().pipeline());
  const auto& attacker_transform = dynamic_cast<const features::CountTransform&>(
      sub.pipeline.transform());
  const auto map = core::make_greybox_count_map(
      attacker_transform, env.detector().pipeline(), env.malware_counts);

  attack::JsmaConfig jsma_cfg;
  jsma_cfg.theta = 0.1f;
  jsma_cfg.gamma = 0.02f;
  jsma_cfg.early_stop = false;  // full-strength advex, as in the sweeps
  const attack::Jsma jsma(jsma_cfg);
  const math::Matrix craft_inputs = map.to_craft_space(env.malware_features);
  const auto crafted = jsma.craft(*sub.network, craft_inputs);
  const math::Matrix advex_all = map.to_target_space(crafted.adversarial);

  // Train/eval split of the advex pool (the paper holds most advex out for
  // testing: Table V trains on a subset, Table VI tests on 16218).
  const std::size_t n_adv_train = advex_all.rows() * 2 / 5;
  const math::Matrix advex_train = advex_all.slice_rows(0, n_adv_train);
  const math::Matrix advex_eval =
      advex_all.slice_rows(n_adv_train, advex_all.rows());

  // --- defended classifiers ----------------------------------------------
  std::vector<std::unique_ptr<defense::Classifier>> defenses;
  defenses.push_back(std::make_unique<defense::NetworkClassifier>(
      env.detector().network_ptr(), "No Defense"));

  std::cerr << "# adversarial training...\n";
  math::Rng clean_rng(env.config.seed + 7002);
  const data::CountDataset clean_pool =
      env.generator.generate_dataset(advex_train.rows(), 0, clean_rng);
  const math::Matrix clean_pool_features =
      env.detector().features_of_counts(clean_pool.counts);
  const auto adv_set = defense::build_adversarial_training_set(
      env.trained.train_features, env.bundle.train.labels, advex_train,
      &clean_pool_features);
  defense::AdversarialTrainingConfig at_cfg{env.config.target_architecture(),
                                            env.config.target_training()};
  auto adv_net = defense::adversarial_training(adv_set, at_cfg);
  defenses.push_back(
      std::make_unique<defense::NetworkClassifier>(adv_net, "AdvTraining"));

  // Table V.
  eval::Table t5("TABLE V: ADVERSARIAL TRAINING DATASET");
  t5.header({"Dataset", "composition"});
  t5.row({"Training Set",
          std::to_string(adv_set.stats.total()) + " (" +
              std::to_string(adv_set.stats.clean) + " clean, " +
              std::to_string(adv_set.stats.malware) + " malware, " +
              std::to_string(adv_set.stats.adversarial) + " advEx; " +
              std::to_string(adv_set.stats.duplicates_removed) +
              " duplicates removed)"});
  t5.row({"Test Set (advEx held out)", std::to_string(advex_eval.rows())});
  std::cout << t5.render() << "\n";

  std::cerr << "# defensive distillation (T=50)...\n";
  defense::DistillationConfig dist_cfg;
  dist_cfg.teacher_architecture = env.config.target_architecture();
  dist_cfg.teacher_architecture.seed ^= 0x1111;
  dist_cfg.student_architecture = env.config.target_architecture();
  dist_cfg.student_architecture.seed ^= 0x2222;
  dist_cfg.temperature = 50.0f;
  dist_cfg.teacher_training = env.config.target_training();
  dist_cfg.student_training = env.config.target_training();
  nn::LabeledData train_data{env.trained.train_features,
                             env.bundle.train.labels};
  auto distilled = defense::defensive_distillation(train_data, dist_cfg);
  defenses.push_back(std::make_unique<defense::NetworkClassifier>(
      distilled.student, "Distillation"));

  std::cerr << "# feature squeezing...\n";
  const double threshold = defense::FeatureSqueezing::calibrate_threshold(
      env.target_network(), env.trained.train_features, /*percentile=*/90.0);
  defenses.push_back(std::make_unique<defense::FeatureSqueezing>(
      env.detector().network_ptr(), threshold));

  std::cerr << "# dimensionality reduction (k=19)...\n";
  defense::DimReductionConfig dr_cfg;
  dr_cfg.k = 19;
  dr_cfg.training = env.config.target_training();
  auto dim_reduct = defense::train_dim_reduction_defense(train_data, dr_cfg);
  defenses.push_back(std::move(dim_reduct));

  // --- Table VI ------------------------------------------------------------
  const math::Matrix& clean = env.clean_features;
  // All malware test rows (not only the attacked subset).
  const auto malware_rows = env.bundle.test.indices_of(data::kMalwareLabel);
  const math::Matrix malware =
      env.trained.test_features.gather_rows(malware_rows);

  eval::Table t6("TABLE VI: DEFENSE TESTING RESULTS (TPR / TNR)");
  t6.header({"Defense", "Dataset Name", "TPR", "TNR"});
  const struct {
    const char* label;
    double DefenseRow::*value;
    bool is_tpr;
  } rows[] = {
      {"Clean Test", &DefenseRow::clean_tnr, false},
      {"Malware Test", &DefenseRow::malware_tpr, true},
      {"AdvExamples", &DefenseRow::advex_tpr, true},
  };
  for (auto& clf : defenses) {
    const DefenseRow r = evaluate(*clf, clean, malware, advex_eval);
    for (const auto& spec : rows) {
      t6.row({r.name, spec.label,
              spec.is_tpr ? eval::Table::fmt(r.*(spec.value)) : "nan",
              spec.is_tpr ? "nan" : eval::Table::fmt(r.*(spec.value))});
    }
    t6.separator();
  }
  std::cout << t6.render();

  std::cout <<
      "\npaper Table VI for comparison:\n"
      "  NoDefense:    clean TNR 0.964 | malware TPR 0.883 | advex TPR 0.304\n"
      "  AdvTraining:  clean TNR 0.995 | malware TPR 0.888 | advex TPR 0.931\n"
      "  Distillation: clean TNR 0.428 | malware TPR 0.573 | advex TPR 0.577\n"
      "  FeaSqueezing: clean TNR 0.586 | malware     0.438 | advex TPR 0.554\n"
      "  DimReduct:    clean TNR 0.674 | malware TPR 0.914 | advex TPR 0.913\n";
  return 0;
}
