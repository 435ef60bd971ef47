// Implements the paper's proposed Fig. 2 framework end to end (the paper
// leaves the real-world black-box test as future work): a label-only
// oracle, Jacobian-augmented substitute training, then JSMA transfer —
// including an ablation of substitute depth vs transfer rate (DESIGN.md §5).
//
// Expected shape: substitute/oracle agreement rises over augmentation
// rounds; black-box transfer evades the target, but less effectively than
// grey-box (which is itself weaker than white-box).
//
//   ./bench_fig2_blackbox [tiny|fast|full]
#include <iostream>

#include "attack/jsma.hpp"
#include "bench_common.hpp"
#include "core/blackbox.hpp"
#include "core/greybox.hpp"
#include "eval/report.hpp"

using namespace mev;

namespace {

struct BlackBoxOutcome {
  std::size_t queries = 0;
  double final_agreement = 0.0;
  double target_detection = 0.0;
};

BlackBoxOutcome attack_with_architecture(bench::Environment& env,
                                         const nn::MlpConfig& arch,
                                         bool print_rounds) {
  core::DetectorOracle oracle(env.detector());

  // The attacker's small seed set, from an independently seeded generator.
  data::GenerativeConfig attacker_gen_cfg;
  attacker_gen_cfg.seed = env.config.seed ^ 0xB1ACBBC5ULL;
  const data::GenerativeModel attacker_gen(data::ApiVocab::instance(),
                                           attacker_gen_cfg);
  math::Rng rng(env.config.seed + 77);
  const std::size_t seed_n =
      env.config.scale == core::ExperimentScale::kTiny ? 40 : 160;
  const data::CountDataset seed =
      attacker_gen.generate_dataset(seed_n / 2, seed_n / 2, rng);

  core::BlackBoxConfig cfg;
  cfg.substitute_architecture = arch;
  cfg.training_per_round = env.config.substitute_training();
  cfg.training_per_round.epochs =
      std::max<std::size_t>(5, cfg.training_per_round.epochs / 2);
  const auto result = core::run_blackbox_framework(oracle, seed.counts, cfg);

  if (print_rounds) {
    eval::Table t("Fig. 2 framework: substitute training rounds");
    t.header({"round", "dataset rows", "cumulative queries",
              "agreement with oracle"});
    for (std::size_t r = 0; r < result.rounds.size(); ++r)
      t.row({std::to_string(r), std::to_string(result.rounds[r].dataset_rows),
             std::to_string(result.rounds[r].oracle_queries),
             eval::Table::fmt(result.rounds[r].oracle_agreement)});
    std::cout << t.render() << "\n";
  }

  // Craft on the substitute in the attacker's feature space; realize as
  // integer counts; deploy through the target's full pipeline.
  attack::JsmaConfig jsma_cfg;
  jsma_cfg.theta = 0.1f;
  jsma_cfg.gamma = 0.025f;
  const attack::Jsma jsma(jsma_cfg);
  const math::Matrix attacker_features =
      result.attacker_transform.apply(env.malware_counts);
  const auto crafted = jsma.craft(*result.substitute, attacker_features);
  // Delta-based realization keeps the attack add-only: full-vector
  // inversion would silently REDUCE counts wherever the attacker's
  // transform clipped a drifted feature at 1.
  const math::Matrix additions = core::additions_from_count_perturbation(
      result.attacker_transform, attacker_features, crafted.adversarial);
  math::Matrix adv_counts = env.malware_counts;
  adv_counts += additions;
  nn::InferenceSession session = env.detector().make_session();
  const auto verdicts = env.detector().scan_counts(session, adv_counts);
  std::size_t detected = 0;
  for (const auto& v : verdicts) detected += v.is_malware() ? 1 : 0;

  BlackBoxOutcome outcome;
  outcome.queries = result.total_queries;
  outcome.final_agreement = result.rounds.back().oracle_agreement;
  outcome.target_detection =
      static_cast<double>(detected) / static_cast<double>(verdicts.size());
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  auto env = bench::make_environment(bench::parse_scale(argc, argv));
  const auto cm = bench::baseline_confusion(env);
  std::cout << "Fig. 2 — black-box attack framework\n"
            << "target baseline: TPR=" << eval::Table::fmt(cm.tpr())
            << " TNR=" << eval::Table::fmt(cm.tnr()) << "\n\n";

  std::cerr << "# running the framework with the Table IV substitute...\n";
  const auto main_outcome = attack_with_architecture(
      env, env.config.substitute_architecture(data::kNumApiFeatures), true);

  eval::Table t("Black-box attack result (theta=0.1, gamma=0.025)");
  t.header({"metric", "value"});
  t.row({"oracle queries", std::to_string(main_outcome.queries)});
  t.row({"final substitute/oracle agreement",
         eval::Table::fmt(main_outcome.final_agreement)});
  t.row({"target detection on black-box advex",
         eval::Table::fmt(main_outcome.target_detection)});
  t.row({"transfer (evasion) rate",
         eval::Table::fmt(1.0 - main_outcome.target_detection)});
  std::cout << t.render() << "\n";

  // Ablation: substitute depth vs transfer.
  std::cerr << "# ablation: substitute depth...\n";
  eval::Table ab("Ablation: substitute architecture vs black-box transfer");
  ab.header({"architecture", "agreement", "target detection", "transfer"});
  const std::size_t base_width =
      env.config.scale == core::ExperimentScale::kTiny ? 48 : 192;
  const std::vector<std::vector<std::size_t>> architectures = {
      {data::kNumApiFeatures, base_width, 2},
      {data::kNumApiFeatures, base_width, base_width, 2},
      {data::kNumApiFeatures, base_width, base_width + base_width / 4,
       base_width, 2},
  };
  for (const auto& dims : architectures) {
    nn::MlpConfig arch;
    arch.dims = dims;
    arch.seed = env.config.seed ^ 0xAB1A;
    const auto outcome = attack_with_architecture(env, arch, false);
    std::string name;
    for (std::size_t i = 0; i < dims.size(); ++i) {
      if (i) name += '-';
      name += std::to_string(dims[i]);
    }
    ab.row({name, eval::Table::fmt(outcome.final_agreement),
            eval::Table::fmt(outcome.target_detection),
            eval::Table::fmt(1.0 - outcome.target_detection)});
  }
  std::cout << ab.render();
  return 0;
}
