// Fig. 1 reproduction: craft one adversarial malware example with add-only
// JSMA and print which API calls were added, with before/after confidence.
//
//   ./craft_adversarial [tiny|fast|full]
#include <iostream>

#include "attack/jsma.hpp"
#include "core/detector.hpp"
#include "core/experiment_config.hpp"
#include "data/api_vocab.hpp"
#include "data/synthetic.hpp"

using namespace mev;

int main(int argc, char** argv) {
  const auto config =
      core::ExperimentConfig::from_name(argc > 1 ? argv[1] : "tiny");
  const auto& vocab = data::ApiVocab::instance();
  const data::GenerativeModel generator(vocab, data::GenerativeConfig{});
  math::Rng rng(config.seed);

  std::cout << "training the white-box target detector...\n";
  const data::DatasetBundle bundle =
      generator.generate_bundle(config.dataset_spec(), rng);
  auto trained = core::train_detector(bundle, config.target_architecture(),
                                      config.target_training(), vocab);
  const core::MalwareDetector& detector = *trained.detector;
  nn::InferenceSession session = detector.make_session();

  // Fig. 1 shows a malware sample evading after TWO added API calls; find
  // a detected test sample for which the 2-feature JSMA budget suffices
  // (samples deep inside the malware region need a larger budget).
  attack::JsmaConfig jsma_cfg;
  jsma_cfg.theta = 1.0f;   // an added API call saturates its feature
  jsma_cfg.gamma = 0.005f; // budget: 2 features, like Fig. 1
  jsma_cfg.target_class = data::kCleanLabel;
  const attack::Jsma jsma(jsma_cfg);

  const auto malware_rows = bundle.test.indices_of(data::kMalwareLabel);
  math::Matrix x;
  core::Verdict before;
  attack::AttackResult crafted;
  for (std::size_t row : malware_rows) {
    math::Matrix candidate(1, trained.test_features.cols());
    candidate.set_row(0, trained.test_features.row(row));
    const auto verdict = detector.scan_features(session, candidate).front();
    if (!verdict.is_malware() || verdict.malware_confidence < 0.8) continue;
    attack::AttackResult attempt = jsma.craft(detector.network(), candidate);
    const bool evaded = attempt.evaded[0];
    x = std::move(candidate);
    before = verdict;
    crafted = std::move(attempt);
    if (evaded) break;  // keep the last attempt otherwise
  }
  if (x.empty()) {
    std::cerr << "no confidently-detected malware sample found\n";
    return 1;
  }
  std::cout << "original sample: P(malware) = " << before.malware_confidence
            << " -> detected as MALWARE\n";

  const auto after =
      detector.scan_features(session, crafted.adversarial).front();
  std::cout << "adversarial sample: P(malware) = " << after.malware_confidence
            << (after.is_malware() ? " -> still detected\n"
                                   : " -> EVADED (classified clean)\n");

  std::cout << "added API calls (features increased by JSMA):\n";
  for (std::size_t j = 0; j < x.cols(); ++j) {
    const float delta = crafted.adversarial(0, j) - x(0, j);
    if (delta > 0.0f)
      std::cout << "  + " << vocab.name(j) << "  (feature " << j
                << ", delta " << delta << ")\n";
  }
  std::cout << "perturbed features: " << crafted.features_changed[0]
            << ", L2 perturbation: " << crafted.l2_perturbation[0] << "\n";
  return 0;
}
