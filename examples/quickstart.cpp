// Quickstart: train an ML malware detector on synthetic API logs, scan a
// malware and a clean sample, and print test-set metrics.
//
//   ./quickstart [tiny|fast|full]
#include <iostream>

#include "core/detector.hpp"
#include "core/experiment_config.hpp"
#include "data/api_vocab.hpp"
#include "data/synthetic.hpp"
#include "eval/metrics.hpp"
#include "eval/report.hpp"

using namespace mev;

int main(int argc, char** argv) {
  const auto config =
      core::ExperimentConfig::from_name(argc > 1 ? argv[1] : "tiny");
  const auto& vocab = data::ApiVocab::instance();

  // 1. Generate a Table I-proportioned synthetic corpus.
  std::cout << "[1/4] generating synthetic corpus ("
            << core::to_string(config.scale) << " scale)...\n";
  const data::GenerativeModel generator(vocab, data::GenerativeConfig{});
  math::Rng rng(config.seed);
  const data::DatasetBundle bundle =
      generator.generate_bundle(config.dataset_spec(), rng);
  std::cout << data::describe(config.dataset_spec()) << "\n";

  // 2. Train the detector (count transform + 4-layer DNN).
  std::cout << "[2/4] training the detector...\n";
  auto trained = core::train_detector(bundle, config.target_architecture(),
                                      config.target_training(), vocab);
  const core::MalwareDetector& detector = *trained.detector;
  nn::InferenceSession session = detector.make_session();

  // 3. Scan one malware log and one clean log end to end.
  std::cout << "[3/4] scanning two fresh samples...\n";
  const data::ApiLog malware_log =
      generator.generate_log(data::kMalwareLabel, "invoice_final.exe", rng);
  const data::ApiLog clean_log =
      generator.generate_log(data::kCleanLabel, "notepad_clone.exe", rng);
  const core::Verdict v_mal = detector.scan(session, malware_log);
  const core::Verdict v_clean = detector.scan(session, clean_log);
  std::cout << "  " << malware_log.sample_name << " ("
            << malware_log.calls.size() << " API calls): P(malware) = "
            << v_mal.malware_confidence
            << (v_mal.is_malware() ? "  -> MALWARE\n" : "  -> clean\n");
  std::cout << "  " << clean_log.sample_name << " ("
            << clean_log.calls.size() << " API calls): P(malware) = "
            << v_clean.malware_confidence
            << (v_clean.is_malware() ? "  -> MALWARE\n" : "  -> clean\n");

  // 4. Test-set confusion matrix.
  std::cout << "[4/4] evaluating on the drifted (VirusTotal-like) test set...\n";
  const auto verdicts = detector.scan_features(session, trained.test_features);
  std::vector<int> preds(verdicts.size());
  for (std::size_t i = 0; i < verdicts.size(); ++i)
    preds[i] = verdicts[i].predicted_class;
  const auto cm = eval::confusion(bundle.test.labels, preds);
  eval::Table table("Detector test metrics (no attack, no defense)");
  table.header({"metric", "value"});
  table.row({"TPR (malware detection rate)", eval::Table::fmt_or_nan(cm.tpr())});
  table.row({"TNR (clean pass rate)", eval::Table::fmt_or_nan(cm.tnr())});
  table.row({"accuracy", eval::Table::fmt_or_nan(cm.accuracy())});
  table.row({"F1", eval::Table::fmt_or_nan(cm.f1())});
  std::cout << table.render();
  return 0;
}
