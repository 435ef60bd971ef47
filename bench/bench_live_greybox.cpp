// Reproduces the live grey-box test (§III-B, third experiment): the
// substitute model selects one API to add; that API is inserted into the
// malware sample's log k = 0..8 times; the target detector re-scans the
// modified log through the full pipeline each time.
//
// Expected shape (paper): P(malware) = 98.43% at k=0, drops to 88.88% at
// k=1, and to ~0% by k=8 — monotone decay to evasion.
//
//   ./bench_live_greybox [tiny|fast|full]
#include <iostream>

#include "attack/source_attack.hpp"
#include "bench_common.hpp"
#include "core/substitute.hpp"
#include "eval/report.hpp"

using namespace mev;

int main(int argc, char** argv) {
  auto env = bench::make_environment(bench::parse_scale(argc, argv));

  std::cerr << "# training the substitute (exact features)...\n";
  const data::CountDataset attacker_data = bench::attacker_dataset(env);
  auto sub =
      core::train_substitute_exact_features(attacker_data, env.config,
                                           env.detector().pipeline());

  // Find malware logs the target detects with high confidence, like the
  // sample handed to the paper's security researcher (98.43%).
  math::Rng rng(env.config.seed + 404);
  std::cout << "Live grey-box test: insert one substitute-chosen API call "
               "k times,\nre-run the full log->features->DNN pipeline "
               "(paper: 98.43% -> 88.88% at k=1 -> 0% at k=8)\n";

  nn::InferenceSession session = env.detector().make_session();
  std::size_t shown = 0;
  double best_confidence = 0.0;
  for (int attempt = 0; attempt < 600 && shown < 3; ++attempt) {
    const data::ApiLog log = env.generator.generate_log(
        data::kMalwareLabel, "sample_live_" + std::to_string(attempt) + ".exe",
        rng, /*drifted=*/true);
    const auto baseline = env.detector().scan(session, log);
    best_confidence = std::max(best_confidence, baseline.malware_confidence);
    if (!baseline.is_malware() || baseline.malware_confidence < 0.75) continue;

    attack::LiveTestResult live;
    try {
      live = attack::run_live_test(env.target_network(), *sub.network,
                                   env.detector().pipeline(), log,
                                   /*max_insertions=*/8);
    } catch (const std::exception& e) {
      std::cerr << "# skipping sample: " << e.what() << "\n";
      continue;
    }
    ++shown;

    eval::Table table("Sample " + log.sample_name + " — inserted API: '" +
                      live.api_name + "'");
    table.header({"insertions k", "P(malware)", "verdict"});
    for (const auto& p : live.points)
      table.row({std::to_string(p.insertions),
                 eval::Table::fmt(p.malware_confidence, 4),
                 p.predicted_class == data::kMalwareLabel ? "MALWARE"
                                                          : "clean (evaded)"});
    std::cout << "\n" << table.render();

    const double start = live.points.front().malware_confidence;
    const double end = live.points.back().malware_confidence;
    std::cout << "confidence decay: " << eval::Table::fmt(start, 4) << " -> "
              << eval::Table::fmt(end, 4) << " after 8 insertions"
              << (live.points.back().predicted_class == data::kCleanLabel
                      ? " (EVADED)"
                      : "")
              << "\n";
  }
  if (shown == 0) {
    std::cerr << "no suitable high-confidence malware sample found "
                 "(best confidence seen: "
              << best_confidence << ")\n";
    return 1;
  }
  return 0;
}
