// Reproduces Fig. 3: security-evaluation curves for the WHITE-BOX attack.
//  (a) theta = 0.1, gamma in [0 : 0.005 : 0.030]  (adding 0..~14 features)
//  (b) gamma = 0.025, theta in [0 : 0.0125 : 0.15]
// plus the paper's control: randomly adding the same feature budget does
// not decrease the detection rate.
//
// Expected shape (paper): detection drops sharply as gamma or theta grows
// (to 0.099 at theta=0.1, gamma=0.025 on their model); random stays flat.
//
//   ./bench_fig3_whitebox [tiny|fast|full]
#include <iostream>

#include "attack/random_attack.hpp"
#include "bench_common.hpp"
#include "core/security_eval.hpp"
#include "eval/report.hpp"

using namespace mev;

namespace {

eval::SecurityCurve random_baseline_curve(bench::Environment& env,
                                          const core::SweepConfig& sweep) {
  eval::SecurityCurve curve;
  curve.name = "random addition (control)";
  curve.parameter =
      sweep.parameter == core::SweepParameter::kGamma ? "gamma" : "theta";
  nn::InferenceSession session = env.detector().make_session();
  for (double value : sweep.grid) {
    attack::RandomAdditionConfig cfg;
    cfg.seed = env.config.seed + 17;
    if (sweep.parameter == core::SweepParameter::kGamma) {
      cfg.gamma = static_cast<float>(value);
      cfg.theta = static_cast<float>(sweep.fixed_theta);
    } else {
      cfg.theta = static_cast<float>(value);
      cfg.gamma = static_cast<float>(sweep.fixed_gamma);
    }
    const attack::RandomAddition random_attack(cfg);
    const auto crafted =
        random_attack.craft(env.target_network(), env.malware_features);
    const auto preds = session.predict(crafted.adversarial);
    eval::CurvePoint point;
    point.attack_strength = value;
    point.detection_rate = eval::detection_rate({preds.begin(), preds.end()});
    point.mean_l2 = crafted.mean_l2();
    point.mean_features = crafted.mean_features_changed();
    curve.points.push_back(point);
  }
  return curve;
}

void run_panel(bench::Environment& env, const core::SweepConfig& sweep,
               const std::string& title) {
  std::cerr << "# sweeping " << title << "...\n";
  const auto result = core::run_security_sweep(
      env.target_network(), env.target_network(), env.malware_features,
      sweep);
  const auto random_curve = random_baseline_curve(env, sweep);
  std::cout << "\n--- " << title << " ---\n";
  eval::SecurityCurve jsma_curve = result.target_curve;
  jsma_curve.name = "JSMA white-box";
  std::cout << eval::render_curves({jsma_curve, random_curve});
}

}  // namespace

int main(int argc, char** argv) {
  auto env = bench::make_environment(bench::parse_scale(argc, argv));
  const auto cm = bench::baseline_confusion(env);
  std::cout << "Fig. 3 — white-box JSMA security evaluation\n"
            << "baseline (no attack): TPR=" << eval::Table::fmt(cm.tpr())
            << " TNR=" << eval::Table::fmt(cm.tnr()) << " on "
            << env.malware_features.rows() << " attacked malware samples\n";

  run_panel(env, core::SweepConfig::fig3a(),
            "Fig. 3(a): theta=0.100, sweep gamma");
  run_panel(env, core::SweepConfig::fig3b(),
            "Fig. 3(b): gamma=0.025, sweep theta");

  // The paper's headline operating point.
  core::SweepConfig op;
  op.parameter = core::SweepParameter::kGamma;
  op.grid = {0.025};
  op.fixed_theta = 0.1;
  const auto headline = core::run_security_sweep(
      env.target_network(), env.target_network(), env.malware_features, op);
  const double det = headline.target_curve.points[0].detection_rate;
  std::cout << "\noperating point theta=0.1, gamma=0.025: detection rate = "
            << eval::Table::fmt(det) << " (paper: 0.099), i.e. "
            << eval::Table::fmt(100.0 * (1.0 - det), 1)
            << "% of attacked malware evades\n";
  return 0;
}
