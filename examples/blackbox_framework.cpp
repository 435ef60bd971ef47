// Fig. 2 framework: a black-box attacker with no knowledge of the target
// trains a substitute through a label-only oracle (Jacobian augmentation),
// then transfers JSMA adversarial examples to the target.
//
//   ./blackbox_framework [tiny|fast|full] [--trace out.json]
//                        [--metrics out.prom] [--serve] [--admin-port N]
//
//   --trace out.json   write a Chrome trace (per-round augment/label/train
//                      spans, trainer epochs, JSMA shards) — load it at
//                      https://ui.perfetto.dev or chrome://tracing
//   --metrics out.prom write a Prometheus text-format metrics snapshot
//                      (oracle query/cache/retry counters, trainer loss,
//                      serve latency histograms with --serve)
//   --serve            route oracle queries through the src/serve/
//                      ScoringService (same labels, realistic deployment)
//   --admin-port N     serve /metrics /varz /healthz /readyz /tracez live
//                      for the duration of the black-box run (0 =
//                      kernel-assigned; the bound port is printed)
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "attack/jsma.hpp"
#include "attack/transfer.hpp"
#include "core/blackbox.hpp"
#include "core/greybox.hpp"
#include "core/detector.hpp"
#include "core/experiment_config.hpp"
#include "data/api_vocab.hpp"
#include "data/synthetic.hpp"
#include "eval/report.hpp"
#include "obs/obs.hpp"
#include "serve/scoring_service.hpp"
#include "serve/service_oracle.hpp"

using namespace mev;

int main(int argc, char** argv) {
  std::string scale = "tiny", trace_path, metrics_path;
  bool use_serve = false, admin_enabled = false;
  int admin_port = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace" && i + 1 < argc) trace_path = argv[++i];
    else if (arg == "--metrics" && i + 1 < argc) metrics_path = argv[++i];
    else if (arg == "--serve") use_serve = true;
    else if (arg == "--admin-port" && i + 1 < argc) {
      admin_enabled = true;
      admin_port = std::atoi(argv[++i]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "usage: " << argv[0]
                << " [tiny|fast|full] [--trace out.json]"
                   " [--metrics out.prom] [--serve] [--admin-port N]\n";
      return 2;
    } else {
      scale = arg;
    }
  }

  const auto config = core::ExperimentConfig::from_name(scale);
  const auto& vocab = data::ApiVocab::instance();
  math::Rng rng(config.seed);

  // Observability sinks for the whole run: tracing only costs when a
  // --trace output was requested; the registry is always cheap to fill.
  obs::Tracer tracer(
      obs::TracerConfig{.ring_capacity = 1 << 16,
                        .clock = nullptr,
                        .enabled = !trace_path.empty()});
  obs::MetricsRegistry registry;
  obs::Scope obs_scope(&tracer, &registry);

  std::cout << "[1/3] training the (hidden) target detector...\n";
  const data::GenerativeModel generator(vocab, data::GenerativeConfig{});
  const data::DatasetBundle bundle =
      generator.generate_bundle(config.dataset_spec(), rng);
  auto trained = core::train_detector(bundle, config.target_architecture(),
                                      config.target_training(), vocab);

  // The oracle: direct detector access, or the scoring service in front of
  // the same model with --serve (labels are bit-identical either way).
  std::unique_ptr<serve::ScoringService> service;
  std::unique_ptr<runtime::CountOracle> oracle_holder;
  if (use_serve) {
    serve::ServiceConfig serve_cfg;
    serve_cfg.tracer = &tracer;
    serve_cfg.metrics = &registry;
    service = std::make_unique<serve::ScoringService>(
        trained.detector->pipeline(), trained.detector->network_ptr(),
        serve_cfg);
    oracle_holder = std::make_unique<serve::ServiceOracle>(*service);
  } else {
    oracle_holder = std::make_unique<core::DetectorOracle>(*trained.detector);
  }
  runtime::CountOracle& oracle = *oracle_holder;

  // The attacker's own seed samples: a small set drawn from a DIFFERENT
  // generator seed (different data, per the threat model).
  data::GenerativeConfig attacker_gen_cfg;
  attacker_gen_cfg.seed = config.seed ^ 0xA77AC4E2ULL;
  const data::GenerativeModel attacker_gen(vocab, attacker_gen_cfg);
  math::Rng attacker_rng(config.seed + 31337);
  const std::size_t seed_n =
      config.scale == core::ExperimentScale::kTiny ? 40 : 150;
  const data::CountDataset seed =
      attacker_gen.generate_dataset(seed_n / 2, seed_n / 2, attacker_rng);

  std::cout << "[2/3] black-box substitute training via the oracle...\n";
  core::BlackBoxConfig bb_cfg;
  bb_cfg.substitute_architecture =
      config.substitute_architecture(vocab.size());
  bb_cfg.training_per_round = config.substitute_training();
  bb_cfg.training_per_round.epochs =
      std::max<std::size_t>(5, bb_cfg.training_per_round.epochs / 3);
  bb_cfg.tracer = &tracer;
  bb_cfg.metrics = &registry;
  if (admin_enabled) {
    bb_cfg.admin.enabled = true;
    bb_cfg.admin.port = static_cast<std::uint16_t>(admin_port);
    std::cout << "      admin plane will serve /metrics /readyz /tracez "
                 "for the duration of the run\n";
  }
  const core::BlackBoxResult bb =
      core::run_blackbox_framework(oracle, seed.counts, bb_cfg);

  eval::Table rounds("Substitute training rounds (Jacobian augmentation)");
  rounds.header({"round", "dataset rows", "oracle queries",
                 "agreement with oracle"});
  for (std::size_t r = 0; r < bb.rounds.size(); ++r)
    rounds.row({std::to_string(r), std::to_string(bb.rounds[r].dataset_rows),
                std::to_string(bb.rounds[r].oracle_queries),
                eval::Table::fmt(bb.rounds[r].oracle_agreement)});
  std::cout << rounds.render();

  std::cout << "[3/3] crafting on the substitute, deploying on the target...\n";
  // Malware feature rows in the ATTACKER's feature space.
  const auto malware_rows = bundle.test.indices_of(data::kMalwareLabel);
  std::vector<std::size_t> rows(
      malware_rows.begin(),
      malware_rows.begin() +
          std::min(malware_rows.size(), config.attack_sample_cap()));
  const math::Matrix malware_counts = bundle.test.counts.gather_rows(rows);
  const math::Matrix attacker_features =
      bb.attacker_transform.apply(malware_counts);

  attack::JsmaConfig jsma_cfg;
  jsma_cfg.theta = 0.1f;
  jsma_cfg.gamma = 0.025f;
  const attack::Jsma jsma(jsma_cfg);
  const attack::AttackResult crafted =
      jsma.craft(*bb.substitute, attacker_features);

  // Realize feature-space perturbations as integer API-call ADDITIONS and
  // submit through the target's full pipeline (add-only, like the paper).
  const math::Matrix additions = core::additions_from_count_perturbation(
      bb.attacker_transform, attacker_features, crafted.adversarial);
  math::Matrix adv_counts = malware_counts;
  adv_counts += additions;
  nn::InferenceSession session = trained.detector->make_session();
  const auto baseline = trained.detector->scan_counts(session, malware_counts);
  const auto attacked = trained.detector->scan_counts(session, adv_counts);
  std::size_t detected_before = 0, detected_after = 0;
  for (const auto& v : baseline) detected_before += v.is_malware() ? 1 : 0;
  for (const auto& v : attacked) detected_after += v.is_malware() ? 1 : 0;

  eval::Table result("Black-box attack (Fig. 2 framework)");
  result.header({"metric", "value"});
  result.row({"oracle queries used", std::to_string(bb.total_queries)});
  result.row({"target detection, original malware",
              eval::Table::fmt(static_cast<double>(detected_before) /
                               static_cast<double>(baseline.size()))});
  result.row({"target detection, black-box advex",
              eval::Table::fmt(static_cast<double>(detected_after) /
                               static_cast<double>(attacked.size()))});
  result.row({"substitute evasion rate",
              eval::Table::fmt(crafted.success_rate())});
  std::cout << result.render();

  if (service != nullptr) service->shutdown(/*drain=*/true);
  if (!trace_path.empty()) {
    std::ofstream os(trace_path);
    tracer.write_chrome_trace(os);
    if (!os) {
      std::cerr << "error: cannot write trace to " << trace_path << "\n";
      return 1;
    }
    std::cout << "trace written to " << trace_path
              << " (load it at https://ui.perfetto.dev)\n";
  }
  if (!metrics_path.empty()) {
    std::ofstream os(metrics_path);
    registry.write_prometheus(os);
    if (!os) {
      std::cerr << "error: cannot write metrics to " << metrics_path << "\n";
      return 1;
    }
    std::cout << "metrics written to " << metrics_path << "\n";
  }
  return 0;
}
