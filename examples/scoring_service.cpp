// Scoring-service demo: the detector deployed as an in-process service.
// Several producer threads submit API logs and raw count batches while a
// defense retrain (defensive distillation) is hot-swapped in mid-run with
// zero downtime; the run ends with the service's stats summary.
//
//   ./scoring_service [tiny|fast|full] [--admin-port N] [--http-port N]
//                     [--hold-ms N] [--chaos PROFILE] [--overload]
//
//   --admin-port N  start the embedded HTTP admin plane on port N (0 =
//                   kernel-assigned; the bound port is printed) serving
//                   /metrics /varz /healthz /readyz /tracez
//   --http-port N   start the scoring HTTP frontend on port N (0 =
//                   kernel-assigned; the bound port is printed) serving
//                   POST /v1/score with two demo API keys: "demo"
//                   (effectively unlimited) and "throttled" (1 row/s,
//                   burst 4 — for exercising 429s)
//   --hold-ms N     keep the service (and admin endpoints) up for N ms
//                   after the traffic finishes, so an external scraper
//                   can observe the live state before shutdown
//   --chaos P       inject model faults for the first half of the run
//                   (P = throwing|garbled|slow|stalling|chaos), then
//                   clear them — the stats summary shows the contained
//                   damage: failed batches, typed rejections, worker
//                   stalls, and zero lost requests
//   --overload      enable the adaptive load shedder (brownout posture
//                   shows up in the stats and flips /readyz to 503)
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/detector.hpp"
#include "core/experiment_config.hpp"
#include "data/api_vocab.hpp"
#include "data/synthetic.hpp"
#include "defense/distillation.hpp"
#include "net/frontend.hpp"
#include "serve/scoring_service.hpp"

using namespace mev;

namespace {

bool find_profile(const std::string& name, serve::ModelFaultProfile* out) {
  for (const auto& profile : serve::ModelFaultProfile::builtin_profiles()) {
    if (profile.name == name) {
      *out = profile;
      return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scale = "tiny";
  bool admin_enabled = false;
  int admin_port = 0;
  bool http_enabled = false;
  int http_port = 0;
  long hold_ms = 0;
  bool overload = false;
  bool chaos = false;
  serve::ModelFaultProfile fault;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--admin-port" && i + 1 < argc) {
      admin_enabled = true;
      admin_port = std::atoi(argv[++i]);
    } else if (arg == "--http-port" && i + 1 < argc) {
      http_enabled = true;
      http_port = std::atoi(argv[++i]);
    } else if (arg == "--hold-ms" && i + 1 < argc) {
      hold_ms = std::atol(argv[++i]);
    } else if (arg == "--chaos" && i + 1 < argc) {
      const std::string name = argv[++i];
      if (!find_profile(name, &fault)) {
        std::cerr << "unknown chaos profile '" << name << "'; built-ins:";
        for (const auto& p : serve::ModelFaultProfile::builtin_profiles())
          std::cerr << " " << p.name;
        std::cerr << "\n";
        return 2;
      }
      chaos = true;
    } else if (arg == "--overload") {
      overload = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "usage: " << argv[0]
                << " [tiny|fast|full] [--admin-port N] [--http-port N]"
                   " [--hold-ms N] [--chaos PROFILE] [--overload]\n";
      return 2;
    } else {
      scale = arg;
    }
  }
  const auto config = core::ExperimentConfig::from_name(scale);
  const auto& vocab = data::ApiVocab::instance();
  const data::GenerativeModel generator(vocab, data::GenerativeConfig{});
  math::Rng rng(config.seed);

  std::cout << "[1/4] training the target detector...\n";
  const data::DatasetBundle bundle =
      generator.generate_bundle(config.dataset_spec(), rng);
  auto trained = core::train_detector(bundle, config.target_architecture(),
                                      config.target_training(), vocab);

  std::cout << "[2/4] starting the scoring service (4 workers, "
               "max_batch=64)...\n";
  serve::ServiceConfig service_cfg;
  service_cfg.workers = 4;
  service_cfg.max_batch_rows = 64;
  if (admin_enabled) {
    service_cfg.admin.enabled = true;
    service_cfg.admin.port = static_cast<std::uint16_t>(admin_port);
  }
  if (overload) {
    service_cfg.overload.enabled = true;
    service_cfg.overload.target_delay_ms = 5;
  }
  if (chaos) {
    // The watchdog's monitor thread makes a stalling profile visible as
    // worker_stalls/worker_recoveries in the final summary.
    service_cfg.watchdog.enabled = true;
    service_cfg.watchdog.stall_ms = 50;
    service_cfg.watchdog.poll_ms = 10;
  }
  serve::ScoringService service(trained.detector->pipeline(),
                                trained.detector->network_ptr(), service_cfg);
  if (admin_enabled) {
    // std::endl, not "\n": a scraper watching redirected stdout needs the
    // port line flushed before the demo's traffic phase starts.
    if (service.admin_server() != nullptr && service.admin_server()->running())
      std::cout << "      admin server listening on 127.0.0.1:"
                << service.admin_server()->port() << std::endl;
    else
      std::cout << "      admin server unavailable (bind failed)" << std::endl;
  }
  std::unique_ptr<net::ScoringFrontend> frontend;
  if (http_enabled) {
    net::FrontendConfig http_cfg;
    http_cfg.port = static_cast<std::uint16_t>(http_port);
    // "demo" is effectively unlimited; "throttled" exists so an external
    // driver (the CI smoke job) can provoke deterministic 429s.
    http_cfg.api_keys = {
        net::ApiKey{"demo", "demo", 1e6, 2e6},
        net::ApiKey{"throttled", "throttled", 1.0, 4.0},
    };
    // Register the per-client stats endpoint on the service's admin
    // plane (null when the admin is off — the frontend skips it).
    http_cfg.admin = service.admin_server();
    frontend = std::make_unique<net::ScoringFrontend>(service, http_cfg);
    // Surface the frontend's flight recorder on the admin plane's
    // /requestz (the frontend outlives the scrape window below).
    if (service.admin_server() != nullptr)
      service.admin_server()->set_flight_recorder(
          &frontend->flight_recorder());
    // std::endl for the same reason as the admin line: scrapers need the
    // port (and the expected row width) before traffic starts.
    if (frontend->start())
      std::cout << "      scoring endpoint listening on 127.0.0.1:"
                << frontend->port() << " (cols=" << vocab.size() << ")"
                << std::endl;
    else
      std::cout << "      scoring endpoint unavailable (bind failed)"
                << std::endl;
  }
  std::shared_ptr<serve::ModelFaultInjector> injector;
  if (chaos) {
    injector = service.set_model_fault(fault);
    std::cout << "      chaos: injecting '" << fault.name
              << "' model faults for the first half of the traffic\n";
  }

  // Producers: half submit individual sandbox logs, half submit raw count
  // batches — both arrive through the same submit() front door.
  std::cout << "[3/4] submitting traffic from 4 producer threads while "
               "hot-swapping a distilled model...\n";
  std::atomic<std::size_t> malware_verdicts{0};
  std::atomic<std::size_t> scored_rows{0};
  std::atomic<std::size_t> rejected_requests{0};
  std::vector<std::thread> producers;
  const std::size_t per_producer = config.dataset_spec().test_malware;
  for (std::size_t p = 0; p < 4; ++p) {
    producers.emplace_back([&, p] {
      math::Rng producer_rng(config.seed + 100 + p);
      const auto& extractor = trained.detector->pipeline().extractor();
      std::vector<serve::ScoreFuture> futures;
      for (std::size_t i = 0; i < per_producer; ++i) {
        const int label =
            (i % 2 == 0) ? data::kMalwareLabel : data::kCleanLabel;
        const data::ApiLog log = generator.generate_log(
            label, "sample.exe", producer_rng);
        math::Matrix counts(1, vocab.size());
        counts.set_row(0, extractor.extract(log));
        futures.push_back(service.submit(std::move(counts)));
      }
      for (auto& future : futures) {
        const serve::ScoreResult result = future.get();
        if (!result.ok()) {
          ++rejected_requests;  // typed rejection — never a lost future
          continue;
        }
        scored_rows += result.verdicts.size();
        for (const auto& verdict : result.verdicts)
          if (verdict.is_malware()) ++malware_verdicts;
      }
    });
  }

  // Meanwhile: retrain with defensive distillation and roll it out with
  // zero downtime. In-flight batches finish on the old model; every batch
  // formed after swap_model() uses the student.
  defense::DistillationConfig distill_cfg;
  distill_cfg.teacher_architecture = config.target_architecture();
  distill_cfg.student_architecture = config.target_architecture();
  distill_cfg.teacher_training = config.target_training();
  distill_cfg.student_training = config.target_training();
  const nn::LabeledData train_data{trained.train_features,
                                   bundle.train.labels};
  const auto distilled =
      defense::defensive_distillation(train_data, distill_cfg);
  if (chaos) {
    // Clear the faults before the rollout: the second half of the run
    // shows the same pool scoring clean on the new model.
    service.clear_model_fault();
    const auto counts = injector->injected();
    std::cout << "      chaos cleared after " << counts.batches
              << " batches (" << counts.throws << " throws, "
              << counts.garbled << " garbled, " << counts.slowed
              << " slowed, " << counts.stalled << " stalls)\n";
  }
  const std::uint64_t version = service.swap_model(
      trained.detector->pipeline(), distilled.student);
  std::cout << "      swapped in distilled model (snapshot v" << version
            << ") while producers were mid-flight\n";

  for (auto& producer : producers) producer.join();
  if (hold_ms > 0) {
    // Scrape window: the admin endpoints answer with the service live.
    std::this_thread::sleep_for(std::chrono::milliseconds(hold_ms));
  }
  if (frontend != nullptr) {
    // Detach the recorder first: the frontend (declared after the
    // service) is destroyed before the admin server that serves it.
    if (service.admin_server() != nullptr)
      service.admin_server()->set_flight_recorder(nullptr);
    frontend->stop();  // before the service drains
  }
  service.shutdown();  // drain

  std::cout << "[4/4] done: scored " << scored_rows.load() << " rows, "
            << malware_verdicts.load() << " malware verdicts";
  if (rejected_requests.load() > 0)
    std::cout << ", " << rejected_requests.load()
              << " typed rejections (none lost)";
  std::cout << "\n\n";
  std::cout << "service stats:\n" << service.stats().to_string();
  return 0;
}
