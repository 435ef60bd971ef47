// jsma_craft: a batch job running attack::Jsma::craft on a seeded sample
// of the attacked malware test rows against the target network, with
// OpenMP sharding each call by sample. One operation is a sweep over the
// rows: a craft() call per batch, the batches small enough for a shard's
// working set to stay in cache. Two phases:
//
//   light  gamma 0.005, theta 0.1: about 2 features, mostly one forward
//          pass per sample
//   heavy  gamma 0.025, theta 0.1: the paper's Fig. 3 operating point, up
//          to ~12 features, time mostly in Jacobians
//
// The two phases alternate sweeps for the run's seconds (and at least
// kMinCalls each). Every call must reproduce its phase's warm-up call's
// evaded flags and feature counts, and every evaded row must predict as
// the target class.
#include <algorithm>
#include <span>

#include "attack/jsma.hpp"
#include "driver.hpp"
#include "nn/session.hpp"

namespace perfbench {
namespace {

struct Job {
  std::unique_ptr<Environment> env;
  /// The attacked malware rows (target feature space), cut into equal
  /// batches: one craft() call takes one batch.
  std::vector<math::Matrix> batches;

  const nn::Network& model() const { return env->trained.detector->network(); }
};

/// One phase: its attack, the warm-up call on each batch that every
/// timed call on that batch must reproduce, and the timed sweeps so far.
struct Phase {
  Phase(const Job& j, float theta, float gamma, const char* phase_name)
      : name(phase_name), jsma(config(theta, gamma)), job(&j) {
    for (const math::Matrix& batch : j.batches)
      first.push_back(jsma.craft(j.model(), batch));
  }

  static attack::JsmaConfig config(float theta, float gamma) {
    attack::JsmaConfig cfg;
    cfg.theta = theta;
    cfg.gamma = gamma;
    return cfg;
  }

  /// Every row a warm-up call evaded with must predict as the target.
  void check_evasions(Ledger& ledger) const {
    std::size_t wrong = 0;
    for (const attack::AttackResult& r : first) {
      nn::InferenceSession session(job->model(), r.size());
      const std::span<const int> predicted = session.predict(r.adversarial);
      for (std::size_t i = 0; i < r.size(); ++i)
        if (r.evaded[i] && predicted[i] != jsma.config().target_class) ++wrong;
    }
    ledger.check(wrong == 0,
                 std::string("jsma ") + name + " evaded rows predict clean",
                 std::to_string(wrong) + " evaded rows do not");
  }

  /// One timed sweep: a craft() call per batch.
  void timed_sweep(Ledger& ledger, SpanLog& spans) {
    const std::int64_t start = now_ns();
    for (std::size_t b = 0; b < first.size(); ++b) {
      const std::int64_t t0 = now_ns();
      const attack::AttackResult again =
          jsma.craft(job->model(), job->batches[b]);
      const std::int64_t t1 = now_ns();
      spans.add("attack.Jsma.craft", t0, t1);
      call_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
      ++ledger.attempted;
      if (again.evaded != first[b].evaded ||
          again.features_changed != first[b].features_changed) {
        ++mismatched;
        ++ledger.failed;
      }
    }
    sweep_s.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }

  double evaded_frac() const {
    std::size_t evaded = 0, rows = 0;
    for (const attack::AttackResult& r : first) {
      evaded += static_cast<std::size_t>(
          std::count(r.evaded.begin(), r.evaded.end(), true));
      rows += r.size();
    }
    return static_cast<double>(evaded) / static_cast<double>(rows);
  }

  double features_mean() const {
    double sum = 0.0;
    std::size_t rows = 0;
    for (const attack::AttackResult& r : first) {
      for (const std::size_t f : r.features_changed)
        sum += static_cast<double>(f);
      rows += r.size();
    }
    return sum / static_cast<double>(rows);
  }

  const char* name;
  attack::Jsma jsma;
  const Job* job;
  std::vector<attack::AttackResult> first;
  std::vector<double> sweep_s, call_s;
  std::size_t mismatched = 0;
};

struct PassResult {
  std::vector<double> light_s, heavy_s;            // sweeps
  std::vector<double> light_call_s, heavy_call_s;  // craft() calls
  double light_evaded = 0, heavy_evaded = 0;
  double light_features = 0, heavy_features = 0;
};

/// Alternates light and heavy sweeps for the run's seconds (and at least
/// kMinCalls each), so both phases sample the whole run.
PassResult run_pass(const Job& job, const Options& opt, Ledger& ledger,
                    SpanLog& spans) {
  const auto theta = static_cast<float>(opt.num("theta"));
  Phase light(job, theta, static_cast<float>(opt.num("light_gamma")), "light");
  Phase heavy(job, theta, static_cast<float>(opt.num("heavy_gamma")), "heavy");
  light.check_evasions(ledger);
  heavy.check_evasions(ledger);
  const std::int64_t start = now_ns();
  while (light.sweep_s.size() < kMinCalls || heavy.sweep_s.size() < kMinCalls ||
         static_cast<double>(now_ns() - start) * 1e-9 < opt.seconds) {
    light.timed_sweep(ledger, spans);
    heavy.timed_sweep(ledger, spans);
  }
  for (const Phase* p : {&light, &heavy})
    ledger.check(p->mismatched == 0,
                 std::string("jsma ") + p->name + " calls repeat exactly",
                 std::to_string(p->mismatched) +
                     " calls differ from the first");
  return PassResult{light.sweep_s,          heavy.sweep_s,
                    light.call_s,          heavy.call_s,
                    light.evaded_frac(),   heavy.evaded_frac(),
                    light.features_mean(), heavy.features_mean()};
}

void write_end_to_end(const PassResult& p, double rows, Ledger& ledger) {
  for (const auto& [name, sweep_s] :
       {std::pair{"light", &p.light_s}, std::pair{"heavy", &p.heavy_s}}) {
    const std::string tag = std::string(".") + name;
    const Percentile p50 = percentile(*sweep_s, 0, 0.5);
    ledger.set_percentile("p50_ms" + tag, p50, "ms", 1e3);
    ledger.set("samples_per_s" + tag, rows / p50.value, "1/s", p50.samples);
  }
}

}  // namespace

void run_jsma_craft(const Options& opt, Ledger& ledger, SpanLog& spans) {
  const auto job = timed_setup<Job>(
      ledger,
      [&] {
        auto j = std::make_unique<Job>();
        j->env = build_environment();
        const math::Matrix all = j->env->trained.test_features.gather_rows(
            j->env->bundle.test.indices_of(data::kMalwareLabel));
        const auto n = static_cast<std::size_t>(opt.num("batches"));
        const auto per = static_cast<std::size_t>(opt.num("batch_rows"));
        const std::vector<std::size_t> rows =
            choose_rows(derive_seed(opt.seed, 21), all.rows(), n * per);
        for (std::size_t b = 0; b < n; ++b)
          j->batches.push_back(
              all.gather_rows(std::span(rows).subspan(b * per, per)));
        return j;
      },
      [](const Job& j) -> const Environment& { return *j.env; });
  const double rows = static_cast<double>(job->batches.size() *
                                          job->batches.front().rows());

  SpanLog off(false);
  const PassResult plain = run_pass(*job, opt, ledger, off);
  write_end_to_end(plain, rows, ledger);
  if (!opt.trace) return;

  const double untraced = ledger.metrics["p50_ms.heavy"].value;
  const PassResult traced = run_pass(*job, opt, ledger, spans);
  write_end_to_end(traced, rows, ledger);
  ledger.set("obs.trace_overhead_pct.jsma_craft",
             overhead_pct(untraced, ledger.metrics["p50_ms.heavy"].value), "%");
  ledger.set("attack.craft_s.light", median(traced.light_call_s), "s",
             traced.light_call_s.size());
  ledger.set("attack.craft_s.heavy", median(traced.heavy_call_s), "s",
             traced.heavy_call_s.size());
  ledger.set("attack.evaded_frac.light", traced.light_evaded, "ratio");
  ledger.set("attack.evaded_frac.heavy", traced.heavy_evaded, "ratio");
  ledger.set("attack.features_changed.mean.light", traced.light_features,
             "features");
  ledger.set("attack.features_changed.mean.heavy", traced.heavy_features,
             "features");
  finish_traced_run(*job->env, opt, ledger, spans);
}

}  // namespace perfbench
