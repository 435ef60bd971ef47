// blackbox_oracle: the paper's Fig. 2 loop. core::run_blackbox_framework
// trains a substitute from labels it gets through a serve::ServiceOracle
// over an in-process ScoringService, growing its data set by Jacobian
// augmentation each round. The attacker's seed set comes from the run
// seed. Two phases alternate whole framework runs:
//
//   light  two augmentation rounds
//   heavy  four augmentation rounds (the bench_fig2_blackbox setting)
//
// Before timing, each phase runs once against a core::DetectorOracle on
// the same detector: every run through the service must match its
// total_queries and per-round oracle_agreement.
#include <string>
#include <tuple>

#include "core/blackbox.hpp"
#include "core/experiment_config.hpp"
#include "data/api_vocab.hpp"
#include "data/synthetic.hpp"
#include "driver.hpp"
#include "serve/scoring_service.hpp"
#include "serve/service_oracle.hpp"

namespace perfbench {
namespace {

struct Attack {
  std::unique_ptr<Environment> env;
  std::unique_ptr<serve::ScoringService> service;
  math::Matrix seed_counts;  // the attacker's own samples
};

/// Records a span around each oracle call, parented on the framework run
/// in progress: the attacker's label batches as the service sees them.
class SpanOracle final : public runtime::CountOracle {
 public:
  SpanOracle(runtime::CountOracle& inner, SpanLog& spans)
      : inner_(&inner), spans_(&spans) {}
  void set_parent(std::uint32_t parent) { parent_ = parent; }
  std::vector<int> label_counts(const math::Matrix& counts) override {
    record_queries(counts.rows());
    if (parent_ == 0) return inner_->label_counts(counts);
    const std::uint32_t id =
        spans_->begin("serve.ServiceOracle.label_counts", parent_);
    std::vector<int> labels = inner_->label_counts(counts);
    spans_->end(id);
    return labels;
  }

 private:
  runtime::CountOracle* inner_;
  SpanLog* spans_;
  std::uint32_t parent_ = 0;
};

core::BlackBoxConfig framework_config(const Options& opt, std::size_t rounds) {
  const core::ExperimentConfig scale = core::ExperimentConfig::from_name(
      opt.str("substitute_scale"), derive_seed(opt.seed, 33));
  core::BlackBoxConfig cfg;
  cfg.augmentation_rounds = rounds;
  cfg.substitute_architecture =
      scale.substitute_architecture(data::kNumApiFeatures);
  cfg.training_per_round = scale.substitute_training();
  // bench_fig2_blackbox halves the per-round epochs (at least 5).
  cfg.training_per_round.epochs =
      std::max<std::size_t>(5, cfg.training_per_round.epochs / 2);
  return cfg;
}

/// One phase: its framework settings, the DetectorOracle reference run
/// every timed run must match, and the timed runs so far.
struct Phase {
  Phase(Attack& attack, const Options& opt, std::size_t rounds,
        const char* phase_name)
      : name(phase_name), cfg(framework_config(opt, rounds)), a(&attack) {
    core::DetectorOracle direct(a->env->detector());
    reference = core::run_blackbox_framework(direct, a->seed_counts, cfg);
  }

  bool matches(const core::BlackBoxResult& got) const {
    if (got.total_queries != reference.total_queries ||
        got.rounds.size() != reference.rounds.size())
      return false;
    for (std::size_t i = 0; i < got.rounds.size(); ++i)
      if (got.rounds[i].oracle_agreement !=
          reference.rounds[i].oracle_agreement)
        return false;
    return true;
  }

  /// One framework run through the service; `timed` = false warms up.
  void run(SpanOracle& oracle, bool timed, Ledger& ledger, SpanLog& spans) {
    const serve::ServiceStats before = a->service->stats();
    const std::uint32_t root =
        timed ? spans.begin("core.run_blackbox_framework") : 0;
    oracle.set_parent(root);
    const std::int64_t t0 = now_ns();
    const core::BlackBoxResult got =
        core::run_blackbox_framework(oracle, a->seed_counts, cfg);
    const std::int64_t t1 = now_ns();
    spans.end(root);
    const serve::ServiceStats after = a->service->stats();
    const bool same = matches(got);
    mismatched += same ? 0 : 1;
    if (!timed) return;
    ++ledger.attempted;
    ledger.failed += same ? 0 : 1;
    // Children besides the oracle calls: each round's training and
    // augmentation, laid out in round order after its label phase (the
    // round stats carry durations, not start times).
    double train = 0, label = 0, augment = 0;
    std::int64_t t = t0;
    for (const core::BlackBoxRoundStats& s : got.rounds) {
      t += static_cast<std::int64_t>(s.label_us) * 1000;
      for (const auto& [span, us] :
           {std::pair{"nn.round.train", s.train_us},
            std::pair{"core.round.augment", s.augment_us}}) {
        spans.add(span, t, t + static_cast<std::int64_t>(us) * 1000, root);
        t += static_cast<std::int64_t>(us) * 1000;
      }
      train += static_cast<double>(s.train_us) * 1e-6;
      label += static_cast<double>(s.label_us) * 1e-6;
      augment += static_cast<double>(s.augment_us) * 1e-6;
    }
    attack_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    train_s.push_back(train);
    label_s.push_back(label);
    augment_s.push_back(augment);
    const double n = static_cast<double>(after.batches - before.batches);
    batches.push_back(n);
    batch_rows.push_back(
        n > 0 ? static_cast<double>(after.completed_rows -
                                    before.completed_rows) / n
              : 0.0);
    rejected += after.rejected_total() - before.rejected_total();
  }

  const char* name;
  core::BlackBoxConfig cfg;
  Attack* a;
  core::BlackBoxResult reference;
  std::vector<double> attack_s, train_s, label_s, augment_s;
  std::vector<double> batches, batch_rows;
  std::size_t rejected = 0, mismatched = 0;
};

struct PassResult {
  std::vector<double> light_s, heavy_s;
  std::size_t light_queries = 0, heavy_queries = 0;
  std::unique_ptr<Phase> heavy;  // the per-layer numbers come from it
};

/// Alternates light and heavy framework runs for the run's seconds (and
/// at least kMinCalls each), so both phases sample the whole pass.
PassResult run_pass(Attack& a, const Options& opt, Ledger& ledger,
                    SpanLog& spans) {
  Phase light(a, opt, static_cast<std::size_t>(opt.num("light_rounds")),
              "light");
  auto heavy = std::make_unique<Phase>(
      a, opt, static_cast<std::size_t>(opt.num("heavy_rounds")), "heavy");
  serve::ServiceOracle service_oracle(*a.service);
  SpanOracle oracle(service_oracle, spans);
  light.run(oracle, false, ledger, spans);
  heavy->run(oracle, false, ledger, spans);
  const std::int64_t start = now_ns();
  while (light.attack_s.size() < kMinCalls ||
         heavy->attack_s.size() < kMinCalls ||
         static_cast<double>(now_ns() - start) * 1e-9 < opt.seconds) {
    light.run(oracle, true, ledger, spans);
    heavy->run(oracle, true, ledger, spans);
  }
  for (const Phase* p : {&light, heavy.get()})
    ledger.check(p->mismatched == 0,
                 std::string("blackbox ") + p->name +
                     " matches the DetectorOracle run",
                 std::to_string(p->mismatched) +
                     " runs differ in total_queries or oracle_agreement");
  PassResult r;
  r.light_s = light.attack_s;
  r.heavy_s = heavy->attack_s;
  r.light_queries = light.reference.total_queries;
  r.heavy_queries = heavy->reference.total_queries;
  r.heavy = std::move(heavy);
  return r;
}

void write_end_to_end(const PassResult& p, Ledger& ledger) {
  for (const auto& [name, attack_s, queries] :
       {std::tuple{"light", &p.light_s, p.light_queries},
        std::tuple{"heavy", &p.heavy_s, p.heavy_queries}}) {
    const std::string tag = std::string(".") + name;
    const Percentile p50 = percentile(*attack_s, 0, 0.5);
    ledger.set_percentile("p50_ms" + tag, p50, "ms", 1e3);
    ledger.set("samples_per_s" + tag,
               static_cast<double>(queries) / p50.value, "1/s", p50.samples);
  }
}

}  // namespace

void run_blackbox_oracle(const Options& opt, Ledger& ledger, SpanLog& spans) {
  const auto attack = timed_setup<Attack>(
      ledger,
      [&] {
        auto a = std::make_unique<Attack>();
        a->env = build_environment();
        serve::ServiceConfig cfg;
        cfg.workers = static_cast<std::size_t>(opt.num("serve_workers"));
        core::MalwareDetector& detector = a->env->detector();
        a->service = std::make_unique<serve::ScoringService>(
            detector.pipeline(), detector.network_ptr(), cfg);
        // The attacker's seed set, from its own generator and the run seed.
        data::GenerativeConfig gen_cfg;
        gen_cfg.seed = derive_seed(opt.seed, 31);
        const data::GenerativeModel gen(data::ApiVocab::instance(), gen_cfg);
        math::Rng rng(derive_seed(opt.seed, 32));
        const auto n = static_cast<std::size_t>(opt.num("seed_rows"));
        a->seed_counts = gen.generate_dataset(n / 2, n - n / 2, rng).counts;
        return a;
      },
      [](const Attack& a) -> const Environment& { return *a.env; });

  SpanLog off(false);
  const PassResult plain = run_pass(*attack, opt, ledger, off);
  write_end_to_end(plain, ledger);
  if (!opt.trace) return;

  const double untraced = ledger.metrics["p50_ms.heavy"].value;
  const PassResult traced = run_pass(*attack, opt, ledger, spans);
  write_end_to_end(traced, ledger);
  ledger.set("obs.trace_overhead_pct.blackbox_oracle",
             overhead_pct(untraced, ledger.metrics["p50_ms.heavy"].value), "%");
  const Phase& h = *traced.heavy;
  const std::size_t n = h.attack_s.size();
  ledger.set("nn.train_s", median(h.train_s), "s", n);
  ledger.set("core.label_s", median(h.label_s), "s", n);
  ledger.set("core.augment_s", median(h.augment_s), "s", n);
  ledger.set("core.rounds", static_cast<double>(h.reference.rounds.size()),
             "count");
  ledger.set("runtime.oracle_queries",
             static_cast<double>(h.reference.total_queries), "count");
  ledger.set("serve.batches", median(h.batches), "count", n);
  ledger.set("serve.batch_rows.mean", median(h.batch_rows), "rows", n);
  ledger.set("serve.rejected", static_cast<double>(h.rejected), "count");
  finish_traced_run(*attack->env, opt, ledger, spans);
}

}  // namespace perfbench
