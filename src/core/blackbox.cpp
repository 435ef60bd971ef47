#include "core/blackbox.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "math/parallel.hpp"
#include "obs/obs.hpp"

namespace mev::core {

namespace {

/// Jacobian augmentation step size (Papernot et al. 2017's lambda).
constexpr float kLambda = 0.1f;

/// Elements below which realize_counts stays on the calling thread. One
/// element costs about 10 ns (linear scaling; 25 ns with log1p) on a
/// 4-vCPU AVX-512 VM and opening a region about 1 µs, so this many take
/// about 40 µs alone, well above the fork: a class of 9 or more
/// 491-feature rows splits.
constexpr std::size_t kMinSplitRealize = 4096;

/// What `now` counted since `base`, field by field (both cumulative).
runtime::ResilienceStats since(const runtime::ResilienceStats& now,
                               const runtime::ResilienceStats& base) {
  runtime::ResilienceStats d;
  d.calls = now.calls - base.calls;
  d.attempts = now.attempts - base.attempts;
  d.retries = now.retries - base.retries;
  d.timeouts = now.timeouts - base.timeouts;
  d.garbled_batches = now.garbled_batches - base.garbled_batches;
  d.bisections = now.bisections - base.bisections;
  d.failed_queries = now.failed_queries - base.failed_queries;
  d.backoff_ms = now.backoff_ms - base.backoff_ms;
  return d;
}

}  // namespace

std::vector<int> DetectorOracle::label_counts(const math::Matrix& counts) {
  record_queries(counts.rows());
  const auto verdicts = detector_->scan_counts(session_, counts);
  std::vector<int> labels(verdicts.size());
  for (std::size_t i = 0; i < verdicts.size(); ++i)
    labels[i] = verdicts[i].predicted_class;
  return labels;
}

math::Matrix realize_counts(const features::CountTransform& transform,
                            const math::Matrix& features) {
  if (!transform.fitted())
    throw std::invalid_argument("realize_counts: transform is not fitted");
  if (features.cols() != transform.dim())
    throw std::invalid_argument(
        "realize_counts: feature dim " + std::to_string(features.cols()) +
        " does not match transform dim " + std::to_string(transform.dim()));
  // Validated above, so nothing in the region can throw.
  math::Matrix counts(features.rows(), features.cols());
  math::for_each_share(
      features.rows(), 1, features.size() >= kMinSplitRealize,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r)
          for (std::size_t c = 0; c < features.cols(); ++c)
            counts(r, c) = static_cast<float>(
                transform.counts_for_feature_value(c, features(r, c)));
      });
  return counts;
}

BlackBoxResult run_blackbox_framework(CountOracle& oracle,
                                      const math::Matrix& seed_counts,
                                      const BlackBoxConfig& config) {
  if (seed_counts.rows() == 0)
    throw std::invalid_argument("run_blackbox_framework: empty seed set");
  if (config.substitute_architecture.dims.empty() ||
      config.substitute_architecture.dims.front() != seed_counts.cols())
    throw std::invalid_argument(
        "run_blackbox_framework: substitute input dim " +
        std::to_string(config.substitute_architecture.dims.empty()
                           ? 0
                           : config.substitute_architecture.dims.front()) +
        " does not match seed feature dim " +
        std::to_string(seed_counts.cols()));
  if (config.max_dataset_rows < seed_counts.rows())
    throw std::invalid_argument(
        "run_blackbox_framework: max_dataset_rows " +
        std::to_string(config.max_dataset_rows) + " is below the seed size " +
        std::to_string(seed_counts.rows()));

  const auto* resilient = dynamic_cast<const runtime::ResilientOracle*>(&oracle);

  // Observability: resolve the sinks once, then install them as the
  // ambient scope so the nested trainer and any attacker-side crafting
  // emit into the same trace. Durations below use the tracer's clock so
  // round stats match the emitted spans (and are deterministic when a
  // FakeClock-backed tracer is injected).
  obs::Tracer* tracer = obs::resolve(config.tracer);
  obs::MetricsRegistry* registry = obs::resolve(config.metrics);
  obs::Logger* logger = obs::resolve(config.logger);
  obs::Scope obs_scope(tracer, registry);
  runtime::Clock& obs_clock = tracer->clock();

  obs::Counter queries_counter = registry->counter(
      "mev.core.blackbox.oracle_queries", "oracle submissions (rows)");
  obs::Counter retries_counter = registry->counter(
      "mev.core.blackbox.oracle_retries", "oracle retry attempts");
  obs::Counter timeouts_counter = registry->counter(
      "mev.core.blackbox.oracle_timeouts", "oracle call timeouts");
  obs::Counter rounds_counter = registry->counter(
      "mev.core.blackbox.rounds", "completed augmentation rounds");
  obs::Gauge agreement_gauge = registry->gauge(
      "mev.core.blackbox.oracle_agreement",
      "substitute/oracle agreement after the last round");
  obs::Gauge rows_gauge = registry->gauge(
      "mev.core.blackbox.dataset_rows", "attacker dataset rows");

  BlackBoxResult result;
  result.attacker_transform.fit(seed_counts);
  math::Matrix counts = seed_counts;  // the attacker's growing sample set
  result.substitute = std::make_shared<nn::Network>(
      nn::make_mlp(config.substitute_architecture));

  // The oracle may have answered queries before this run (perfbench reuses
  // one across runs); stats count only this run's queries and resilience
  // events.
  const std::size_t query_base = oracle.queries();
  const auto queries_so_far = [&] { return oracle.queries() - query_base; };
  const runtime::ResilienceStats resilience_base =
      resilient != nullptr ? resilient->stats() : runtime::ResilienceStats{};

  // Previous-round values (cumulative over this run), so the registry
  // counters advance by per-round deltas.
  std::size_t prev_queries = 0;
  runtime::ResilienceStats prev_resilience;

  for (std::size_t round = 0; round <= config.augmentation_rounds; ++round) {
    obs::Span round_span = obs::span(tracer, "mev.core.blackbox.round");
    round_span.arg("round", static_cast<double>(round));
    round_span.arg("rows", static_cast<double>(counts.rows()));

    // 1. Oracle labels for the current sample set.
    const std::uint64_t label_start_us = obs_clock.now_us();
    obs::Span label_span = obs::span(tracer, "mev.core.blackbox.label");
    label_span.arg("rows", static_cast<double>(counts.rows()));
    const std::vector<int> labels = oracle.label_counts(counts);
    label_span.finish();
    const std::uint64_t label_us = obs_clock.now_us() - label_start_us;
    if (labels.size() != counts.rows())
      throw std::runtime_error(
          "run_blackbox_framework: oracle returned " +
          std::to_string(labels.size()) + " labels for " +
          std::to_string(counts.rows()) + " rows");
    const math::Matrix features = result.attacker_transform.apply(counts);

    // 2. (Re)train the substitute from scratch on the labelled set; a fresh
    //    model per round avoids inheriting a bad early fit.
    const std::uint64_t train_start_us = obs_clock.now_us();
    obs::Span train_span = obs::span(tracer, "mev.core.blackbox.train");
    train_span.arg("rows", static_cast<double>(counts.rows()));
    *result.substitute =
        nn::make_mlp(config.substitute_architecture);
    nn::LabeledData train_data{features, labels};
    nn::train(*result.substitute, train_data, config.training_per_round);
    train_span.finish();
    const std::uint64_t train_us = obs_clock.now_us() - train_start_us;

    BlackBoxRoundStats stats;
    stats.dataset_rows = counts.rows();
    stats.oracle_queries = queries_so_far();
    stats.oracle_agreement =
        nn::accuracy(*result.substitute, features, labels);
    if (resilient != nullptr)
      stats.resilience = since(resilient->stats(), resilience_base);
    stats.label_us = label_us;
    stats.train_us = train_us;
    result.rounds.push_back(stats);

    MEV_LOG(*logger, obs::LogLevel::kInfo, "core.blackbox", "round complete",
            {obs::LogField::u64_value("round", round),
             obs::LogField::u64_value("dataset_rows", stats.dataset_rows),
             obs::LogField::u64_value("oracle_queries", stats.oracle_queries),
             obs::LogField::f64_value("oracle_agreement",
                                      stats.oracle_agreement),
             obs::LogField::u64_value("label_us", stats.label_us),
             obs::LogField::u64_value("train_us", stats.train_us)});

    rounds_counter.inc();
    queries_counter.inc(stats.oracle_queries - prev_queries);
    retries_counter.inc(stats.resilience.retries - prev_resilience.retries);
    timeouts_counter.inc(stats.resilience.timeouts -
                         prev_resilience.timeouts);
    agreement_gauge.set(stats.oracle_agreement);
    rows_gauge.set(static_cast<double>(stats.dataset_rows));
    prev_queries = stats.oracle_queries;
    prev_resilience = stats.resilience;

    if (round == config.augmentation_rounds ||
        counts.rows() * 2 > config.max_dataset_rows)
      break;

    // 3. Jacobian-based augmentation: push each point along the sign of
    //    the substitute's gradient for its ORACLE label, realize to
    //    integer counts, and append. The session is created after this
    //    round's retraining (retraining replaces the layer objects).
    const std::uint64_t augment_start_us = obs_clock.now_us();
    obs::Span augment_span = obs::span(tracer, "mev.core.blackbox.augment");
    nn::InferenceSession substitute_session(*result.substitute);
    math::Matrix augmented = counts;
    for (int cls : {data::kCleanLabel, data::kMalwareLabel}) {
      std::vector<std::size_t> rows_of_cls;
      for (std::size_t i = 0; i < labels.size(); ++i)
        if (labels[i] == cls) rows_of_cls.push_back(i);
      if (rows_of_cls.empty()) continue;
      const math::Matrix subset = features.gather_rows(rows_of_cls);
      // Copy out of the session buffer: the next class iteration reuses it.
      const math::Matrix grad =
          substitute_session.input_gradient(subset, cls);
      math::Matrix moved = subset;
      for (std::size_t i = 0; i < moved.rows(); ++i)
        for (std::size_t j = 0; j < moved.cols(); ++j) {
          const float g = grad(i, j);
          const float step =
              g > 0.0f ? kLambda : (g < 0.0f ? -kLambda : 0.0f);
          moved(i, j) = std::clamp(moved(i, j) + step, 0.0f, 1.0f);
        }
      const math::Matrix new_counts =
          realize_counts(result.attacker_transform, moved);
      for (std::size_t i = 0; i < new_counts.rows(); ++i)
        augmented.append_row(new_counts.row(i));
    }
    counts = std::move(augmented);
    augment_span.arg("rows_after", static_cast<double>(counts.rows()));
    augment_span.finish();
    result.rounds.back().augment_us = obs_clock.now_us() - augment_start_us;
  }

  result.total_queries = queries_so_far();
  MEV_LOG(*logger, obs::LogLevel::kInfo, "core.blackbox", "run finished",
          {obs::LogField::u64_value("rounds", result.rounds.size()),
           obs::LogField::u64_value("total_queries", result.total_queries)});
  return result;
}

}  // namespace mev::core
