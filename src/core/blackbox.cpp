#include "core/blackbox.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/persistence.hpp"
#include "obs/obs.hpp"
#include "runtime/atomic_file.hpp"
#include "runtime/query_cache.hpp"

namespace mev::core {

namespace {

template <typename T>
void append_bytes(std::string& out, const T& v) {
  const char* p = reinterpret_cast<const char*>(&v);
  out.append(p, sizeof(T));
}

/// Fingerprint of everything that determines the run's trajectory: the
/// config fields the loop reads plus the seed set itself. A checkpoint
/// written under one fingerprint refuses to resume under another.
std::uint64_t run_fingerprint(const BlackBoxConfig& config,
                              const math::Matrix& seed_counts) {
  std::string bytes;
  append_bytes(bytes, config.augmentation_rounds);
  append_bytes(bytes, config.lambda);
  for (std::size_t dim : config.substitute_architecture.dims)
    append_bytes(bytes, dim);
  append_bytes(bytes, config.substitute_architecture.hidden_activation);
  append_bytes(bytes, config.substitute_architecture.dropout);
  append_bytes(bytes, config.substitute_architecture.seed);
  append_bytes(bytes, config.training_per_round.epochs);
  append_bytes(bytes, config.training_per_round.batch_size);
  append_bytes(bytes, config.training_per_round.learning_rate);
  append_bytes(bytes, config.training_per_round.temperature);
  append_bytes(bytes, config.training_per_round.shuffle_seed);
  append_bytes(bytes, config.max_dataset_rows);
  append_bytes(bytes, config.use_query_cache);
  append_bytes(bytes, seed_counts.rows());
  append_bytes(bytes, seed_counts.cols());
  bytes.append(reinterpret_cast<const char*>(seed_counts.data()),
               seed_counts.size() * sizeof(float));
  return runtime::fnv1a64(bytes);
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
  math::Matrix counts(features.rows(), features.cols());
  for (std::size_t r = 0; r < features.rows(); ++r)
    for (std::size_t c = 0; c < features.cols(); ++c)
      counts(r, c) = static_cast<float>(
          transform.counts_for_feature_value(c, features(r, c)));
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

  // Dedup repeat submissions through a caching decorator when asked; all
  // query accounting below goes through `query` so cached runs report the
  // reduced (post-dedup) budget.
  std::optional<runtime::CachingOracle> caching;
  CountOracle* query = &oracle;
  if (config.use_query_cache) {
    caching.emplace(oracle);
    query = &*caching;
  }
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

  // Optional live admin plane for the run: long augmentation loops become
  // scrapeable while they work. Stops (and joins) when the run returns.
  std::unique_ptr<obs::AdminServer> admin;
  if (config.admin.enabled) {
    obs::AdminServerConfig admin_config = config.admin;
    if (admin_config.tracer == nullptr) admin_config.tracer = tracer;
    if (admin_config.metrics == nullptr) admin_config.metrics = registry;
    if (admin_config.logger == nullptr) admin_config.logger = logger;
    admin = std::make_unique<obs::AdminServer>(std::move(admin_config));
    if (!admin->start()) admin.reset();
  }
  obs::Counter queries_counter = registry->counter(
      "mev.core.blackbox.oracle_queries", "oracle submissions (rows)");
  obs::Counter cache_counter = registry->counter(
      "mev.core.blackbox.cache_hits", "oracle submissions answered by cache");
  obs::Counter retries_counter = registry->counter(
      "mev.core.blackbox.oracle_retries", "oracle retry attempts");
  obs::Counter timeouts_counter = registry->counter(
      "mev.core.blackbox.oracle_timeouts", "oracle call timeouts");
  obs::Counter trips_counter = registry->counter(
      "mev.core.blackbox.breaker_trips", "circuit-breaker open transitions");
  obs::Counter rounds_counter = registry->counter(
      "mev.core.blackbox.rounds", "completed augmentation rounds");
  obs::Gauge agreement_gauge = registry->gauge(
      "mev.core.blackbox.oracle_agreement",
      "substitute/oracle agreement after the last round");
  obs::Gauge rows_gauge = registry->gauge(
      "mev.core.blackbox.dataset_rows", "attacker dataset rows");

  const std::uint64_t fingerprint = run_fingerprint(config, seed_counts);
  const bool checkpointing = !config.checkpoint_path.empty();

  BlackBoxResult result;
  math::Matrix counts;
  std::size_t start_round = 0;
  // Queries completed before this process took over (from a checkpoint),
  // and this oracle's count when the run started — cumulative stats stay
  // comparable across interruptions and pre-used oracles.
  std::size_t query_offset = 0;
  const std::size_t query_base = query->queries();

  if (checkpointing && config.resume &&
      std::filesystem::exists(config.checkpoint_path)) {
    BlackBoxCheckpoint ckpt =
        load_blackbox_checkpoint(config.checkpoint_path);
    if (ckpt.config_fingerprint != fingerprint)
      throw std::runtime_error(
          "run_blackbox_framework: checkpoint " + config.checkpoint_path +
          " was written by a different config or seed set");
    result.substitute = std::make_shared<nn::Network>(std::move(ckpt.substitute));
    result.attacker_transform = std::move(ckpt.attacker_transform);
    result.rounds = std::move(ckpt.rounds);
    result.resumed = true;
    result.resumed_from_round = ckpt.next_round;
    if (ckpt.finished) {
      result.total_queries = ckpt.total_queries;
      return result;
    }
    counts = std::move(ckpt.counts);
    start_round = ckpt.next_round;
    query_offset = ckpt.total_queries;
    if (caching) caching->cache().import_entries(ckpt.cache_rows,
                                                 ckpt.cache_labels);
    MEV_LOG(*logger, obs::LogLevel::kInfo, "core.blackbox",
            "resumed from checkpoint",
            {obs::LogField::u64_value("next_round", start_round),
             obs::LogField::u64_value("dataset_rows", counts.rows()),
             obs::LogField::u64_value("queries", query_offset)});
  } else {
    result.attacker_transform.fit(seed_counts);
    counts = seed_counts;  // the attacker's growing sample set
    result.substitute = std::make_shared<nn::Network>(
        nn::make_mlp(config.substitute_architecture));
  }

  const auto queries_so_far = [&] {
    return query_offset + (query->queries() - query_base);
  };
  const auto write_checkpoint = [&](std::size_t next_round, bool finished) {
    BlackBoxCheckpoint ckpt;
    ckpt.config_fingerprint = fingerprint;
    ckpt.next_round = next_round;
    ckpt.finished = finished;
    ckpt.total_queries = queries_so_far();
    ckpt.counts = counts;
    ckpt.rounds = result.rounds;
    ckpt.substitute = *result.substitute;
    ckpt.attacker_transform = result.attacker_transform;
    if (caching)
      caching->cache().export_entries(ckpt.cache_rows, ckpt.cache_labels);
    save_blackbox_checkpoint(ckpt, config.checkpoint_path);
  };

  // Previous-round cumulative values, so the registry counters advance by
  // per-round deltas (monotonic across resumes of a pre-used oracle).
  std::size_t prev_queries = 0, prev_cache_hits = 0;
  runtime::ResilienceStats prev_resilience;
  if (!result.rounds.empty()) {
    prev_queries = result.rounds.back().oracle_queries;
    prev_cache_hits = result.rounds.back().cache_hits;
    prev_resilience = result.rounds.back().resilience;
  }

  for (std::size_t round = start_round; round <= config.augmentation_rounds;
       ++round) {
    obs::Span round_span = obs::span(tracer, "mev.core.blackbox.round");
    round_span.arg("round", static_cast<double>(round));
    round_span.arg("rows", static_cast<double>(counts.rows()));

    // 1. Oracle labels for the current sample set.
    const std::uint64_t label_start_us = obs_clock.now_us();
    obs::Span label_span = obs::span(tracer, "mev.core.blackbox.label");
    label_span.arg("rows", static_cast<double>(counts.rows()));
    const std::vector<int> labels = query->label_counts(counts);
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
    if (resilient != nullptr) stats.resilience = resilient->stats();
    if (caching) stats.cache_hits = caching->hits();
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
    cache_counter.inc(stats.cache_hits - prev_cache_hits);
    retries_counter.inc(stats.resilience.retries - prev_resilience.retries);
    timeouts_counter.inc(stats.resilience.timeouts -
                         prev_resilience.timeouts);
    trips_counter.inc(stats.resilience.breaker_trips -
                      prev_resilience.breaker_trips);
    agreement_gauge.set(stats.oracle_agreement);
    rows_gauge.set(static_cast<double>(stats.dataset_rows));
    prev_queries = stats.oracle_queries;
    prev_cache_hits = stats.cache_hits;
    prev_resilience = stats.resilience;

    if (round == config.augmentation_rounds ||
        counts.rows() * 2 > config.max_dataset_rows) {
      if (checkpointing) write_checkpoint(round + 1, /*finished=*/true);
      break;
    }

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
              g > 0.0f ? config.lambda : (g < 0.0f ? -config.lambda : 0.0f);
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

    // 4. Round complete: persist everything needed to restart from here.
    if (checkpointing) write_checkpoint(round + 1, /*finished=*/false);
  }

  result.total_queries = queries_so_far();
  MEV_LOG(*logger, obs::LogLevel::kInfo, "core.blackbox", "run finished",
          {obs::LogField::u64_value("rounds", result.rounds.size()),
           obs::LogField::u64_value("total_queries", result.total_queries),
           obs::LogField::string("resumed", result.resumed ? "yes" : "no")});
  return result;
}

}  // namespace mev::core
