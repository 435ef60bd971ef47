#include "serve/scoring_service.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/scope.hpp"

namespace mev::serve {

namespace {

/// The submitting thread's home shard. Each thread draws an index once
/// from a process-wide counter, so a hot submitter keeps hitting the same
/// ring (cache-warm, contention-free against other submitters) and
/// distinct submitters take the rings round-robin — unlike a thread-id
/// hash, which lets two submitters share a ring while another sits idle.
std::size_t submitter_shard(std::size_t shard_count) noexcept {
  static std::atomic<std::size_t> next_submitter{0};
  static thread_local const std::size_t index =
      next_submitter.fetch_add(1, std::memory_order_relaxed);
  return index % shard_count;
}

}  // namespace

ScoringService::ScoringService(features::FeaturePipeline pipeline,
                               std::shared_ptr<nn::Network> network,
                               ServiceConfig config)
    : config_(config),
      clock_(config.clock != nullptr ? config.clock
                                     : &runtime::SystemClock::instance()),
      tracer_(obs::resolve(config.tracer)),
      logger_(obs::resolve(config.logger)),
      owned_metrics_(config.metrics == nullptr
                         ? std::make_unique<obs::MetricsRegistry>()
                         : nullptr),
      metrics_(config.metrics != nullptr ? config.metrics
                                         : owned_metrics_.get()),
      overload_(config.overload),
      slo_(config.slo),
      drift_(config.drift) {
  obs::MetricsRegistry* registry = metrics_;
  slo_.register_gauges(registry);
  obs_.accepted_requests = registry->counter(
      "mev.serve.accepted_requests", "submissions admitted to the queue");
  obs_.accepted_rows =
      registry->counter("mev.serve.accepted_rows", "rows admitted");
  // One labeled family per breakdown: rejections by reason, deadline
  // expiries by pipeline stage.
  const char* rejected_name = "mev.serve.rejected_total";
  const char* rejected_help = "rejected submissions, by reason";
  obs_.rejected_queue_full = registry->counter(
      rejected_name, rejected_help, {{"reason", "queue_full"}});
  obs_.rejected_shutting_down = registry->counter(
      rejected_name, rejected_help, {{"reason", "shutting_down"}});
  obs_.rejected_deadline = registry->counter(rejected_name, rejected_help,
                                             {{"reason", "deadline"}});
  obs_.rejected_overloaded = registry->counter(rejected_name, rejected_help,
                                               {{"reason", "overloaded"}});
  obs_.rejected_internal = registry->counter(
      rejected_name, rejected_help, {{"reason", "internal_error"}});
  const char* expired_name = "mev.serve.deadline_expired_total";
  const char* expired_help = "deadline expiries, by pipeline stage";
  obs_.expired_at_admission = registry->counter(expired_name, expired_help,
                                                {{"stage", "admission"}});
  obs_.expired_in_queue =
      registry->counter(expired_name, expired_help, {{"stage", "queue"}});
  obs_.expired_post_dequeue = registry->counter(
      expired_name, expired_help, {{"stage", "post_dequeue"}});
  obs_.callback_errors =
      registry->counter("mev.serve.callback_errors_total",
                        "submission callbacks that threw (contained)");
  obs_.worker_stalls = registry->counter(
      "mev.serve.worker_stalls_total", "watchdog healthy->stalled verdicts");
  obs_.worker_recoveries =
      registry->counter("mev.serve.worker_recoveries_total",
                        "watchdog stalled->healthy verdicts");
  obs_.batch_failures = registry->counter(
      "mev.serve.batch_failures_total",
      "batches failed kInternalError inside worker containment");
  obs_.completed_requests = registry->counter(
      "mev.serve.completed_requests", "requests scored to completion");
  obs_.completed_rows =
      registry->counter("mev.serve.completed_rows", "rows scored");
  obs_.batches =
      registry->counter("mev.serve.batches", "micro-batches scored");
  obs_.model_swaps =
      registry->counter("mev.serve.model_swaps", "hot model swaps published");
  obs_.stolen_requests = registry->counter(
      "mev.serve.stolen_requests", "requests stolen from a non-owned shard");
  obs_.spilled_submissions =
      registry->counter("mev.serve.spilled_submissions",
                        "submissions spilled past a full home shard");
  obs_.batch_rows =
      registry->histogram("mev.serve.batch_rows", "rows per scored batch");
  // Windowed so /metrics exports 1m/5m p50/p95/p99 gauges next to the
  // lifetime buckets; timestamps come from the service clock, so tests
  // with a FakeClock get deterministic windows.
  obs_.queue_delay_us = registry->windowed_histogram(
      "mev.serve.queue_delay_us", "submit-to-batch-formation delay (us)",
      clock_);
  obs_.e2e_latency_us = registry->windowed_histogram(
      "mev.serve.e2e_latency_us", "submit-to-verdict latency (us)", clock_);
  obs_.queued_rows = registry->gauge(
      "mev.serve.queued_rows", "rows admitted but not yet scored/rejected");
  obs_.overload_state = registry->gauge(
      "mev.serve.overload_state",
      "overload controller state (0 healthy, 1 brownout, 2 recovering)");
  obs_.shed_fraction = registry->gauge(
      "mev.serve.shed_fraction", "admission fraction currently being shed");
  obs_.stalled_workers = registry->gauge("mev.serve.stalled_workers",
                                         "workers currently flagged stalled");

  auto snapshot = std::make_shared<ModelSnapshot>(std::move(pipeline),
                                                  std::move(network),
                                                  next_version_++);
  count_cols_ = snapshot->count_cols;
  published_version_.store(snapshot->version, std::memory_order_release);
  snapshot_ = std::move(snapshot);

  const std::size_t shard_count = std::max<std::size_t>(
      config_.shards != 0 ? config_.shards
                          : std::max<std::size_t>(config_.workers, 1),
      1);
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>(
        std::max<std::size_t>(config_.shard_capacity, 2)));
    shards_.back()->depth_gauge = registry->gauge(
        "mev.serve.shard" + std::to_string(i) + ".queue_rows",
        "rows queued in ingress shard " + std::to_string(i));
  }

  const BatcherConfig batcher_config{config_.max_batch_rows};
  worker_states_.reserve(std::max<std::size_t>(config_.workers, 1));
  for (std::size_t i = 0; i < std::max<std::size_t>(config_.workers, 1); ++i)
    worker_states_.push_back(std::make_unique<WorkerState>(batcher_config));

  WatchdogConfig watchdog_config = config_.watchdog;
  if (watchdog_config.clock == nullptr) watchdog_config.clock = clock_;
  watchdog_ = std::make_unique<Watchdog>(worker_states_.size(),
                                         watchdog_config);
  watchdog_->set_transition_hook([this](std::size_t worker, bool stalled) {
    obs_.stalled_workers.set(
        static_cast<double>(watchdog_->stalled_count()));
    if (stalled) {
      obs_.worker_stalls.inc();
      MEV_LOG(*logger_, obs::LogLevel::kWarn, "serve.service",
              "worker stalled",
              {obs::LogField::u64_value("worker", worker),
               obs::LogField::u64_value("stall_ms",
                                        config_.watchdog.stall_ms)});
      // Sibling recruitment: the stuck worker's shards must keep moving,
      // so wake everyone else to steal its backlog.
      for (std::size_t i = 0; i < worker_states_.size(); ++i)
        if (i != worker) worker_states_[i]->signal.notify_all();
    } else {
      obs_.worker_recoveries.inc();
      MEV_LOG(*logger_, obs::LogLevel::kInfo, "serve.service",
              "worker recovered",
              {obs::LogField::u64_value("worker", worker)});
    }
  });

  if (config_.autostart) start();

  if (config_.admin.enabled) {
    obs::AdminServerConfig admin = config_.admin;
    // The admin plane serves this service's sinks unless the caller wired
    // its own.
    if (admin.tracer == nullptr) admin.tracer = tracer_;
    if (admin.metrics == nullptr) admin.metrics = registry;
    if (admin.logger == nullptr) admin.logger = logger_;
    if (admin.clock == nullptr) admin.clock = clock_;
    admin_ = std::make_unique<obs::AdminServer>(std::move(admin));
    admin_->set_readiness_probe([this] { return readiness(); });
    admin_->set_slo_tracker(&slo_);
    if (!admin_->start()) admin_.reset();
  }
}

ScoringService::~ScoringService() { shutdown(/*drain=*/true); }

bool ScoringService::start() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
  State expected = State::kIdle;
  if (!state_.compare_exchange_strong(expected, State::kRunning,
                                      std::memory_order_seq_cst))
    return false;
  if (config_.workers > 0) {
    threads_.reserve(config_.workers);
    for (std::size_t i = 0; i < config_.workers; ++i)
      threads_.emplace_back([this, i] { worker_loop(i); });
    watchdog_->start();  // no-op unless config_.watchdog.enabled
  }
  MEV_LOG(*logger_, obs::LogLevel::kInfo, "serve.service", "service started",
          {obs::LogField::u64_value("workers", config_.workers),
           obs::LogField::u64_value("shards", shards_.size()),
           obs::LogField::u64_value("max_queue_rows", config_.max_queue_rows),
           obs::LogField::u64_value("max_batch_rows",
                                    config_.max_batch_rows)});
  return true;
}

std::shared_ptr<const ScoringService::ModelSnapshot>
ScoringService::current_snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return snapshot_;
}

ScoreFuture ScoringService::submit(math::Matrix counts,
                                   SubmitOptions options) {
  // A future is a callback submission whose context is a heap promise;
  // resolve() runs the callback exactly once, which fulfils and frees it.
  auto promise = std::make_unique<std::promise<ScoreResult>>();
  ScoreFuture future = promise->get_future();
  submit_with_callback(
      std::move(counts), options,
      [](void* ctx, ScoreResult&& result) {
        std::unique_ptr<std::promise<ScoreResult>> owned(
            static_cast<std::promise<ScoreResult>*>(ctx));
        owned->set_value(std::move(result));
      },
      promise.get());
  // submit_with_callback only throws before registering the callback, so
  // from here the callback owns the promise (it may already have run).
  promise.release();
  return future;
}

void ScoringService::submit_with_callback(math::Matrix counts,
                                          SubmitOptions options,
                                          ScoreCallback callback, void* ctx) {
  const std::size_t rows = counts.rows();
  if (rows > 0 && counts.cols() != count_cols_)
    throw std::invalid_argument(
        "ScoringService: count rows have " + std::to_string(counts.cols()) +
        " columns, expected " + std::to_string(count_cols_));

  Request request;
  request.counts = std::move(counts);
  request.callback = callback;
  request.callback_ctx = ctx;
  request.trace = options.trace;
  if (rows == 0) {
    // Nothing to score: complete immediately with the current version.
    ScoreResult result;
    result.model_version = published_version_.load(std::memory_order_acquire);
    obs_.accepted_requests.inc();
    obs_.completed_requests.inc();
    resolve(request, std::move(result));
    return;
  }

  // Ingress gate: shutdown() flips state_ and then waits for this count
  // to drop to zero, which orders every in-flight ring push before its
  // final sweep — no admitted request can be stranded in a ring.
  inflight_submits_.fetch_add(1, std::memory_order_seq_cst);
  const State state = state_.load(std::memory_order_seq_cst);
  if (state != State::kRunning) {
    inflight_submits_.fetch_sub(1, std::memory_order_seq_cst);
    obs_.rejected_shutting_down.inc();
    MEV_LOG_EVERY(*logger_, obs::LogLevel::kWarn, /*rate_per_s=*/1.0,
                  /*burst=*/5.0, "serve.service", "submission rejected",
                  {obs::LogField::string("reason", state == State::kIdle
                                                       ? "not_started"
                                                       : "shutting_down"),
                   obs::LogField::u64_value("rows", rows)});
    ScoreResult result;
    result.rejected = RejectReason::kShuttingDown;
    resolve(request, std::move(result));
    return;
  }

  // Deadline resolution before admission: the relative and absolute forms
  // min-combine, and a request whose propagated deadline has already
  // passed is rejected here — it must not consume queue capacity or a
  // batch slot it can never use.
  request.enqueue_us = clock_->now_us();
  request.enqueue_ms = clock_->now_ms();
  if (options.deadline_ms != 0)
    request.deadline_ms = request.enqueue_ms + options.deadline_ms;
  if (options.deadline_at_ms != 0)
    request.deadline_ms = request.deadline_ms == 0
                              ? options.deadline_at_ms
                              : std::min(request.deadline_ms,
                                         options.deadline_at_ms);
  if (request.expired(request.enqueue_ms)) {
    inflight_submits_.fetch_sub(1, std::memory_order_seq_cst);
    obs_.rejected_deadline.inc();
    count_deadline_stage(DeadlineStage::kAdmission, 1);
    ScoreResult result;
    result.rejected = RejectReason::kDeadline;
    resolve(request, std::move(result));
    return;
  }

  // Overload shed gate: under brownout a deterministic fraction of
  // admissions is turned away with a reason upstream retry policies treat
  // as transient (back off and come back, unlike queue_full races).
  overload_.tick(request.enqueue_ms);
  if (overload_.should_shed()) {
    inflight_submits_.fetch_sub(1, std::memory_order_seq_cst);
    obs_.rejected_overloaded.inc();
    MEV_LOG_EVERY(*logger_, obs::LogLevel::kWarn, /*rate_per_s=*/1.0,
                  /*burst=*/5.0, "serve.service", "submission rejected",
                  {obs::LogField::string("reason", "overloaded"),
                   obs::LogField::u64_value("rows", rows)});
    ScoreResult result;
    result.rejected = RejectReason::kOverloaded;
    resolve(request, std::move(result));
    return;
  }

  // Admission control: one fetch_add on a shared counter, rolled back on
  // rejection. Replaces the old queue mutex + pending_rows() check.
  const std::uint64_t prev =
      queued_rows_.fetch_add(rows, std::memory_order_acq_rel);
  bool admitted = prev + rows <= config_.max_queue_rows;

  std::size_t shard_index = 0;
  if (admitted) {
    // Route to the submitter's home shard; spill to the next ring when
    // it is full. Only when every ring is full is the submission
    // rejected (the rows bound usually trips first).
    const std::size_t shard_count = shards_.size();
    const std::size_t home = submitter_shard(shard_count);
    admitted = false;
    for (std::size_t i = 0; i < shard_count; ++i) {
      shard_index = (home + i) % shard_count;
      if (shards_[shard_index]->ring.try_push(std::move(request))) {
        admitted = true;
        if (i > 0) obs_.spilled_submissions.inc();
        break;
      }
    }
  }

  if (!admitted) {
    queued_rows_.fetch_sub(rows, std::memory_order_acq_rel);
    inflight_submits_.fetch_sub(1, std::memory_order_seq_cst);
    obs_.rejected_queue_full.inc();
    MEV_LOG_EVERY(*logger_, obs::LogLevel::kWarn, /*rate_per_s=*/1.0,
                  /*burst=*/5.0, "serve.service", "submission rejected",
                  {obs::LogField::string("reason", "queue_full"),
                   obs::LogField::u64_value("rows", rows)});
    ScoreResult result;
    result.rejected = RejectReason::kQueueFull;
    resolve(request, std::move(result));
    return;
  }

  Shard& shard = *shards_[shard_index];
  const std::uint64_t shard_rows =
      shard.rows.fetch_add(rows, std::memory_order_relaxed) + rows;
  shard.depth_gauge.set(static_cast<double>(shard_rows));
  obs_.queued_rows.set(static_cast<double>(prev + rows));
  obs_.accepted_requests.inc();
  obs_.accepted_rows.inc(rows);
  // Wake the shard's *owner*, not an arbitrary worker: requests that
  // arrive together then coalesce in one batcher instead of fragmenting
  // across whichever workers happened to wake first into more, smaller
  // batches.
  // Exception: an owner the watchdog has flagged stalled cannot answer a
  // wakeup — reroute to the next healthy sibling so the request is stolen
  // instead of waiting out the stall.
  std::size_t target = shard_index % worker_states_.size();
  if (worker_states_.size() > 1 && watchdog_->stalled(target)) {
    for (std::size_t i = 1; i < worker_states_.size(); ++i) {
      const std::size_t sibling = (target + i) % worker_states_.size();
      if (!watchdog_->stalled(sibling)) {
        target = sibling;
        break;
      }
    }
  }
  worker_states_[target]->signal.notify_one();
  inflight_submits_.fetch_sub(1, std::memory_order_seq_cst);
}

void ScoringService::resolve(Request& request, ScoreResult&& result) {
  // The single completion exit: every admitted-or-rejected request burns
  // or banks SLO budget exactly once. Synchronous rejections carry
  // enqueue_us == 0 (they never entered a ring) — count availability,
  // skip latency.
  {
    const bool ok = result.rejected == RejectReason::kNone;
    const std::uint64_t now_us = clock_->now_us();
    const std::uint64_t latency_us =
        ok && request.enqueue_us != 0 && now_us > request.enqueue_us
            ? now_us - request.enqueue_us
            : 0;
    slo_.record(now_us, ok, latency_us);
  }
  // Containment: a throwing caller callback must not unwind into the
  // worker loop (it would fail the rest of the batch and, pre-PR 7,
  // killed the thread). The request is already resolved by the call
  // itself, so swallow, count, continue.
  try {
    request.callback(request.callback_ctx, std::move(result));
  } catch (...) {
    obs_.callback_errors.inc();
    MEV_LOG_EVERY(*logger_, obs::LogLevel::kWarn, /*rate_per_s=*/1.0,
                  /*burst=*/5.0, "serve.service",
                  "submission callback threw; contained");
  }
}

void ScoringService::resolve_internal_error(Request& request) {
  // A *typed* rejection: callers (and futures) see kInternalError rather
  // than a rethrown service-side fault — the client-side taxonomy
  // (ServiceOracle) depends on it.
  ScoreResult result;
  result.rejected = RejectReason::kInternalError;
  result.stages.admitted_us = request.enqueue_us;
  resolve(request, std::move(result));
}

void ScoringService::count_deadline_stage(DeadlineStage stage,
                                          std::size_t n) {
  if (n == 0) return;
  switch (stage) {
    case DeadlineStage::kAdmission:
      obs_.expired_at_admission.inc(n);
      break;
    case DeadlineStage::kQueue:
      obs_.expired_in_queue.inc(n);
      break;
    case DeadlineStage::kPostDequeue:
      obs_.expired_post_dequeue.inc(n);
      break;
  }
}

std::shared_ptr<ModelFaultInjector> ScoringService::set_model_fault(
    ModelFaultProfile profile) {
  auto injector =
      std::make_shared<ModelFaultInjector>(std::move(profile), clock_);
  {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    fault_ = injector;
  }
  MEV_LOG(*logger_, obs::LogLevel::kWarn, "serve.service",
          "model fault injected",
          {obs::LogField::string("profile", injector->profile().name.c_str())});
  return injector;
}

void ScoringService::clear_model_fault() {
  std::shared_ptr<ModelFaultInjector> retired;
  {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    retired = std::move(fault_);
  }
  if (retired != nullptr)
    MEV_LOG(*logger_, obs::LogLevel::kInfo, "serve.service",
            "model fault cleared",
            {obs::LogField::string("profile",
                                   retired->profile().name.c_str())});
}

std::shared_ptr<ModelFaultInjector> ScoringService::current_fault() const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return fault_;
}

ScoreResult ScoringService::score(math::Matrix counts,
                                  SubmitOptions options) {
  ScoreFuture future = submit(std::move(counts), options);
  if (config_.workers == 0) {
    // Manual-pump mode: drive the batch through ourselves.
    while (future.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready)
      pump();
  }
  return future.get();
}

std::uint64_t ScoringService::swap_model(features::FeaturePipeline pipeline,
                                         std::shared_ptr<nn::Network> network) {
  // Validation (dimension checks) happens in the detector's constructor,
  // outside any lock — a bad swap never disturbs the running snapshot.
  std::uint64_t version = 0;
  {
    std::lock_guard<std::mutex> lock(snapshot_mutex_);
    auto fresh = std::make_shared<ModelSnapshot>(std::move(pipeline),
                                                 std::move(network),
                                                 next_version_++);
    if (fresh->count_cols != count_cols_)
      throw std::invalid_argument(
          "ScoringService::swap_model: new pipeline expects " +
          std::to_string(fresh->count_cols) + " count columns, service was " +
          "built for " + std::to_string(count_cols_));
    version = fresh->version;
    snapshot_ = std::move(fresh);
    // Published under the same mutex workers pin through: a submission
    // entering after swap_model() returns can only be scored by a batch
    // that pins this (or a newer) snapshot.
    published_version_.store(version, std::memory_order_release);
  }
  obs_.model_swaps.inc();
  // The old model's score distribution is not a baseline for the new one:
  // re-capture the drift reference from the new model's own verdicts.
  drift_.reset_reference();
  obs::instant(tracer_, "mev.serve.model_swap");
  MEV_LOG(*logger_, obs::LogLevel::kInfo, "serve.service",
          "model swapped", {obs::LogField::u64_value("version", version)});
  return version;
}

std::uint64_t ScoringService::model_version() const {
  return published_version_.load(std::memory_order_acquire);
}

void ScoringService::shutdown(bool drain) {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
  const State before = state_.load(std::memory_order_seq_cst);
  if (before == State::kStopped) return;
  if (before == State::kIdle) {
    // Never started: nothing queued, nothing to join.
    state_.store(State::kStopped, std::memory_order_seq_cst);
    return;
  }

  MEV_LOG(*logger_, obs::LogLevel::kInfo, "serve.service",
          "shutdown requested",
          {obs::LogField::string("mode", drain ? "drain" : "immediate"),
           obs::LogField::u64_value(
               "pending_rows",
               queued_rows_.load(std::memory_order_relaxed))});

  state_.store(drain ? State::kDraining : State::kStopped,
               std::memory_order_seq_cst);
  // Wait out submissions already past the state check: once the gate is
  // empty, every admitted request is visible in a ring (or already in a
  // worker's batcher) and the sweep below cannot miss one.
  while (inflight_submits_.load(std::memory_order_seq_cst) != 0)
    std::this_thread::yield();
  for (auto& worker : worker_states_) worker->signal.notify_all();

  join_workers();
  // Monitor stopped after the join: stall detection (and its sibling
  // recruitment) stays live while the drain waits out a wedged worker.
  watchdog_->stop();
  final_sweep(drain);
  state_.store(State::kStopped, std::memory_order_seq_cst);
  // The admin server stays up (serving 503 on /readyz) until destruction:
  // an operator can still scrape /metrics from a stopped service.
  MEV_LOG(*logger_, obs::LogLevel::kInfo, "serve.service", "service stopped");
}

obs::Readiness ScoringService::readiness() const {
  switch (state_.load(std::memory_order_acquire)) {
    case State::kIdle:
      return {false, "not started"};
    case State::kDraining:
      return {false, "draining"};
    case State::kStopped:
      return {false, "stopped"};
    case State::kRunning:
      break;
  }
  // Overload gate: brownout (and the hysteretic recovery tail) reads as
  // not-ready so load balancers drain away while shedding is active.
  switch (overload_.state()) {
    case OverloadState::kBrownout:
      return {false, "overload brownout"};
    case OverloadState::kRecovering:
      return {false, "overload recovering"};
    case OverloadState::kHealthy:
      break;
  }
  // Saturation gate: flag before admission control starts rejecting, so
  // load balancers steer away while the service still answers.
  const std::uint64_t high_water =
      config_.max_queue_rows - config_.max_queue_rows / 10;
  if (queued_rows_.load(std::memory_order_relaxed) >= high_water)
    return {false, "queue high-water"};
  // SLO fast-burn is ADVISORY ONLY: it annotates the ready verdict but
  // never flips 503 — draining traffic on an SLO page would amplify the
  // incident, and shedding is the overload controller's job.
  if (slo_.snapshot(clock_->now_us()).fast_burn_alert)
    return {true, "ok (advisory: slo fast burn)"};
  return {true, "ok"};
}

void ScoringService::join_workers() {
  for (auto& thread : threads_)
    if (thread.joinable()) thread.join();
  threads_.clear();
}

std::size_t ScoringService::drain_shard(Shard& shard, WorkerState& worker) {
  // Pull-based: take only until the batcher holds a full batch. Backlog
  // beyond that stays in the shared ring where any worker can claim it —
  // hoarding it in this worker's private batcher would serialize the
  // queue behind one thread and fatten the tail under overload.
  std::size_t moved = 0;
  std::size_t rows = 0;
  while (worker.batcher.pending_rows() < config_.max_batch_rows) {
    auto request = shard.ring.try_pop();
    if (!request.has_value()) break;
    rows += request->counts.rows();
    worker.batcher.add(std::move(*request));
    ++moved;
  }
  if (rows > 0) {
    const std::uint64_t left =
        shard.rows.fetch_sub(rows, std::memory_order_relaxed) - rows;
    shard.depth_gauge.set(static_cast<double>(left));
  }
  return moved;
}

std::size_t ScoringService::gather(std::size_t worker_index,
                                   WorkerState& worker, bool steal) {
  const std::size_t workers = std::max<std::size_t>(config_.workers, 1);
  std::size_t moved = 0;
  for (std::size_t s = worker_index; s < shards_.size(); s += workers)
    moved += drain_shard(*shards_[s], worker);
  if (moved == 0 && steal) {
    // Own shards empty: one stealing pass over everyone else's, so one
    // hot submitter cannot strand work behind a busy worker.
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      if (s % workers == worker_index % workers) continue;
      const std::size_t stolen = drain_shard(*shards_[s], worker);
      if (stolen > 0) {
        obs_.stolen_requests.inc(stolen);
        moved += stolen;
      }
    }
  }
  return moved;
}

bool ScoringService::all_shards_empty() const {
  for (const auto& shard : shards_)
    if (!shard->ring.approx_empty()) return false;
  return true;
}

std::size_t ScoringService::assemble_and_score(WorkerState& worker) {
  const std::uint64_t now = clock_->now_ms();
  overload_.tick(now);
  if (overload_.enabled()) {
    obs_.overload_state.set(static_cast<double>(overload_.state()));
    obs_.shed_fraction.set(overload_.shed_fraction());
  }
  std::vector<Request> expired;
  worker.batcher.take_expired(now, expired);
  if (!expired.empty()) {
    std::size_t expired_rows = 0;
    for (const auto& request : expired) expired_rows += request.counts.rows();
    count_deadline_stage(DeadlineStage::kQueue, expired.size());
    reject_all(std::move(expired), RejectReason::kDeadline, expired_rows);
  }
  std::optional<Batch> batch = worker.batcher.poll();
  if (!batch.has_value()) return 0;
  const std::size_t rows = batch->rows;
  queued_rows_.fetch_sub(rows, std::memory_order_acq_rel);
  obs_.queued_rows.set(
      static_cast<double>(queued_rows_.load(std::memory_order_relaxed)));
  score_batch(worker, std::move(*batch));
  return rows;
}

void ScoringService::worker_loop(std::size_t worker_index) {
  WorkerState& worker = *worker_states_[worker_index];
  Watchdog& watchdog = *watchdog_;
  for (;;) {
    // Progress proof for the stall monitor: bumped every iteration, so a
    // worker only reads as stalled while wedged *inside* one (gather /
    // score) pass — normally a model that never returns.
    watchdog.heartbeat(worker_index);
    const State state = state_.load(std::memory_order_seq_cst);
    if (state == State::kStopped)
      return;  // immediate stop: final_sweep() resolves leftovers
    std::size_t moved = 0;
    std::size_t scored = 0;
    try {
      moved = gather(worker_index, worker, /*steal=*/true);
      scored = assemble_and_score(worker);
    } catch (const std::exception& error) {
      // Last-resort containment (score_batch already fails its own batch
      // kInternalError): nothing may kill a worker thread. Requests the
      // iteration touched are still in the rings/batcher for the next
      // pass — none are lost.
      MEV_LOG_EVERY(*logger_, obs::LogLevel::kError, /*rate_per_s=*/1.0,
                    /*burst=*/5.0, "serve.service",
                    "worker iteration threw; contained",
                    {obs::LogField::u64_value("worker", worker_index),
                     obs::LogField::string("error", error.what())});
    } catch (...) {
      MEV_LOG_EVERY(*logger_, obs::LogLevel::kError, /*rate_per_s=*/1.0,
                    /*burst=*/5.0, "serve.service",
                    "worker iteration threw; contained",
                    {obs::LogField::u64_value("worker", worker_index)});
    }
    if (scored > 0 && worker_states_.size() > 1) {
      // Work conservation under affinity wakeups: if this worker's own
      // shards refilled with at least a full batch while it was scoring,
      // it is saturated — recruit one sibling to steal. Without this,
      // idle workers parked on their own signals would never learn about
      // a hot shard's backlog. The full-batch threshold matters: below
      // it the owner keeps up on its own, and a recruit would only split
      // the backlog into smaller batches.
      const std::size_t workers = worker_states_.size();
      std::uint64_t backlog_rows = 0;
      for (std::size_t s = worker_index; s < shards_.size(); s += workers)
        backlog_rows += shards_[s]->rows.load(std::memory_order_relaxed);
      if (backlog_rows >= config_.max_batch_rows) {
        std::size_t target =
            help_rr_.fetch_add(1, std::memory_order_relaxed) % workers;
        if (target == worker_index) target = (target + 1) % workers;
        worker_states_[target]->signal.notify_one();
      }
    }
    if (moved > 0 || scored > 0) continue;
    if (state == State::kDraining) {
      if (worker.batcher.empty() && all_shards_empty()) return;
      continue;  // score whatever is left, then re-check
    }

    // Idle: park on this worker's eventcount. The epoch key closes the
    // race with a submission's notify_one() landing between the re-check
    // and the wait. The re-check spans *all* shards (not just owned ones)
    // so a helper wakeup that raced with the gather above is not lost. It
    // also covers the batcher: the wait has no timeout, and a contained
    // throw can leave requests there.
    const runtime::EventCount::Key key = worker.signal.prepare_wait();
    if (!worker.batcher.empty() || !all_shards_empty() ||
        state_.load(std::memory_order_seq_cst) != State::kRunning) {
      worker.signal.cancel_wait();
      continue;
    }
    // Parked = healthy: the idle flag tells the watchdog a quiet worker
    // is waiting for work, not wedged in it.
    watchdog.set_idle(worker_index, true);
    worker.signal.wait(key);
    watchdog.set_idle(worker_index, false);
  }
}

void ScoringService::score_batch(WorkerState& worker, Batch batch) {
  obs::Span batch_span = obs::span(tracer_, "mev.serve.batch");
  const auto fault = current_fault();
  // Chaos phase 1 (latency faults) runs before the deadline gate below,
  // so an injected slow batch or stall deterministically expires
  // deadlined work at the execution stage.
  if (fault != nullptr) fault->pre_scan();

  // Post-dequeue deadline gate: time passes between batch formation and
  // this point (a slow predecessor batch, a wedged backend) — expired
  // work completes with kDeadline instead of consuming inference.
  {
    const std::uint64_t now = clock_->now_ms();
    bool any_expired = false;
    for (const auto& request : batch.requests)
      any_expired |= request.expired(now);
    if (any_expired) {
      std::vector<Request> live;
      std::vector<Request> expired;
      std::size_t live_rows = 0;
      live.reserve(batch.requests.size());
      for (auto& request : batch.requests) {
        if (request.expired(now)) {
          expired.push_back(std::move(request));
        } else {
          live_rows += request.counts.rows();
          live.push_back(std::move(request));
        }
      }
      count_deadline_stage(DeadlineStage::kPostDequeue, expired.size());
      // The whole batch was already uncharged from queued_rows_ when it
      // was popped, so nothing more to subtract here.
      reject_all(std::move(expired), RejectReason::kDeadline,
                 /*charged_rows=*/0);
      batch.requests = std::move(live);
      batch.rows = live_rows;
      if (batch.requests.empty()) return;
    }
  }

  const std::uint64_t formed_us = clock_->now_us();
  if (overload_.enabled()) {
    // CoDel signal: the *minimum* queue delay across this batch — a
    // burst leaves at least one fresh request per interval, a standing
    // queue does not.
    std::uint64_t min_delay_us = UINT64_MAX;
    for (const auto& request : batch.requests)
      min_delay_us = std::min(min_delay_us, formed_us - request.enqueue_us);
    overload_.record_delay(min_delay_us / 1000);
  }

  const auto snapshot = current_snapshot();
  const auto fail_batch = [this, &batch](const char* what) {
    // Containment: the model (or the session rebuild feeding it) failed.
    // The whole batch gets a typed kInternalError — a mis-sized verdict
    // vector must never be attributed row-by-row — and the worker thread
    // survives to take the next batch.
    obs_.batch_failures.inc();
    obs_.rejected_internal.inc(batch.requests.size());
    MEV_LOG_EVERY(*logger_, obs::LogLevel::kWarn, /*rate_per_s=*/1.0,
                  /*burst=*/5.0, "serve.service", "batch failed",
                  {obs::LogField::string("error", what),
                   obs::LogField::u64_value("rows", batch.rows)});
    for (auto& request : batch.requests) resolve_internal_error(request);
  };

  std::vector<core::Verdict> verdicts;
  std::uint64_t scan_start_us = formed_us;
  try {
    if (worker.pinned.get() != snapshot.get()) {
      // Model changed under us (hot swap) or first batch: bind a fresh
      // pre-warmed session. This is the only allocating path; between
      // swaps the steady state reuses every buffer.
      const std::size_t warm = config_.session_max_batch != 0
                                   ? config_.session_max_batch
                                   : config_.max_batch_rows;
      worker.session = std::make_unique<nn::InferenceSession>(
          snapshot->detector.make_session(warm));
      worker.pinned = snapshot;
    }

    {
      obs::Span assemble = obs::span(tracer_, "mev.serve.assemble");
      worker.batch_counts.resize(batch.rows, snapshot->count_cols);
      std::size_t row = 0;
      for (const auto& request : batch.requests)
        for (std::size_t i = 0; i < request.counts.rows(); ++i)
          worker.batch_counts.set_row(row++, request.counts.row(i));
      assemble.arg("rows", static_cast<double>(batch.rows));
      assemble.arg("requests", static_cast<double>(batch.requests.size()));
    }

    scan_start_us = clock_->now_us();
    verdicts =
        snapshot->detector.scan_counts(*worker.session, worker.batch_counts);
    // Chaos phase 2 (outcome faults) sits inside the containment block:
    // an injected throw or garble takes the same path a real backend
    // fault would.
    if (fault != nullptr) fault->post_scan(verdicts);
    if (verdicts.size() != batch.rows)
      throw std::runtime_error(
          "model returned " + std::to_string(verdicts.size()) +
          " verdicts for " + std::to_string(batch.rows) + " rows");
  } catch (const std::exception& error) {
    fail_batch(error.what());
    return;
  } catch (...) {
    fail_batch("unknown error");
    return;
  }
  const std::uint64_t done_us = clock_->now_us();
  batch_span.arg("rows", static_cast<double>(batch.rows));
  batch_span.arg("requests", static_cast<double>(batch.requests.size()));
  batch_span.arg("model_version", static_cast<double>(snapshot->version));

  // Counted before any request resolves: a completion callback (the HTTP
  // frontend writing its 200) must already see its request in stats().
  obs_.batches.inc();
  obs_.batch_rows.record(batch.rows);
  obs_.completed_requests.inc(batch.requests.size());
  obs_.completed_rows.inc(batch.rows);
  std::size_t offset = 0;
  for (auto& request : batch.requests) {
    obs_.queue_delay_us.record(formed_us - request.enqueue_us);
    obs_.e2e_latency_us.record(done_us - request.enqueue_us);
    ScoreResult result;
    result.model_version = snapshot->version;
    const std::size_t n = request.counts.rows();
    result.verdicts.assign(verdicts.begin() + offset,
                           verdicts.begin() + offset + n);
    offset += n;
    result.stages.admitted_us = request.enqueue_us;
    result.stages.formed_us = formed_us;
    result.stages.scan_start_us = scan_start_us;
    result.stages.scan_end_us = done_us;
    if (request.trace.valid()) {
      // Retroactive service-side spans, emitted on THIS worker thread but
      // parented under the submitter's request span — the cross-thread
      // half of the span tree.
      tracer_->complete_span("mev.serve.queue", request.trace,
                             request.enqueue_us, formed_us);
      tracer_->complete_span("mev.serve.scan", request.trace, scan_start_us,
                             done_us);
    }
    resolve(request, std::move(result));
  }

  // Drift: every verdict's confidence feeds the sliding score window
  // (and, until frozen, the reference population).
  for (const auto& verdict : verdicts)
    drift_.record(done_us, verdict.malware_confidence);
}

void ScoringService::reject_all(std::vector<Request> requests,
                                RejectReason reason,
                                std::size_t charged_rows) {
  if (requests.empty()) return;
  if (charged_rows > 0) {
    queued_rows_.fetch_sub(charged_rows, std::memory_order_acq_rel);
    obs_.queued_rows.set(
        static_cast<double>(queued_rows_.load(std::memory_order_relaxed)));
  }
  // Counted before resolving, like every other path (see score_batch).
  switch (reason) {
    case RejectReason::kQueueFull:
      obs_.rejected_queue_full.inc(requests.size());
      break;
    case RejectReason::kShuttingDown:
      obs_.rejected_shutting_down.inc(requests.size());
      break;
    case RejectReason::kDeadline:
      obs_.rejected_deadline.inc(requests.size());
      break;
    case RejectReason::kOverloaded:
      obs_.rejected_overloaded.inc(requests.size());
      break;
    case RejectReason::kInternalError:
      obs_.rejected_internal.inc(requests.size());
      break;
    case RejectReason::kNone:
      break;
  }
  for (auto& request : requests) {
    ScoreResult result;
    result.rejected = reason;
    result.stages.admitted_us = request.enqueue_us;
    resolve(request, std::move(result));
  }
}

void ScoringService::final_sweep(bool drain) {
  // Workers are joined (or never existed): one thread owns everything.
  WorkerState& sweeper = *worker_states_.front();

  if (drain) {
    // Score every leftover batch on this thread — same path as a worker,
    // so drained verdicts are indistinguishable from normal ones. The
    // rings need an outer loop: drain_shard takes at most one batch's
    // worth per pass.
    for (auto& state : worker_states_)
      while (assemble_and_score(*state) > 0) {
      }
    for (;;) {
      std::size_t moved = 0;
      for (auto& shard : shards_) moved += drain_shard(*shard, sweeper);
      const std::size_t scored = assemble_and_score(sweeper);
      if (moved == 0 && scored == 0) return;
    }
  }

  // Immediate stop: everything still queued is rejected, exactly once.
  std::vector<Request> orphans;
  std::size_t orphan_rows = 0;
  for (auto& state : worker_states_)
    while (auto batch = state->batcher.poll()) {
      orphan_rows += batch->rows;
      for (auto& request : batch->requests)
        orphans.push_back(std::move(request));
    }
  for (auto& shard : shards_) {
    std::size_t rows = 0;
    while (auto request = shard->ring.try_pop()) {
      rows += request->counts.rows();
      orphans.push_back(std::move(*request));
    }
    if (rows > 0) {
      orphan_rows += rows;
      const std::uint64_t left =
          shard->rows.fetch_sub(rows, std::memory_order_relaxed) - rows;
      shard->depth_gauge.set(static_cast<double>(left));
    }
  }
  reject_all(std::move(orphans), RejectReason::kShuttingDown, orphan_rows);
}

std::size_t ScoringService::pump() {
  if (config_.workers != 0)
    throw std::logic_error(
        "ScoringService::pump: only valid in manual mode (workers == 0)");
  WorkerState& worker = *worker_states_.front();
  for (auto& shard : shards_) drain_shard(*shard, worker);
  return assemble_and_score(worker);
}

ServiceStats ScoringService::stats() const {
  ServiceStats stats;
  stats.accepted_requests = obs_.accepted_requests.value();
  stats.accepted_rows = obs_.accepted_rows.value();
  stats.rejected_queue_full = obs_.rejected_queue_full.value();
  stats.rejected_shutting_down = obs_.rejected_shutting_down.value();
  stats.rejected_deadline = obs_.rejected_deadline.value();
  stats.rejected_overloaded = obs_.rejected_overloaded.value();
  stats.rejected_internal = obs_.rejected_internal.value();
  stats.expired_at_admission = obs_.expired_at_admission.value();
  stats.expired_in_queue = obs_.expired_in_queue.value();
  stats.expired_post_dequeue = obs_.expired_post_dequeue.value();
  stats.completed_requests = obs_.completed_requests.value();
  stats.completed_rows = obs_.completed_rows.value();
  stats.batches = obs_.batches.value();
  stats.model_swaps = obs_.model_swaps.value();
  stats.stolen_requests = obs_.stolen_requests.value();
  stats.spilled_submissions = obs_.spilled_submissions.value();
  stats.callback_errors = obs_.callback_errors.value();
  stats.batch_failures = obs_.batch_failures.value();
  stats.worker_stalls = watchdog_->stall_events();
  stats.worker_recoveries = watchdog_->recoveries();
  stats.stalled_workers = watchdog_->stalled_count();
  stats.overload_state = static_cast<std::uint64_t>(overload_.state());
  stats.shed_fraction = overload_.shed_fraction();
  const std::uint64_t now_us = clock_->now_us();
  stats.score_psi = drift_.psi(now_us);
  stats.drift_reference_frozen = drift_.reference_frozen();
  const obs::SloTracker::Snapshot slo = slo_.snapshot(now_us);
  stats.slo_fast_burn = slo.availability.fast_burn;
  stats.slo_slow_burn = slo.availability.slow_burn;
  stats.slo_budget_remaining = slo.availability.budget_remaining;
  stats.batch_rows = obs_.batch_rows.snapshot();
  stats.queue_delay_us = obs_.queue_delay_us.lifetime();
  stats.e2e_latency_us = obs_.e2e_latency_us.lifetime();
  return stats;
}

}  // namespace mev::serve
