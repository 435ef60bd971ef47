// ScoringService: the in-process serving layer in front of
// core::MalwareDetector — the deployment surface the paper's black-box
// threat model assumes (the detector as a queried cloud service).
//
// Ingress is sharded and lock-free (PR 6). A submission:
//
//   submit_with_callback(counts, cb) ──▶ admission control (one atomic
//       row counter) ──▶ sharded bounded MPSC ring (shard =
//       submitter index, spill to a neighbor when full) ──▶ EventCount
//       wakeup (no mutex when workers are busy) ──▶ per-worker
//       MicroBatcher forms a batch as soon as the rings run dry ──▶
//       one pre-warmed nn::InferenceSession per worker scores it ──▶ the
//       callback runs
//
// The callback is the only completion mode. submit() is the same path
// with a heap std::promise as the callback context, and score() waits on
// that future. There is no global queue mutex and no condition-variable
// broadcast per submission; callback submissions make no per-request
// heap allocation on the submit path (a future costs its promise).
// Workers own their shard; an idle worker steals from busy shards so one
// hot submitter cannot strand work behind a parked worker.
//
// Guarantees (unchanged from the single-queue design):
//  * Bounded memory/latency: a submission is either admitted (queued rows
//    never exceed max_queue_rows) or rejected immediately with an explicit
//    reason — the queue never grows without bound.
//  * Exactly-once: every admitted request is resolved exactly once —
//    scored, deadline-rejected, or shutdown-rejected; never dropped,
//    never double-scored (each request lives in exactly one place: a
//    shard ring, one worker's batcher, or the batch being scored).
//  * Parity: a batch is scored through the same
//    MalwareDetector::scan_counts code path as sequential callers, and
//    per-row results are independent of batch composition, so service
//    verdicts are bit-identical to sequential scanning.
//  * Hot swap: swap_model() atomically publishes a new (pipeline, network)
//    snapshot (RCU-style: workers pin the snapshot per batch, the writer
//    never blocks scoring). Batches formed before the swap finish on the
//    snapshot they pinned; every request submitted after swap_model()
//    returns is scored on the new version or later. Zero downtime, no
//    lost or re-scored requests.
//  * Failure containment: a throwing or garbling model fails only its own
//    batch (kInternalError) and never kills the worker thread; a throwing
//    callback is swallowed and counted. Deadlines are enforced at
//    admission, at batch assembly, and again post-dequeue, so expired
//    work never consumes inference. Under sustained overload a
//    CoDel-style controller (config.overload) sheds a deterministic
//    admission fraction (kOverloaded) until queue delay recovers; a
//    wedged worker is detected by the watchdog
//    and its shards are served by siblings. See DESIGN.md §8 for the
//    state machine and invariants.
//
// Lifecycle: construct → start() → submit traffic → shutdown(). With
// ServiceConfig::autostart (the default) the constructor calls start()
// itself. A submission before start() fails fast with kShuttingDown —
// it is never silently queued into a service nobody is pumping.
//
// Batch formation is work-conserving: a worker scores what it holds as
// soon as its rings run dry, and requests that arrive meanwhile form the
// next batch, so batches grow with load and nothing waits on a timer. All
// deadline timing flows through an injectable runtime::Clock; with
// workers = 0 the service runs in manual-pump mode (no threads), which
// together with runtime::FakeClock makes every policy deterministic in
// tests.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/detector.hpp"
#include "features/pipeline.hpp"
#include "nn/network.hpp"
#include "nn/session.hpp"
#include "obs/admin_server.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "runtime/clock.hpp"
#include "runtime/event_count.hpp"
#include "runtime/mpsc_queue.hpp"
#include "serve/chaos.hpp"
#include "serve/drift.hpp"
#include "serve/micro_batcher.hpp"
#include "serve/overload.hpp"
#include "serve/request.hpp"
#include "serve/stats.hpp"
#include "serve/watchdog.hpp"

namespace mev::serve {

struct ServiceConfig {
  /// Worker threads. 0 = manual-pump mode: no threads are started and the
  /// caller drives scoring with pump() — the deterministic test mode.
  std::size_t workers = 4;
  /// Submission shards (independent MPSC rings). 0 = one per worker
  /// (minimum 1). Each submitting thread draws an index once from a
  /// process-wide counter and uses shard index mod shards, so distinct
  /// submitters take the rings round-robin; worker i owns the shards with
  /// index ≡ i (mod workers) and steals from the rest when its own are
  /// empty.
  std::size_t shards = 0;
  /// Capacity of each shard ring in *requests* (rounded up to a power of
  /// two). A full ring spills to the next shard; when every ring is full
  /// the submission is rejected kQueueFull.
  std::size_t shard_capacity = 1024;
  /// Largest micro-batch in rows (see BatcherConfig).
  std::size_t max_batch_rows = 64;
  /// Admission bound: a submission is rejected with kQueueFull when the
  /// rows already queued (rings + batchers) plus its own would exceed
  /// this.
  std::size_t max_queue_rows = 4096;
  /// Pre-warm each worker's session for this batch size (0 = use
  /// max_batch_rows), so the steady state is allocation-free from the
  /// first batch.
  std::size_t session_max_batch = 0;
  /// Start the service from the constructor (the common case). With
  /// autostart = false the service is built idle: submissions fail fast
  /// with kShuttingDown until start() is called.
  bool autostart = true;
  /// Timing source; nullptr = runtime::SystemClock::instance(). Must
  /// outlive the service.
  runtime::Clock* clock = nullptr;
  /// Span sink; nullptr = the ambient obs::current_tracer() at
  /// construction time (resolved once, on the constructing thread —
  /// worker threads inherit it). Each scored batch emits
  /// mev.serve.assemble + mev.serve.batch spans. Must outlive the service.
  obs::Tracer* tracer = nullptr;
  /// Home of every ServiceStats counter/histogram, under mev.serve.*
  /// (plus a per-shard mev.serve.shard<i>.queue_rows depth gauge);
  /// stats() reads these cells back. nullptr = a registry private to
  /// this service (see ScoringService::metrics()). Services sharing one
  /// registry share its cells, so each one's stats() reports their
  /// combined counts. Must outlive the service.
  obs::MetricsRegistry* metrics = nullptr;
  /// Structured log destination; nullptr = obs::default_logger(). Must
  /// outlive the service.
  obs::Logger* logger = nullptr;
  /// Embedded HTTP admin plane (/metrics /varz /healthz /readyz /tracez).
  /// Disabled by default; with enabled=true the service starts the server
  /// on construction, wires its /readyz to readiness(), and keeps it
  /// serving through shutdown() so a drain is observable as 503 — the
  /// server stops only when the service is destroyed. The config's sink
  /// pointers default to the service's own resolved sinks.
  obs::AdminServerConfig admin;
  /// Adaptive load shedding (serve/overload.hpp). Disabled by default:
  /// enabled, sustained queue delay above target flips the service into
  /// brownout — a deterministic fraction of admissions is rejected
  /// kOverloaded — and /readyz reports 503 until the controller recovers.
  OverloadConfig overload;
  /// Worker stall detection (serve/watchdog.hpp). The watchdog itself is
  /// always wired (worker heartbeats cost one relaxed atomic add); this
  /// config's `enabled` controls only the monitor *thread* — tests drive
  /// watchdog()->poll() by hand instead. A null watchdog clock inherits
  /// the service clock.
  WatchdogConfig watchdog;
  /// SLO objectives + burn-rate windows (obs/slo.hpp). Every resolved
  /// request feeds the tracker; /sloz and the mev.slo.* gauges read it.
  /// A fast burn above the alert threshold only ANNOTATES /readyz
  /// ("advisory"), never flips it — the overload controller owns 503.
  obs::SloConfig slo;
  /// Score-distribution drift (serve/drift.hpp): verdict confidences vs
  /// a reference window frozen at startup and re-captured on
  /// swap_model().
  DriftConfig drift;
};

class ScoringService {
 public:
  /// Serves `network` behind `pipeline`; dimensions are validated like
  /// core::MalwareDetector's constructor. Calls start() unless
  /// config.autostart is false.
  ScoringService(features::FeaturePipeline pipeline,
                 std::shared_ptr<nn::Network> network,
                 ServiceConfig config = {});
  /// Destructor drains pending work (shutdown(true)) if still running.
  ~ScoringService();

  ScoringService(const ScoringService&) = delete;
  ScoringService& operator=(const ScoringService&) = delete;

  /// Starts accepting traffic (spawns the worker pool when workers > 0).
  /// Returns true on the idle→running transition, false if the service
  /// was already started (or already shut down). Idempotent.
  bool start();

  /// Submits raw count rows (cols must equal the vocabulary size).
  /// Returns a future that resolves with verdicts in row order, or with
  /// a rejection. Admission (queue_full / shutting_down) is decided
  /// synchronously; those futures are already ready on return.
  ScoreFuture submit(math::Matrix counts, SubmitOptions options = {});

  /// The service's completion mode: `callback(ctx, result)` (non-null) is
  /// invoked exactly once — on a worker thread when scored, on the
  /// calling thread when rejected synchronously, or on the shutdown
  /// thread when swept. The callback must be fast and must not re-enter
  /// the service. No allocation on this path. Throws
  /// std::invalid_argument on a wrong column count, before the request
  /// exists.
  void submit_with_callback(math::Matrix counts, SubmitOptions options,
                            ScoreCallback callback, void* ctx);

  /// Synchronous call: submit + wait (pumping the batch itself when
  /// workers == 0).
  ScoreResult score(math::Matrix counts, SubmitOptions options = {});

  /// Atomically publishes a new model snapshot. The new pipeline must
  /// accept the same count dimension as the current one (queued requests
  /// stay scorable). Never blocks scoring; in-flight batches finish on
  /// the snapshot they pinned, and every submission entering after this
  /// returns is scored on the new (or a newer) version. Returns the new
  /// version.
  std::uint64_t swap_model(features::FeaturePipeline pipeline,
                           std::shared_ptr<nn::Network> network);

  /// Version of the currently-published snapshot (1 on construction).
  std::uint64_t model_version() const;

  /// Stops the service. With drain, pending requests are scored first;
  /// without, they are rejected with kShuttingDown. Subsequent
  /// submissions are rejected. Idempotent.
  void shutdown(bool drain = true);

  /// Manual-pump mode only (workers == 0): drains the shard rings into
  /// the pump batcher, expires overdue requests, then forms and scores at
  /// most one batch. Returns the number of rows scored.
  std::size_t pump();

  /// Point-in-time copy of counters and histograms, read from the
  /// registry cells in metrics().
  ServiceStats stats() const;

  /// The registry this service writes to: config.metrics, or the private
  /// one it owns when none was wired. The admin plane and an HTTP
  /// frontend without a registry of their own export it.
  obs::MetricsRegistry& metrics() const noexcept { return *metrics_; }

  /// The verdict served on /readyz: ready while running and below the
  /// queue high-water mark (90% of max_queue_rows); not ready (with a
  /// reason) while idle (not yet started), draining, stopped, or
  /// saturated.
  obs::Readiness readiness() const;

  /// The embedded admin server, or nullptr when config.admin.enabled was
  /// false (or start() failed).
  obs::AdminServer* admin_server() noexcept { return admin_.get(); }

  /// Installs a chaos-harness fault injector into the scoring path
  /// (pinned per batch like the model snapshot — an RCU swap, never
  /// blocking workers). Batches formed after clear_model_fault() returns
  /// score clean. The returned injector outlives the swap, so callers can
  /// read its injected() counts after clearing.
  std::shared_ptr<ModelFaultInjector> set_model_fault(
      ModelFaultProfile profile);
  void clear_model_fault();

  /// The stall detector. Always present; its monitor thread runs only
  /// when config.watchdog.enabled — tests call watchdog().poll(now)
  /// directly with FakeClock timestamps.
  Watchdog& watchdog() noexcept { return *watchdog_; }
  /// The load-shedding controller (inert unless config.overload.enabled).
  const OverloadController& overload() const noexcept { return overload_; }
  /// The SLO tracker behind /sloz; fed by every resolved request.
  const obs::SloTracker& slo() const noexcept { return slo_; }
  /// The score-drift tracker (reference frozen after
  /// config.drift.reference_min_count verdicts; reset on swap_model()).
  const ScoreDrift& drift() const noexcept { return drift_; }

  const ServiceConfig& config() const noexcept { return config_; }
  std::size_t shard_count() const noexcept { return shards_.size(); }
  /// The resolved timing source (config clock or the system clock); the
  /// HTTP frontend shares it so deadlines agree across layers.
  runtime::Clock& clock() const noexcept { return *clock_; }
  /// Expected column count of every submitted matrix (the feature
  /// vocabulary size) — invariant across model swaps, validated on swap.
  std::size_t count_cols() const noexcept { return count_cols_; }

 private:
  /// Immutable published model: pipeline + network wrapped back into a
  /// detector so workers reuse the exact sequential scan path.
  struct ModelSnapshot {
    ModelSnapshot(features::FeaturePipeline p, std::shared_ptr<nn::Network> n,
                  std::uint64_t v)
        : detector(std::move(p), std::move(n)),
          version(v),
          count_cols(detector.pipeline().extractor().vocab().size()) {}

    core::MalwareDetector detector;
    std::uint64_t version;
    std::size_t count_cols;  // expected submission width (vocab size)
  };

  enum class State : std::uint8_t { kIdle, kRunning, kDraining, kStopped };

  /// One ingress shard: a bounded lock-free ring plus its depth gauge.
  /// Heap-held so shards never move and each gets its own cache lines.
  struct Shard {
    explicit Shard(std::size_t capacity) : ring(capacity) {}
    runtime::MpscQueue<Request> ring;
    std::atomic<std::uint64_t> rows{0};  // rows currently in the ring
    obs::Gauge depth_gauge;
  };

  /// Per-worker scratch: the owned batcher, the parking signal, the
  /// pinned snapshot, its session, and the batch assembly buffer (all
  /// reused across batches; sessions reallocated only on snapshot
  /// change).
  struct WorkerState {
    explicit WorkerState(BatcherConfig batcher_config)
        : batcher(batcher_config) {}
    MicroBatcher batcher;
    /// Per-worker eventcount: a submission wakes the *owner* of the shard
    /// it landed on, so requests that arrive together coalesce in one
    /// batcher instead of fragmenting across whichever workers woke first
    /// into more, smaller batches.
    runtime::EventCount signal;
    std::shared_ptr<const ModelSnapshot> pinned;
    std::unique_ptr<nn::InferenceSession> session;
    math::Matrix batch_counts;
  };

  std::shared_ptr<const ModelSnapshot> current_snapshot() const;
  std::shared_ptr<ModelFaultInjector> current_fault() const;
  /// Resolves one request with `result` by running its callback. A
  /// throwing callback is contained here — counted, never propagated
  /// into the worker loop.
  void resolve(Request& request, ScoreResult&& result);
  /// Fails one request with kInternalError (a typed rejection — futures
  /// and callbacks never see a service-side exception).
  void resolve_internal_error(Request& request);
  /// Bumps the per-stage deadline expiry counters for `n` requests found
  /// expired at `stage` (all also counted under rejected_deadline).
  void count_deadline_stage(DeadlineStage stage, std::size_t n);

  void worker_loop(std::size_t worker_index);
  /// Moves every request out of `shard`'s ring into `worker`'s batcher.
  /// Returns the number of requests moved.
  std::size_t drain_shard(Shard& shard, WorkerState& worker);
  /// Drains the shards owned by `worker_index`; then, if `steal`, one
  /// pass over the remaining shards.
  std::size_t gather(std::size_t worker_index, WorkerState& worker,
                     bool steal);
  bool all_shards_empty() const;
  /// Expires + forms + scores at most one batch. Returns rows scored.
  std::size_t assemble_and_score(WorkerState& worker);
  /// Scores one batch and resolves its requests.
  void score_batch(WorkerState& worker, Batch batch);
  /// Rejects requests and bumps the matching counter. `charged` rows are
  /// subtracted from the admission counter (0 when already subtracted).
  void reject_all(std::vector<Request> requests, RejectReason reason,
                  std::size_t charged_rows);
  void join_workers();
  /// Post-join sweep: anything still in a ring or batcher is scored
  /// (drain) or rejected (no drain) on the calling thread. Exactly-once
  /// even for submissions that raced the running→stopping transition.
  void final_sweep(bool drain);

  /// The registry cells behind ServiceStats: each serve event is one
  /// write here (a relaxed atomic op for counters), and stats() reads
  /// them back. Rejections share one labeled family,
  /// mev.serve.rejected_total{reason=…}, and deadline expiries one
  /// mev.serve.deadline_expired_total{stage=…}.
  struct ObsHandles {
    obs::Counter accepted_requests, accepted_rows;
    obs::Counter rejected_queue_full, rejected_shutting_down,
        rejected_deadline, rejected_overloaded, rejected_internal;
    obs::Counter expired_at_admission, expired_in_queue,
        expired_post_dequeue;
    obs::Counter completed_requests, completed_rows;
    obs::Counter batches, model_swaps, stolen_requests, spilled_submissions;
    obs::Counter callback_errors, worker_stalls, worker_recoveries,
        batch_failures;
    obs::Histogram batch_rows;
    // Windowed: /metrics carries 1m/5m p50/p95/p99 gauges next to the
    // lifetime exposition for the two latency series.
    obs::WindowedHistogram queue_delay_us, e2e_latency_us;
    obs::Gauge queued_rows, overload_state, shed_fraction, stalled_workers;
  };

  ServiceConfig config_;
  runtime::Clock* clock_;
  obs::Tracer* tracer_;
  obs::Logger* logger_;
  /// Set only when config.metrics was null; metrics_ points at it then.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_;
  ObsHandles obs_;
  std::size_t count_cols_ = 0;  // invariant across swaps (validated)

  std::atomic<State> state_{State::kIdle};
  /// Rows admitted but not yet scored/rejected (rings + batchers): the
  /// admission bound and the readiness high-water signal.
  std::atomic<std::uint64_t> queued_rows_{0};
  /// Submissions between their state check and their ring push. shutdown()
  /// waits for this to reach zero after flipping state_, so its final
  /// sweep observes every ring push that passed the gate — the lock-free
  /// equivalent of the old check-and-enqueue-under-one-mutex.
  std::atomic<std::uint64_t> inflight_submits_{0};
  std::atomic<std::uint64_t> published_version_{0};

  std::vector<std::unique_ptr<Shard>> shards_;
  /// Round-robin cursor for helper wakeups: a worker that scores a batch
  /// while its own shard still has backlog pokes one sibling to steal.
  std::atomic<std::size_t> help_rr_{0};

  mutable std::mutex snapshot_mutex_;
  std::shared_ptr<const ModelSnapshot> snapshot_;
  /// Chaos-harness injector, published/retired under snapshot_mutex_ like
  /// the model snapshot (null = no fault).
  std::shared_ptr<ModelFaultInjector> fault_;
  std::uint64_t next_version_ = 1;

  OverloadController overload_;
  /// Fed from resolve() — the single completion exit — so every request
  /// (scored or rejected) burns or banks budget exactly once.
  obs::SloTracker slo_;
  /// Fed per verdict from score_batch(); reference reset on swap_model().
  ScoreDrift drift_;
  /// Heap-held so worker threads can touch it during construction races
  /// without the member moving; sized to the worker count.
  std::unique_ptr<Watchdog> watchdog_;

  std::vector<std::unique_ptr<WorkerState>> worker_states_;
  std::vector<std::thread> threads_;
  /// Serializes start()/shutdown() (never taken on the submit path).
  std::mutex lifecycle_mutex_;

  /// Declared last: destroyed first, so its readiness probe (which reads
  /// this service's state) never outlives the members it touches.
  std::unique_ptr<obs::AdminServer> admin_;
};

}  // namespace mev::serve
