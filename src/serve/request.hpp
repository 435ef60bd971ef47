// Request/response vocabulary of the scoring service. A submission either
// completes with one Verdict per input row or is REJECTED with an explicit
// reason — the service never queues unboundedly and never silently drops.
//
// Completion has one mode: a queued request carries a raw callback pointer
// and its context. ScoreFuture is a std::future built on top of it —
// ScoringService::submit() passes a heap std::promise as the callback
// context.
#pragma once

#include <cstdint>
#include <future>
#include <vector>

#include "core/detector.hpp"
#include "math/matrix.hpp"
#include "obs/trace_context.hpp"

namespace mev::serve {

/// Why a submission did not produce verdicts.
enum class RejectReason {
  kNone = 0,        // not rejected: verdicts are valid
  kQueueFull,       // admission control: queued rows would exceed the bound
  kShuttingDown,    // service stopped, not yet started, or stopping
  kDeadline,        // the request's deadline expired before scoring
  kOverloaded,      // shed at admission by the overload controller
  kInternalError,   // scoring failed (model threw or garbled its output)
};

inline const char* to_string(RejectReason reason) noexcept {
  switch (reason) {
    case RejectReason::kNone: return "none";
    case RejectReason::kQueueFull: return "queue_full";
    case RejectReason::kShuttingDown: return "shutting_down";
    case RejectReason::kDeadline: return "deadline";
    case RejectReason::kOverloaded: return "overloaded";
    case RejectReason::kInternalError: return "internal_error";
  }
  return "unknown";
}

/// Where along the pipeline a deadlined request was found expired. Every
/// stage rejects with RejectReason::kDeadline; the stage only feeds the
/// per-stage expiry counters (mev.serve.deadline_expired_total{stage=…}).
enum class DeadlineStage {
  kAdmission,    // already expired when submitted (propagated deadline)
  kQueue,        // expired waiting in a ring / batcher
  kPostDequeue,  // expired between batch formation and inference
};

inline const char* to_string(DeadlineStage stage) noexcept {
  switch (stage) {
    case DeadlineStage::kAdmission: return "admission";
    case DeadlineStage::kQueue: return "queue";
    case DeadlineStage::kPostDequeue: return "post_dequeue";
  }
  return "unknown";
}

/// Service-side timestamps (service clock, now_us) marking where one
/// request crossed each pipeline boundary. Zero = the request never
/// reached that boundary (e.g. a synchronous admission reject). The
/// frontend turns consecutive stamps into the queue/batch/scan entries of
/// the Server-Timing stage breakdown.
struct StageStamps {
  std::uint64_t admitted_us = 0;    // accepted into a submission shard
  std::uint64_t formed_us = 0;      // its batch was sealed by a worker
  std::uint64_t scan_start_us = 0;  // model forward began
  std::uint64_t scan_end_us = 0;    // verdicts materialized
};

/// Outcome of one submission: either verdicts (one per submitted row, in
/// submission order) or a rejection reason.
struct ScoreResult {
  RejectReason rejected = RejectReason::kNone;
  std::vector<core::Verdict> verdicts;
  /// Model snapshot version that scored this request (0 when rejected).
  std::uint64_t model_version = 0;
  /// Pipeline boundary timestamps for latency attribution.
  StageStamps stages;

  bool ok() const noexcept { return rejected == RejectReason::kNone; }
};

/// Per-submission options.
struct SubmitOptions {
  /// Relative deadline in milliseconds measured from submission on the
  /// service clock; 0 means no deadline. A request whose deadline passes
  /// before inference — in the queue, or even after its batch formed —
  /// is rejected with RejectReason::kDeadline instead of being scored
  /// late.
  std::uint64_t deadline_ms = 0;
  /// Absolute deadline on the service clock (runtime::Clock::now_ms
  /// epoch); 0 means none. This is the propagation form: an upstream
  /// caller forwards its own remaining budget instead of restarting the
  /// clock at each hop. When both fields are set the earlier deadline
  /// wins; a submission whose absolute deadline has already passed is
  /// rejected at admission without consuming queue capacity.
  std::uint64_t deadline_at_ms = 0;
  /// Request-scoped trace identity. An invalid (default) context means
  /// uncorrelated: the service emits no per-request spans for it. A valid
  /// one rides in the request slot across shard/batcher/worker threads
  /// and parents the service-side queue/scan spans.
  obs::TraceContext trace;
};

/// What ScoringService::submit() returns: resolves with the request's
/// outcome (verdicts or a typed rejection — never an exception).
using ScoreFuture = std::future<ScoreResult>;

/// Callback-mode completion: invoked exactly once with the request's
/// outcome, on whichever thread resolves it — a worker (scored), the
/// submitting thread (synchronous rejection), or the shutdown thread.
/// A plain function pointer + context, so callback submissions allocate
/// nothing per request.
using ScoreCallback = void (*)(void* ctx, ScoreResult&& result);

/// One queued unit of work. Internal to the service and the batcher, but
/// defined here so the batcher is unit-testable without the service.
/// The service always sets `callback`; resolve() runs it exactly once.
struct Request {
  math::Matrix counts;
  ScoreCallback callback = nullptr;
  void* callback_ctx = nullptr;
  std::uint64_t enqueue_us = 0;   // clock->now_us() at submit (histograms)
  std::uint64_t enqueue_ms = 0;   // clock->now_ms() at submit (admission)
  std::uint64_t deadline_ms = 0;  // absolute clock ms; 0 = none
  obs::TraceContext trace;        // copied from SubmitOptions; may be invalid

  bool expired(std::uint64_t now_ms) const noexcept {
    return deadline_ms != 0 && now_ms >= deadline_ms;
  }
};

}  // namespace mev::serve
