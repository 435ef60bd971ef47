// ScoringFrontend: the network edge of the scoring service — an HTTP/1.1
// endpoint in front of serve::ScoringService, built on the shared
// obs::http::SocketServer (keep-alive + pipelining enabled).
//
//   POST /v1/score   body = rows to score (JSON array-of-rows or the
//                    compact binary format, negotiated via Content-Type —
//                    see net/wire.hpp). Optional X-Api-Key (when keys are
//                    configured) and X-Deadline-Ms (per-request budget,
//                    forwarded to the service's deadline enforcement).
//   GET  /healthz    liveness (no auth: probes must stay cheap)
//   GET  /readyz     the service's readiness verdict, 200/503
//
// Request flow: a socket worker parses the request and calls dispatch();
// rows are decoded and handed to ScoringService::submit_with_callback()
// with the ResponseTicket captured in the callback context. The worker
// thread is NOT held for the verdict — it returns to its connection loop
// and keeps reading pipelined requests; the service's completion (worker
// thread, or sweeper at shutdown — exactly-once either way) formats the
// response and resolves the ticket, and the connection loop writes
// responses in arrival order. Backpressure path: shard queue full →
// typed rejection → HTTP 503 within milliseconds, never an unbounded
// buffer in the net layer; socket-level backpressure (max_pipeline)
// reaches clients as TCP flow control.
//
// Status mapping (per-status Prometheus counters under mev.net.*):
//   401 unknown/missing API key        429 over-rate (+ Retry-After)
//   400 malformed body / bad columns   413 body over cap   415 bad type
//   503 queue_full / overloaded / shutting_down (+ Retry-After)
//   504 deadline                        500 internal_error
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/client_stats.hpp"
#include "net/rate_limiter.hpp"
#include "net/wire.hpp"
#include "obs/admin_server.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/http_server.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "serve/scoring_service.hpp"

namespace mev::net {

struct FrontendConfig {
  /// TCP port; 0 = kernel-assigned (read back from port()).
  std::uint16_t port = 0;
  std::string bind_address = "127.0.0.1";
  /// Socket workers; each owns one connection at a time, so this bounds
  /// concurrently-served connections (not concurrently-scored requests —
  /// those overlap freely via callbacks).
  std::size_t worker_threads = 4;
  std::size_t max_queued_connections = 64;
  /// Per-connection io timeout and idle keep-alive window.
  std::uint64_t io_timeout_ms = 5000;
  /// In-flight requests per connection before reads pause (pipelining
  /// depth); socket backpressure beyond that.
  std::size_t max_pipeline = 64;
  /// Request body cap → 413.
  std::size_t max_body_bytes = 1 << 20;
  /// Rows per request cap → 400 (bounds one request's batch footprint).
  std::size_t max_request_rows = 1024;
  /// API keys; empty = open endpoint (no auth, no rate limiting).
  std::vector<ApiKey> api_keys;
  /// Deadline applied when a request carries no X-Deadline-Ms; 0 = none.
  std::uint64_t default_deadline_ms = 0;
  /// Timing source; nullptr = the service's clock (shared deadlines).
  runtime::Clock* clock = nullptr;
  /// Log sink; nullptr = obs::default_logger().
  obs::Logger* logger = nullptr;
  /// Registry for the mev.net.* series; nullptr = the service's
  /// (ScoringService::metrics()), so its admin /metrics exports them.
  obs::MetricsRegistry* metrics = nullptr;
  /// Trace-id source and span sink; nullptr = ambient tracer. Correlation
  /// headers (X-Trace-Id, Server-Timing) are stamped on every score-path
  /// response regardless of whether recording is enabled.
  obs::Tracer* tracer = nullptr;
  /// Tail retention for /requestz: the N slowest + all error responses.
  obs::FlightRecorderConfig flight;
  /// Per-client windowed stats + score-drift PSI (net/client_stats.hpp),
  /// keyed by the limiter's client label ("(anon)" when no keys are
  /// configured).
  ClientStatsConfig client_stats;
  /// When set, the frontend registers GET /clientz on this admin server
  /// (and deregisters on destruction). Must outlive the frontend.
  obs::AdminServer* admin = nullptr;
};

/// Plain-counter mirror of the frontend's activity.
struct FrontendStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_shed = 0;
  std::uint64_t requests = 0;        // HTTP requests parsed and routed
  std::uint64_t scored_requests = 0;
  std::uint64_t scored_rows = 0;
  std::uint64_t auth_failures = 0;   // 401
  std::uint64_t rate_limited = 0;    // 429
  std::uint64_t bad_requests = 0;    // 400/413/415 from the score path
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_overloaded = 0;
  std::uint64_t rejected_shutting_down = 0;
  std::uint64_t rejected_deadline = 0;
  std::uint64_t rejected_internal = 0;
};

class ScoringFrontend {
 public:
  /// The service must outlive the frontend; stop() the frontend before
  /// destroying the service (its shutdown sweep resolves any in-flight
  /// tickets either way — exactly-once — but the ordering keeps the
  /// socket drain prompt).
  explicit ScoringFrontend(serve::ScoringService& service,
                           FrontendConfig config = {});
  ~ScoringFrontend();

  ScoringFrontend(const ScoringFrontend&) = delete;
  ScoringFrontend& operator=(const ScoringFrontend&) = delete;

  /// Binds and serves. False (with an error log) when the bind fails.
  bool start();
  /// Stops reading, drains in-flight responses, joins. Idempotent.
  void stop();

  bool running() const noexcept;
  std::uint16_t port() const noexcept;

  FrontendStats stats() const noexcept;
  const FrontendConfig& config() const noexcept { return config_; }

  /// Tail-retained span trees of slow and error requests — hand to
  /// obs::AdminServer::set_flight_recorder() to serve them on /requestz.
  const obs::FlightRecorder& flight_recorder() const noexcept {
    return recorder_;
  }

  /// Per-client windowed stats (the /clientz source). Entries appear on a
  /// client's first authenticated request.
  ClientStatsTracker& client_stats() noexcept { return clients_; }

 private:
  struct PendingScore;

  /// Per-score-request correlation + net-side timing, carried from
  /// dispatch through the completion callback.
  struct ScoreContext {
    obs::TraceContext trace;        // this request's root span identity
    std::uint64_t parent_span = 0;  // incoming traceparent's span id (or 0)
    std::uint64_t dispatch_us = 0;  // request handed to dispatch()
    std::uint64_t parse_end_us = 0; // body decoded (0 = never got there)
    std::uint32_t rows = 0;
    /// This request's client entry (tracker-owned, never evicted), set
    /// once the limiter resolves an identity; completion charges verdict
    /// scores or a rejection to it.
    ClientEntry* client = nullptr;
  };

  void dispatch(obs::http::Request&& request,
                obs::http::ResponseTicket ticket);
  void handle_score(obs::http::Request& request,
                    obs::http::ResponseTicket& ticket,
                    std::uint64_t dispatch_us);
  static void on_score(void* ctx, serve::ScoreResult&& result);
  void finish_score(PendingScore& pending, serve::ScoreResult&& result);

  /// The single exit for every score-path response: computes the
  /// telescoping stage breakdown, stamps X-Trace-Id + Server-Timing,
  /// emits the root/parse spans, offers the flight record, records the
  /// per-stage histograms, and writes the response.
  void respond_traced(obs::http::ResponseTicket& ticket,
                      const ScoreContext& sc,
                      const serve::StageStamps& stamps, int status,
                      serve::RejectReason reject, std::string_view body,
                      std::uint64_t retry_after_s);

  void respond_error(obs::http::ResponseTicket& ticket, int status,
                     std::string_view reason, std::string_view detail,
                     std::uint64_t retry_after_s = 0);
  void bump_status(int status) noexcept;

  serve::ScoringService& service_;
  FrontendConfig config_;
  runtime::Clock* clock_;
  obs::Logger* logger_;
  obs::Tracer* tracer_;
  ApiKeyLimiter limiter_;
  obs::FlightRecorder recorder_;
  ClientStatsTracker clients_;

  std::atomic<std::uint64_t> scored_requests_{0};
  std::atomic<std::uint64_t> scored_rows_{0};
  std::atomic<std::uint64_t> auth_failures_{0};
  std::atomic<std::uint64_t> rate_limited_{0};
  std::atomic<std::uint64_t> bad_requests_{0};
  std::atomic<std::uint64_t> rejected_[6] = {};  // by RejectReason index

  obs::Counter rows_counter_;
  obs::Counter auth_failures_counter_;
  obs::Counter rate_limited_counter_;
  obs::WindowedHistogram latency_us_;
  std::array<obs::Histogram, obs::kFlightStages> stage_hist_;
  std::vector<std::pair<int, obs::Counter>> status_counters_;
  std::vector<std::pair<const char*, obs::Counter>> reject_counters_;

  std::unique_ptr<obs::http::SocketServer> server_;
};

}  // namespace mev::net
