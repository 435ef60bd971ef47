#include "net/frontend.hpp"

#include <exception>
#include <iterator>
#include <utility>

#include "obs/scope.hpp"

namespace mev::net {

namespace {

constexpr const char* kTextPlain = "text/plain; charset=utf-8";
constexpr const char* kJson = "application/json";
/// Rows per request cap → 400 (bounds one request's batch footprint).
constexpr std::size_t kMaxRequestRows = 1024;

/// The statuses the score path can answer with; pre-registered so every
/// labeled family exists (at zero) from the first /metrics scrape.
constexpr int kStatuses[] = {200, 400, 401, 404, 405, 429, 500, 503, 504};

/// Indexed by reject_index().
constexpr const char* kRejectReasons[] = {"queue_full", "overloaded",
                                          "shutting_down", "deadline",
                                          "internal_error"};

/// Content-Type up to any ";parameter", trimmed — "application/json;
/// charset=utf-8" negotiates the same as "application/json".
std::string_view media_type(const std::string& content_type) noexcept {
  std::string_view type = content_type;
  const std::size_t semi = type.find(';');
  if (semi != std::string_view::npos) type = type.substr(0, semi);
  while (!type.empty() && (type.back() == ' ' || type.back() == '\t'))
    type.remove_suffix(1);
  return type;
}

bool parse_u64(std::string_view s, std::uint64_t* out) noexcept {
  if (s.empty() || s.size() > 18) return false;
  std::uint64_t value = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

std::size_t reject_index(serve::RejectReason reason) noexcept {
  switch (reason) {
    case serve::RejectReason::kQueueFull: return 0;
    case serve::RejectReason::kOverloaded: return 1;
    case serve::RejectReason::kShuttingDown: return 2;
    case serve::RejectReason::kDeadline: return 3;
    default: return 4;  // kInternalError (kNone never reaches here)
  }
}

/// A frontend without a registry of its own registers into the service's,
/// so the service's admin /metrics carries the mev_net_* series too.
FrontendConfig with_service_registry(FrontendConfig config,
                                     serve::ScoringService& service) {
  if (config.metrics == nullptr) config.metrics = &service.metrics();
  return config;
}

}  // namespace

/// Callback context for one in-flight scored request: owns the response
/// ticket until the service resolves the submission (exactly once —
/// scored, rejected, or swept at shutdown).
struct ScoringFrontend::PendingScore {
  ScoringFrontend* frontend;
  obs::http::ResponseTicket ticket;
  ScoreContext sc;
};

ScoringFrontend::ScoringFrontend(serve::ScoringService& service,
                                 FrontendConfig config)
    : service_(service),
      config_(with_service_registry(std::move(config), service)),
      clock_(config_.clock != nullptr ? config_.clock : &service.clock()),
      logger_(config_.logger != nullptr ? config_.logger
                                        : &obs::default_logger()),
      tracer_(obs::resolve(config_.tracer)),
      limiter_(config_.api_keys, clock_),
      recorder_(config_.flight),
      clients_(config_.client_stats, config_.metrics) {
  obs::MetricsRegistry* registry = config_.metrics;
  rows_counter_ = registry->counter("mev.net.rows_total",
                                    "rows received on /v1/score");
  for (std::size_t i = 0; i < obs::kFlightStages; ++i)
    stage_hist_[i] = registry->histogram(
        "mev.net.stage_us", "score request stage duration (us)",
        {{"stage", obs::kFlightStageNames[i]}});
  auth_failures_ =
      registry->counter("mev.net.auth_failures_total",
                        "requests rejected 401 (unknown/missing API key)");
  rate_limited_ = registry->counter("mev.net.rate_limited_total",
                                    "requests rejected 429 (over rate)");
  // Windowed: 1m/5m p50/p95/p99 gauges ride next to the lifetime
  // buckets on /metrics, timestamped by the frontend clock.
  latency_us_ = registry->windowed_histogram(
      "mev.net.request_latency_us",
      "score request latency, dispatch to response (us)", clock_);
  for (const int status : kStatuses)
    status_counters_.emplace_back(
        status,
        registry->counter("mev.net.http_responses_total",
                          "HTTP responses by status",
                          {{"status", std::to_string(status)}}));
  static_assert(std::size(kRejectReasons) ==
                std::tuple_size_v<decltype(rejected_)>);
  for (std::size_t i = 0; i < rejected_.size(); ++i)
    rejected_[i] = registry->counter("mev.net.rejected_total",
                                     "score requests rejected by the service",
                                     {{"reason", kRejectReasons[i]}});
  if (config_.admin != nullptr)
    config_.admin->add_endpoint(
        "/clientz", "per-client windowed query stats + score PSI, JSON",
        [this](const obs::http::Request&) {
          return obs::http::format_response(
              200, kJson, clients_.to_json(clock_->now_us()));
        });
}

ScoringFrontend::~ScoringFrontend() {
  stop();
  if (config_.admin != nullptr) config_.admin->remove_endpoint("/clientz");
}

bool ScoringFrontend::start() {
  if (server_ != nullptr && server_->running()) return true;
  obs::MetricsRegistry* registry = config_.metrics;

  obs::http::SocketServerConfig socket_cfg;
  socket_cfg.port = config_.port;
  socket_cfg.bind_address = config_.bind_address;
  socket_cfg.worker_threads = config_.worker_threads;
  socket_cfg.max_queued_connections = config_.max_queued_connections;
  socket_cfg.io_timeout_ms = config_.io_timeout_ms;
  socket_cfg.keep_alive = true;
  socket_cfg.max_pipeline = config_.max_pipeline;
  socket_cfg.limits.max_body_bytes = config_.max_body_bytes;
  socket_cfg.log_component = "net.http";
  socket_cfg.logger = logger_;
  socket_cfg.shed_counter = registry->counter(
      "mev.net.connections_shed_total",
      "connections closed unserved because the accept queue was full");
  socket_cfg.parse_error_counter = registry->counter(
      "mev.net.parse_errors_total",
      "connections answered from an HTTP parse error");
  server_ = std::make_unique<obs::http::SocketServer>(
      std::move(socket_cfg),
      [this](obs::http::Request&& request,
             obs::http::ResponseTicket ticket) {
        dispatch(std::move(request), std::move(ticket));
      });
  if (!server_->start()) {
    server_.reset();
    return false;
  }
  return true;
}

void ScoringFrontend::stop() {
  if (server_ != nullptr) server_->stop();
}

bool ScoringFrontend::running() const noexcept {
  return server_ != nullptr && server_->running();
}

std::uint16_t ScoringFrontend::port() const noexcept {
  return server_ != nullptr ? server_->port() : 0;
}

FrontendStats ScoringFrontend::stats() const noexcept {
  FrontendStats stats;
  if (server_ != nullptr) {
    const obs::http::SocketServer::Stats socket = server_->stats();
    stats.connections_accepted = socket.connections_accepted;
    stats.connections_shed = socket.connections_shed;
    stats.requests = socket.requests;
  }
  stats.scored_requests = scored_requests_.load(std::memory_order_relaxed);
  stats.scored_rows = scored_rows_.load(std::memory_order_relaxed);
  stats.auth_failures = auth_failures_.value();
  stats.rate_limited = rate_limited_.value();
  stats.bad_requests = bad_requests_.load(std::memory_order_relaxed);
  stats.rejected_queue_full = rejected_[0].value();
  stats.rejected_overloaded = rejected_[1].value();
  stats.rejected_shutting_down = rejected_[2].value();
  stats.rejected_deadline = rejected_[3].value();
  stats.rejected_internal = rejected_[4].value();
  return stats;
}

void ScoringFrontend::bump_status(int status) noexcept {
  for (auto& [candidate, counter] : status_counters_) {
    if (candidate == status) {
      counter.inc();
      return;
    }
  }
}

void ScoringFrontend::respond_error(obs::http::ResponseTicket& ticket,
                                    int status, std::string_view reason,
                                    std::string_view detail,
                                    std::uint64_t retry_after_s) {
  bump_status(status);
  std::vector<obs::http::HeaderView> extra;
  std::string retry_value;
  if (retry_after_s > 0) {
    retry_value = std::to_string(retry_after_s);
    extra.emplace_back("Retry-After", retry_value);
  }
  ticket.respond(obs::http::format_response(
      status, kJson, format_error_json(reason, detail), ticket.keep_alive(),
      extra));
}

void ScoringFrontend::dispatch(obs::http::Request&& request,
                               obs::http::ResponseTicket ticket) {
  try {
    const std::string_view path = request.path();
    if (path == "/v1/score") {
      if (request.method != "POST") {
        bump_status(405);
        ticket.respond(obs::http::format_response(
            405, kJson,
            format_error_json("method_not_allowed", "use POST"),
            ticket.keep_alive(), {{"Allow", "POST"}}));
        return;
      }
      handle_score(request, ticket, clock_->now_us());
      return;
    }
    if (path == "/healthz") {
      bump_status(200);
      ticket.respond(obs::http::format_response(
          200, kTextPlain, "ok\n", ticket.keep_alive(), {}));
      return;
    }
    if (path == "/readyz") {
      const obs::Readiness readiness = service_.readiness();
      const int status = readiness.ready ? 200 : 503;
      bump_status(status);
      ticket.respond(obs::http::format_response(
          status, kTextPlain, readiness.reason + "\n", ticket.keep_alive(),
          {}));
      return;
    }
    respond_error(ticket, 404, "not_found", "unknown path");
  } catch (const std::exception& e) {
    // Containment: a routing/parse bug answers 500, never a wedged
    // connection or a torn-down worker.
    respond_error(ticket, 500, "internal_error", e.what());
  }
}

void ScoringFrontend::handle_score(obs::http::Request& request,
                                   obs::http::ResponseTicket& ticket,
                                   std::uint64_t dispatch_us) {
  // 0. Correlation. An incoming W3C traceparent joins this request to the
  //    caller's trace; a malformed (or absent) one silently starts a
  //    fresh trace — correlation is never a reason to reject. Every exit
  //    below goes through respond_traced, which stamps X-Trace-Id and the
  //    Server-Timing stage breakdown.
  ScoreContext sc;
  sc.dispatch_us = dispatch_us;
  obs::TraceContext incoming;
  const std::string* traceparent = request.header("traceparent");
  if (traceparent != nullptr)
    incoming = obs::parse_traceparent(*traceparent);
  sc.trace = tracer_->make_context(incoming);
  sc.parent_span = incoming.span_id;
  const auto fail = [&](int status, const char* reason,
                        std::string_view detail,
                        std::uint64_t retry_after_s = 0) {
    respond_traced(ticket, sc, serve::StageStamps{}, status,
                   serve::RejectReason::kNone,
                   format_error_json(reason, detail), retry_after_s);
  };

  // 1. Authentication (presence only — the bucket charge needs the row
  //    count, so over-rate is decided after decode).
  const std::string* api_key = request.header("X-Api-Key");
  if (!limiter_.open() && api_key == nullptr) {
    auth_failures_.inc();
    fail(401, "unauthorized", "missing X-Api-Key");
    return;
  }

  // 2. Decode rows per Content-Type.
  const std::string* content_type = request.header("Content-Type");
  const std::string_view type =
      content_type != nullptr ? media_type(*content_type)
                              : std::string_view{};
  BodyParseResult parsed;
  if (type == kJsonContentType) {
    parsed = parse_json_rows(request.body, service_.count_cols(),
                             kMaxRequestRows);
  } else if (type == kBinaryContentType) {
    parsed = parse_binary_rows(request.body, service_.count_cols(),
                               kMaxRequestRows);
  } else {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    fail(415, "unsupported_media_type",
         "use application/json or application/x-mev-rows");
    return;
  }
  sc.parse_end_us = clock_->now_us();
  if (!parsed.ok) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    fail(400, "bad_request", parsed.error);
    return;
  }
  const std::size_t rows = parsed.rows.rows();
  sc.rows = static_cast<std::uint32_t>(rows);
  rows_counter_.inc(rows);

  // 3. Rate limit, charged per row against this key's bucket. The
  //    limiter's client label keys the per-client stats: every request
  //    that authenticates is counted against its client's windows (an
  //    over-rate one both counts and records a rejection).
  if (!limiter_.open()) {
    const ApiKeyLimiter::Decision decision =
        limiter_.check(*api_key, static_cast<double>(rows));
    if (decision.outcome == ApiKeyLimiter::Outcome::kUnknownKey) {
      auth_failures_.inc();
      fail(401, "unauthorized", "unknown API key");
      return;
    }
    sc.client = clients_.entry(decision.client);
    sc.client->record_request(sc.parse_end_us, rows);
    if (decision.outcome == ApiKeyLimiter::Outcome::kOverRate) {
      sc.client->record_reject(sc.parse_end_us);
      rate_limited_.inc();
      fail(429, "rate_limited", "per-key row budget exhausted",
           decision.retry_after_s);
      return;
    }
  } else {
    sc.client = clients_.entry("(anon)");
    sc.client->record_request(sc.parse_end_us, rows);
  }

  // 4. Deadline: X-Deadline-Ms when present; none otherwise.
  serve::SubmitOptions options;
  options.trace = sc.trace;
  const std::string* deadline_header = request.header("X-Deadline-Ms");
  if (deadline_header != nullptr) {
    std::uint64_t deadline_ms = 0;
    if (!parse_u64(*deadline_header, &deadline_ms)) {
      bad_requests_.fetch_add(1, std::memory_order_relaxed);
      fail(400, "bad_request",
           "X-Deadline-Ms must be a non-negative integer");
      return;
    }
    options.deadline_ms = deadline_ms;
  }

  // 5. Hand off to the service. The callback context owns the ticket
  //    from here; the socket worker returns to its connection loop. A
  //    synchronous rejection may already have fired on_score before
  //    submit_with_callback returns — hence release-before-call.
  auto pending = std::make_unique<PendingScore>();
  pending->frontend = this;
  pending->ticket = std::move(ticket);
  pending->sc = sc;
  PendingScore* raw = pending.release();
  try {
    service_.submit_with_callback(std::move(parsed.rows), options,
                                  &ScoringFrontend::on_score, raw);
  } catch (const std::exception& e) {
    // Validation threw before admission: the callback never fires;
    // reclaim the context and answer.
    std::unique_ptr<PendingScore> reclaim(raw);
    respond_traced(reclaim->ticket, reclaim->sc, serve::StageStamps{}, 500,
                   serve::RejectReason::kNone,
                   format_error_json("internal_error", e.what()),
                   /*retry_after_s=*/0);
  }
}

void ScoringFrontend::on_score(void* ctx, serve::ScoreResult&& result) {
  std::unique_ptr<PendingScore> pending(static_cast<PendingScore*>(ctx));
  pending->frontend->finish_score(*pending, std::move(result));
}

void ScoringFrontend::finish_score(PendingScore& pending,
                                   serve::ScoreResult&& result) {
  if (result.ok()) {
    scored_requests_.fetch_add(1, std::memory_order_relaxed);
    scored_rows_.fetch_add(pending.sc.rows, std::memory_order_relaxed);
    if (pending.sc.client != nullptr) {
      // Per-client drift: every verdict confidence feeds this client's
      // score window; the PSI gauge refreshes on the same timestamps.
      const std::uint64_t now_us = clock_->now_us();
      for (const auto& verdict : result.verdicts)
        pending.sc.client->record_score(now_us, verdict.malware_confidence);
      pending.sc.client->refresh_psi(now_us);
    }
    respond_traced(pending.ticket, pending.sc, result.stages, 200,
                   serve::RejectReason::kNone, format_verdicts_json(result),
                   /*retry_after_s=*/0);
    return;
  }
  if (pending.sc.client != nullptr)
    pending.sc.client->record_reject(clock_->now_us());
  const HttpStatus mapped = status_for(result.rejected);
  rejected_[reject_index(result.rejected)].inc();
  // 503s are retryable backpressure — say when; 504/500 are not.
  respond_traced(pending.ticket, pending.sc, result.stages, mapped.status,
                 result.rejected,
                 format_error_json(mapped.reason,
                                   serve::to_string(result.rejected)),
                 /*retry_after_s=*/mapped.status == 503 ? 1 : 0);
}

void ScoringFrontend::respond_traced(obs::http::ResponseTicket& ticket,
                                     const ScoreContext& sc,
                                     const serve::StageStamps& stamps,
                                     int status, serve::RejectReason reject,
                                     std::string_view body,
                                     std::uint64_t retry_after_s) {
  const std::uint64_t respond_us = clock_->now_us();

  // Telescoping stage boundaries over [dispatch, respond]. A zero stamp
  // (the request never reached that boundary — early error, reject) and
  // any cross-clock skew both collapse to "carry the previous boundary
  // forward", so consecutive diffs always partition the e2e latency:
  // their sum EQUALS respond - dispatch by construction.
  std::uint64_t t[obs::kFlightStages + 1] = {
      sc.dispatch_us,      sc.parse_end_us,    stamps.admitted_us,
      stamps.formed_us,    stamps.scan_start_us, stamps.scan_end_us,
      respond_us};
  for (std::size_t i = 1; i <= obs::kFlightStages; ++i)
    if (t[i] < t[i - 1]) t[i] = t[i - 1];
  std::array<std::uint64_t, obs::kFlightStages> stage_us;
  for (std::size_t i = 0; i < obs::kFlightStages; ++i)
    stage_us[i] = t[i + 1] - t[i];
  const std::uint64_t total_us = t[obs::kFlightStages] - t[0];

  latency_us_.record(total_us);
  for (std::size_t i = 0; i < obs::kFlightStages; ++i)
    stage_hist_[i].record(stage_us[i]);
  bump_status(status);

  // Spans: the net-side root + parse child; the service worker already
  // emitted mev.serve.queue / mev.serve.scan under the same trace id.
  if (tracer_->enabled()) {
    tracer_->complete_span("mev.net.parse", sc.trace, t[0], t[1]);
    tracer_->complete_span("mev.net.request", sc.trace, sc.parent_span, t[0],
                           respond_us);
  }

  // Flight record: the full stage tree in one POD. Stage span ids are
  // synthesized (root ^ stage#) — stable, collision-free within a trace,
  // and allocation-free.
  obs::FlightRecord record;
  record.trace_id = sc.trace.trace_id;
  record.trace_hi = sc.trace.trace_hi;
  record.root_span_id = sc.trace.span_id;
  record.start_us = t[0];
  record.duration_us = total_us;
  record.stage_us = stage_us;
  record.rows = sc.rows;
  record.http_status = static_cast<std::uint16_t>(status);
  record.reject_reason = static_cast<std::uint8_t>(reject);
  record.error = status != 200;
  record.spans[0] = obs::FlightSpan{"mev.net.request", sc.trace.span_id,
                                    sc.parent_span, t[0], total_us};
  for (std::size_t i = 0; i < obs::kFlightStages; ++i)
    record.spans[i + 1] =
        obs::FlightSpan{obs::kFlightStageNames[i],
                        sc.trace.span_id ^ (i + 1), sc.trace.span_id, t[i],
                        stage_us[i]};
  record.num_spans = obs::kFlightStages + 1;
  recorder_.record(record);

  // Correlation headers on every score-path response. Server-Timing
  // durations are milliseconds (the header's unit), microsecond-precise.
  std::string trace_id = obs::format_trace_id(sc.trace);
  std::string timing;
  timing.reserve(128);
  const auto append_ms = [&timing](std::uint64_t us) {
    timing += std::to_string(us / 1000);
    timing += '.';
    const std::uint64_t frac = us % 1000;
    timing += static_cast<char>('0' + frac / 100);
    timing += static_cast<char>('0' + frac / 10 % 10);
    timing += static_cast<char>('0' + frac % 10);
  };
  for (std::size_t i = 0; i < obs::kFlightStages; ++i) {
    timing += obs::kFlightStageNames[i];
    timing += ";dur=";
    append_ms(stage_us[i]);
    timing += ", ";
  }
  timing += "total;dur=";
  append_ms(total_us);

  std::vector<obs::http::HeaderView> extra;
  extra.emplace_back("X-Trace-Id", trace_id);
  extra.emplace_back("Server-Timing", timing);
  std::string retry_value;
  if (retry_after_s > 0) {
    retry_value = std::to_string(retry_after_s);
    extra.emplace_back("Retry-After", retry_value);
  }
  ticket.respond(obs::http::format_response(status, kJson, body,
                                            ticket.keep_alive(), extra));
}

}  // namespace mev::net
