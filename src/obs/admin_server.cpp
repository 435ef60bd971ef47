#include "obs/admin_server.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "obs/build_info.hpp"
#include "obs/json.hpp"
#include "obs/scope.hpp"
#include "obs/trace_context.hpp"

namespace mev::obs {

namespace {

constexpr const char* kTextPlain = "text/plain; charset=utf-8";
/// Spans returned by /tracez (newest last).
constexpr std::size_t kTracezSpans = 256;
constexpr const char* kPromText = "text/plain; version=0.0.4; charset=utf-8";
constexpr const char* kJson = "application/json";

}  // namespace

AdminServer::AdminServer(AdminServerConfig config)
    : config_(std::move(config)),
      tracer_(resolve(config_.tracer)),
      registry_(resolve(config_.metrics)),
      logger_(resolve(config_.logger)),
      clock_(config_.clock != nullptr ? config_.clock
                                      : &runtime::SystemClock::instance()) {
  if (config_.worker_threads == 0) config_.worker_threads = 1;
  if (config_.max_queued_connections == 0) config_.max_queued_connections = 1;
  requests_counter_ = registry_->counter(
      "mev.obs.admin.requests", "HTTP requests served by the admin plane");
  shed_counter_ = registry_->counter(
      "mev.obs.admin.connections_shed",
      "admin connections closed unserved because the queue was full");
  probe_ = [] { return Readiness{}; };
}

AdminServer::~AdminServer() { stop(); }

void AdminServer::set_readiness_probe(ReadinessProbe probe) {
  std::lock_guard<std::mutex> lock(probe_mutex_);
  probe_ = std::move(probe);
}

bool AdminServer::start() {
  if (server_ != nullptr && server_->running()) return true;

  // All socket handling lives in the shared http::SocketServer; the admin
  // plane is its connection-per-request configuration (keep_alive off,
  // default parser limits = bodies rejected) with synchronous routing.
  http::SocketServerConfig socket_cfg;
  socket_cfg.port = config_.port;
  socket_cfg.bind_address = config_.bind_address;
  socket_cfg.worker_threads = config_.worker_threads;
  socket_cfg.max_queued_connections = config_.max_queued_connections;
  socket_cfg.io_timeout_ms = config_.io_timeout_ms;
  socket_cfg.keep_alive = false;
  socket_cfg.log_component = "obs.admin";
  socket_cfg.logger = logger_;
  socket_cfg.shed_counter = shed_counter_;
  server_ = std::make_unique<http::SocketServer>(
      std::move(socket_cfg),
      [this](http::Request&& request, http::ResponseTicket ticket) {
        ticket.respond(handle(request));
      });
  if (!server_->start()) {
    server_.reset();
    return false;
  }
  return true;
}

void AdminServer::stop() {
  if (server_ != nullptr) server_->stop();
}

bool AdminServer::running() const noexcept {
  return server_ != nullptr && server_->running();
}

std::uint16_t AdminServer::port() const noexcept {
  return server_ != nullptr ? server_->port() : 0;
}

void AdminServer::add_endpoint(std::string path, std::string description,
                               EndpointHandler handler) {
  std::lock_guard<std::mutex> lock(endpoints_mutex_);
  for (auto& endpoint : extra_endpoints_) {
    if (endpoint.path == path) {
      endpoint.description = std::move(description);
      endpoint.handler = std::move(handler);
      return;
    }
  }
  extra_endpoints_.push_back(
      {std::move(path), std::move(description), std::move(handler)});
}

void AdminServer::remove_endpoint(std::string_view path) {
  std::lock_guard<std::mutex> lock(endpoints_mutex_);
  for (auto it = extra_endpoints_.begin(); it != extra_endpoints_.end(); ++it) {
    if (it->path == path) {
      extra_endpoints_.erase(it);
      return;
    }
  }
}

std::string AdminServer::metrics_body() const {
  // Derived gauges (SLO burn rates) are push-on-scrape: refresh them so
  // the exposition and /sloz agree on one evaluation time.
  if (SloTracker* slo = slo_.load(std::memory_order_acquire))
    slo->refresh_gauges(clock_->now_us());
  std::string body = registry_->prometheus();
  // The telemetry plane's own loss signals, appended so they exist even
  // when nothing else registered them: dropped spans mean a truncated
  // trace, runaway cardinality means an expensive scrape.
  body +=
      "# HELP trace_spans_dropped_total trace events dropped on ring "
      "overflow\n"
      "# TYPE trace_spans_dropped_total counter\n"
      "trace_spans_dropped_total ";
  body += std::to_string(tracer_->dropped());
  body +=
      "\n# HELP metrics_series registered series in the metrics registry\n"
      "# TYPE metrics_series gauge\n"
      "metrics_series ";
  body += std::to_string(registry_->size());
  body += '\n';
  return body;
}

std::string AdminServer::tracez_body(const http::Request& request) const {
  // Filters narrow WITHIN the retained window (the per-thread rings keep
  // the newest kTracezSpans-ish events): ?name_prefix= and ?min_dur_us=
  // drop non-matching spans, ?limit= keeps the newest N survivors.
  const auto params = http::parse_query(request.target);
  std::string_view name_prefix;
  if (const std::string* v = http::query_param(params, "name_prefix"))
    name_prefix = *v;
  std::uint64_t min_dur_us = 0;
  if (const std::string* v = http::query_param(params, "min_dur_us"))
    min_dur_us = std::strtoull(v->c_str(), nullptr, 10);
  std::size_t limit = kTracezSpans;
  if (const std::string* v = http::query_param(params, "limit")) {
    limit = std::strtoull(v->c_str(), nullptr, 10);
    if (limit == 0 || limit > kTracezSpans) limit = kTracezSpans;
  }

  std::vector<TraceEvent> events = tracer_->recent(kTracezSpans);
  std::erase_if(events, [&](const TraceEvent& e) {
    if (e.dur_us < min_dur_us) return true;
    return !name_prefix.empty() &&
           std::string_view(e.name).substr(0, name_prefix.size()) !=
               name_prefix;
  });
  if (events.size() > limit)
    events.erase(events.begin(),
                 events.end() - static_cast<std::ptrdiff_t>(limit));

  std::string body = "{\"spans\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) body += ',';
    first = false;
    body += "{\"name\":";
    json::append_string(body, e.name);
    body += ",\"ph\":\"";
    body += e.phase;
    body += "\",\"tid\":";
    body += std::to_string(e.tid);
    body += ",\"ts_us\":";
    body += std::to_string(e.ts_us);
    body += ",\"dur_us\":";
    body += std::to_string(e.dur_us);
    append_event_ids_and_args(body, e);
    body += '}';
  }
  body += "],\"dropped\":";
  body += std::to_string(tracer_->dropped());
  body += ",\"buffered\":";
  body += std::to_string(tracer_->event_count());
  body += "}\n";
  return body;
}

namespace {

void append_flight_spans(std::string& body, const FlightRecord& r) {
  body += "\"spans\":[";
  for (std::uint8_t s = 0; s < r.num_spans; ++s) {
    const FlightSpan& span = r.spans[s];
    if (s > 0) body += ',';
    body += "{\"name\":";
    json::append_string(body, span.name);
    body += ",\"span_id\":\"";
    body += format_hex64(span.span_id);
    body += '"';
    if (span.parent_span_id != 0) {
      body += ",\"parent_span_id\":\"";
      body += format_hex64(span.parent_span_id);
      body += '"';
    }
    body += ",\"start_us\":";
    body += std::to_string(span.start_us);
    body += ",\"dur_us\":";
    body += std::to_string(span.dur_us);
    body += '}';
  }
  body += ']';
}

std::string flight_record_json(const FlightRecord& r) {
  std::string body = "{\"trace_id\":\"";
  TraceContext ctx;
  ctx.trace_id = r.trace_id;
  ctx.trace_hi = r.trace_hi;
  body += format_trace_id(ctx);
  body += "\",\"root_span_id\":\"";
  body += format_hex64(r.root_span_id);
  body += "\",\"status\":";
  body += std::to_string(r.http_status);
  body += ",\"error\":";
  body += r.error ? "true" : "false";
  body += ",\"reject_reason\":";
  body += std::to_string(r.reject_reason);
  body += ",\"rows\":";
  body += std::to_string(r.rows);
  body += ",\"start_us\":";
  body += std::to_string(r.start_us);
  body += ",\"duration_us\":";
  body += std::to_string(r.duration_us);
  body += ",\"stages\":{";
  for (std::size_t i = 0; i < kFlightStages; ++i) {
    if (i > 0) body += ',';
    body += '"';
    body += kFlightStageNames[i];
    body += "\":";
    body += std::to_string(r.stage_us[i]);
  }
  body += "},";
  append_flight_spans(body, r);
  body += '}';
  return body;
}

/// One request as a self-contained Chrome trace (chrome://tracing,
/// ui.perfetto.dev): each retained span becomes a complete 'X' event in
/// the tracer's own event shape.
std::string flight_record_chrome(const FlightRecord& r) {
  std::string body = "{\"traceEvents\":[";
  for (std::uint8_t s = 0; s < r.num_spans; ++s) {
    const FlightSpan& span = r.spans[s];
    TraceEvent event;
    event.name = span.name;
    event.tid = 1;
    event.ts_us = span.start_us;
    event.dur_us = span.dur_us;
    event.trace_id = r.trace_id;
    event.span_id = span.span_id;
    event.parent_span_id = span.parent_span_id;
    if (s > 0) body += ',';
    append_chrome_event(body, event);
  }
  body += "],\"displayTimeUnit\":\"ms\"}\n";
  return body;
}

}  // namespace

std::string AdminServer::requestz_body(const http::Request& request) const {
  const FlightRecorder* recorder = flight_.load(std::memory_order_acquire);
  if (recorder == nullptr)
    return "{\"records\":[],\"recorded\":0,\"dropped\":0,"
           "\"detail\":\"no flight recorder attached\"}\n";

  std::vector<FlightRecord> records = recorder->snapshot();
  std::sort(records.begin(), records.end(),
            [](const FlightRecord& a, const FlightRecord& b) {
              return a.duration_us > b.duration_us;
            });

  const auto params = http::parse_query(request.target);
  if (const std::string* wanted = http::query_param(params, "trace_id")) {
    // Single-record lookup, optionally as a Chrome trace. Accepts the
    // 16-hex internal id or the full 32-hex W3C form (low half counts).
    std::uint64_t id = 0;
    std::string_view hex = *wanted;
    if (hex.size() == 32) hex = hex.substr(16);
    if (!parse_hex64(hex, &id))
      return "{\"error\":\"trace_id must be 16 or 32 hex chars\"}\n";
    for (const FlightRecord& r : records) {
      if (r.trace_id != id) continue;
      const std::string* format = http::query_param(params, "format");
      if (format != nullptr && *format == "chrome")
        return flight_record_chrome(r);
      std::string body = flight_record_json(r);
      body += '\n';
      return body;
    }
    return "{\"error\":\"trace_id not retained\"}\n";
  }

  std::string body = "{\"records\":[";
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i > 0) body += ',';
    body += flight_record_json(records[i]);
  }
  body += "],\"recorded\":";
  body += std::to_string(recorder->recorded());
  body += ",\"dropped\":";
  body += std::to_string(recorder->dropped());
  body += "}\n";
  return body;
}

std::string AdminServer::varz_body() const {
  // The registry snapshot, made self-describing: a "process" block (pid,
  // uptime, start time) is spliced in front of the registry's sections so
  // a scrape identifies its source process without a second request.
  std::string registry_json = registry_->json();
  std::string body = "{\"process\":{\"pid\":";
  body += std::to_string(process_pid());
  body += ",\"uptime_seconds\":";
  body += std::to_string(process_uptime_s());
  body += ",\"start_time_unix\":";
  body += std::to_string(process_start_unix_s());
  body += "},";
  // registry_json is always "{...}\n"; keep everything after its '{'.
  body.append(registry_json, 1, std::string::npos);
  return body;
}

std::string AdminServer::sloz_body() const {
  SloTracker* slo = slo_.load(std::memory_order_acquire);
  if (slo == nullptr)
    return "{\"detail\":\"no slo tracker attached\"}\n";
  const std::uint64_t now_us = clock_->now_us();
  slo->refresh_gauges(now_us);
  return slo->to_json(now_us);
}

namespace {

constexpr struct {
  const char* path;
  const char* description;
} kBuiltinEndpoints[] = {
    {"/healthz", "liveness: 200 while the process serves"},
    {"/readyz", "readiness verdict from the installed probe, 200/503"},
    {"/metrics", "Prometheus text exposition of the wired registry"},
    {"/varz", "JSON snapshot of the registry + process identity"},
    {"/sloz", "SLO burn rates and error budget, JSON"},
    {"/statusz", "build + process provenance (git SHA, flags, uptime)"},
    {"/tracez", "recent completed spans, JSON"},
    {"/requestz", "flight-recorder dump of slowest + error requests"},
};

}  // namespace

std::string AdminServer::index_body() const {
  std::string body = "mev admin endpoints\n\n";
  for (const auto& endpoint : kBuiltinEndpoints) {
    body += endpoint.path;
    body += "\t";
    body += endpoint.description;
    body += '\n';
  }
  std::lock_guard<std::mutex> lock(endpoints_mutex_);
  for (const auto& endpoint : extra_endpoints_) {
    body += endpoint.path;
    body += "\t";
    body += endpoint.description;
    body += '\n';
  }
  return body;
}

std::string AdminServer::handle(const http::Request& request) {
  requests_counter_.inc();
  if (request.method != "GET")
    return http::format_response(405, kTextPlain, "method not allowed\n");

  const std::string_view path = request.path();
  if (path == "/" || path == "/index")
    return http::format_response(200, kTextPlain, index_body());
  if (path == "/healthz")
    return http::format_response(200, kTextPlain, "ok\n");
  if (path == "/readyz") {
    ReadinessProbe probe;
    {
      std::lock_guard<std::mutex> lock(probe_mutex_);
      probe = probe_;
    }
    const Readiness readiness = probe ? probe() : Readiness{};
    return http::format_response(readiness.ready ? 200 : 503, kTextPlain,
                                 readiness.reason + "\n");
  }
  if (path == "/metrics")
    return http::format_response(200, kPromText, metrics_body());
  if (path == "/varz")
    return http::format_response(200, kJson, varz_body());
  if (path == "/sloz")
    return http::format_response(200, kJson, sloz_body());
  if (path == "/statusz")
    return http::format_response(200, kJson, build_info_json());
  if (path == "/tracez")
    return http::format_response(200, kJson, tracez_body(request));
  if (path == "/requestz")
    return http::format_response(200, kJson, requestz_body(request));
  {
    EndpointHandler handler;
    {
      std::lock_guard<std::mutex> lock(endpoints_mutex_);
      for (const auto& endpoint : extra_endpoints_)
        if (endpoint.path == path) {
          handler = endpoint.handler;
          break;
        }
    }
    if (handler) return handler(request);
  }
  return http::format_response(404, kTextPlain, "not found\n");
}

}  // namespace mev::obs
