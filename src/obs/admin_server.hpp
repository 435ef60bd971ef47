// Embedded HTTP admin server: the live telemetry plane for long-running
// processes (the scoring service, multi-hour black-box runs). Turns the
// pull-to-file exporters from the obs layer into scrapeable endpoints:
//
//   GET /metrics   Prometheus text exposition of the wired registry, plus
//                  the telemetry plane's own loss signals
//                  (trace_spans_dropped_total, metrics_series)
//   GET /varz      JSON snapshot of the same registry
//   GET /healthz   liveness: 200 "ok" while the process serves
//   GET /readyz    readiness: 200/503 from the installed probe (the
//                  scoring service wires accepting-vs-draining and the
//                  queue high-water mark here)
//   GET /tracez    last-N completed spans from the tracer rings, JSON;
//                  filters: ?name_prefix=&min_dur_us=&limit=
//   GET /requestz  flight-recorder dump — complete span trees + stage
//                  breakdowns of the slowest and error requests; one
//                  request as Chrome trace via ?trace_id=<16hex>&
//                  format=chrome
//   GET /sloz      burn rates + error budget from the attached
//                  SloTracker (obs/slo.hpp), JSON
//   GET /statusz   build + process provenance: git SHA, build flags,
//                  core count, pid, start time, uptime (obs/build_info)
//   GET /          plain-text index of every registered endpoint,
//                  including extras added via add_endpoint()
//
// Model: the shared http::SocketServer (one accept thread multiplexing on
// poll(), a BOUNDED connection queue, a small worker pool; full queue =
// connections shed immediately and counted) — the admin plane must never
// become a memory or latency liability for the process it observes.
// Connections are handled request-per-connection (Connection: close,
// keep-alive disabled) with a receive timeout, so a stuck scraper cannot
// pin a worker. stop() is idempotent and joins every thread; routing
// (handle()) is a pure function of the parsed request, unit-testable
// without sockets.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/http.hpp"
#include "obs/http_server.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "runtime/clock.hpp"

namespace mev::obs {

/// Readiness verdict returned by the installed probe. `reason` is served
/// as the /readyz body either way.
struct Readiness {
  bool ready = true;
  std::string reason = "ok";
};

struct AdminServerConfig {
  /// Off by default: embedding a listening socket is always opt-in.
  bool enabled = false;
  /// TCP port to bind; 0 = kernel-assigned ephemeral port (read it back
  /// from port() after start()).
  std::uint16_t port = 0;
  /// Loopback by default: the admin plane is an operator surface, not a
  /// public one.
  std::string bind_address = "127.0.0.1";
  /// Worker threads serving parsed connections.
  std::size_t worker_threads = 2;
  /// Accepted-but-unserved connections held at once; beyond this new
  /// connections are shed (closed) immediately.
  std::size_t max_queued_connections = 16;
  /// Spans returned by /tracez (newest last).
  std::size_t tracez_spans = 256;
  /// Per-connection receive/send timeout.
  std::uint64_t io_timeout_ms = 2000;
  /// Sinks served by the endpoints; nullptr = the ambient
  /// obs::current_tracer()/current_registry()/default_logger() at
  /// construction. Must outlive the server.
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
  Logger* logger = nullptr;
  /// Timing source for /sloz window evaluation; nullptr = the system
  /// clock. Must outlive the server.
  runtime::Clock* clock = nullptr;
};

class AdminServer {
 public:
  using ReadinessProbe = std::function<Readiness()>;

  explicit AdminServer(AdminServerConfig config = {});
  /// Stops and joins if still running.
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Installs the /readyz probe (replacing the default always-ready one).
  /// Called from worker threads; must be thread-safe. Safe to install
  /// before or after start().
  void set_readiness_probe(ReadinessProbe probe);

  /// Wires the /requestz source. A post-hoc setter (not config) because
  /// the frontend that owns the recorder is typically constructed after
  /// the service that owns this server. nullptr detaches; the recorder
  /// must outlive the server while attached.
  void set_flight_recorder(const FlightRecorder* recorder) noexcept {
    flight_.store(recorder, std::memory_order_release);
  }

  /// Wires the /sloz source (same post-hoc idiom as the flight recorder:
  /// the service that owns the tracker constructs after the server
  /// config). nullptr detaches; the tracker must outlive the server while
  /// attached. /metrics scrapes refresh the tracker's gauges.
  void set_slo_tracker(SloTracker* tracker) noexcept {
    slo_.store(tracker, std::memory_order_release);
  }

  /// Registers an extra GET endpoint served by handle() and listed on the
  /// `/` index. `handler` returns the full HTTP response (use
  /// http::format_response). Built-in paths win; re-registering a path
  /// replaces its handler. Thread-safe; callable before or after start().
  using EndpointHandler = std::function<std::string(const http::Request&)>;
  void add_endpoint(std::string path, std::string description,
                    EndpointHandler handler);
  /// Unregisters an extra endpoint (no-op for unknown paths). Call before
  /// destroying whatever the handler captures.
  void remove_endpoint(std::string_view path);

  /// Binds, listens, and spawns the accept/worker threads. Returns false
  /// (with an error log) when the socket cannot be bound; the process
  /// keeps running — telemetry must never take the workload down.
  bool start();

  /// Closes the listener, sheds queued connections, joins all threads.
  /// Idempotent.
  void stop();

  bool running() const noexcept;
  /// The bound TCP port (resolves port 0 to the kernel's choice); 0 when
  /// not started.
  std::uint16_t port() const noexcept;

  /// Routes one parsed request to its endpoint and returns the full HTTP
  /// response. Pure routing — no sockets — so tests can drive every
  /// endpoint directly.
  std::string handle(const http::Request& request);

  const AdminServerConfig& config() const noexcept { return config_; }

 private:
  std::string metrics_body() const;
  std::string tracez_body(const http::Request& request) const;
  std::string requestz_body(const http::Request& request) const;
  std::string varz_body() const;
  std::string sloz_body() const;
  std::string index_body() const;

  AdminServerConfig config_;
  Tracer* tracer_;
  MetricsRegistry* registry_;
  Logger* logger_;
  runtime::Clock* clock_;
  std::atomic<const FlightRecorder*> flight_{nullptr};
  std::atomic<SloTracker*> slo_{nullptr};

  Counter requests_counter_;
  Counter shed_counter_;

  mutable std::mutex probe_mutex_;
  ReadinessProbe probe_;

  struct ExtraEndpoint {
    std::string path;
    std::string description;
    EndpointHandler handler;
  };
  mutable std::mutex endpoints_mutex_;
  std::vector<ExtraEndpoint> extra_endpoints_;

  std::unique_ptr<http::SocketServer> server_;
};

}  // namespace mev::obs
