// AdminServer behavior: pure routing through handle() (every endpoint, no
// sockets), the readiness probe contract, the appended telemetry
// self-metrics, and a socket-level smoke test that speaks real HTTP to
// the listening port from this test binary.
#include <limits>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/admin_server.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/http.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "runtime/clock.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

namespace {

using mev::obs::AdminServer;
using mev::obs::AdminServerConfig;
using mev::obs::MetricsRegistry;
using mev::obs::Readiness;
using mev::obs::Tracer;
using mev::obs::TracerConfig;

mev::obs::http::Request make_request(const std::string& method,
                                     const std::string& target) {
  mev::obs::http::Request request;
  request.method = method;
  request.target = target;
  request.version = "HTTP/1.1";
  return request;
}

struct AdminFixture {
  mev::runtime::FakeClock clock;
  Tracer tracer{TracerConfig{.ring_capacity = 256, .clock = &clock,
                             .enabled = true}};
  MetricsRegistry registry;

  AdminServer make(AdminServerConfig config = {}) {
    config.tracer = &tracer;
    config.metrics = &registry;
    return AdminServer(std::move(config));
  }
};

TEST(AdminServer, HealthzAlwaysAnswersOk) {
  AdminFixture f;
  AdminServer server = f.make();
  const std::string response = server.handle(make_request("GET", "/healthz"));
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("\r\n\r\nok\n"), std::string::npos);
}

TEST(AdminServer, ReadyzFollowsTheInstalledProbe) {
  AdminFixture f;
  AdminServer server = f.make();
  // Default probe: always ready.
  EXPECT_NE(server.handle(make_request("GET", "/readyz"))
                .find("HTTP/1.1 200 OK"),
            std::string::npos);

  server.set_readiness_probe([] { return Readiness{false, "draining"}; });
  const std::string not_ready = server.handle(make_request("GET", "/readyz"));
  EXPECT_NE(not_ready.find("HTTP/1.1 503 Service Unavailable"),
            std::string::npos);
  EXPECT_NE(not_ready.find("draining\n"), std::string::npos);

  server.set_readiness_probe([] { return Readiness{true, "ok"}; });
  EXPECT_NE(server.handle(make_request("GET", "/readyz"))
                .find("HTTP/1.1 200 OK"),
            std::string::npos);
}

TEST(AdminServer, MetricsServesExpositionPlusSelfMetrics) {
  AdminFixture f;
  f.registry.counter("mev.test.queries", "queries").inc(7);
  AdminServer server = f.make();
  const std::string response = server.handle(make_request("GET", "/metrics"));
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(response.find("mev_test_queries 7\n"), std::string::npos);
  // The plane's own loss signals are always present.
  EXPECT_NE(response.find("# TYPE trace_spans_dropped_total counter\n"
                          "trace_spans_dropped_total 0\n"),
            std::string::npos);
  EXPECT_NE(response.find("# TYPE metrics_series gauge\n"),
            std::string::npos);
}

TEST(AdminServer, TracezServesRecentSpansAsJson) {
  AdminFixture f;
  {
    auto span = f.tracer.span("mev.test.op");
    span.arg("rows", 3.0);
    f.clock.advance(2);
  }
  AdminServer server = f.make();
  const std::string response = server.handle(make_request("GET", "/tracez"));
  EXPECT_NE(response.find("application/json"), std::string::npos);
  EXPECT_NE(response.find("\"name\":\"mev.test.op\""), std::string::npos);
  EXPECT_NE(response.find("\"dur_us\":2000"), std::string::npos);
  EXPECT_NE(response.find("\"args\":{\"rows\":3}"), std::string::npos);
  EXPECT_NE(response.find("\"dropped\":0"), std::string::npos);
}

TEST(AdminServer, TracezFiltersByPrefixDurationAndLimit) {
  AdminFixture f;
  // Three fast net spans, two slow serve spans, one slow net span.
  for (int i = 0; i < 3; ++i) {
    auto s = f.tracer.span("mev.net.parse");
    f.clock.advance(1);  // 1000 us
  }
  for (int i = 0; i < 2; ++i) {
    auto s = f.tracer.span("mev.serve.scan");
    f.clock.advance(5);  // 5000 us
  }
  {
    auto s = f.tracer.span("mev.net.request");
    f.clock.advance(9);  // 9000 us
  }
  AdminServer server = f.make();

  // Prefix filter: serve spans only.
  std::string response =
      server.handle(make_request("GET", "/tracez?name_prefix=mev.serve"));
  EXPECT_NE(response.find("mev.serve.scan"), std::string::npos);
  EXPECT_EQ(response.find("mev.net"), std::string::npos);

  // Duration filter: only the two 5 ms spans and the 9 ms span survive.
  response = server.handle(make_request("GET", "/tracez?min_dur_us=5000"));
  EXPECT_EQ(response.find("mev.net.parse"), std::string::npos);
  EXPECT_NE(response.find("mev.serve.scan"), std::string::npos);
  EXPECT_NE(response.find("mev.net.request"), std::string::npos);

  // Combined: slow AND net-prefixed leaves one span.
  response = server.handle(
      make_request("GET", "/tracez?name_prefix=mev.net&min_dur_us=5000"));
  EXPECT_EQ(response.find("mev.serve.scan"), std::string::npos);
  EXPECT_EQ(response.find("mev.net.parse"), std::string::npos);
  EXPECT_NE(response.find("mev.net.request"), std::string::npos);

  // Limit keeps the NEWEST survivors: limit=1 over everything is the
  // final span.
  response = server.handle(make_request("GET", "/tracez?limit=1"));
  EXPECT_EQ(response.find("mev.serve.scan"), std::string::npos);
  EXPECT_NE(response.find("mev.net.request"), std::string::npos);

  // Garbage filter values degrade to "no filter", never an error.
  response =
      server.handle(make_request("GET", "/tracez?limit=banana&min_dur_us=x"));
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("mev.net.parse"), std::string::npos);
}

TEST(AdminServer, TracezIncludesCorrelationIdsWhenPresent) {
  AdminFixture f;
  const mev::obs::TraceContext ctx = f.tracer.make_context();
  f.tracer.complete_span("mev.net.request", ctx, /*parent_span_id=*/0, 0,
                         250);
  AdminServer server = f.make();
  const std::string response =
      server.handle(make_request("GET", "/tracez"));
  EXPECT_NE(response.find("\"trace_id\":\""), std::string::npos) << response;
  EXPECT_NE(response.find(mev::obs::format_hex64(ctx.trace_id)),
            std::string::npos);
  EXPECT_NE(response.find(mev::obs::format_hex64(ctx.span_id)),
            std::string::npos);
}

TEST(AdminServer, NonFiniteNumbersAreWrittenAsNull) {
  // JSON has no NaN/Infinity literal: /tracez, the Chrome trace and a JSON
  // log line must write them as null to stay parseable.
  AdminFixture f;
  {
    auto span = f.tracer.span("mev.test.op");
    span.arg("x", std::numeric_limits<double>::quiet_NaN());
    span.arg("y", std::numeric_limits<double>::infinity());
  }
  std::ostringstream sink;
  mev::obs::LoggerConfig log_config;
  log_config.sink = &sink;
  log_config.clock = &f.clock;
  log_config.metrics = &f.registry;
  mev::obs::Logger logger(log_config);
  logger.log(mev::obs::LogLevel::kWarn, "obs.test", "scored",
             {mev::obs::LogField::f64_value(
                 "v", std::numeric_limits<double>::quiet_NaN())});

  AdminServer server = f.make();
  const std::string tracez = server.handle(make_request("GET", "/tracez"));
  const std::string chrome = f.tracer.chrome_trace();
  const std::string line = sink.str();
  EXPECT_NE(tracez.find("\"args\":{\"x\":null,\"y\":null}"), std::string::npos)
      << tracez;
  EXPECT_NE(chrome.find("\"args\":{\"x\":null,\"y\":null}"), std::string::npos)
      << chrome;
  EXPECT_NE(line.find("\"v\":null}"), std::string::npos) << line;
  for (const std::string* doc : {&tracez, &chrome, &line}) {
    EXPECT_EQ(doc->find("nan"), std::string::npos) << *doc;
    EXPECT_EQ(doc->find("inf"), std::string::npos) << *doc;
  }
}

TEST(AdminServer, RequestzWithoutARecorderExplainsItself) {
  AdminFixture f;
  AdminServer server = f.make();
  const std::string response =
      server.handle(make_request("GET", "/requestz"));
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("no flight recorder attached"), std::string::npos);
}

TEST(AdminServer, RequestzServesRetainedRecordsSlowestFirst) {
  AdminFixture f;
  mev::obs::FlightRecorder recorder;
  mev::obs::FlightRecord fast;
  fast.trace_id = 0x11;
  fast.root_span_id = 0x12;
  fast.start_us = 100;
  fast.duration_us = 500;
  fast.http_status = 200;
  fast.rows = 4;
  fast.stage_us = {10, 20, 30, 40, 50, 350};
  fast.spans[0] = {"mev.net.request", 0x12, 0, 100, 500};
  fast.spans[1] = {"scan", 0x12 ^ 5, 0x12, 250, 50};
  fast.num_spans = 2;
  mev::obs::FlightRecord slow = fast;
  slow.trace_id = 0x21;
  slow.root_span_id = 0x22;
  slow.duration_us = 9000;
  recorder.record(fast);
  recorder.record(slow);

  AdminServer server = f.make();
  server.set_flight_recorder(&recorder);
  const std::string response =
      server.handle(make_request("GET", "/requestz"));
  // Slowest first: trace 21 appears before trace 11.
  const std::size_t slow_at = response.find("0000000000000021");
  const std::size_t fast_at = response.find("0000000000000011");
  ASSERT_NE(slow_at, std::string::npos) << response;
  ASSERT_NE(fast_at, std::string::npos);
  EXPECT_LT(slow_at, fast_at);
  // Stage taxonomy and span tree are embedded per record.
  EXPECT_NE(response.find("\"parse\":10"), std::string::npos);
  EXPECT_NE(response.find("\"serialize\":350"), std::string::npos);
  EXPECT_NE(response.find("\"name\":\"mev.net.request\""), std::string::npos);
  EXPECT_NE(response.find("\"recorded\":2"), std::string::npos);

  // Detaching the recorder (the example does this before frontend
  // teardown) restores the explain-yourself response.
  server.set_flight_recorder(nullptr);
  EXPECT_NE(server.handle(make_request("GET", "/requestz"))
                .find("no flight recorder attached"),
            std::string::npos);
}

TEST(AdminServer, RequestzLooksUpOneTraceInBothIdForms) {
  AdminFixture f;
  mev::obs::FlightRecorder recorder;
  mev::obs::FlightRecord record;
  record.trace_id = 0xabc;
  record.trace_hi = 0xdef;
  record.root_span_id = 0x1;
  record.start_us = 0;
  record.duration_us = 100;
  record.http_status = 200;
  record.spans[0] = {"mev.net.request", 0x1, 0, 0, 100};
  record.num_spans = 1;
  recorder.record(record);
  AdminServer server = f.make();
  server.set_flight_recorder(&recorder);

  // 16-hex internal id.
  std::string response = server.handle(
      make_request("GET", "/requestz?trace_id=0000000000000abc"));
  EXPECT_NE(response.find("\"duration_us\":100"), std::string::npos)
      << response;
  // 32-hex W3C form (low half selects).
  response = server.handle(make_request(
      "GET",
      "/requestz?trace_id=0000000000000def0000000000000abc"));
  EXPECT_NE(response.find("\"duration_us\":100"), std::string::npos);
  // Chrome export of a single record.
  response = server.handle(make_request(
      "GET", "/requestz?trace_id=0000000000000abc&format=chrome"));
  EXPECT_NE(response.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(response.find("\"ph\":\"X\""), std::string::npos);
  // Unknown id and malformed id both answer with a JSON error, not 4xx.
  response = server.handle(
      make_request("GET", "/requestz?trace_id=00000000000000ff"));
  EXPECT_NE(response.find("not retained"), std::string::npos);
  response =
      server.handle(make_request("GET", "/requestz?trace_id=zzz"));
  EXPECT_NE(response.find("16 or 32 hex"), std::string::npos);
}

TEST(AdminServer, VarzServesTheJsonSnapshot) {
  AdminFixture f;
  f.registry.counter("mev.test.queries").inc(2);
  AdminServer server = f.make();
  const std::string response = server.handle(make_request("GET", "/varz"));
  EXPECT_NE(response.find("application/json"), std::string::npos);
  // The snapshot carries the caller's series plus the admin plane's own
  // request counter (incremented by this very scrape).
  EXPECT_NE(response.find("\"mev.test.queries\":2"), std::string::npos)
      << response;
  EXPECT_NE(response.find("\"mev.obs.admin.requests\":1"), std::string::npos)
      << response;
}

TEST(AdminServer, UnknownPathsAnswer404AndNonGet405) {
  AdminFixture f;
  AdminServer server = f.make();
  EXPECT_NE(server.handle(make_request("GET", "/nope"))
                .find("HTTP/1.1 404 Not Found"),
            std::string::npos);
  EXPECT_NE(server.handle(make_request("POST", "/metrics"))
                .find("HTTP/1.1 405 Method Not Allowed"),
            std::string::npos);
  // Query strings are stripped before routing.
  EXPECT_NE(server.handle(make_request("GET", "/healthz?verbose=1"))
                .find("HTTP/1.1 200 OK"),
            std::string::npos);
}

TEST(AdminServer, RequestsAreCountedInTheRegistry) {
  AdminFixture f;
  AdminServer server = f.make();
  (void)server.handle(make_request("GET", "/healthz"));
  (void)server.handle(make_request("GET", "/nope"));
  EXPECT_EQ(f.registry.counter("mev.obs.admin.requests").value(), 2u);
}

TEST(AdminServer, StartStopIsIdempotentAndResolvesEphemeralPorts) {
  AdminFixture f;
  AdminServerConfig config;
  config.enabled = true;
  config.port = 0;  // kernel-assigned
  AdminServer server = f.make(std::move(config));
  ASSERT_TRUE(server.start());
  EXPECT_TRUE(server.running());
  EXPECT_NE(server.port(), 0);
  EXPECT_TRUE(server.start());  // already running: still true
  server.stop();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.port(), 0);
  server.stop();  // idempotent
}

// Socket-level smoke: speak real HTTP/1.1 to the bound port, torn into
// two sends, and check the response framing end to end.
std::string fetch(std::uint16_t port, const std::string& request_text) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  // Split the request at an awkward boundary to exercise torn reads.
  const std::size_t half = request_text.size() / 2;
  (void)!::send(fd, request_text.data(), half, 0);
  (void)!::send(fd, request_text.data() + half, request_text.size() - half,
                0);
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0)
    response.append(buffer, static_cast<std::size_t>(n));
  ::close(fd);
  return response;
}

TEST(AdminServer, SocketSmokeHealthzAndMetrics) {
  AdminFixture f;
  f.registry.counter("mev.test.smoke", "smoke").inc(42);
  AdminServerConfig config;
  config.enabled = true;
  AdminServer server = f.make(std::move(config));
  ASSERT_TRUE(server.start());
  const std::uint16_t port = server.port();
  ASSERT_NE(port, 0);

  const std::string health =
      fetch(port, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos) << health;
  EXPECT_NE(health.find("ok\n"), std::string::npos);

  const std::string metrics =
      fetch(port, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(metrics.find("mev_test_smoke 42\n"), std::string::npos)
      << metrics;

  const std::string missing =
      fetch(port, "GET /bogus HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_NE(missing.find("HTTP/1.1 404 Not Found"), std::string::npos);

  const std::string malformed = fetch(port, "garbage\r\n\r\n");
  EXPECT_NE(malformed.find("HTTP/1.1 400 Bad Request"), std::string::npos);
  server.stop();
}

TEST(AdminServer, SocketReadyzFlipsWithTheProbe) {
  AdminFixture f;
  AdminServerConfig config;
  config.enabled = true;
  AdminServer server = f.make(std::move(config));
  ASSERT_TRUE(server.start());
  const std::uint16_t port = server.port();

  EXPECT_NE(fetch(port, "GET /readyz HTTP/1.1\r\n\r\n")
                .find("HTTP/1.1 200 OK"),
            std::string::npos);
  server.set_readiness_probe([] { return Readiness{false, "draining"}; });
  const std::string draining = fetch(port, "GET /readyz HTTP/1.1\r\n\r\n");
  EXPECT_NE(draining.find("HTTP/1.1 503 Service Unavailable"),
            std::string::npos);
  EXPECT_NE(draining.find("draining\n"), std::string::npos);
  server.stop();
}

TEST(AdminServer, IndexListsEveryBuiltinEndpoint) {
  AdminFixture f;
  AdminServer server = f.make();
  const std::string response = server.handle(make_request("GET", "/"));
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  for (const char* path : {"/healthz", "/readyz", "/metrics", "/varz",
                           "/sloz", "/statusz", "/tracez", "/requestz"})
    EXPECT_NE(response.find(path), std::string::npos) << path;
  // /index is an alias for environments where "/" is load-balancer-probed.
  EXPECT_EQ(server.handle(make_request("GET", "/index")), response);
}

TEST(AdminServer, StatuszServesBuildProvenance) {
  AdminFixture f;
  AdminServer server = f.make();
  const std::string response = server.handle(make_request("GET", "/statusz"));
  EXPECT_NE(response.find("application/json"), std::string::npos);
  EXPECT_NE(response.find("\"git_sha\":\""), std::string::npos) << response;
  EXPECT_NE(response.find("\"build_flags\":\""), std::string::npos);
  EXPECT_NE(response.find("\"hardware_concurrency\":"), std::string::npos);
  EXPECT_NE(response.find("\"pid\":"), std::string::npos);
  EXPECT_NE(response.find("\"start_time_unix\":"), std::string::npos);
  EXPECT_NE(response.find("\"uptime_seconds\":"), std::string::npos);
}

TEST(AdminServer, VarzIncludesTheProcessBlock) {
  AdminFixture f;
  AdminServer server = f.make();
  const std::string response = server.handle(make_request("GET", "/varz"));
  EXPECT_NE(response.find("\"process\":{\"pid\":"), std::string::npos)
      << response;
  EXPECT_NE(response.find("\"uptime_seconds\":"), std::string::npos);
  EXPECT_NE(response.find("\"start_time_unix\":"), std::string::npos);
  // The registry snapshot still follows the process block.
  EXPECT_NE(response.find("\"counters\":{"), std::string::npos);
}

TEST(AdminServer, SlozWithoutATrackerExplainsItself) {
  AdminFixture f;
  AdminServer server = f.make();
  const std::string response = server.handle(make_request("GET", "/sloz"));
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("no slo tracker attached"), std::string::npos);
}

TEST(AdminServer, SlozServesPinnedBurnRates) {
  AdminFixture f;
  mev::obs::SloTracker tracker;
  // 1% errors against a 0.1% budget: burn = 10.0 exactly.
  for (int i = 0; i < 99; ++i) tracker.record(100, true, 1'000);
  tracker.record(100, false, 0);

  AdminServerConfig config;
  config.clock = &f.clock;  // FakeClock at 0: the burst is in-window
  AdminServer server = f.make(std::move(config));
  server.set_slo_tracker(&tracker);
  const std::string response = server.handle(make_request("GET", "/sloz"));
  EXPECT_NE(response.find("application/json"), std::string::npos);
  EXPECT_NE(response.find("\"fast_burn_rate\":10.000000"), std::string::npos)
      << response;
  EXPECT_NE(response.find("\"error_budget_remaining\":"), std::string::npos);
  EXPECT_NE(response.find("\"fast_burn_alert\":false"), std::string::npos);
  // Serving /sloz refreshed the mev_slo_* gauge mirror as a side effect.
  tracker.register_gauges(&f.registry);
  (void)server.handle(make_request("GET", "/sloz"));
  EXPECT_NE(f.registry.prometheus().find(
                "mev_slo_fast_burn_rate{objective=\"availability\"} " +
                mev::obs::prometheus_number((1.0 / 100.0) / (1.0 - 0.999))),
            std::string::npos);

  server.set_slo_tracker(nullptr);
  EXPECT_NE(server.handle(make_request("GET", "/sloz"))
                .find("no slo tracker attached"),
            std::string::npos);
}

TEST(AdminServer, ExtraEndpointsRegisterServeAndDeregister) {
  AdminFixture f;
  AdminServer server = f.make();
  server.add_endpoint("/customz", "a caller-registered endpoint",
                      [](const mev::obs::http::Request&) {
                        return mev::obs::http::format_response(
                            200, "text/plain; charset=utf-8", "custom\n");
                      });
  const std::string response = server.handle(make_request("GET", "/customz"));
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("custom\n"), std::string::npos);
  // The index lists the extra endpoint with its description.
  const std::string index = server.handle(make_request("GET", "/"));
  EXPECT_NE(index.find("/customz"), std::string::npos);
  EXPECT_NE(index.find("a caller-registered endpoint"), std::string::npos);

  // Built-ins always win: registering over /healthz cannot hijack probes.
  server.add_endpoint("/healthz", "shadow attempt",
                      [](const mev::obs::http::Request&) {
                        return mev::obs::http::format_response(
                            200, "text/plain; charset=utf-8", "hijacked\n");
                      });
  EXPECT_NE(server.handle(make_request("GET", "/healthz")).find("ok\n"),
            std::string::npos);

  // Re-registering the same path replaces the handler.
  server.add_endpoint("/customz", "replaced",
                      [](const mev::obs::http::Request&) {
                        return mev::obs::http::format_response(
                            200, "text/plain; charset=utf-8", "v2\n");
                      });
  EXPECT_NE(server.handle(make_request("GET", "/customz")).find("v2\n"),
            std::string::npos);

  server.remove_endpoint("/customz");
  EXPECT_NE(server.handle(make_request("GET", "/customz"))
                .find("HTTP/1.1 404 Not Found"),
            std::string::npos);
  server.remove_endpoint("/customz");  // removing twice is a no-op
}

}  // namespace
