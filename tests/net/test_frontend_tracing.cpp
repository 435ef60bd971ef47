// Request-scoped tracing through the HTTP frontend: W3C traceparent
// ingest (valid = byte-for-byte echo, malformed = served with a fresh
// trace — the no-400 contract), X-Trace-Id + Server-Timing stamping on
// every score-path response including errors, the pinned FakeClock
// stage-attribution test (stages sum EXACTLY to the end-to-end latency),
// and the /requestz cross-thread span tree. Scoring mechanics live in
// test_frontend.cpp; this file owns the correlation surface.
#include "net/frontend.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/api_vocab.hpp"
#include "features/transform.hpp"
#include "math/rng.hpp"
#include "net/wire.hpp"
#include "obs/admin_server.hpp"
#include "obs/trace.hpp"
#include "obs/trace_context.hpp"
#include "runtime/clock.hpp"

namespace mev::net {
namespace {

constexpr std::size_t kDim = data::kNumApiFeatures;

constexpr const char* kCallerTraceparent =
    "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01";
constexpr const char* kCallerTraceId = "0af7651916cd43dd8448eb211c80319c";

// A FakeClock the test may advance while frontend socket workers are
// live: runtime::FakeClock is deliberately plain (single-threaded
// determinism), but here the main thread calls advance() concurrently
// with clock reads on the worker threads, so time is one atomic.
class SharedFakeClock final : public runtime::Clock {
 public:
  explicit SharedFakeClock(std::uint64_t start_ms) : now_ms_(start_ms) {}
  std::uint64_t now_ms() override { return now_ms_.load(); }
  void sleep_ms(std::uint64_t ms) override { advance(ms); }
  void advance(std::uint64_t ms) { now_ms_.fetch_add(ms); }

 private:
  std::atomic<std::uint64_t> now_ms_;
};

math::Matrix random_counts(std::size_t rows, std::uint64_t seed) {
  math::Rng rng(seed);
  math::Matrix m(rows, kDim);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = static_cast<float>(rng.poisson(3.0));
  return m;
}

features::FeaturePipeline make_pipeline(std::uint64_t seed) {
  auto transform = std::make_unique<features::CountTransform>();
  transform->fit(random_counts(64, seed));
  return features::FeaturePipeline(data::ApiVocab::instance(),
                                   std::move(transform));
}

std::shared_ptr<nn::Network> make_network(std::uint64_t seed) {
  nn::MlpConfig cfg;
  cfg.dims = {kDim, 16, 2};
  cfg.seed = seed;
  return std::make_shared<nn::Network>(nn::make_mlp(cfg));
}

struct Fixture {
  features::FeaturePipeline pipeline = make_pipeline(7);
  std::shared_ptr<nn::Network> network = make_network(11);

  serve::ScoringService make_service(serve::ServiceConfig config) {
    return serve::ScoringService(pipeline, network, config);
  }
};

using Headers = std::vector<std::pair<std::string, std::string>>;

std::string post_score(const std::string& body, const Headers& extra = {}) {
  std::string req =
      "POST /v1/score HTTP/1.1\r\nContent-Type: application/x-mev-rows"
      "\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\n";
  for (const auto& [name, value] : extra) req += name + ": " + value + "\r\n";
  req += "\r\n";
  req += body;
  return req;
}

/// Same minimal blocking client as test_frontend.cpp.
class Client {
 public:
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }

  void send_raw(const std::string& data) {
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return;
      sent += static_cast<std::size_t>(n);
    }
  }

  std::string read_response() {
    for (;;) {
      const std::size_t header_end = buffer_.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        const std::string headers = buffer_.substr(0, header_end + 4);
        std::size_t body_len = 0;
        const std::size_t cl = headers.find("Content-Length: ");
        if (cl != std::string::npos)
          body_len = static_cast<std::size_t>(
              std::stoul(headers.substr(cl + 16)));
        if (buffer_.size() >= header_end + 4 + body_len) {
          const std::string response =
              buffer_.substr(0, header_end + 4 + body_len);
          buffer_.erase(0, header_end + 4 + body_len);
          return response;
        }
      }
      char chunk[8192];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

int status_of(const std::string& response) {
  if (response.size() < 12 || response.compare(0, 9, "HTTP/1.1 ") != 0)
    return -1;
  return std::stoi(response.substr(9, 3));
}

/// Value of `name` in the response header block; "" when absent.
std::string header_of(const std::string& response, const std::string& name) {
  const std::string needle = "\r\n" + name + ": ";
  const std::size_t at = response.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t start = at + needle.size();
  return response.substr(start, response.find("\r\n", start) - start);
}

/// "dur=12.345" fragments of a Server-Timing value, as microseconds.
std::uint64_t timing_us(const std::string& timing, const std::string& stage) {
  const std::string needle = stage + ";dur=";
  const std::size_t at = timing.find(needle);
  if (at == std::string::npos) return ~std::uint64_t{0};
  const std::size_t start = at + needle.size();
  const std::size_t dot = timing.find('.', start);
  const std::uint64_t ms = std::stoull(timing.substr(start, dot - start));
  const std::uint64_t frac = std::stoull(timing.substr(dot + 1, 3));
  return ms * 1000 + frac;
}

FrontendConfig base_config() {
  FrontendConfig config;
  config.port = 0;
  config.worker_threads = 2;
  config.io_timeout_ms = 3000;
  return config;
}

TEST(FrontendTracing, EchoesTheCallersTraceIdByteForByte) {
  Fixture f;
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  auto service = f.make_service(cfg);
  ScoringFrontend frontend(service, base_config());
  ASSERT_TRUE(frontend.start());

  Client client(frontend.port());
  ASSERT_TRUE(client.ok());
  client.send_raw(post_score(encode_binary_rows(random_counts(2, 42)),
                             {{"traceparent", kCallerTraceparent}}));
  const std::string response = client.read_response();
  EXPECT_EQ(status_of(response), 200);
  EXPECT_EQ(header_of(response, "X-Trace-Id"), kCallerTraceId);
  const std::string timing = header_of(response, "Server-Timing");
  ASSERT_FALSE(timing.empty());
  // The full stage taxonomy is present on every score response.
  for (const char* stage :
       {"parse", "admission", "queue", "batch", "scan", "serialize",
        "total"})
    EXPECT_NE(timing.find(std::string(stage) + ";dur="), std::string::npos)
        << timing;
}

TEST(FrontendTracing, MalformedTraceparentIsServedWithAFreshTrace) {
  Fixture f;
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  auto service = f.make_service(cfg);
  ScoringFrontend frontend(service, base_config());
  ASSERT_TRUE(frontend.start());

  // The malformed matrix over real HTTP: bad version, wrong length,
  // non-hex, all-zero trace id. Every one is SERVED (200, never 400)
  // with a fresh trace — the caller's garbage id is not echoed.
  const char* kMalformed[] = {
      "ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
      "00-0af7651916cd43dd8448eb211c8031-b7ad6b7169203331-01",
      "00-0af7651916cd43dg8448eb211c80319c-b7ad6b7169203331-01",
      "00-00000000000000000000000000000000-b7ad6b7169203331-01",
      "not a traceparent at all",
  };
  Client client(frontend.port());
  ASSERT_TRUE(client.ok());
  std::string previous_id;
  for (const char* header : kMalformed) {
    client.send_raw(post_score(encode_binary_rows(random_counts(1, 7)),
                               {{"traceparent", header}}));
    const std::string response = client.read_response();
    EXPECT_EQ(status_of(response), 200) << header;
    const std::string trace_id = header_of(response, "X-Trace-Id");
    ASSERT_EQ(trace_id.size(), 32u) << header;
    EXPECT_NE(trace_id, kCallerTraceId) << header;
    EXPECT_NE(trace_id, "0af7651916cd43dd8448eb211c80319c") << header;
    EXPECT_NE(trace_id, previous_id) << header;  // fresh per request
    previous_id = trace_id;
  }
}

TEST(FrontendTracing, RequestsWithoutTraceparentGetAFreshTrace) {
  Fixture f;
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  auto service = f.make_service(cfg);
  ScoringFrontend frontend(service, base_config());
  ASSERT_TRUE(frontend.start());

  Client client(frontend.port());
  ASSERT_TRUE(client.ok());
  client.send_raw(post_score(encode_binary_rows(random_counts(1, 9))));
  const std::string response = client.read_response();
  EXPECT_EQ(status_of(response), 200);
  const std::string trace_id = header_of(response, "X-Trace-Id");
  EXPECT_EQ(trace_id.size(), 32u);
  EXPECT_NE(trace_id, std::string(32, '0'));
}

TEST(FrontendTracing, ErrorResponsesCarryCorrelationHeadersToo) {
  Fixture f;
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  auto service = f.make_service(cfg);
  FrontendConfig config = base_config();
  config.api_keys = {ApiKey{"secret", "tester", 1e6, 1e6}};
  ScoringFrontend frontend(service, config);
  ASSERT_TRUE(frontend.start());

  Client client(frontend.port());
  ASSERT_TRUE(client.ok());
  // 401 (missing key) still answers with the caller's trace id and a
  // stage breakdown — failed requests are the ones worth correlating.
  client.send_raw(post_score(encode_binary_rows(random_counts(1, 11)),
                             {{"traceparent", kCallerTraceparent}}));
  const std::string response = client.read_response();
  EXPECT_EQ(status_of(response), 401);
  EXPECT_EQ(header_of(response, "X-Trace-Id"), kCallerTraceId);
  EXPECT_NE(header_of(response, "Server-Timing").find("total;dur="),
            std::string::npos);
}

// The PINNED attribution test: under a shared FakeClock the stage
// breakdown is exact — 3 ms spent queued (the only clock advance) and
// the six stages sum to the end-to-end duration TO THE MICROSECOND.
TEST(FrontendTracing, StageBreakdownSumsExactlyToEndToEndUnderFakeClock) {
  Fixture f;
  SharedFakeClock clock(5);
  serve::ServiceConfig cfg;
  cfg.workers = 0;  // manual pump: the test owns every boundary
  cfg.max_batch_rows = 8;
  cfg.clock = &clock;
  auto service = f.make_service(cfg);
  FrontendConfig config = base_config();  // null clock: shares the service's
  ScoringFrontend frontend(service, config);
  ASSERT_TRUE(frontend.start());

  Client client(frontend.port());
  ASSERT_TRUE(client.ok());
  client.send_raw(post_score(encode_binary_rows(random_counts(2, 21)),
                             {{"traceparent", kCallerTraceparent}}));

  // Wait (in real time) for the frontend worker to parse + submit; all
  // FakeClock reads up to that point saw t=5 ms.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (service.stats().accepted_requests < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "request never reached the service";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  clock.advance(3);  // the request spends exactly 3 ms "queued"
  service.pump();

  const std::string response = client.read_response();
  ASSERT_EQ(status_of(response), 200);
  const std::string timing = header_of(response, "Server-Timing");
  ASSERT_FALSE(timing.empty());
  EXPECT_EQ(timing_us(timing, "parse"), 0u) << timing;
  EXPECT_EQ(timing_us(timing, "admission"), 0u);
  EXPECT_EQ(timing_us(timing, "queue"), 3000u) << timing;
  EXPECT_EQ(timing_us(timing, "batch"), 0u);
  EXPECT_EQ(timing_us(timing, "scan"), 0u);
  EXPECT_EQ(timing_us(timing, "serialize"), 0u);
  EXPECT_EQ(timing_us(timing, "total"), 3000u);
  const std::uint64_t stage_sum =
      timing_us(timing, "parse") + timing_us(timing, "admission") +
      timing_us(timing, "queue") + timing_us(timing, "batch") +
      timing_us(timing, "scan") + timing_us(timing, "serialize");
  EXPECT_EQ(stage_sum, timing_us(timing, "total"));

  // The flight recorder retained the same partition.
  const auto records = frontend.flight_recorder().snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].duration_us, 3000u);
  EXPECT_EQ(records[0].stage_us[2], 3000u);  // queue
  EXPECT_EQ(records[0].rows, 2u);
  EXPECT_EQ(records[0].http_status, 200);
  std::uint64_t record_sum = 0;
  for (const std::uint64_t stage : records[0].stage_us) record_sum += stage;
  EXPECT_EQ(record_sum, records[0].duration_us);
}

TEST(FrontendTracing, RequestzServesTheCrossThreadSpanTree) {
  Fixture f;
  runtime::FakeClock clock;
  obs::Tracer tracer(
      obs::TracerConfig{.ring_capacity = 256, .clock = &clock});
  serve::ServiceConfig cfg;
  cfg.workers = 2;  // real worker threads: the spans cross threads
  cfg.max_batch_rows = 8;
  cfg.clock = &clock;
  cfg.tracer = &tracer;
  auto service = f.make_service(cfg);
  FrontendConfig config = base_config();
  config.tracer = &tracer;
  ScoringFrontend frontend(service, config);
  ASSERT_TRUE(frontend.start());

  Client client(frontend.port());
  ASSERT_TRUE(client.ok());
  client.send_raw(post_score(encode_binary_rows(random_counts(2, 33)),
                             {{"traceparent", kCallerTraceparent}}));
  const std::string response = client.read_response();
  ASSERT_EQ(status_of(response), 200);
  service.shutdown();

  // One trace id across BOTH sides: the net spans (frontend worker
  // thread) and the serve spans (scoring worker thread) all landed under
  // the caller's trace, reassemblable into one tree.
  const std::uint64_t trace_lo = 0x8448eb211c80319cULL;
  bool net_request = false, net_parse = false, serve_queue = false,
       serve_scan = false;
  std::uint64_t root_span = 0;
  for (const obs::TraceEvent& e : tracer.recent(256)) {
    if (e.trace_id != trace_lo) continue;
    const std::string_view name(e.name);
    if (name == "mev.net.request") {
      net_request = true;
      root_span = e.span_id;
      // Parented on the CALLER's span from the traceparent header.
      EXPECT_EQ(e.parent_span_id, 0xb7ad6b7169203331ULL);
    } else if (name == "mev.net.parse") {
      net_parse = true;
    } else if (name == "mev.serve.queue") {
      serve_queue = true;
    } else if (name == "mev.serve.scan") {
      serve_scan = true;
    }
  }
  EXPECT_TRUE(net_request);
  EXPECT_TRUE(net_parse);
  EXPECT_TRUE(serve_queue);
  EXPECT_TRUE(serve_scan);
  // Children all hang off the net root span.
  for (const obs::TraceEvent& e : tracer.recent(256)) {
    if (e.trace_id != trace_lo ||
        std::string_view(e.name) == "mev.net.request")
      continue;
    EXPECT_EQ(e.parent_span_id, root_span) << e.name;
  }

  // /requestz exposes the same tree from the flight recorder.
  obs::AdminServerConfig admin_cfg;
  admin_cfg.tracer = &tracer;
  obs::AdminServer admin(admin_cfg);
  admin.set_flight_recorder(&frontend.flight_recorder());
  mev::obs::http::Request get;
  get.method = "GET";
  get.target = "/requestz?trace_id=" + std::string(kCallerTraceId);
  get.version = "HTTP/1.1";
  const std::string requestz = admin.handle(get);
  EXPECT_NE(requestz.find("\"trace_id\":\"" + std::string(kCallerTraceId) +
                          '"'),
            std::string::npos)
      << requestz;
  EXPECT_NE(requestz.find("\"name\":\"mev.net.request\""), std::string::npos);
  for (const char* stage :
       {"parse", "admission", "queue", "batch", "scan", "serialize"})
    EXPECT_NE(requestz.find("\"name\":\"" + std::string(stage) + '"'),
              std::string::npos)
        << stage;
  admin.set_flight_recorder(nullptr);
}

}  // namespace
}  // namespace mev::net
