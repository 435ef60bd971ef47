// ScoringFrontend end-to-end over real sockets: JSON and binary scoring
// round-trips (bit-identical to the sequential reference), keep-alive
// reuse, API-key auth + per-key rate limiting (the two-key isolation
// criterion), the 4xx surface, serve-layer rejection mapping (503/504),
// and the health/readiness endpoints. Codec edge cases live in
// test_wire.cpp; socket mechanics in test_http_server.cpp.
#include "net/frontend.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/api_vocab.hpp"
#include "features/transform.hpp"
#include "math/rng.hpp"
#include "net/wire.hpp"
#include "runtime/clock.hpp"

namespace mev::net {
namespace {

constexpr std::size_t kDim = data::kNumApiFeatures;

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
  core::MalwareDetector reference{pipeline, network};

  serve::ScoringService make_service(serve::ServiceConfig config) {
    return serve::ScoringService(pipeline, network, config);
  }
};

/// Counts are integers, so this JSON round-trips bit-identically through
/// the frontend's float parser.
std::string json_rows(const math::Matrix& m) {
  std::string out = "[";
  for (std::size_t r = 0; r < m.rows(); ++r) {
    if (r > 0) out += ',';
    out += '[';
    const auto row = m.row(r);
    for (std::size_t c = 0; c < m.cols(); ++c) {
      if (c > 0) out += ',';
      out += std::to_string(static_cast<long long>(row[c]));
    }
    out += ']';
  }
  out += ']';
  return out;
}

using Headers = std::vector<std::pair<std::string, std::string>>;

std::string post_score(const std::string& body, const std::string& type,
                       const Headers& extra = {}) {
  std::string req = "POST /v1/score HTTP/1.1\r\nContent-Type: " + type +
                    "\r\nContent-Length: " + std::to_string(body.size()) +
                    "\r\n";
  for (const auto& [name, value] : extra) req += name + ": " + value + "\r\n";
  req += "\r\n";
  req += body;
  return req;
}

/// Same minimal blocking client as test_http_server.cpp.
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

std::string body_of(const std::string& response) {
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

FrontendConfig base_config() {
  FrontendConfig config;
  config.port = 0;
  config.worker_threads = 2;
  config.io_timeout_ms = 3000;
  return config;
}

TEST(ScoringFrontend, JsonAndBinaryScoreMatchTheSequentialReference) {
  Fixture f;
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  auto service = f.make_service(cfg);
  ScoringFrontend frontend(service, base_config());
  ASSERT_TRUE(frontend.start());
  ASSERT_NE(frontend.port(), 0);

  const math::Matrix counts = random_counts(3, 42);
  serve::ScoreResult want;
  nn::InferenceSession session = f.reference.make_session();
  want.verdicts = f.reference.scan_counts(session, counts);
  want.model_version = 1;
  const std::string expected = format_verdicts_json(want);

  Client client(frontend.port());
  ASSERT_TRUE(client.ok());
  client.send_raw(post_score(json_rows(counts), kJsonContentType));
  const std::string via_json = client.read_response();
  EXPECT_EQ(status_of(via_json), 200);
  EXPECT_EQ(body_of(via_json), expected);

  client.send_raw(post_score(encode_binary_rows(counts), kBinaryContentType));
  const std::string via_binary = client.read_response();
  EXPECT_EQ(status_of(via_binary), 200);
  EXPECT_EQ(body_of(via_binary), expected);

  // Both requests rode ONE keep-alive connection.
  const FrontendStats stats = frontend.stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.scored_requests, 2u);
  EXPECT_EQ(stats.scored_rows, 6u);
}

TEST(ScoringFrontend, KeepAlivePipeliningServesManyScoresPerConnection) {
  Fixture f;
  serve::ServiceConfig cfg;
  cfg.workers = 2;
  auto service = f.make_service(cfg);
  ScoringFrontend frontend(service, base_config());
  ASSERT_TRUE(frontend.start());

  Client client(frontend.port());
  ASSERT_TRUE(client.ok());
  // Five pipelined posts in one write; five 200s back, in order.
  std::string burst;
  for (int i = 0; i < 5; ++i)
    burst += post_score(encode_binary_rows(random_counts(2, 100 + i)),
                        kBinaryContentType);
  client.send_raw(burst);
  for (int i = 0; i < 5; ++i) {
    const std::string response = client.read_response();
    EXPECT_EQ(status_of(response), 200) << "request " << i;
    EXPECT_NE(response.find("Connection: keep-alive"), std::string::npos);
  }
  const FrontendStats stats = frontend.stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.scored_requests, 5u);
  EXPECT_EQ(stats.scored_rows, 10u);
}

TEST(ScoringFrontend, MissingAndUnknownApiKeysAre401) {
  Fixture f;
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  auto service = f.make_service(cfg);
  FrontendConfig config = base_config();
  config.api_keys = {ApiKey{"secret", "tester", 1e6, 1e6}};
  ScoringFrontend frontend(service, config);
  ASSERT_TRUE(frontend.start());

  const std::string body = encode_binary_rows(random_counts(1, 1));
  Client client(frontend.port());
  ASSERT_TRUE(client.ok());

  client.send_raw(post_score(body, kBinaryContentType));
  const std::string missing = client.read_response();
  EXPECT_EQ(status_of(missing), 401);
  EXPECT_NE(body_of(missing).find("missing X-Api-Key"), std::string::npos);

  client.send_raw(
      post_score(body, kBinaryContentType, {{"X-Api-Key", "wrong"}}));
  const std::string unknown = client.read_response();
  EXPECT_EQ(status_of(unknown), 401);
  EXPECT_NE(body_of(unknown).find("unknown API key"), std::string::npos);

  client.send_raw(
      post_score(body, kBinaryContentType, {{"X-Api-Key", "secret"}}));
  EXPECT_EQ(status_of(client.read_response()), 200);

  EXPECT_EQ(frontend.stats().auth_failures, 2u);
}

TEST(ScoringFrontend, ThrottledKeyGets429WhileTheOtherKeyIsUnaffected) {
  // The acceptance scenario: two clients share the endpoint; one exhausts
  // its per-key budget and starts seeing 429, the other's goodput is
  // untouched. FakeClock pins the buckets — no refill mid-test.
  Fixture f;
  runtime::FakeClock limiter_clock(1000);
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  auto service = f.make_service(cfg);
  FrontendConfig config = base_config();
  config.api_keys = {ApiKey{"throttled", "small", 1.0, 4.0},
                     ApiKey{"premium", "big", 1e9, 1e9}};
  config.clock = &limiter_clock;
  ScoringFrontend frontend(service, config);
  ASSERT_TRUE(frontend.start());

  Client client(frontend.port());
  ASSERT_TRUE(client.ok());
  const std::string two_rows = encode_binary_rows(random_counts(2, 9));

  int throttled_ok = 0, throttled_429 = 0, premium_ok = 0;
  for (int i = 0; i < 6; ++i) {
    // Interleave: the throttled key's exhaustion must not leak into the
    // premium key's bucket.
    client.send_raw(post_score(two_rows, kBinaryContentType,
                               {{"X-Api-Key", "throttled"}}));
    const std::string response = client.read_response();
    if (status_of(response) == 200) {
      ++throttled_ok;
    } else {
      ASSERT_EQ(status_of(response), 429);
      EXPECT_NE(response.find("Retry-After: "), std::string::npos);
      EXPECT_NE(body_of(response).find("rate_limited"), std::string::npos);
      ++throttled_429;
    }
    client.send_raw(post_score(two_rows, kBinaryContentType,
                               {{"X-Api-Key", "premium"}}));
    const std::string premium = client.read_response();
    EXPECT_EQ(status_of(premium), 200) << "premium round " << i;
    if (status_of(premium) == 200) ++premium_ok;
  }
  // burst_rows=4 at 2 rows/request: exactly two pass, then the bucket is
  // dry for the rest of the (frozen-clock) test.
  EXPECT_EQ(throttled_ok, 2);
  EXPECT_EQ(throttled_429, 4);
  EXPECT_EQ(premium_ok, 6);

  const FrontendStats stats = frontend.stats();
  EXPECT_EQ(stats.rate_limited, 4u);
  EXPECT_EQ(stats.scored_requests, 8u);
  EXPECT_EQ(stats.auth_failures, 0u);
}

TEST(ScoringFrontend, BadInputsMapToThe4xxSurface) {
  Fixture f;
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  auto service = f.make_service(cfg);
  ScoringFrontend frontend(service, base_config());
  ASSERT_TRUE(frontend.start());
  Client client(frontend.port());
  ASSERT_TRUE(client.ok());

  // 415: unnegotiable content type.
  client.send_raw(post_score("a,b,c", "text/csv"));
  EXPECT_EQ(status_of(client.read_response()), 415);

  // 400: malformed JSON.
  client.send_raw(post_score("not json", kJsonContentType));
  EXPECT_EQ(status_of(client.read_response()), 400);

  // 400: wrong column count (decoded, then rejected against the model).
  client.send_raw(post_score("[[1,2,3]]", kJsonContentType));
  const std::string bad_cols = client.read_response();
  EXPECT_EQ(status_of(bad_cols), 400);
  EXPECT_NE(body_of(bad_cols).find("columns"), std::string::npos);

  // 400: a NaN count in a binary body (the JSON decoder's contract).
  math::Matrix nan_row = random_counts(1, 3);
  nan_row(0, 0) = std::numeric_limits<float>::quiet_NaN();
  client.send_raw(post_score(encode_binary_rows(nan_row), kBinaryContentType));
  const std::string non_finite = client.read_response();
  EXPECT_EQ(status_of(non_finite), 400);
  EXPECT_NE(body_of(non_finite).find("non-finite"), std::string::npos);

  // 400: garbage deadline header.
  client.send_raw(post_score(encode_binary_rows(random_counts(1, 2)),
                             kBinaryContentType,
                             {{"X-Deadline-Ms", "soonish"}}));
  const std::string bad_deadline = client.read_response();
  EXPECT_EQ(status_of(bad_deadline), 400);
  EXPECT_NE(body_of(bad_deadline).find("X-Deadline-Ms"), std::string::npos);

  // 405: wrong method on the score path, with Allow.
  client.send_raw("GET /v1/score HTTP/1.1\r\n\r\n");
  const std::string wrong_method = client.read_response();
  EXPECT_EQ(status_of(wrong_method), 405);
  EXPECT_NE(wrong_method.find("Allow: POST"), std::string::npos);

  // 404: unknown path.
  client.send_raw("GET /v2/score HTTP/1.1\r\n\r\n");
  EXPECT_EQ(status_of(client.read_response()), 404);

  EXPECT_EQ(frontend.stats().bad_requests, 5u);
  EXPECT_EQ(frontend.stats().scored_requests, 0u);
}

TEST(ScoringFrontend, OversizedBodiesAnd411ComeFromTheParser) {
  Fixture f;
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  auto service = f.make_service(cfg);
  FrontendConfig config = base_config();
  config.max_body_bytes = 64;
  ScoringFrontend frontend(service, config);
  ASSERT_TRUE(frontend.start());

  {
    // Declared length over the cap: 413 at the header boundary, before
    // any body bytes are buffered; the connection is then closed.
    Client client(frontend.port());
    ASSERT_TRUE(client.ok());
    client.send_raw(
        "POST /v1/score HTTP/1.1\r\nContent-Type: application/json\r\n"
        "Content-Length: 1000000\r\n\r\n");
    EXPECT_EQ(status_of(client.read_response()), 413);
  }
  {
    // POST with no Content-Length at all: 411.
    Client client(frontend.port());
    ASSERT_TRUE(client.ok());
    client.send_raw(
        "POST /v1/score HTTP/1.1\r\nContent-Type: application/json\r\n\r\n");
    EXPECT_EQ(status_of(client.read_response()), 411);
  }
}

TEST(ScoringFrontend, ExpiredDeadlineAnswers504) {
  // Manual-pump service on a shared FakeClock: the request's deadline
  // passes while it waits in the batcher, and the sweep resolves the
  // callback with kDeadline → HTTP 504.
  Fixture f;
  runtime::FakeClock clock(1000);
  serve::ServiceConfig cfg;
  cfg.workers = 0;
  cfg.clock = &clock;
  auto service = f.make_service(cfg);
  FrontendConfig config = base_config();
  config.clock = &clock;
  ScoringFrontend frontend(service, config);
  ASSERT_TRUE(frontend.start());

  Client client(frontend.port());
  ASSERT_TRUE(client.ok());
  client.send_raw(post_score(encode_binary_rows(random_counts(2, 5)),
                             kBinaryContentType, {{"X-Deadline-Ms", "5"}}));
  // The socket worker admits asynchronously; wait for the service to see
  // the rows before advancing time past the deadline.
  for (int i = 0; i < 1000 && service.stats().accepted_requests == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(service.stats().accepted_requests, 1u);

  clock.advance(10);
  service.pump();

  const std::string response = client.read_response();
  EXPECT_EQ(status_of(response), 504);
  EXPECT_NE(body_of(response).find("deadline"), std::string::npos);
  EXPECT_EQ(frontend.stats().rejected_deadline, 1u);
}

TEST(ScoringFrontend, BackpressureAndShutdownMapTo503WithRetryAfter) {
  Fixture f;
  runtime::FakeClock clock(1000);
  serve::ServiceConfig cfg;
  cfg.workers = 0;
  cfg.max_queue_rows = 4;
  cfg.clock = &clock;
  auto service = f.make_service(cfg);
  FrontendConfig config = base_config();
  config.clock = &clock;
  ScoringFrontend frontend(service, config);
  ASSERT_TRUE(frontend.start());

  {
    // Fill the queue from one connection, overflow from another
    // (responses on one connection are written in arrival order, so the
    // 503 must be read on its own connection while the first request is
    // still queued). Scoped: both sockets close before the late client
    // below needs a free worker.
    Client filler(frontend.port());
    ASSERT_TRUE(filler.ok());
    filler.send_raw(post_score(encode_binary_rows(random_counts(4, 6)),
                               kBinaryContentType));
    for (int i = 0; i < 1000 && service.stats().accepted_requests == 0; ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(service.stats().accepted_requests, 1u);

    Client overflow(frontend.port());
    ASSERT_TRUE(overflow.ok());
    overflow.send_raw(post_score(encode_binary_rows(random_counts(1, 7)),
                                 kBinaryContentType));
    const std::string rejected = overflow.read_response();
    EXPECT_EQ(status_of(rejected), 503);
    EXPECT_NE(rejected.find("Retry-After: 1"), std::string::npos);
    EXPECT_NE(body_of(rejected).find("queue_full"), std::string::npos);

    // Drain the filler, then stop the service: subsequent posts are
    // 503 shutting_down.
    while (service.pump() > 0) {
    }
    EXPECT_EQ(status_of(filler.read_response()), 200);
  }
  service.shutdown();

  Client late(frontend.port());
  ASSERT_TRUE(late.ok());
  late.send_raw(post_score(encode_binary_rows(random_counts(1, 8)),
                           kBinaryContentType));
  const std::string down = late.read_response();
  EXPECT_EQ(status_of(down), 503);
  EXPECT_NE(body_of(down).find("shutting_down"), std::string::npos);

  const FrontendStats stats = frontend.stats();
  EXPECT_EQ(stats.rejected_queue_full, 1u);
  EXPECT_EQ(stats.rejected_shutting_down, 1u);
  EXPECT_EQ(stats.scored_requests, 1u);
}

TEST(ScoringFrontend, HealthAndReadinessEndpointsTrackTheService) {
  Fixture f;
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  auto service = f.make_service(cfg);
  ScoringFrontend frontend(service, base_config());
  ASSERT_TRUE(frontend.start());

  Client client(frontend.port());
  ASSERT_TRUE(client.ok());
  client.send_raw("GET /healthz HTTP/1.1\r\n\r\n");
  const std::string health = client.read_response();
  EXPECT_EQ(status_of(health), 200);
  EXPECT_EQ(body_of(health), "ok\n");

  client.send_raw("GET /readyz HTTP/1.1\r\n\r\n");
  EXPECT_EQ(status_of(client.read_response()), 200);

  service.shutdown();
  client.send_raw("GET /readyz HTTP/1.1\r\n\r\n");
  EXPECT_EQ(status_of(client.read_response()), 503);
}

TEST(ScoringFrontend, StartStopIsIdempotent) {
  Fixture f;
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  auto service = f.make_service(cfg);
  ScoringFrontend frontend(service, base_config());
  EXPECT_FALSE(frontend.running());
  EXPECT_EQ(frontend.port(), 0);
  ASSERT_TRUE(frontend.start());
  EXPECT_TRUE(frontend.running());
  ASSERT_TRUE(frontend.start());  // second start is a no-op
  frontend.stop();
  EXPECT_FALSE(frontend.running());
  frontend.stop();
}

TEST(ScoringFrontend, ExportsLabeledPrometheusCounters) {
  Fixture f;
  obs::MetricsRegistry registry;
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  auto service = f.make_service(cfg);
  FrontendConfig config = base_config();
  config.metrics = &registry;
  config.api_keys = {ApiKey{"k", "c", 1e6, 1e6}};
  ScoringFrontend frontend(service, config);
  ASSERT_TRUE(frontend.start());

  Client client(frontend.port());
  ASSERT_TRUE(client.ok());
  client.send_raw(post_score(encode_binary_rows(random_counts(3, 12)),
                             kBinaryContentType, {{"X-Api-Key", "k"}}));
  EXPECT_EQ(status_of(client.read_response()), 200);
  client.send_raw(post_score(encode_binary_rows(random_counts(1, 13)),
                             kBinaryContentType, {{"X-Api-Key", "nope"}}));
  EXPECT_EQ(status_of(client.read_response()), 401);

  const std::string exposition = registry.prometheus();
  EXPECT_NE(exposition.find("mev_net_rows_total 4"), std::string::npos)
      << exposition;
  EXPECT_NE(exposition.find("mev_net_auth_failures_total 1"),
            std::string::npos);
  EXPECT_NE(
      exposition.find("mev_net_http_responses_total{status=\"200\"} 1"),
      std::string::npos);
  EXPECT_NE(
      exposition.find("mev_net_http_responses_total{status=\"401\"} 1"),
      std::string::npos);
  // Labeled rejection families exist (at zero) without any rejection
  // having happened — dashboards can rate() them from the first scrape.
  EXPECT_NE(
      exposition.find("mev_net_rejected_total{reason=\"queue_full\"} 0"),
      std::string::npos);
  // Both the 200 and the 401 are score-path responses: each records one
  // e2e latency sample (errors have latency too).
  EXPECT_NE(exposition.find("mev_net_request_latency_us_count 2"),
            std::string::npos);
  // Per-stage attribution families exist with the same sample count.
  EXPECT_NE(exposition.find("mev_net_stage_us_count{stage=\"parse\"} 2"),
            std::string::npos)
      << exposition;

  // Without a registry of its own, the frontend registers into the
  // service's, so the service's admin /metrics carries the net series.
  FrontendConfig unwired = base_config();
  unwired.api_keys = config.api_keys;
  ScoringFrontend second(service, unwired);
  ASSERT_TRUE(second.start());
  Client second_client(second.port());
  ASSERT_TRUE(second_client.ok());
  second_client.send_raw(post_score(encode_binary_rows(random_counts(2, 14)),
                                    kBinaryContentType, {{"X-Api-Key", "k"}}));
  EXPECT_EQ(status_of(second_client.read_response()), 200);
  const std::string service_exposition = service.metrics().prometheus();
  EXPECT_NE(service_exposition.find("mev_net_rows_total 2"), std::string::npos)
      << service_exposition;
  EXPECT_NE(service_exposition.find(
                "mev_net_http_responses_total{status=\"200\"} 1"),
            std::string::npos);
}

}  // namespace
}  // namespace mev::net
