// ClientStatsTracker: bounded per-client cardinality, the /clientz JSON
// shape, the PSI gauge mirror, and the end-to-end acceptance scenario —
// two API keys share /v1/score, one shifts its query mix and its
// per-client PSI crosses the major-drift threshold while the steady
// key's stays near zero.
#include "net/client_stats.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/api_vocab.hpp"
#include "features/transform.hpp"
#include "math/rng.hpp"
#include "net/frontend.hpp"
#include "net/wire.hpp"
#include "runtime/clock.hpp"

namespace mev::net {
namespace {

constexpr std::uint64_t kSecond = 1'000'000;
/// Scores that freeze a client's drift reference.
constexpr int kFreeze = static_cast<int>(serve::kDriftReferenceMinCount);

TEST(ClientStatsTracker, EntriesAreStableAndBoundedByTheCap) {
  ClientStatsConfig config;
  config.max_clients = 2;
  ClientStatsTracker tracker(config);

  ClientEntry* a = tracker.entry("alpha");
  ClientEntry* b = tracker.entry("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(tracker.entry("alpha"), a);  // stable pointer identity

  // Beyond the cap every new label collapses into one shared overflow
  // entry: a key-churning attacker cannot balloon the table.
  ClientEntry* c = tracker.entry("gamma");
  ClientEntry* d = tracker.entry("delta");
  EXPECT_EQ(c, d);
  EXPECT_EQ(c->client, "(overflow)");
  EXPECT_EQ(tracker.size(), 3u);  // alpha, beta, (overflow)
  // Known labels keep resolving to their own entries at the cap.
  EXPECT_EQ(tracker.entry("beta"), b);
}

TEST(ClientStatsTracker, ToJsonCarriesWindowedRatesAndDrift) {
  ClientStatsTracker tracker;
  ClientEntry* alpha = tracker.entry("alpha");
  // 10 requests x 4 rows over 2 s, 2 rejections, enough scores to freeze
  // the reference.
  for (int i = 0; i < 10; ++i)
    alpha->record_request(static_cast<std::uint64_t>(i) * 200'000, 4);
  alpha->record_reject(kSecond);
  alpha->record_reject(kSecond);
  for (int i = 0; i < kFreeze + 2; ++i) alpha->record_score(kSecond, 0.15);

  const std::string json = tracker.to_json(2 * kSecond);
  EXPECT_NE(json.find("\"window_s\":60,"), std::string::npos);
  EXPECT_NE(json.find("\"client\":\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"reject_rate\":0.200000"), std::string::npos);
  EXPECT_NE(json.find("\"reference_frozen\":true"), std::string::npos);
  EXPECT_NE(json.find("\"lifetime_requests\":10"), std::string::npos);
  EXPECT_NE(json.find("\"lifetime_rows\":40"), std::string::npos);
  EXPECT_NE(json.find("\"lifetime_rejected\":2"), std::string::npos);
  // Matching traffic: the frozen reference sees no drift.
  EXPECT_NE(json.find("\"score_psi\":0.0"), std::string::npos);
}

TEST(ClientStatsTracker, ToJsonEscapesQuotesAndControlBytesInLabels) {
  // Labels are caller-chosen API keys: a quote must not end the JSON
  // string and a control byte must survive as \u00XX, not vanish.
  ClientStatsTracker tracker;
  tracker.entry("a\x01" "b\"c");
  const std::string json = tracker.to_json(kSecond);
  EXPECT_NE(json.find("\"client\":\"a\\u0001b\\\"c\""), std::string::npos)
      << json;
}

TEST(ClientStatsTracker, RatesUseTheSlidingWindowNotLifetime) {
  ClientStatsTracker tracker;
  ClientEntry* alpha = tracker.entry("alpha");
  for (int i = 0; i < 8; ++i) alpha->record_request(kSecond, 1);
  EXPECT_EQ(alpha->requests.total(30 * kSecond), 8u);
  // 100 s later the burst left the 60 s window: windowed rate reads 0
  // while the lifetime counter remembers all 8.
  EXPECT_EQ(alpha->requests.total(100 * kSecond), 0u);
  EXPECT_EQ(alpha->lifetime_requests.load(), 8u);
}

TEST(ClientStatsTracker, PsiGaugesAreMirroredPerClient) {
  obs::MetricsRegistry registry;
  ClientStatsTracker tracker({}, &registry);
  ClientEntry* alpha = tracker.entry("alpha");
  for (int i = 0; i < kFreeze; ++i) alpha->record_score(100, 0.1);
  // The mix flips; once the capture-era scores expire the PSI is large.
  for (int i = 0; i < 20; ++i) alpha->record_score(100 * kSecond, 0.95);
  (void)tracker.to_json(100 * kSecond + 1);  // refreshes the gauges
  const std::string exposition = registry.prometheus();
  const std::size_t at = exposition.find("mev_net_client_psi{client=\"alpha\"} ");
  ASSERT_NE(at, std::string::npos) << exposition;
  // The sample value is the PSI itself — well past the 0.25 threshold.
  EXPECT_GT(alpha->drift.psi(100 * kSecond + 1), 0.25);
}

// ---------------------------------------------------------------------------
// End-to-end: per-key drift through POST /v1/score.

constexpr std::size_t kDim = data::kNumApiFeatures;

math::Matrix random_counts(std::size_t rows, std::uint64_t seed) {
  math::Rng rng(seed);
  math::Matrix m(rows, kDim);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = static_cast<float>(rng.poisson(3.0));
  return m;
}

math::Matrix constant_counts(std::size_t rows, float value) {
  math::Matrix m(rows, kDim);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = value;
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

std::string post_score(const std::string& body, const std::string& key) {
  return "POST /v1/score HTTP/1.1\r\nContent-Type: " +
         std::string(kBinaryContentType) +
         "\r\nContent-Length: " + std::to_string(body.size()) +
         "\r\nX-Api-Key: " + key + "\r\n\r\n" + body;
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

// The acceptance scenario: the paper's black-box prober is ONE caller
// among many. Both keys freeze their reference on the same benign mix;
// the probe key then shifts to extreme inputs, moving its confidence
// distribution — its PSI crosses the major-drift threshold (0.25) while
// the steady key, still sending the original mix, stays near zero.
TEST(ScoringFrontend, ProbingKeyDriftsWhileSteadyKeyStaysFlat) {
  serve::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.admin.enabled = true;
  cfg.admin.port = 0;
  serve::ScoringService service(make_pipeline(7), make_network(11), cfg);
  ASSERT_NE(service.admin_server(), nullptr);

  FrontendConfig config;
  config.port = 0;
  config.worker_threads = 2;
  config.io_timeout_ms = 3000;
  config.api_keys = {ApiKey{"steady-key", "steady", 1e9, 1e9},
                     ApiKey{"probe-key", "probe", 1e9, 1e9}};
  config.admin = service.admin_server();
  {
    ScoringFrontend frontend(service, config);
    ASSERT_TRUE(frontend.start());

    Client client(frontend.port());
    ASSERT_TRUE(client.ok());
    // Phase 1: both keys send the same benign batch, whose verdicts
    // freeze each key's reference on that mix.
    const std::size_t batch_rows = serve::kDriftReferenceMinCount;
    const std::string benign =
        encode_binary_rows(constant_counts(batch_rows, 0.0f));
    client.send_raw(post_score(benign, "steady-key"));
    ASSERT_EQ(status_of(client.read_response()), 200);
    client.send_raw(post_score(benign, "probe-key"));
    ASSERT_EQ(status_of(client.read_response()), 200);

    // Phase 2: the probe key flips to an asymmetric high-count mix (5
    // batches) that drags the model's confidence out of the benign bin;
    // the steady key keeps sending the reference mix.
    math::Matrix probe_rows(batch_rows, kDim);
    for (std::size_t r = 0; r < probe_rows.rows(); ++r)
      for (std::size_t c = 0; c < kDim; ++c)
        probe_rows.data()[r * kDim + c] = c >= kDim / 2 ? 50'000.0f : 0.0f;
    const std::string probing = encode_binary_rows(probe_rows);
    for (int i = 0; i < 5; ++i) {
      client.send_raw(post_score(probing, "probe-key"));
      ASSERT_EQ(status_of(client.read_response()), 200);
    }
    client.send_raw(post_score(benign, "steady-key"));
    ASSERT_EQ(status_of(client.read_response()), 200);

    const std::uint64_t now_us = service.clock().now_us();
    ClientStatsTracker& clients = frontend.client_stats();
    ASSERT_TRUE(clients.entry("probe")->drift.reference_frozen());
    ASSERT_TRUE(clients.entry("steady")->drift.reference_frozen());
    const double probe_psi = clients.entry("probe")->drift.psi(now_us);
    const double steady_psi = clients.entry("steady")->drift.psi(now_us);
    EXPECT_GT(probe_psi, 0.25) << "probe mix shifted but PSI is flat";
    EXPECT_LT(steady_psi, 0.1) << "steady mix must not read as drift";

    // /clientz (registered by the frontend on the service's admin plane)
    // reports both keys; the index page lists the extra endpoint.
    // The admin plane is connection-per-request: fresh socket each time.
    Client admin(service.admin_server()->port());
    ASSERT_TRUE(admin.ok());
    admin.send_raw("GET /clientz HTTP/1.1\r\n\r\n");
    const std::string clientz = admin.read_response();
    EXPECT_EQ(status_of(clientz), 200);
    EXPECT_NE(clientz.find("\"client\":\"probe\""), std::string::npos);
    EXPECT_NE(clientz.find("\"client\":\"steady\""), std::string::npos);
    EXPECT_NE(clientz.find("\"reference_frozen\":true"), std::string::npos);
    Client admin_index(service.admin_server()->port());
    ASSERT_TRUE(admin_index.ok());
    admin_index.send_raw("GET / HTTP/1.1\r\n\r\n");
    const std::string index = admin_index.read_response();
    EXPECT_EQ(status_of(index), 200);
    EXPECT_NE(index.find("/clientz"), std::string::npos);
  }
  // The frontend deregistered /clientz on destruction; the admin plane
  // (which outlives it) answers 404 instead of calling a dead handler.
  Client admin(service.admin_server()->port());
  ASSERT_TRUE(admin.ok());
  admin.send_raw("GET /clientz HTTP/1.1\r\n\r\n");
  EXPECT_EQ(status_of(admin.read_response()), 404);
}

}  // namespace
}  // namespace mev::net
