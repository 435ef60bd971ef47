// HTTP serving bench for net::ScoringFrontend (DESIGN.md §8.2).
//
// Measures what the network edge costs relative to calling the service
// in-process. Three phases on the Table-IV 491-feature detector:
//
//   1. Sequential baseline — one thread, per-row scan_counts (context for
//      the offered rate; same anchor as bench_serve).
//   2. In-process open-loop — seeded Poisson arrivals of 16-row requests
//      at 1x the sequential rate, submitted straight into the service.
//   3. HTTP open-loop — the SAME offered schedule replayed over N
//      keep-alive connections as binary POST /v1/score requests (one
//      authenticated API key), responses matched in arrival order per
//      connection.
//
// The gated contract (bench/check_regression.py --kind http): the HTTP
// path must achieve >= 50% of the in-process open-loop rows/s at the same
// offered rate, with requests >> connections (keep-alive reuse, floored
// at 16 requests per connection) — plus relative latency/throughput
// comparison against the committed BENCH_http.json baseline.
//
//   ./bench_http [tiny|fast|full]   (default fast)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "bench_meta.hpp"
#include "math/rng.hpp"
#include "net/frontend.hpp"
#include "net/wire.hpp"
#include "serve/scoring_service.hpp"

using namespace mev;

namespace {

using SteadyClock = std::chrono::steady_clock;

constexpr std::size_t kRowsPerRequest = 16;
constexpr std::size_t kConnections = 4;
constexpr std::uint64_t kDeadlineMs = 100;
constexpr const char* kBenchKey = "bench";

double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

std::uint64_t us_since(SteadyClock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          SteadyClock::now() - start)
          .count());
}

/// kRowsPerRequest-row requests cycled from the real test counts.
std::vector<math::Matrix> make_requests(const bench::Environment& env,
                                        std::size_t n) {
  const math::Matrix& pool = env.bundle.test.counts;
  std::vector<math::Matrix> requests;
  requests.reserve(n);
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < n; ++i) {
    math::Matrix block(kRowsPerRequest, pool.cols());
    for (std::size_t r = 0; r < kRowsPerRequest; ++r)
      block.set_row(r, pool.row(cursor++ % pool.rows()));
    requests.push_back(std::move(block));
  }
  return requests;
}

double run_sequential(bench::Environment& env,
                      const std::vector<math::Matrix>& requests) {
  core::MalwareDetector& detector = env.detector();
  nn::InferenceSession session = detector.make_session(kRowsPerRequest);
  detector.scan_counts(session, requests.front());  // warm-up
  std::size_t malware = 0;
  const auto start = SteadyClock::now();
  for (const math::Matrix& request : requests)
    for (const auto& verdict : detector.scan_counts(session, request))
      malware += verdict.is_malware() ? 1 : 0;
  const double rows =
      static_cast<double>(requests.size() * kRowsPerRequest);
  const double rate = rows / seconds_since(start);
  std::cerr << "# sequential: " << malware << " malware verdicts\n";
  return rate;
}

/// Poisson arrival offsets (seconds from phase start) for `n` requests at
/// `rows_per_s` offered rows/s; identical schedule for both loop phases.
std::vector<double> make_schedule(std::size_t n, double rows_per_s,
                                  std::uint64_t seed) {
  const double request_rate = rows_per_s / kRowsPerRequest;
  math::Rng rng(seed);
  std::vector<double> arrival_s(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += rng.exponential(request_rate);
    arrival_s[i] = t;
  }
  return arrival_s;
}

struct Percentiles {
  double mean = 0.0;
  std::uint64_t p50 = 0, p95 = 0, p99 = 0, max = 0;
};

Percentiles summarize_us(std::vector<std::uint64_t> samples) {
  Percentiles p;
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  double sum = 0.0;
  for (const std::uint64_t v : samples) sum += static_cast<double>(v);
  p.mean = sum / static_cast<double>(samples.size());
  const auto at = [&](double q) {
    const std::size_t idx = std::min(
        samples.size() - 1,
        static_cast<std::size_t>(q * static_cast<double>(samples.size())));
    return samples[idx];
  };
  p.p50 = at(0.50);
  p.p95 = at(0.95);
  p.p99 = at(0.99);
  p.max = samples.back();
  return p;
}

struct LoopResult {
  double offered_rows_per_s = 0.0;
  double achieved_rows_per_s = 0.0;
  std::uint64_t completed_requests = 0;
  std::uint64_t rejected_deadline = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_overloaded = 0;
  std::uint64_t other_errors = 0;
  Percentiles latency_us;
};

serve::ServiceConfig service_config() {
  serve::ServiceConfig cfg;
  cfg.workers = 4;
  cfg.max_batch_rows = 64;
  cfg.max_queue_rows = 8192;
  return cfg;
}

LoopResult run_inproc_open_loop(bench::Environment& env,
                                const std::vector<math::Matrix>& requests,
                                const std::vector<double>& arrival_s,
                                double offered_rows_per_s) {
  serve::ScoringService service(env.detector().pipeline(),
                                env.detector().network_ptr(),
                                service_config());
  service.score(requests.front());  // warm-up

  serve::SubmitOptions options;
  options.deadline_ms = kDeadlineMs;
  std::vector<serve::ScoreFuture> futures;
  futures.reserve(requests.size());
  const auto start = SteadyClock::now();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto due =
        start + std::chrono::duration_cast<SteadyClock::duration>(
                    std::chrono::duration<double>(arrival_s[i]));
    if (due > SteadyClock::now()) std::this_thread::sleep_until(due);
    math::Matrix copy(requests[i].rows(), requests[i].cols());
    for (std::size_t r = 0; r < copy.rows(); ++r)
      copy.set_row(r, requests[i].row(r));
    futures.push_back(service.submit(std::move(copy), options));
  }
  LoopResult result;
  for (auto& future : futures)
    if (future.get().ok()) ++result.completed_requests;
  const double elapsed = seconds_since(start);
  service.shutdown();

  const serve::ServiceStats stats = service.stats();
  result.offered_rows_per_s = offered_rows_per_s;
  result.achieved_rows_per_s =
      static_cast<double>(result.completed_requests * kRowsPerRequest) /
      elapsed;
  result.rejected_deadline = stats.rejected_deadline;
  result.rejected_queue_full = stats.rejected_queue_full;
  result.rejected_overloaded = stats.rejected_overloaded;
  const obs::LatencySummary e2e = obs::summarize(stats.e2e_latency_us);
  result.latency_us.mean = e2e.mean;
  result.latency_us.p50 = e2e.p50;
  result.latency_us.p95 = e2e.p95;
  result.latency_us.p99 = e2e.p99;
  result.latency_us.max = e2e.max;
  return result;
}

/// One keep-alive connection replaying its share of the schedule: a
/// sender thread paces binary POSTs; the reader matches responses FIFO
/// (the frontend writes responses in arrival order per connection).
class BenchConnection {
 public:
  bool connect_to(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
      return false;
    }
    return true;
  }
  ~BenchConnection() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool send_raw(const std::string& data) {
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Next framed response's status code, or -1 on EOF.
  int read_status() {
    for (;;) {
      const std::size_t header_end = buffer_.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        const std::string headers = buffer_.substr(0, header_end + 4);
        std::size_t body_len = 0;
        const std::size_t cl = headers.find("Content-Length: ");
        if (cl != std::string::npos)
          body_len =
              static_cast<std::size_t>(std::stoul(headers.substr(cl + 16)));
        if (buffer_.size() >= header_end + 4 + body_len) {
          const int status = std::stoi(headers.substr(9, 3));
          buffer_.erase(0, header_end + 4 + body_len);
          return status;
        }
      }
      char chunk[16384];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return -1;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

LoopResult run_http_open_loop(bench::Environment& env,
                              const std::vector<math::Matrix>& requests,
                              const std::vector<double>& arrival_s,
                              double offered_rows_per_s,
                              std::uint64_t* requests_per_connection) {
  serve::ScoringService service(env.detector().pipeline(),
                                env.detector().network_ptr(),
                                service_config());
  service.score(requests.front());  // warm-up

  net::FrontendConfig frontend_cfg;
  frontend_cfg.port = 0;
  frontend_cfg.worker_threads = kConnections;
  frontend_cfg.max_pipeline = 128;
  frontend_cfg.io_timeout_ms = 10'000;
  frontend_cfg.api_keys = {net::ApiKey{kBenchKey, "bench", 1e12, 1e12}};
  net::ScoringFrontend frontend(service, frontend_cfg);
  if (!frontend.start()) {
    std::cerr << "FATAL: frontend bind failed\n";
    std::exit(1);
  }

  // Pre-encode every request: the bench measures the serving path, not
  // the client's encoder.
  std::vector<std::string> wire;
  wire.reserve(requests.size());
  std::size_t request_index = 0;
  for (const math::Matrix& request : requests) {
    const std::string body = net::encode_binary_rows(request);
    // Correlation enabled: every request carries a deterministic W3C
    // traceparent so the bench exercises the full tracing ingest path
    // (parse, context inheritance, X-Trace-Id echo, Server-Timing).
    char traceparent[64];
    std::snprintf(traceparent, sizeof(traceparent),
                  "00-%016llxdeadbeefcafe%04llx-%016llx-01",
                  static_cast<unsigned long long>(request_index + 1),
                  static_cast<unsigned long long>(request_index & 0xffff),
                  static_cast<unsigned long long>(request_index * 2 + 1));
    ++request_index;
    std::string req =
        "POST /v1/score HTTP/1.1\r\n"
        "Content-Type: application/x-mev-rows\r\n"
        "X-Api-Key: ";
    req += kBenchKey;
    req += "\r\ntraceparent: ";
    req += traceparent;
    req += "\r\nX-Deadline-Ms: " + std::to_string(kDeadlineMs) +
           "\r\nContent-Length: " + std::to_string(body.size()) + "\r\n\r\n";
    req += body;
    wire.push_back(std::move(req));
  }

  // Round-robin the global schedule across connections; per-connection
  // order preserves the global order, so FIFO response matching holds.
  struct PerConnection {
    BenchConnection socket;
    std::vector<std::size_t> indices;           // into wire/arrival_s
    std::mutex mutex;
    std::deque<SteadyClock::time_point> sent;   // pending send timestamps
    std::vector<std::uint64_t> latencies;
    std::uint64_t ok = 0, deadline = 0, queue_full = 0, overloaded = 0,
                  other = 0;
  };
  std::vector<std::unique_ptr<PerConnection>> conns;
  for (std::size_t c = 0; c < kConnections; ++c) {
    conns.push_back(std::make_unique<PerConnection>());
    if (!conns.back()->socket.connect_to(frontend.port())) {
      std::cerr << "FATAL: connect failed\n";
      std::exit(1);
    }
  }
  for (std::size_t i = 0; i < wire.size(); ++i)
    conns[i % kConnections]->indices.push_back(i);

  const auto start = SteadyClock::now();
  std::vector<std::thread> threads;
  for (auto& conn_ptr : conns) {
    PerConnection* conn = conn_ptr.get();
    // Sender: paces this connection's share of the Poisson schedule.
    threads.emplace_back([conn, &wire, &arrival_s, start] {
      for (const std::size_t i : conn->indices) {
        const auto due =
            start + std::chrono::duration_cast<SteadyClock::duration>(
                        std::chrono::duration<double>(arrival_s[i]));
        if (due > SteadyClock::now()) std::this_thread::sleep_until(due);
        {
          std::lock_guard<std::mutex> lock(conn->mutex);
          conn->sent.push_back(SteadyClock::now());
        }
        if (!conn->socket.send_raw(wire[i])) break;
      }
    });
    // Reader: one response per sent request, FIFO.
    threads.emplace_back([conn] {
      const std::size_t expected = conn->indices.size();
      for (std::size_t done = 0; done < expected; ++done) {
        const int status = conn->socket.read_status();
        if (status < 0) break;
        SteadyClock::time_point sent_at;
        {
          std::lock_guard<std::mutex> lock(conn->mutex);
          sent_at = conn->sent.front();
          conn->sent.pop_front();
        }
        if (status == 200) {
          ++conn->ok;
          conn->latencies.push_back(us_since(sent_at));
        } else if (status == 504) {
          ++conn->deadline;
        } else if (status == 503) {
          ++conn->queue_full;  // reason split comes from frontend stats
        } else {
          ++conn->other;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed = seconds_since(start);

  LoopResult result;
  std::vector<std::uint64_t> latencies;
  for (const auto& conn : conns) {
    result.completed_requests += conn->ok;
    result.rejected_deadline += conn->deadline;
    result.other_errors += conn->other;
    latencies.insert(latencies.end(), conn->latencies.begin(),
                     conn->latencies.end());
  }
  const net::FrontendStats stats = frontend.stats();
  result.rejected_queue_full = stats.rejected_queue_full;
  result.rejected_overloaded = stats.rejected_overloaded;
  result.offered_rows_per_s = offered_rows_per_s;
  result.achieved_rows_per_s =
      static_cast<double>(result.completed_requests * kRowsPerRequest) /
      elapsed;
  result.latency_us = summarize_us(std::move(latencies));
  *requests_per_connection =
      stats.connections_accepted > 0
          ? stats.requests / stats.connections_accepted
          : 0;

  frontend.stop();
  service.shutdown();
  return result;
}

void print_loop(const char* name, const LoopResult& r) {
  std::cout << name << ": offered=" << r.offered_rows_per_s
            << " rows/s achieved=" << r.achieved_rows_per_s
            << " rows/s completed=" << r.completed_requests
            << " rejected(deadline=" << r.rejected_deadline
            << ", queue_full=" << r.rejected_queue_full
            << ", overloaded=" << r.rejected_overloaded
            << ", other=" << r.other_errors << ") latency p50="
            << r.latency_us.p50 << "us p95=" << r.latency_us.p95
            << "us p99=" << r.latency_us.p99 << "us\n";
}

void json_loop(std::ostream& os, const LoopResult& r) {
  os << "{\"offered_rows_per_s\": " << r.offered_rows_per_s
     << ", \"achieved_rows_per_s\": " << r.achieved_rows_per_s
     << ", \"completed_requests\": " << r.completed_requests
     << ", \"rejected_deadline\": " << r.rejected_deadline
     << ", \"rejected_queue_full\": " << r.rejected_queue_full
     << ", \"rejected_overloaded\": " << r.rejected_overloaded
     << ", \"other_errors\": " << r.other_errors
     << ", \"latency_us\": {\"mean\": " << r.latency_us.mean
     << ", \"p50\": " << r.latency_us.p50
     << ", \"p95\": " << r.latency_us.p95
     << ", \"p99\": " << r.latency_us.p99
     << ", \"max\": " << r.latency_us.max << "}}";
}

}  // namespace

int main(int argc, char** argv) {
  const auto config = bench::parse_scale(argc, argv, "fast");
  bench::Environment env = bench::make_environment(config);

  std::size_t n_requests = 512;
  if (config.scale == core::ExperimentScale::kTiny) n_requests = 128;
  if (config.scale == core::ExperimentScale::kFull) n_requests = 2048;
  const std::vector<math::Matrix> requests = make_requests(env, n_requests);
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  std::cerr << "# requests=" << n_requests << " x " << kRowsPerRequest
            << " rows, feature_dim=" << requests.front().cols()
            << " connections=" << kConnections
            << " hardware_concurrency=" << cores << "\n";

  std::cerr << "# sequential baseline...\n";
  const double sequential_rows_per_s = run_sequential(env, requests);
  std::cout << "sequential " << kRowsPerRequest
            << "-row scan_counts: " << sequential_rows_per_s << " rows/s\n";

  const double offered = sequential_rows_per_s;  // rate_multiplier 1.0
  const std::vector<double> schedule =
      make_schedule(n_requests, offered, config.seed + 177);

  std::cerr << "# in-process open-loop at 1x...\n";
  const LoopResult inproc =
      run_inproc_open_loop(env, requests, schedule, offered);
  print_loop("in-process open-loop 1x", inproc);

  std::cerr << "# HTTP open-loop at 1x (" << kConnections
            << " keep-alive connections, binary rows)...\n";
  std::uint64_t requests_per_connection = 0;
  const LoopResult http = run_http_open_loop(env, requests, schedule, offered,
                                             &requests_per_connection);
  print_loop("http open-loop 1x", http);

  const double ratio = inproc.achieved_rows_per_s > 0.0
                           ? http.achieved_rows_per_s /
                                 inproc.achieved_rows_per_s
                           : 0.0;
  std::cout << "\nhttp/in-process achieved ratio: " << ratio
            << " (floor 0.5)\n"
            << "requests per connection: " << requests_per_connection
            << " (keep-alive reuse, floor 16)\n";

  std::ofstream out("BENCH_http.json");
  out << "{\n";
  mev::bench::write_meta_json(out);
  out << ",\n"
      << "  \"scale\": \"" << core::to_string(config.scale) << "\",\n"
      << "  \"seed\": " << config.seed << ",\n"
      << "  \"requests\": " << n_requests << ",\n"
      << "  \"rows_per_request\": " << kRowsPerRequest << ",\n"
      << "  \"connections\": " << kConnections << ",\n"
      << "  \"feature_dim\": " << requests.front().cols() << ",\n"
      << "  \"hardware_concurrency\": " << cores << ",\n"
      << "  \"deadline_ms\": " << kDeadlineMs << ",\n"
      << "  \"sequential_rows_per_s\": " << sequential_rows_per_s << ",\n"
      << "  \"inproc_open_loop\": ";
  json_loop(out, inproc);
  out << ",\n  \"http_open_loop\": ";
  json_loop(out, http);
  out << ",\n  \"requests_per_connection\": " << requests_per_connection
      << ",\n  \"http_vs_inproc_ratio\": " << ratio << "\n}\n";
  std::cout << "wrote BENCH_http.json\n";
  return 0;
}
