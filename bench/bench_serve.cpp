// Serving bench for serve::ScoringService and its HTTP edge,
// net::ScoringFrontend (DESIGN.md §8), on the Table-IV 491-feature
// detector trained by bench_common's environment.
//
// Points, each measured in time-boxed blocks:
//
//   sequential        one thread, one InferenceSession, one scan_counts()
//                     call per single-row request: the pre-service
//                     deployment model, and the 1x rate of the
//                     single-row schedules.
//   closed_loop[w]    w serve workers and 2w clients, each client keeping
//                     one single-row request in flight (w = 1, 2, 4, 8).
//   open_loop[r]      seeded Poisson arrivals of single-row requests at
//                     r x the sequential rate (r = 0.5, 1, 2) with a
//                     100 ms deadline, on 2 serve workers.
//   overload          the 2x open loop with the adaptive load shedder
//                     (ServiceConfig::overload) on; its goodput ratio is
//                     completed rows/s over the sequential rate.
//   http              a sequential block of 16-row scan_counts() calls,
//                     then the seeded 1x schedule of 16-row requests at
//                     that rate, run in-process (the twin) and then
//                     replayed as binary (MEVB) POST /v1/score requests
//                     over one keep-alive loopback connection, a
//                     traceparent on every request.
//
// The runner does one unrecorded warm-up round, then rounds of blocks:
// round b runs block b of every point, in the order above, before any
// point runs block b+1. Ratios (speedup_vs_sequential, goodput_ratio,
// http_vs_inproc_ratio) are formed per block, against the sequential
// block that opened the same round and, for HTTP, the twin block run just
// before. The HTTP schedule's 1x is the 16-row sequential rate of the
// same block, which saturates the one serve worker on both sides of the
// pair, so whatever the HTTP path adds per request shows in the ratio and
// in the latency. Latency percentiles are exact (nearest rank over every
// completed request of the block). BENCH_serve.json (written to the
// working directory) records every block and the per-metric median over
// the blocks; the medians are what bench/check_regression.py --kind serve
// gates. Each point also
// records its busy threads (clients + serve workers + socket workers), and
// the gate skips a point that needs more than hardware_concurrency.
//
//   ./bench_serve [tiny|fast|full]   (default fast)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <deque>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "bench_meta.hpp"
#include "math/rng.hpp"
#include "net/frontend.hpp"
#include "net/wire.hpp"
#include "nn/session.hpp"
#include "obs/json.hpp"
#include "serve/scoring_service.hpp"

using namespace mev;

namespace {

using SteadyClock = std::chrono::steady_clock;
/// One block's (or one point's fixed) numbers, in report order.
using Metrics = std::vector<std::pair<std::string, double>>;

/// The time box of one block. Short blocks, many of them: a stall on a
/// shared box spoils one block, and the median over blocks drops it.
constexpr double kBlockMs = 50.0;
constexpr std::uint64_t kDeadlineMs = 100;
constexpr std::size_t kClientsPerWorker = 2;  // closed loop
constexpr std::size_t kOpenLoopWorkers = 2;
constexpr std::size_t kHttpServeWorkers = 1;
constexpr std::size_t kHttpSocketWorkers = 1;
constexpr std::size_t kHttpRowsPerRequest = 16;
constexpr const char* kBenchKey = "bench";

double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

SteadyClock::time_point after(SteadyClock::time_point start, double s) {
  return start + std::chrono::duration_cast<SteadyClock::duration>(
                     std::chrono::duration<double>(s));
}

/// What a point's block needs from its round: the block length, the seed
/// of its schedules, and the sequential rate measured at the start of the
/// same round (the 1x of the single-row schedules and the denominator of
/// every ratio to sequential).
struct Round {
  double seconds = 0.0;
  std::uint64_t seed = 0;
  double sequential_rows_per_s = 0.0;
};

/// `n` requests of `rows` rows each, cycled from the real test counts.
std::vector<math::Matrix> make_requests(const math::Matrix& pool,
                                        std::size_t n, std::size_t rows) {
  std::vector<math::Matrix> requests;
  requests.reserve(n);
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < n; ++i) {
    math::Matrix block(rows, pool.cols());
    for (std::size_t r = 0; r < rows; ++r)
      block.set_row(r, pool.row(cursor++ % pool.rows()));
    requests.push_back(std::move(block));
  }
  return requests;
}

/// Exact nearest-rank percentiles of per-request latencies. The service's
/// own histograms interpolate inside power-of-two buckets, too coarse for
/// a 25% gate: a p95 near a bucket edge moves by tens of percent when a
/// few requests cross the edge.
struct Percentiles {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

Percentiles percentiles(std::vector<std::uint64_t> samples) {
  Percentiles out;
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const auto at = [&](double p) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(samples.size())));
    return static_cast<double>(samples[std::max<std::size_t>(rank, 1) - 1]);
  };
  out.p50 = at(50.0);
  out.p95 = at(95.0);
  out.p99 = at(99.0);
  return out;
}

/// Admission to verdicts, exactly what the service's e2e histogram records.
std::uint64_t e2e_us(const serve::ScoreResult& result) {
  return result.stages.scan_end_us - result.stages.admitted_us;
}

/// Seeded Poisson arrival offsets in [0, seconds) at `rate` per second.
std::vector<double> poisson_schedule(double rate, double seconds,
                                     std::uint64_t seed) {
  math::Rng rng(seed);
  std::vector<double> arrival_s;
  for (double t = rng.exponential(rate); t < seconds;
       t += rng.exponential(rate))
    arrival_s.push_back(t);
  return arrival_s;
}

serve::ServiceConfig service_config(std::size_t workers,
                                    std::size_t max_queue_rows,
                                    bool shed = false) {
  serve::ServiceConfig cfg;
  cfg.workers = workers;
  cfg.max_batch_rows = 64;
  cfg.max_queue_rows = max_queue_rows;
  if (shed) {
    // The CoDel controller turns sustained queue delay into deterministic
    // admission shedding instead of letting every request burn its
    // deadline in the queue. Tight thresholds: with sub-10us rows any
    // standing queue is visible as >1ms sojourn, and a 25ms interval
    // reacts within the burst.
    cfg.overload.enabled = true;
    cfg.overload.target_delay_ms = 1;
    cfg.overload.interval_ms = 25;
  }
  return cfg;
}

/// Rows/s of one thread calling scan_counts() on `requests` in turn for
/// the round's block length.
double sequential_rows_per_s(core::MalwareDetector& detector,
                             const std::vector<math::Matrix>& requests,
                             const Round& round) {
  nn::InferenceSession session =
      detector.make_session(requests.front().rows());
  std::size_t rows = 0;
  std::size_t next = 0;
  const auto start = SteadyClock::now();
  const auto end = after(start, round.seconds);
  while (SteadyClock::now() < end) {
    const math::Matrix& request = requests[next++ % requests.size()];
    (void)detector.scan_counts(session, request);
    rows += request.rows();
  }
  return static_cast<double>(rows) / seconds_since(start);
}

Metrics run_closed_loop(bench::Environment& env,
                        const std::vector<math::Matrix>& singles,
                        std::size_t workers, std::size_t clients,
                        const Round& round) {
  serve::ScoringService service(env.detector().pipeline(),
                                env.detector().network_ptr(),
                                service_config(workers, 8192));
  service.score(singles.front());  // warm-up: sessions built, caches hot

  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  std::vector<std::vector<std::uint64_t>> latencies(clients);
  const auto start = SteadyClock::now();
  const auto end = after(start, round.seconds);
  for (std::size_t c = 0; c < clients; ++c)
    threads.emplace_back([&, c] {
      std::vector<std::uint64_t>& mine = latencies[c];
      mine.reserve(1 << 14);
      // Closed loop: each client keeps exactly one request outstanding.
      while (SteadyClock::now() < end) {
        const serve::ScoreResult result =
            service.submit(singles[next.fetch_add(1) % singles.size()])
                .get();
        if (result.ok()) mine.push_back(e2e_us(result));
      }
    });
  for (auto& t : threads) t.join();
  const double elapsed = seconds_since(start);
  service.shutdown();

  std::vector<std::uint64_t> all;
  for (const auto& mine : latencies)
    all.insert(all.end(), mine.begin(), mine.end());
  const Percentiles e2e = percentiles(std::move(all));
  const serve::ServiceStats stats = service.stats();
  const double rows_per_s = static_cast<double>(next.load()) / elapsed;
  return {{"rows_per_s", rows_per_s},
          {"speedup_vs_sequential", rows_per_s / round.sequential_rows_per_s},
          {"mean_batch_rows", stats.batch_rows.mean()},
          {"e2e_p50_us", e2e.p50},
          {"e2e_p95_us", e2e.p95},
          {"e2e_p99_us", e2e.p99}};
}

struct Drive {
  std::uint64_t completed = 0;
  double seconds = 0.0;  // first due time to last outcome
  std::vector<std::uint64_t> queue_us;  // admission to batch, completed only
  std::vector<std::uint64_t> e2e_us;    // admission to verdicts
};

/// Submits `requests` (cycled) at the schedule's offsets, each with the
/// deadline, and waits for every outcome.
Drive drive_open_loop(serve::ScoringService& service,
                      const std::vector<math::Matrix>& requests,
                      const std::vector<double>& schedule) {
  serve::SubmitOptions options;
  options.deadline_ms = kDeadlineMs;  // drop hopeless work, don't queue it
  std::vector<serve::ScoreFuture> futures;
  futures.reserve(schedule.size());
  const auto start = SteadyClock::now();
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    // Absolute due times: dispatch jitter does not accumulate into drift.
    const auto due = after(start, schedule[i]);
    if (due > SteadyClock::now()) std::this_thread::sleep_until(due);
    futures.push_back(
        service.submit(requests[i % requests.size()], options));
  }
  Drive drive;
  drive.queue_us.reserve(futures.size());
  drive.e2e_us.reserve(futures.size());
  for (auto& future : futures) {
    const serve::ScoreResult result = future.get();
    if (!result.ok()) continue;
    ++drive.completed;
    drive.queue_us.push_back(result.stages.formed_us -
                             result.stages.admitted_us);
    drive.e2e_us.push_back(e2e_us(result));
  }
  drive.seconds = seconds_since(start);
  return drive;
}

Metrics run_open_loop(bench::Environment& env,
                      const std::vector<math::Matrix>& singles,
                      std::size_t workers, double multiplier, bool shed,
                      std::uint64_t salt, const Round& round) {
  // 1024 rows: tight enough to exercise queue-full at 2x.
  serve::ScoringService service(env.detector().pipeline(),
                                env.detector().network_ptr(),
                                service_config(workers, 1024, shed));
  service.score(singles.front());  // warm-up

  const double offered = multiplier * round.sequential_rows_per_s;
  Drive drive = drive_open_loop(
      service, singles,
      poisson_schedule(offered, round.seconds, round.seed + salt));
  service.shutdown();

  const serve::ServiceStats stats = service.stats();
  const Percentiles queue = percentiles(std::move(drive.queue_us));
  const Percentiles e2e = percentiles(std::move(drive.e2e_us));
  const double achieved =
      static_cast<double>(drive.completed) / drive.seconds;
  Metrics metrics{
      {"offered_rows_per_s", offered},
      {"achieved_rows_per_s", achieved},
      {"completed", static_cast<double>(drive.completed)},
      {"rejected_deadline", static_cast<double>(stats.rejected_deadline)},
      {"rejected_queue_full", static_cast<double>(stats.rejected_queue_full)},
      {"rejected_overloaded", static_cast<double>(stats.rejected_overloaded)},
      {"queue_p95_us", queue.p95},
      {"e2e_p50_us", e2e.p50},
      {"e2e_p95_us", e2e.p95},
      {"e2e_p99_us", e2e.p99}};
  // Goodput relative to what this box scores sequentially in the same
  // round, so co-tenant load cancels out of the ratio.
  if (shed)
    metrics.emplace_back("goodput_ratio",
                         achieved / round.sequential_rows_per_s);
  return metrics;
}

/// One keep-alive loopback connection, driven from one thread: requests
/// go out as they fall due and responses are matched FIFO in between (the
/// frontend writes responses in arrival order per connection).
class BenchConnection {
 public:
  BenchConnection() = default;
  BenchConnection(const BenchConnection&) = delete;
  BenchConnection& operator=(const BenchConnection&) = delete;
  ~BenchConnection() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connect_to(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }

  /// MSG_MORE in `flags` holds a header back until its body follows.
  bool send_all(const char* data, std::size_t size, int flags = 0) {
    std::size_t sent = 0;
    while (sent < size) {
      const ssize_t n =
          ::send(fd_, data + sent, size - sent, flags | MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Buffers whatever response bytes arrive within `timeout`; false on
  /// EOF or a socket error.
  bool receive(SteadyClock::duration timeout) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::max(timeout, SteadyClock::duration::zero()))
                        .count();
    const timespec wait{static_cast<time_t>(ns / 1'000'000'000),
                        static_cast<long>(ns % 1'000'000'000)};
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::ppoll(&pfd, 1, &wait, nullptr);
    if (ready <= 0) return ready == 0 || errno == EINTR;
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  /// Status code of the next complete buffered response, or 0 if none.
  int next_status() {
    const std::size_t header_end = buffer_.find("\r\n\r\n");
    if (header_end == std::string::npos) return 0;
    std::size_t body_len = 0;
    const std::size_t cl = buffer_.find("Content-Length: ");
    if (cl != std::string::npos && cl < header_end)
      body_len = std::strtoul(buffer_.c_str() + cl + 16, nullptr, 10);
    if (buffer_.size() < header_end + 4 + body_len) return 0;
    const int status = std::stoi(buffer_.substr(9, 3));
    buffer_.erase(0, header_end + 4 + body_len);
    return status;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

struct HttpReplay {
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  double seconds = 0.0;
  std::uint64_t requests_per_connection = 0;
  std::vector<std::uint64_t> latency_us;  // send -> response read, 200s
};

/// Replays `schedule` as binary POSTs over one keep-alive connection to a
/// frontend with kHttpSocketWorkers in front of a kHttpServeWorkers
/// service.
HttpReplay replay_over_http(bench::Environment& env,
                            const std::vector<math::Matrix>& requests,
                            const std::vector<std::string>& bodies,
                            const std::vector<double>& schedule) {
  serve::ScoringService service(env.detector().pipeline(),
                                env.detector().network_ptr(),
                                service_config(kHttpServeWorkers, 8192));
  service.score(requests.front());  // warm-up

  net::FrontendConfig frontend_cfg;
  frontend_cfg.worker_threads = kHttpSocketWorkers;
  frontend_cfg.max_pipeline = 128;
  frontend_cfg.io_timeout_ms = 10'000;
  frontend_cfg.api_keys = {net::ApiKey{kBenchKey, "bench", 1e12, 1e12}};
  net::ScoringFrontend frontend(service, frontend_cfg);
  BenchConnection conn;
  if (!frontend.start() || !conn.connect_to(frontend.port())) {
    std::cerr << "FATAL: cannot reach the scoring frontend on loopback\n";
    std::exit(1);
  }

  HttpReplay replay;
  replay.latency_us.reserve(schedule.size());
  std::deque<SteadyClock::time_point> sent;  // pending send timestamps
  char header[256];
  std::size_t next = 0;
  std::size_t answered = 0;
  bool connected = true;
  const auto start = SteadyClock::now();
  while (connected && answered < schedule.size()) {
    for (; connected && next < schedule.size() &&
           after(start, schedule[next]) <= SteadyClock::now();
         ++next) {
      // A deterministic W3C traceparent on every request exercises the
      // tracing ingest path: parse, context inheritance, X-Trace-Id echo
      // and Server-Timing.
      const std::string& body = bodies[next % bodies.size()];
      const int len = std::snprintf(
          header, sizeof(header),
          "POST /v1/score HTTP/1.1\r\n"
          "Content-Type: application/x-mev-rows\r\n"
          "X-Api-Key: %s\r\n"
          "traceparent: 00-%016llxdeadbeefcafe%04llx-%016llx-01\r\n"
          "X-Deadline-Ms: %llu\r\n"
          "Content-Length: %zu\r\n\r\n",
          kBenchKey, static_cast<unsigned long long>(next + 1),
          static_cast<unsigned long long>(next & 0xffff),
          static_cast<unsigned long long>(next * 2 + 1),
          static_cast<unsigned long long>(kDeadlineMs), body.size());
      sent.push_back(SteadyClock::now());
      connected =
          conn.send_all(header, static_cast<std::size_t>(len), MSG_MORE) &&
          conn.send_all(body.data(), body.size());
    }
    // Wait for responses until the next request falls due.
    const auto wake = next < schedule.size()
                          ? after(start, schedule[next])
                          : SteadyClock::now() + std::chrono::seconds(10);
    connected = connected && conn.receive(wake - SteadyClock::now());
    for (int status = conn.next_status(); status != 0;
         status = conn.next_status()) {
      ++answered;
      const SteadyClock::time_point sent_at = sent.front();
      sent.pop_front();
      if (status != 200) continue;
      ++replay.ok;
      replay.latency_us.push_back(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              SteadyClock::now() - sent_at)
              .count()));
    }
  }
  replay.failed = schedule.size() - replay.ok;  // non-200s and unanswered
  replay.seconds = seconds_since(start);

  const net::FrontendStats stats = frontend.stats();
  replay.requests_per_connection =
      stats.connections_accepted > 0
          ? stats.requests / stats.connections_accepted
          : 0;
  frontend.stop();
  service.shutdown();
  return replay;
}

Metrics run_http_pair(bench::Environment& env,
                      const std::vector<math::Matrix>& requests,
                      const std::vector<std::string>& bodies,
                      const Round& round) {
  // 1x: what one thread scores sequentially in 16-row calls, measured
  // just before the twin.
  const double offered =
      sequential_rows_per_s(env.detector(), requests, round);
  const std::vector<double> schedule = poisson_schedule(
      offered / kHttpRowsPerRequest, round.seconds, round.seed + 177);
  const auto rows_per_s = [](std::uint64_t completed, double seconds) {
    return static_cast<double>(completed * kHttpRowsPerRequest) / seconds;
  };

  // The in-process twin: the same schedule submitted straight into a
  // service configured like the one behind the frontend.
  serve::ScoringService service(env.detector().pipeline(),
                                env.detector().network_ptr(),
                                service_config(kHttpServeWorkers, 8192));
  service.score(requests.front());  // warm-up
  Drive inproc = drive_open_loop(service, requests, schedule);
  service.shutdown();
  const Percentiles inproc_e2e = percentiles(std::move(inproc.e2e_us));
  const double inproc_rows_per_s =
      rows_per_s(inproc.completed, inproc.seconds);

  HttpReplay http = replay_over_http(env, requests, bodies, schedule);
  const Percentiles http_latency = percentiles(std::move(http.latency_us));
  const double http_rows_per_s = rows_per_s(http.ok, http.seconds);
  return {{"offered_rows_per_s", offered},
          {"inproc_rows_per_s", inproc_rows_per_s},
          {"http_rows_per_s", http_rows_per_s},
          {"http_vs_inproc_ratio", inproc_rows_per_s > 0.0
                                       ? http_rows_per_s / inproc_rows_per_s
                                       : 0.0},
          {"requests_per_connection",
           static_cast<double>(http.requests_per_connection)},
          {"http_failed", static_cast<double>(http.failed)},
          {"inproc_e2e_p95_us", inproc_e2e.p95},
          {"http_p50_us", http_latency.p50},
          {"http_p95_us", http_latency.p95},
          {"http_p99_us", http_latency.p99}};
}

/// Per-metric median over the blocks (every block lists the same keys).
Metrics median_of(const std::vector<Metrics>& blocks) {
  Metrics median = blocks.front();
  for (std::size_t k = 0; k < median.size(); ++k) {
    std::vector<double> v;
    for (const Metrics& block : blocks) v.push_back(block[k].second);
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    median[k].second = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  }
  return median;
}

void append_metrics(std::string& out, const Metrics& metrics) {
  out += '{';
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    obs::json::append_string(out, metrics[i].first);
    out += ": ";
    obs::json::append_number(out, metrics[i].second);
  }
  out += '}';
}

/// A point's thread counts are the values its runner is called with, so
/// the busy-thread count the gate reads cannot drift from what runs.
struct Point {
  std::string name;
  std::size_t clients = 0;
  std::size_t serve_workers = 0;
  std::size_t socket_workers = 0;
  Metrics config;
  std::function<Metrics(const Round&)> run;
  std::vector<Metrics> blocks;

  std::size_t busy_threads() const {
    return clients + serve_workers + socket_workers;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const auto config = bench::parse_scale(argc, argv, "fast");
  bench::Environment env = bench::make_environment(config);

  // Every point gets blocks x kBlockMs of arrivals: about 2 s at fast.
  // With 21 blocks the median p95 of one point moved by 10-15% (one
  // standard deviation) between back-to-back runs of unchanged code on a
  // shared 4-vCPU box, too wide for the gate's 25% band.
  std::size_t blocks = 41;
  if (config.scale == core::ExperimentScale::kTiny) blocks = 3;
  if (config.scale == core::ExperimentScale::kFull) blocks = 161;
  const math::Matrix& pool = env.bundle.test.counts;
  const std::vector<math::Matrix> singles =
      make_requests(pool, pool.rows(), 1);
  const std::vector<math::Matrix> sixteens =
      make_requests(pool, 64, kHttpRowsPerRequest);
  // Pre-encoded bodies: the bench measures the serving path, not the
  // client's encoder.
  std::vector<std::string> bodies;
  for (const math::Matrix& request : sixteens)
    bodies.push_back(net::encode_binary_rows(request));
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  std::cerr << "# blocks=" << blocks << " x " << kBlockMs
            << " ms, feature_dim=" << pool.cols()
            << " hardware_concurrency=" << cores << "\n";

  const auto d = [](std::size_t n) { return static_cast<double>(n); };
  std::vector<Point> points;
  points.push_back({"sequential", 1, 0, 0, {}, [&](const Round& round) {
                      return Metrics{{"rows_per_s",
                                      sequential_rows_per_s(env.detector(),
                                                            singles, round)}};
                    }, {}});
  for (const std::size_t workers : {1, 2, 4, 8}) {
    const std::size_t clients = kClientsPerWorker * workers;
    points.push_back({"closed_loop[workers=" + std::to_string(workers) + "]",
                      clients, workers, 0,
                      {{"workers", d(workers)}, {"clients", d(clients)}},
                      [&, workers, clients](const Round& round) {
                        return run_closed_loop(env, singles, workers, clients,
                                               round);
                      }, {}});
  }
  // Open loop: one thread submits the schedule.
  for (const auto& [label, mult] : {std::pair{"0.5", 0.5},
                                    std::pair{"1", 1.0}, std::pair{"2", 2.0}})
    points.push_back({std::string("open_loop[rate=") + label + "]", 1,
                      kOpenLoopWorkers, 0,
                      {{"workers", d(kOpenLoopWorkers)},
                       {"rate_multiplier", mult},
                       {"deadline_ms", d(kDeadlineMs)}},
                      [&, mult](const Round& round) {
                        return run_open_loop(env, singles, kOpenLoopWorkers,
                                             mult, false, 77, round);
                      }, {}});
  points.push_back({"overload", 1, kOpenLoopWorkers, 0,
                    {{"workers", d(kOpenLoopWorkers)},
                     {"rate_multiplier", 2.0},
                     {"deadline_ms", d(kDeadlineMs)}},
                    [&](const Round& round) {
                      return run_open_loop(env, singles, kOpenLoopWorkers,
                                           2.0, true, 99, round);
                    }, {}});
  // One client thread drives the one connection.
  points.push_back({"http", 1, kHttpServeWorkers, kHttpSocketWorkers,
                    {{"rows_per_request", d(kHttpRowsPerRequest)},
                     {"connections", 1},
                     {"deadline_ms", d(kDeadlineMs)}},
                    [&](const Round& round) {
                      return run_http_pair(env, sixteens, bodies, round);
                    }, {}});

  // Round 0 is the warm-up and is not recorded.
  Round round{kBlockMs / 1000.0, 0, 0.0};
  for (std::size_t b = 0; b <= blocks; ++b) {
    std::cerr << "# round " << b << (b == 0 ? " (warm-up)" : "") << "\n";
    round.seed = config.seed + 1000 * b;
    for (Point& point : points) {
      Metrics metrics = point.run(round);
      if (&point == &points.front())  // sequential: rows_per_s only
        round.sequential_rows_per_s = metrics.front().second;
      if (b > 0) point.blocks.push_back(std::move(metrics));
    }
  }

  std::string json = ",\n  \"scale\": ";
  obs::json::append_string(json, core::to_string(config.scale));
  json += ",\n  \"seed\": ";
  obs::json::append_number(json, d(config.seed));
  json += ",\n  \"feature_dim\": ";
  obs::json::append_number(json, d(pool.cols()));
  json += ",\n  \"hardware_concurrency\": ";
  obs::json::append_number(json, cores);
  json += ",\n  \"block_ms\": ";
  obs::json::append_number(json, kBlockMs);
  json += ",\n  \"points\": [";
  for (std::size_t p = 0; p < points.size(); ++p) {
    const Point& point = points[p];
    const Metrics median = median_of(point.blocks);
    const std::size_t busy = point.busy_threads();
    std::cout << point.name << " (busy threads " << busy << "):";
    for (const auto& [key, v] : median) std::cout << " " << key << "=" << v;
    if (busy > cores)
      std::cout << " [not gated: " << busy << " busy threads on " << cores
                << " cores]";
    std::cout << "\n";

    json += p > 0 ? ",\n    {\"name\": " : "\n    {\"name\": ";
    obs::json::append_string(json, point.name);
    json += ", \"busy_threads\": ";
    obs::json::append_number(json, d(busy));
    json += ", \"config\": ";
    append_metrics(json, point.config);
    json += ",\n     \"median\": ";
    append_metrics(json, median);
    json += ",\n     \"blocks\": [";
    for (std::size_t b = 0; b < point.blocks.size(); ++b) {
      json += b > 0 ? ",\n       " : "\n       ";
      append_metrics(json, point.blocks[b]);
    }
    json += "]}";
  }
  json += "\n  ]\n}\n";

  std::ofstream out("BENCH_serve.json");
  out << "{\n";
  bench::write_meta_json(out);
  out << json;
  std::cout << "wrote BENCH_serve.json\n";
  return 0;
}
