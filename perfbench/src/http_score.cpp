// http_score: an open loop of seeded Poisson arrivals over keep-alive
// loopback connections to a net::ScoringFrontend in front of a
// serve::ScoringService. One client thread drives every connection with
// non-blocking sockets, so client threads plus connections stay within the
// core count. Two phases at fixed absolute rates:
//
//   light  1-row JSON bodies, a rate at which nothing queues
//   heavy  16-row MEVB bodies, about half the HTTP capacity
//
// Latency runs from each request's scheduled send time to its complete
// response; a request that fails counts as a miss. Every 200 body must
// equal, byte for byte, net::format_verdicts_json of the sequential
// scan_counts reference for the same rows, computed before timing.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <tuple>
#include <stdexcept>

#include "driver.hpp"
#include "net/frontend.hpp"
#include "net/wire.hpp"
#include "serve/scoring_service.hpp"

namespace perfbench {
namespace {

constexpr const char* kApiKey = "perfbench";
/// Each phase opens with this much unmeasured traffic.
constexpr double kWarmupS = 0.5;
/// Distinct request bodies per phase, cycled by a seeded draw; their
/// reference responses are computed before timing.
constexpr std::size_t kBodies = 256;
/// The phases alternate in this many blocks, so each samples the whole
/// pass and not one half of it.
constexpr std::size_t kBlocks = 4;

struct Server {
  std::unique_ptr<Environment> env;
  std::unique_ptr<serve::ScoringService> service;
  std::unique_ptr<net::ScoringFrontend> frontend;  // stops before service
};

std::unique_ptr<Server> start_server(const Options& opt) {
  auto s = std::make_unique<Server>();
  s->env = build_environment();
  serve::ServiceConfig cfg;
  cfg.workers = static_cast<std::size_t>(opt.num("serve_workers"));
  cfg.shards = static_cast<std::size_t>(opt.num("shards"));
  core::MalwareDetector& detector = s->env->detector();
  s->service = std::make_unique<serve::ScoringService>(
      detector.pipeline(), detector.network_ptr(), cfg);
  net::FrontendConfig fcfg;
  fcfg.port = 0;
  fcfg.worker_threads = static_cast<std::size_t>(opt.num("connections"));
  fcfg.max_pipeline = 256;
  fcfg.io_timeout_ms = 60'000;
  fcfg.api_keys = {net::ApiKey{kApiKey, "perfbench", 1e12, 1e12}};
  s->frontend = std::make_unique<net::ScoringFrontend>(*s->service, fcfg);
  if (!s->frontend->start())
    throw std::runtime_error("scoring frontend failed to bind");
  return s;
}

/// One request kind of a phase: its wire bytes and the body a correct
/// server answers with.
struct Body {
  std::string wire;
  std::string expected;
};

/// One phase: its request kinds and its seeded arrival schedule (offsets
/// in seconds from the phase start, warm-up first).
struct Phase {
  std::size_t rows_per_request;
  double measure_s;
  std::vector<Body> bodies;
  std::vector<double> at;
  std::vector<std::size_t> body_of;  // request i sends bodies[body_of[i]]
};

struct Outcome {
  std::int64_t sched_ns = 0, sent_ns = 0, recv_ns = 0;
  int status = 0;  // 0 = no response
  bool body_ok = false;
  bool measured = false;
  std::optional<ServerTiming> timing;
};

std::string http_request(const std::string& body, const char* content_type) {
  std::string req = "POST /v1/score HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  req += "Content-Type: ";
  req += content_type;
  req += "\r\nX-Api-Key: ";
  req += kApiKey;
  req += "\r\nContent-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  return req + body;
}

Phase make_phase(bool json, std::size_t rows_per_request, double rate,
                 const Options& opt, Server& server, std::uint64_t stream) {
  Phase p{rows_per_request, opt.seconds / 2.0, {}, {}, {}};
  const double span_s = kWarmupS + p.measure_s;
  p.at = poisson_schedule(derive_seed(opt.seed, stream + 1), rate,
                          static_cast<std::size_t>(rate * span_s * 1.2 + 16));
  while (!p.at.empty() && p.at.back() >= span_s) p.at.pop_back();
  const math::Matrix& pool = server.env->bundle.test.counts;
  const std::vector<std::size_t> idx = draw_indices(
      derive_seed(opt.seed, stream), pool.rows(), kBodies * rows_per_request);
  core::MalwareDetector& detector = server.env->detector();
  nn::InferenceSession session = detector.make_session(rows_per_request);
  serve::ScoreResult reference;
  reference.model_version = server.service->model_version();
  for (std::size_t b = 0; b < kBodies; ++b) {
    math::Matrix rows(rows_per_request, pool.cols());
    for (std::size_t r = 0; r < rows_per_request; ++r)
      rows.set_row(r, pool.row(idx[b * rows_per_request + r]));
    reference.verdicts = detector.scan_counts(session, rows);
    p.bodies.push_back(Body{
        json ? http_request(encode_json_rows(rows), net::kJsonContentType)
             : http_request(net::encode_binary_rows(rows),
                            net::kBinaryContentType),
        net::format_verdicts_json(reference)});
  }
  p.body_of = draw_indices(derive_seed(opt.seed, stream + 2), kBodies,
                           p.at.size());
  return p;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i])))
      return false;
  return true;
}

/// A keep-alive client connection: an outgoing byte queue, an incoming
/// buffer, and the FIFO of requests awaiting responses (the frontend
/// answers each connection in arrival order).
struct Connection {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::size_t in_off = 0;
  std::deque<std::size_t> pending;

  Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  void open(std::uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd < 0) throw std::runtime_error("socket() failed");
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
        errno != EINPROGRESS)
      throw std::runtime_error("connect() failed");
    pollfd pfd{fd, POLLOUT, 0};
    if (::poll(&pfd, 1, 5000) != 1)
      throw std::runtime_error("connect() timed out");
  }

  /// Writes what the socket accepts now. False on a broken connection.
  bool flush() {
    while (out_off < out.size()) {
      const ssize_t n = ::send(fd, out.data() + out_off, out.size() - out_off,
                               MSG_NOSIGNAL);
      if (n > 0) {
        out_off += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return true;
      } else {
        return false;
      }
    }
    out.clear();
    out_off = 0;
    return true;
  }

  /// Reads what has arrived. False on EOF or error.
  bool fill() {
    char chunk[65536];
    for (;;) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        in.append(chunk, static_cast<std::size_t>(n));
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return true;
      } else {
        return false;
      }
    }
  }

  /// Pops one complete response from the buffer, if there is one.
  bool next_response(int& status, std::string_view& body,
                     std::string_view& timing) {
    const std::string_view buf(in.data() + in_off, in.size() - in_off);
    const std::size_t head_end = buf.find("\r\n\r\n");
    if (head_end == std::string_view::npos) return false;
    const std::string_view head = buf.substr(0, head_end);
    if (head.size() < 12) throw std::runtime_error("short status line");
    status = std::atoi(std::string(head.substr(9, 3)).c_str());
    std::size_t length = 0;
    timing = {};
    std::size_t pos = head.find("\r\n");
    while (pos != std::string_view::npos) {
      const std::size_t line_start = pos + 2;
      const std::size_t line_end = head.find("\r\n", line_start);
      const std::string_view line = head.substr(
          line_start, line_end == std::string_view::npos
                          ? std::string_view::npos
                          : line_end - line_start);
      const std::size_t colon = line.find(':');
      if (colon != std::string_view::npos) {
        const std::string_view name = line.substr(0, colon);
        std::string_view value = line.substr(colon + 1);
        while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
        if (iequals(name, "Content-Length"))
          length = std::strtoul(std::string(value).c_str(), nullptr, 10);
        else if (iequals(name, "Server-Timing"))
          timing = value;
      }
      pos = line_end;
    }
    if (buf.size() < head_end + 4 + length) return false;
    body = buf.substr(head_end + 4, length);
    in_off += head_end + 4 + length;
    return true;
  }

  void compact() {
    if (in_off > 0 && in_off == in.size()) {
      in.clear();
      in_off = 0;
    } else if (in_off > (1u << 20)) {
      in.erase(0, in_off);
      in_off = 0;
    }
  }
};

/// Replays requests [first, last) of a phase's schedule over the
/// connections from this thread, keeping their relative spacing. Returns
/// the block's measured span in seconds: first measured send due to last
/// measured response.
double run_block(const Phase& phase, std::size_t first, std::size_t last,
                 std::vector<std::unique_ptr<Connection>>& conns,
                 std::vector<Outcome>& out) {
  if (first == last) return 0.0;
  const std::int64_t start =
      now_ns() + 2'000'000 - static_cast<std::int64_t>(phase.at[first] * 1e9);
  const auto due = [&](std::size_t i) {
    return start + static_cast<std::int64_t>(phase.at[i] * 1e9);
  };
  const std::int64_t give_up = due(last - 1) + 60'000'000'000LL;
  std::size_t next = first, done = first;
  std::vector<pollfd> fds(conns.size());
  while (done < last) {
    const std::int64_t now = now_ns();
    if (now > give_up) throw std::runtime_error("phase did not drain");
    for (; next < last && due(next) <= now; ++next) {
      Connection& c = *conns[next % conns.size()];
      c.out += phase.bodies[phase.body_of[next]].wire;
      c.pending.push_back(next);
      Outcome& o = out[next];
      o.sched_ns = due(next);
      o.sent_ns = now;
      o.measured = phase.at[next] >= kWarmupS;
    }
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if (!conns[i]->flush()) throw std::runtime_error("send failed");
      fds[i] = pollfd{conns[i]->fd,
                      static_cast<short>(POLLIN | (conns[i]->out.empty()
                                                       ? 0
                                                       : POLLOUT)),
                      0};
    }
    std::int64_t wait_ns = 50'000'000;
    if (next < last)
      wait_ns = std::clamp<std::int64_t>(due(next) - now_ns(), 0, wait_ns);
    const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                      static_cast<long>(wait_ns % 1'000'000'000)};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) < 0 && errno != EINTR)
      throw std::runtime_error("ppoll failed");
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      Connection& c = *conns[i];
      if (!c.fill()) throw std::runtime_error("connection closed by server");
      const std::int64_t recv_ns = now_ns();
      int status = 0;
      std::string_view body, timing;
      while (c.next_response(status, body, timing)) {
        if (c.pending.empty()) throw std::runtime_error("unsolicited response");
        const std::size_t r = c.pending.front();
        c.pending.pop_front();
        Outcome& o = out[r];
        o.recv_ns = recv_ns;
        o.status = status;
        o.body_ok = status == 200 &&
                    body == phase.bodies[phase.body_of[r]].expected;
        o.timing = parse_server_timing(timing);
        ++done;
      }
      c.compact();
    }
  }
  std::int64_t first_due = 0, last_recv = 0;
  for (std::size_t i = first; i < last; ++i) {
    if (!out[i].measured) continue;
    if (first_due == 0) first_due = out[i].sched_ns;
    last_recv = std::max(last_recv, out[i].recv_ns);
  }
  return last_recv > first_due
             ? static_cast<double>(last_recv - first_due) * 1e-9
             : 0.0;
}

/// Index of the first request of block b + 1 when the measured window is
/// cut into kBlocks equal time slices (block 0 also holds the warm-up).
std::size_t block_end(const Phase& phase, std::size_t b) {
  if (b + 1 == kBlocks) return phase.at.size();
  const double end = kWarmupS + phase.measure_s *
                                          static_cast<double>(b + 1) /
                                          static_cast<double>(kBlocks);
  return static_cast<std::size_t>(
      std::lower_bound(phase.at.begin(), phase.at.end(), end) -
      phase.at.begin());
}

struct PhaseSummary {
  std::vector<double> latency_ms;   // measured successes
  std::vector<double> lateness_ms;  // every measured send
  std::size_t sent = 0, ok = 0, failed = 0, wrong_body = 0, no_timing = 0;
  double goodput_rows_per_s = 0.0;
};

/// `busy_s` is the sum of the blocks' measured spans.
PhaseSummary summarize_phase(const Phase& phase,
                             const std::vector<Outcome>& out, double busy_s) {
  PhaseSummary s;
  for (const Outcome& o : out) {
    if (!o.measured) continue;
    ++s.sent;
    s.lateness_ms.push_back(static_cast<double>(o.sent_ns - o.sched_ns) * 1e-6);
    if (o.status == 200 && !o.body_ok) ++s.wrong_body;
    if (!o.timing) ++s.no_timing;
    if (o.body_ok) {
      ++s.ok;
      s.latency_ms.push_back(static_cast<double>(o.recv_ns - o.sched_ns) *
                             1e-6);
    } else {
      ++s.failed;
    }
  }
  if (busy_s > 0.0)
    s.goodput_rows_per_s =
        static_cast<double>(s.ok * phase.rows_per_request) / busy_s;
  return s;
}

/// Stage durations of measured successes: index kStages is the socket
/// residual (client latency minus the server's total).
std::vector<std::vector<double>> stage_samples(
    const std::vector<Outcome>& out) {
  std::vector<std::vector<double>> st(kStages + 1);
  for (const Outcome& o : out) {
    if (!o.measured || !o.body_ok || !o.timing) continue;
    for (std::size_t i = 0; i < kStages; ++i)
      st[i].push_back(o.timing->stage_ms[i]);
    st[kStages].push_back(static_cast<double>(o.recv_ns - o.sent_ns) * 1e-6 -
                          o.timing->total_ms);
  }
  return st;
}

/// One span per measured request, under its phase's span, with its six
/// Server-Timing stages as children laid out after half the socket
/// residual. The phase span's self time is the generator's idle time.
void record_spans(const std::vector<Outcome>& out, std::size_t first,
                  std::size_t last, std::uint64_t request_base,
                  std::uint32_t phase, SpanLog& spans) {
  static constexpr const char* kSpanNames[kStages] = {
      "net.parse", "serve.admission", "serve.queue",
      "serve.batch", "nn.scan", "net.serialize"};
  for (std::size_t i = first; i < last; ++i) {
    const Outcome& o = out[i];
    if (!o.measured || o.status == 0) continue;
    const std::uint64_t request = request_base + i + 1;
    const std::uint32_t root =
        spans.add("net.request", o.sent_ns, o.recv_ns, phase, request);
    if (!o.timing) continue;
    const double total_ns = o.timing->total_ms * 1e6;
    double t = static_cast<double>(o.sent_ns) +
               std::max(0.0, static_cast<double>(o.recv_ns - o.sent_ns) -
                                 total_ns) /
                   2.0;
    for (std::size_t s = 0; s < kStages; ++s) {
      const double d = o.timing->stage_ms[s] * 1e6;
      spans.add(kSpanNames[s], static_cast<std::int64_t>(t),
                static_cast<std::int64_t>(t + d), root, request);
      t += d;
    }
  }
}

struct PassResult {
  PhaseSummary light, heavy;
  std::vector<std::vector<double>> light_stages, heavy_stages;
  serve::ServiceStats before, after;
};

/// Runs both phases, alternating their blocks so each phase samples the
/// whole pass rather than one half of it.
PassResult run_pass(Server& server, const Phase& light, const Phase& heavy,
                    const Options& opt, SpanLog& spans) {
  std::vector<std::unique_ptr<Connection>> conns;
  const auto n_conn = static_cast<std::size_t>(opt.num("connections"));
  for (std::size_t i = 0; i < n_conn; ++i) {
    conns.push_back(std::make_unique<Connection>());
    conns.back()->open(server.frontend->port());
  }
  PassResult r;
  r.before = server.service->stats();
  std::vector<Outcome> lo(light.at.size()), ho(heavy.at.size());
  double light_s = 0.0, heavy_s = 0.0;
  std::size_t lf = 0, hf = 0;
  for (std::size_t b = 0; b < kBlocks; ++b) {
    for (auto [phase, out, first, busy, name, base] :
         {std::tuple{&light, &lo, &lf, &light_s, "loadgen.block.light",
                     std::uint64_t{0}},
          std::tuple{&heavy, &ho, &hf, &heavy_s, "loadgen.block.heavy",
                     std::uint64_t{lo.size()}}}) {
      const std::size_t last = block_end(*phase, b);
      const std::int64_t t0 = now_ns();
      *busy += run_block(*phase, *first, last, conns, *out);
      if (spans.enabled())
        record_spans(*out, *first, last, base,
                     spans.add(name, t0, now_ns()), spans);
      *first = last;
    }
  }
  r.after = server.service->stats();
  r.light = summarize_phase(light, lo, light_s);
  r.heavy = summarize_phase(heavy, ho, heavy_s);
  r.light_stages = stage_samples(lo);
  r.heavy_stages = stage_samples(ho);
  return r;
}

void account(const PassResult& r, Ledger& ledger) {
  for (const PhaseSummary* s : {&r.light, &r.heavy}) {
    ledger.attempted += s->sent;
    ledger.failed += s->failed;
    ledger.check(s->wrong_body == 0, "http 200 bodies equal the reference",
                 std::to_string(s->wrong_body) + " bodies differ");
    ledger.check(s->no_timing == 0, "Server-Timing on every response",
                 std::to_string(s->no_timing) + " responses lack it");
  }
}

void write_end_to_end(const PassResult& r, Ledger& ledger) {
  for (const auto& [name, s] :
       {std::pair{"light", &r.light}, std::pair{"heavy", &r.heavy}}) {
    const std::string tag = std::string(".") + name;
    ledger.set_percentile("p50_ms" + tag,
                          percentile(s->latency_ms, s->failed, 0.50), "ms");
    ledger.set_percentile("http.p99_ms" + tag,
                          percentile(s->latency_ms, s->failed, 0.99), "ms");
    ledger.set("samples_per_s" + tag, s->goodput_rows_per_s, "1/s", s->ok);
  }
}

void write_per_layer(const PassResult& r, Ledger& ledger) {
  const auto p = [](const std::vector<double>& v, double q) {
    return percentile(v, 0, q);
  };
  const auto& ls = r.light_stages;
  const auto& hs = r.heavy_stages;
  ledger.set_percentile("net.parse_ms.p50", p(ls[0], 0.5), "ms");
  ledger.set_percentile("net.serialize_ms.p50", p(ls[5], 0.5), "ms");
  ledger.set_percentile("net.socket_ms.p50", p(ls[kStages], 0.5), "ms");
  ledger.set_percentile("net.socket_ms.p99", p(ls[kStages], 0.99), "ms");
  ledger.set_percentile("serve.admission_ms.p50", p(hs[1], 0.5), "ms");
  ledger.set_percentile("serve.queue_ms.p50", p(hs[2], 0.5), "ms");
  ledger.set_percentile("serve.queue_ms.p99", p(hs[2], 0.99), "ms");
  ledger.set_percentile("serve.batch_ms.p50", p(hs[3], 0.5), "ms");
  ledger.set_percentile("nn.scan_ms.p50", p(hs[4], 0.5), "ms");
  ledger.set_percentile("nn.scan_ms.p99", p(hs[4], 0.99), "ms");

  const std::uint64_t batches = r.after.batches - r.before.batches;
  const std::uint64_t rows = r.after.completed_rows - r.before.completed_rows;
  ledger.set("serve.batches", static_cast<double>(batches), "count");
  ledger.set("serve.batch_rows.mean",
             batches ? static_cast<double>(rows) / static_cast<double>(batches)
                     : 0.0,
             "rows");
  ledger.set("serve.rejected",
             static_cast<double>(r.after.rejected_total() -
                                 r.before.rejected_total()),
             "count");

  std::vector<double> lateness = r.light.lateness_ms;
  lateness.insert(lateness.end(), r.heavy.lateness_ms.begin(),
                  r.heavy.lateness_ms.end());
  ledger.set_percentile("loadgen.lateness_ms.p99",
                        percentile(lateness, 0, 0.99), "ms");
  for (const auto& [name, s] :
       {std::pair{"light", &r.light}, std::pair{"heavy", &r.heavy}}) {
    const std::string tag = std::string(".") + name;
    ledger.set("loadgen.sent" + tag, static_cast<double>(s->sent), "count");
    ledger.set("loadgen.ok" + tag, static_cast<double>(s->ok), "count");
    ledger.set("loadgen.failed" + tag, static_cast<double>(s->failed), "count");
  }
}

}  // namespace

void run_http_score(const Options& opt, Ledger& ledger, SpanLog& spans) {
  const auto server = timed_setup<Server>(
      ledger, [&] { return start_server(opt); },
      [](const Server& s) -> const Environment& { return *s.env; });
  const Phase light = make_phase(true, 1, opt.num("light_rps"), opt, *server,
                                 110);
  const Phase heavy = make_phase(false, 16, opt.num("heavy_rps"), opt, *server,
                                 120);

  SpanLog off(false);
  const PassResult plain = run_pass(*server, light, heavy, opt, off);
  account(plain, ledger);
  write_end_to_end(plain, ledger);
  if (!opt.trace) return;

  const double untraced = ledger.metrics["p50_ms.heavy"].value;
  const PassResult traced = run_pass(*server, light, heavy, opt, spans);
  account(traced, ledger);
  write_end_to_end(traced, ledger);
  write_per_layer(traced, ledger);
  ledger.set("obs.trace_overhead_pct.http_score",
             overhead_pct(untraced, ledger.metrics["p50_ms.heavy"].value), "%");
  finish_traced_run(*server->env, opt, ledger, spans);
}

}  // namespace perfbench
