// Serving throughput/latency bench for serve::ScoringService (DESIGN.md §8).
//
// Three phases, all on the Table-IV 491-feature detector trained by
// bench_common's environment:
//
//   1. Sequential baseline — one thread, one InferenceSession, one
//      scan_counts() call per request (the pre-service deployment model).
//      A batched variant (64-row scan_counts calls) isolates how much of
//      the service's win comes from micro-batch amortization alone.
//   2. Closed-loop sweep — worker count, 2 clients per worker each
//      keeping one request in flight; reports rows/s, speedup vs the
//      sequential baseline, mean batch size and latency digests.
//   3. Open-loop — seeded Poisson arrivals at multiples of the sequential
//      baseline rate with a per-request deadline, showing sustained
//      throughput, queue-delay percentiles and deadline/queue-full
//      rejections once the offered load exceeds capacity.
//   4. Overload — the 2x open-loop point rerun with the adaptive load
//      shedder (ServiceConfig::overload) enabled: the goodput ratio
//      (completed rows/s over the measured sequential capacity) and the
//      completed-work p99 are the overload-resilience contract gated by
//      bench/check_regression.py.
//
// Besides the console report, writes BENCH_serve.json (rows/s, latency
// percentiles, rejection counts per configuration) to the working
// directory for machine consumption.
//
//   ./bench_serve [tiny|fast|full]   (default fast)
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "bench_meta.hpp"
#include "math/rng.hpp"
#include "nn/session.hpp"
#include "serve/scoring_service.hpp"

using namespace mev;

namespace {

using SteadyClock = std::chrono::steady_clock;

double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

/// One single-row request; the workload cycles through real test counts.
std::vector<math::Matrix> make_requests(const bench::Environment& env,
                                        std::size_t n) {
  const math::Matrix& pool = env.bundle.test.counts;
  std::vector<math::Matrix> requests;
  requests.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    math::Matrix row(1, pool.cols());
    row.set_row(0, pool.row(i % pool.rows()));
    requests.push_back(std::move(row));
  }
  return requests;
}

struct SequentialResult {
  double per_row_rows_per_s = 0.0;   // one scan_counts call per request
  double batched_rows_per_s = 0.0;   // 64-row scan_counts calls
};

SequentialResult run_sequential(bench::Environment& env,
                                const std::vector<math::Matrix>& requests,
                                std::size_t batch_rows) {
  core::MalwareDetector& detector = env.detector();
  SequentialResult result;
  std::size_t malware = 0;  // consumed below so scans are not dead code

  {
    nn::InferenceSession session = detector.make_session(1);
    detector.scan_counts(session, requests.front());  // warm-up
    const auto start = SteadyClock::now();
    for (const math::Matrix& request : requests)
      for (const auto& verdict : detector.scan_counts(session, request))
        malware += verdict.is_malware() ? 1 : 0;
    result.per_row_rows_per_s =
        static_cast<double>(requests.size()) / seconds_since(start);
  }

  {
    // Same rows pre-packed into service-sized batches: the amortization
    // ceiling a perfect batcher could reach on one thread.
    math::Matrix block(batch_rows, requests.front().cols());
    nn::InferenceSession session = detector.make_session(batch_rows);
    detector.scan_counts(session, block);  // warm-up
    const auto start = SteadyClock::now();
    std::size_t done = 0;
    while (done < requests.size()) {
      const std::size_t take = std::min(batch_rows, requests.size() - done);
      for (std::size_t r = 0; r < take; ++r)
        block.set_row(r, requests[done + r].row(0));
      math::Matrix chunk = take == batch_rows ? block : block.slice_rows(0, take);
      for (const auto& verdict : detector.scan_counts(session, chunk))
        malware += verdict.is_malware() ? 1 : 0;
      done += take;
    }
    result.batched_rows_per_s =
        static_cast<double>(requests.size()) / seconds_since(start);
  }

  std::cerr << "# sequential: " << malware << " malware verdicts\n";
  return result;
}

struct ClosedLoopResult {
  std::size_t workers = 0;
  double rows_per_s = 0.0;
  double speedup = 0.0;  // vs sequential per-row baseline
  double mean_batch_rows = 0.0;
  obs::LatencySummary e2e_us;
};

ClosedLoopResult run_closed_loop(bench::Environment& env,
                                 const std::vector<math::Matrix>& requests,
                                 std::size_t workers,
                                 double baseline_rows_per_s) {
  serve::ServiceConfig cfg;
  cfg.workers = workers;
  cfg.max_batch_rows = 64;
  cfg.max_queue_rows = 8192;
  serve::ScoringService service(env.detector().pipeline(),
                                env.detector().network_ptr(), cfg);
  service.score(requests.front());  // warm-up: sessions built, caches hot

  const std::size_t clients = std::max<std::size_t>(2 * workers, 4);
  std::atomic<std::size_t> next{0};
  const auto start = SteadyClock::now();
  std::vector<std::thread> pool;
  pool.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    pool.emplace_back([&] {
      // Closed loop: each client keeps exactly one request outstanding.
      for (std::size_t i = next.fetch_add(1); i < requests.size();
           i = next.fetch_add(1)) {
        math::Matrix copy(1, requests[i].cols());
        copy.set_row(0, requests[i].row(0));
        service.submit(std::move(copy)).get();
      }
    });
  }
  for (auto& t : pool) t.join();
  const double elapsed = seconds_since(start);
  service.shutdown();

  const serve::ServiceStats stats = service.stats();
  ClosedLoopResult result;
  result.workers = workers;
  result.rows_per_s = static_cast<double>(requests.size()) / elapsed;
  result.speedup = result.rows_per_s / baseline_rows_per_s;
  result.mean_batch_rows = stats.batch_rows.mean();
  result.e2e_us = obs::summarize(stats.e2e_latency_us);
  return result;
}

struct OpenLoopResult {
  double rate_multiplier = 0.0;
  double offered_rows_per_s = 0.0;
  double achieved_rows_per_s = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t rejected_deadline = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_overloaded = 0;
  obs::LatencySummary queue_delay_us;
  obs::LatencySummary e2e_us;
};

OpenLoopResult run_open_loop(bench::Environment& env,
                             const std::vector<math::Matrix>& requests,
                             std::size_t workers, double rate_multiplier,
                             double baseline_rows_per_s, std::uint64_t seed,
                             bool shed = false) {
  serve::ServiceConfig cfg;
  cfg.workers = workers;
  cfg.max_batch_rows = 64;
  cfg.max_queue_rows = 1024;  // tight enough to exercise queue-full at 2x
  if (shed) {
    // The overload phase: the CoDel controller turns sustained queue
    // delay into deterministic admission shedding instead of letting
    // every request burn its deadline in the queue.
    cfg.overload.enabled = true;
    // Tight thresholds: with sub-10us rows any standing queue is visible
    // as >1ms sojourn, and a 25ms interval reacts within the burst.
    cfg.overload.target_delay_ms = 1;
    cfg.overload.interval_ms = 25;
  }
  serve::ScoringService service(env.detector().pipeline(),
                                env.detector().network_ptr(), cfg);
  service.score(requests.front());  // warm-up

  // Seeded Poisson process: exponential inter-arrival gaps at the target
  // rate, scheduled against absolute deadlines so dispatch jitter does not
  // accumulate into rate drift.
  const double rate = rate_multiplier * baseline_rows_per_s;
  math::Rng rng(seed);
  std::vector<double> arrival_s(requests.size());
  double t = 0.0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    t += rng.exponential(rate);
    arrival_s[i] = t;
  }

  serve::SubmitOptions options;
  options.deadline_ms = 100;  // drop hopeless work instead of queueing it
  std::vector<serve::ScoreFuture> futures;
  futures.reserve(requests.size());
  const auto start = SteadyClock::now();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto due =
        start + std::chrono::duration_cast<SteadyClock::duration>(
                    std::chrono::duration<double>(arrival_s[i]));
    if (due > SteadyClock::now()) std::this_thread::sleep_until(due);
    math::Matrix copy(1, requests[i].cols());
    copy.set_row(0, requests[i].row(0));
    futures.push_back(service.submit(std::move(copy), options));
  }
  OpenLoopResult result;
  for (auto& future : futures)
    if (future.get().ok()) ++result.completed;
  const double elapsed = seconds_since(start);
  service.shutdown();

  const serve::ServiceStats stats = service.stats();
  result.rate_multiplier = rate_multiplier;
  result.offered_rows_per_s = rate;
  result.achieved_rows_per_s = static_cast<double>(result.completed) / elapsed;
  result.rejected_deadline = stats.rejected_deadline;
  result.rejected_queue_full = stats.rejected_queue_full;
  result.rejected_overloaded = stats.rejected_overloaded;
  result.queue_delay_us = obs::summarize(stats.queue_delay_us);
  result.e2e_us = obs::summarize(stats.e2e_latency_us);
  return result;
}

void print_latency(std::ostream& os, const char* name,
                   const obs::LatencySummary& s) {
  os << name << " p50=" << s.p50 << "us p95=" << s.p95 << "us p99=" << s.p99
     << "us max=" << s.max << "us";
}

void json_latency(std::ostream& os, const char* key,
                  const obs::LatencySummary& s) {
  os << "\"" << key << "\": {\"mean\": " << s.mean << ", \"p50\": " << s.p50
     << ", \"p95\": " << s.p95 << ", \"p99\": " << s.p99
     << ", \"max\": " << s.max << "}";
}

}  // namespace

int main(int argc, char** argv) {
  const auto config = bench::parse_scale(argc, argv, "fast");
  bench::Environment env = bench::make_environment(config);

  std::size_t n_requests = 4096;
  if (config.scale == core::ExperimentScale::kTiny) n_requests = 768;
  if (config.scale == core::ExperimentScale::kFull) n_requests = 16384;
  const std::vector<math::Matrix> requests = make_requests(env, n_requests);
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  std::cerr << "# requests=" << n_requests
            << " feature_dim=" << requests.front().cols()
            << " hardware_concurrency=" << cores << "\n";

  std::cerr << "# sequential baseline...\n";
  const SequentialResult seq = run_sequential(env, requests, 64);
  std::cout << "sequential per-row scan_counts: " << seq.per_row_rows_per_s
            << " rows/s\n"
            << "sequential 64-row scan_counts:  " << seq.batched_rows_per_s
            << " rows/s (amortization ceiling "
            << seq.batched_rows_per_s / seq.per_row_rows_per_s << "x)\n\n";

  std::cerr << "# closed-loop sweep (workers)...\n";
  std::vector<ClosedLoopResult> closed;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}, std::size_t{8}}) {
    if (workers > cores)
      std::cerr << "# WARNING: sweeping " << workers << " workers on "
                << cores << " core(s) — the pool is time-slicing, so "
                << "speedup vs sequential measures the scheduler, not the "
                << "service; check_regression.py skips this point's "
                << "throughput gate\n";
    closed.push_back(
        run_closed_loop(env, requests, workers, seq.per_row_rows_per_s));
    const ClosedLoopResult& r = closed.back();
    std::cout << "closed-loop workers=" << r.workers << ": " << r.rows_per_s
              << " rows/s (" << r.speedup << "x sequential), mean batch "
              << r.mean_batch_rows << " rows, ";
    print_latency(std::cout, "e2e", r.e2e_us);
    std::cout << "\n";
  }
  std::cout << "\n";

  std::cerr << "# open-loop Poisson arrivals (8 workers)...\n";
  std::vector<OpenLoopResult> open;
  for (const double mult : {0.5, 1.0, 2.0}) {
    open.push_back(run_open_loop(env, requests, 8, mult,
                                 seq.per_row_rows_per_s, config.seed + 77));
    const OpenLoopResult& r = open.back();
    std::cout << "open-loop " << r.rate_multiplier
              << "x: offered=" << r.offered_rows_per_s
              << " rows/s achieved=" << r.achieved_rows_per_s
              << " rows/s completed=" << r.completed
              << " rejected(deadline=" << r.rejected_deadline
              << ", queue_full=" << r.rejected_queue_full << "), ";
    print_latency(std::cout, "queue", r.queue_delay_us);
    std::cout << "\n";
  }

  std::cerr << "# overload: 2x open-loop with adaptive shedding...\n";
  constexpr double kOverloadDeadlineMs = 100.0;
  const OpenLoopResult overload = run_open_loop(
      env, requests, 8, 2.0, seq.per_row_rows_per_s, config.seed + 99,
      /*shed=*/true);
  // Goodput relative to what this box can actually score sequentially —
  // same-run numbers, so co-tenant load cancels out of the ratio.
  const double overload_goodput_ratio =
      overload.achieved_rows_per_s / seq.per_row_rows_per_s;
  std::cout << "\noverload 2x (shedding on): offered="
            << overload.offered_rows_per_s
            << " rows/s goodput=" << overload.achieved_rows_per_s
            << " rows/s (ratio " << overload_goodput_ratio
            << " of sequential capacity, target >=0.7), rejected(deadline="
            << overload.rejected_deadline
            << ", overloaded=" << overload.rejected_overloaded
            << ", queue_full=" << overload.rejected_queue_full << "), ";
  print_latency(std::cout, "e2e", overload.e2e_us);
  std::cout << "\n  completed-work p99 "
            << (overload.e2e_us.p99 <= kOverloadDeadlineMs * 1000.0
                    ? "within"
                    : "EXCEEDS")
            << " the " << kOverloadDeadlineMs << "ms deadline\n";

  // The acceptance gate: 8 workers vs the single-thread per-row baseline.
  // On a single-core host the pool cannot multiply compute, so the gate is
  // reported against the core budget actually available.
  double best8 = 0.0;
  for (const auto& r : closed)
    if (r.workers == 8) best8 = std::max(best8, r.speedup);
  std::cout << "\n8-worker best speedup: " << best8 << "x (cores=" << cores
            << ", target 3x on >=8 cores";
  if (cores < 8)
    std::cout << "; UNDER-PROVISIONED: only " << cores
              << " core(s) detected, the multi-worker gate does not apply";
  std::cout << ")\n";

  std::ofstream out("BENCH_serve.json");
  out << "{\n";
  mev::bench::write_meta_json(out);
  out << ",\n"
      << "  \"scale\": \"" << core::to_string(config.scale) << "\",\n"
      << "  \"seed\": " << config.seed << ",\n"
      << "  \"requests\": " << n_requests << ",\n"
      << "  \"feature_dim\": " << requests.front().cols() << ",\n"
      << "  \"hardware_concurrency\": " << cores << ",\n"
      << "  \"sequential\": {\"per_row_rows_per_s\": " << seq.per_row_rows_per_s
      << ", \"batched64_rows_per_s\": " << seq.batched_rows_per_s << "},\n"
      << "  \"closed_loop\": [\n";
  for (std::size_t i = 0; i < closed.size(); ++i) {
    const ClosedLoopResult& r = closed[i];
    out << "    {\"workers\": " << r.workers
        << ", \"rows_per_s\": " << r.rows_per_s
        << ", \"speedup_vs_sequential\": " << r.speedup
        << ", \"mean_batch_rows\": " << r.mean_batch_rows << ", ";
    json_latency(out, "e2e_latency_us", r.e2e_us);
    out << "}" << (i + 1 < closed.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"open_loop\": [\n";
  for (std::size_t i = 0; i < open.size(); ++i) {
    const OpenLoopResult& r = open[i];
    out << "    {\"rate_multiplier\": " << r.rate_multiplier
        << ", \"offered_rows_per_s\": " << r.offered_rows_per_s
        << ", \"achieved_rows_per_s\": " << r.achieved_rows_per_s
        << ", \"completed\": " << r.completed
        << ", \"rejected_deadline\": " << r.rejected_deadline
        << ", \"rejected_queue_full\": " << r.rejected_queue_full << ", ";
    json_latency(out, "queue_delay_us", r.queue_delay_us);
    out << ", ";
    json_latency(out, "e2e_latency_us", r.e2e_us);
    out << "}" << (i + 1 < open.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"overload\": {\"rate_multiplier\": "
      << overload.rate_multiplier
      << ", \"deadline_ms\": " << kOverloadDeadlineMs
      << ", \"offered_rows_per_s\": " << overload.offered_rows_per_s
      << ", \"goodput_rows_per_s\": " << overload.achieved_rows_per_s
      << ", \"goodput_ratio\": " << overload_goodput_ratio
      << ", \"completed\": " << overload.completed
      << ", \"rejected_deadline\": " << overload.rejected_deadline
      << ", \"rejected_overloaded\": " << overload.rejected_overloaded
      << ", \"rejected_queue_full\": " << overload.rejected_queue_full
      << ", ";
  json_latency(out, "e2e_latency_us", overload.e2e_us);
  out << "},\n  \"overload_goodput_ratio\": " << overload_goodput_ratio
      << ",\n  \"best_8_worker_speedup\": " << best8 << "\n}\n";
  std::cout << "wrote BENCH_serve.json\n";
  return 0;
}
