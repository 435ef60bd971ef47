// Shared vocabulary of the benchmark driver: run options, the metric and
// check ledger every workload fills, the detector environment, and the
// entry point of each workload.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "data/dataset.hpp"
#include "helpers.hpp"

namespace mev::attack {}
namespace mev::net {}
namespace mev::runtime {}
namespace mev::serve {}

namespace perfbench {

namespace attack = ::mev::attack;
namespace core = ::mev::core;
namespace data = ::mev::data;
namespace math = ::mev::math;
namespace net = ::mev::net;
namespace nn = ::mev::nn;
namespace runtime = ::mev::runtime;
namespace serve = ::mev::serve;

/// Command-line options. Workload parameters (`--set key=value`) come from
/// perfbench/workloads.json through run.py; the driver has no defaults
/// for them, so the constants live in one place.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_path;  // Chrome trace output (traced pass only)
  std::map<std::string, std::string> params;

  const std::string& str(const std::string& key) const;
  double num(const std::string& key) const { return std::stod(str(key)); }
};

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t count = 0;  // samples behind the value (0 = not a sample)
};

/// Everything one run reports. Metric names follow BENCHMARK.json.
struct Ledger {
  std::map<std::string, Metric> metrics;
  std::vector<std::pair<std::string, std::string>> failed_checks;
  std::size_t checks = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void set(const std::string& name, double value, const std::string& unit,
           std::size_t count = 0) {
    metrics[name] = Metric{value, unit, count};
  }
  /// Records a percentile (times `scale`); unreported (too few samples
  /// beyond) or missed (rank on a failure) percentiles become failed
  /// checks, because every percentile the benchmark names must be
  /// measurable.
  void set_percentile(const std::string& name, const Percentile& p,
                      const std::string& unit, double scale = 1.0);
  void check(bool ok, const std::string& name, const std::string& detail);
};

/// The attacked detector and the corpus it was trained on. Built from a
/// fixed experiment seed: the model is part of the system under test,
/// while each run's inputs come from the run seed.
struct Environment {
  data::DatasetBundle bundle;
  core::DetectorTrainingResult trained;
  double generate_s = 0.0;  // data::GenerativeModel::generate_bundle
  double train_s = 0.0;     // core::train_detector

  core::MalwareDetector& detector() { return *trained.detector; }
};

std::unique_ptr<Environment> build_environment();

/// Set-ups per run: setup_s is their median.
inline constexpr int kSetupRepeats = 3;

/// Runs `setup` kSetupRepeats times, keeps the last result, and records
/// the median wall time as setup_s plus data.generate_s /
/// nn.train_detector_s medians from the environments it built.
template <typename T>
std::unique_ptr<T> timed_setup(
    Ledger& ledger, const std::function<std::unique_ptr<T>()>& setup,
    const std::function<const Environment&(const T&)>& env_of) {
  std::vector<double> total, gen, train;
  std::unique_ptr<T> state;
  for (int i = 0; i < kSetupRepeats; ++i) {
    state.reset();
    const std::int64_t t0 = now_ns();
    state = setup();
    total.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    gen.push_back(env_of(*state).generate_s);
    train.push_back(env_of(*state).train_s);
  }
  ledger.set("setup_s", median(total), "s", total.size());
  ledger.set("data.generate_s", median(gen), "s", gen.size());
  ledger.set("nn.train_detector_s", median(train), "s", train.size());
  return state;
}

/// Ends a traced run: writes each layer's self time from the workload's
/// spans, then times direct calls into net, nn, math and features on the
/// environment's model and on inputs shaped like the workload's requests.
void finish_traced_run(Environment& env, const Options& opt, Ledger& ledger,
                       SpanLog& spans);

/// A strict JSON array-of-rows body (counts are whole numbers).
std::string encode_json_rows(const math::Matrix& rows);

/// Workload entry points. With opt.trace the workload runs once untraced
/// (for obs.trace_overhead_pct) and once traced, writing per-layer
/// metrics; otherwise it runs untraced and writes end-to-end metrics.
/// The traced pass records into `spans`.
void run_http_score(const Options& opt, Ledger& ledger, SpanLog& spans);
void run_jsma_craft(const Options& opt, Ledger& ledger, SpanLog& spans);
void run_blackbox_oracle(const Options& opt, Ledger& ledger, SpanLog& spans);

/// Seeded choice of `n` distinct row indices in [0, pool); n <= pool.
std::vector<std::size_t> choose_rows(std::uint64_t seed, std::size_t pool,
                                     std::size_t n);

/// Seeded uniform draw of `n` indices in [0, pool), with replacement.
std::vector<std::size_t> draw_indices(std::uint64_t seed, std::size_t pool,
                                      std::size_t n);

/// Peak resident set of this process in MiB.
double peak_rss_mb();

/// Trace overhead on a headline time: positive = traced run slower.
inline double overhead_pct(double untraced, double traced) {
  return untraced > 0.0 ? (traced - untraced) / untraced * 100.0 : 0.0;
}

}  // namespace perfbench
