// perfbench_driver: runs one benchmark workload in this process and prints
// its ledger as one JSON line (the last line of standard output). Exits 1
// when a correctness check fails, 2 on an error.
//
//   perfbench_driver --workload <http_score|jsma_craft|blackbox_oracle>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-out <chrome.json>] --set key=value ...
//
// perfbench/run.py builds it, passes the workload's parameters from
// perfbench/workloads.json, and turns the ledger into the result line.
#ifdef _OPENMP
#include <omp.h>
#endif

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "driver.hpp"

namespace {

using perfbench::Ledger;
using perfbench::Options;

Options parse_args(int argc, char** argv) {
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value);
      have_seed = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value);
      have_seconds = opt.seconds > 0.0;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      opt.trace = value == "1";
      have_trace = true;
    } else if (arg == "--trace-out") {
      opt.trace_path = value;
    } else if (arg == "--set") {
      const std::size_t eq = value.find('=');
      if (eq == std::string::npos)
        throw std::invalid_argument("--set takes key=value");
      opt.params[value.substr(0, eq)] = value.substr(eq + 1);
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (opt.workload.empty() || !have_seed || !have_seconds || !have_trace)
    throw std::invalid_argument(
        "usage: perfbench_driver --workload W --seed N --seconds S "
        "--trace 0|1 [--trace-out FILE] [--set key=value ...]");
  return opt;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_ledger(const Options& opt, const Ledger& ledger, int omp_threads) {
  std::cout << "{\"workload\": " << json_string(opt.workload)
            << ", \"seed\": " << opt.seed
            << ", \"trace\": " << (opt.trace ? 1 : 0)
            << ", \"meta\": {\"nproc\": "
            << std::max(1u, std::thread::hardware_concurrency())
            << ", \"omp_threads\": " << omp_threads
            << "}, \"checks\": " << ledger.checks << ", \"failed_checks\": [";
  for (std::size_t i = 0; i < ledger.failed_checks.size(); ++i)
    std::cout << (i ? ", " : "") << "{\"name\": "
              << json_string(ledger.failed_checks[i].first)
              << ", \"detail\": " << json_string(ledger.failed_checks[i].second)
              << "}";
  std::cout << "], \"attempted\": " << ledger.attempted
            << ", \"failed\": " << ledger.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : ledger.metrics) {
    std::cout << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
              << json_number(m.value) << ", \"unit\": " << json_string(m.unit)
              << ", \"count\": " << m.count << "}";
    first = false;
  }
  std::cout << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse_args(argc, argv);
#ifdef _OPENMP
    const int omp_threads = omp_get_max_threads();
#else
    const int omp_threads = 1;
#endif
    Ledger ledger;
    perfbench::SpanLog spans(opt.trace);
    if (opt.workload == "http_score")
      perfbench::run_http_score(opt, ledger, spans);
    else if (opt.workload == "jsma_craft")
      perfbench::run_jsma_craft(opt, ledger, spans);
    else if (opt.workload == "blackbox_oracle")
      perfbench::run_blackbox_oracle(opt, ledger, spans);
    else
      throw std::invalid_argument("unknown workload " + opt.workload);

    if (opt.trace && !opt.trace_path.empty()) {
      std::ofstream out(opt.trace_path);
      spans.write_chrome(out);
      ledger.check(static_cast<bool>(out), "chrome trace written",
                   opt.trace_path);
    }
    ledger.set("peak_rss_mb", perfbench::peak_rss_mb(), "MiB");
    for (const auto& [name, m] : ledger.metrics)
      ledger.check(std::isfinite(m.value), name + " is finite",
                   "non-finite value");
    print_ledger(opt, ledger, omp_threads);
    return ledger.failed_checks.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
}
