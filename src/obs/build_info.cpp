#include "obs/build_info.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <ctime>
#include <thread>

#include "obs/json.hpp"

namespace mev::obs {

namespace {

struct ProcessStart {
  ProcessStart()
      : steady(std::chrono::steady_clock::now()),
        unix_s(static_cast<std::uint64_t>(std::time(nullptr))) {}
  std::chrono::steady_clock::time_point steady;
  std::uint64_t unix_s;
};

/// Static-init capture: runs before main(), so "uptime" measures the
/// process, not the first scrape.
const ProcessStart g_start;

}  // namespace

int process_pid() noexcept { return static_cast<int>(::getpid()); }

std::uint64_t process_start_unix_s() noexcept { return g_start.unix_s; }

std::uint64_t process_uptime_s() noexcept {
  const auto elapsed = std::chrono::steady_clock::now() - g_start.steady;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(elapsed).count());
}

std::string build_info_json() {
  std::string out = "{\"git_sha\":";
  json::append_string(out, build_git_sha());
  out += ",\"build_flags\":";
  json::append_string(out, build_flags());
  out += ",\"hardware_concurrency\":";
  out += std::to_string(std::max(1u, std::thread::hardware_concurrency()));
  out += ",\"pid\":";
  out += std::to_string(process_pid());
  out += ",\"start_time_unix\":";
  out += std::to_string(process_start_unix_s());
  out += ",\"uptime_seconds\":";
  out += std::to_string(process_uptime_s());
  out += "}\n";
  return out;
}

}  // namespace mev::obs
