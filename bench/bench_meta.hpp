// The provenance block every BENCH_*.json carries under the "meta" key:
// git SHA, build flags, and the box's hardware_concurrency. Without it a
// bench trajectory across commits/boxes is unattributable — a regression
// report cannot say whether the code or the machine changed.
// check_regression.py ignores the key entirely.
//
// The SHA/flags themselves live in obs/build_info.hpp (header-only
// accessors over top-level configure-time definitions), shared with the
// admin plane's /statusz so a bench JSON and a serving process report the
// same provenance.
#pragma once

#include <algorithm>
#include <ostream>
#include <string>
#include <thread>

#include "obs/build_info.hpp"
#include "obs/json.hpp"

namespace mev::bench {

/// Writes `"meta": {...}` (no trailing comma or newline) at `indent`.
inline void write_meta_json(std::ostream& os, const char* indent = "  ") {
  std::string out = indent;
  out += "\"meta\": {\"git_sha\": ";
  mev::obs::json::append_string(out, mev::obs::build_git_sha());
  out += ", \"build_flags\": ";
  mev::obs::json::append_string(out, mev::obs::build_flags());
  out += ", \"hardware_concurrency\": ";
  out += std::to_string(std::max(1u, std::thread::hardware_concurrency()));
  out += '}';
  os << out;
}

}  // namespace mev::bench
