// Build + process provenance shared by the admin plane (/statusz, /varz)
// and the bench meta blocks: which commit and build flags produced this
// binary, on how many cores, since when.
//
// MEV_GIT_SHA / MEV_BUILD_FLAGS are configure-time compile definitions
// from the top-level CMakeLists.txt (hoisted out of bench/ so every
// target sees them); the fallbacks keep out-of-tree compiles working.
#pragma once

#include <cstdint>
#include <string>

#ifndef MEV_GIT_SHA
#define MEV_GIT_SHA "unknown"
#endif
#ifndef MEV_BUILD_FLAGS
#define MEV_BUILD_FLAGS "unknown"
#endif

namespace mev::obs {

/// Short git SHA captured at configure time ("unknown" out-of-tree).
inline const char* build_git_sha() noexcept { return MEV_GIT_SHA; }
/// Compiler / build-type / flags summary from configure time.
inline const char* build_flags() noexcept { return MEV_BUILD_FLAGS; }

/// This process's pid.
int process_pid() noexcept;
/// Unix seconds when the process started (captured at static init).
std::uint64_t process_start_unix_s() noexcept;
/// Whole seconds since process start (steady clock, jump-proof).
std::uint64_t process_uptime_s() noexcept;

/// The /statusz body: git SHA, build flags, hardware concurrency, pid,
/// start time, and uptime as one JSON object (newline-terminated).
std::string build_info_json();

}  // namespace mev::obs
