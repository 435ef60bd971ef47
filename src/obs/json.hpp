// The one JSON writer: every JSON document the process serves or writes
// (admin endpoints, Chrome traces, JSON log lines, scoring responses,
// BENCH_*.json meta) formats its strings and numbers through these
// append-in-place helpers, so they all make the same choices:
//
//  * strings are quoted; `"` and `\` are backslash-escaped and bytes
//    below 0x20 become `\u00XX` (bytes >= 0x80 pass through unchanged);
//  * numbers have no NaN/Infinity literal in JSON, so non-finite values
//    are written as `null` — the document stays parseable;
//  * whole numbers below 9e15 print without a fraction or exponent
//    (`100000`, not `1e+05`); every other value prints in the shortest
//    form that round-trips, so output is deterministic across runs.
#pragma once

#include <string>
#include <string_view>

namespace mev::obs::json {

/// Appends `s` as a quoted, escaped JSON string.
void append_string(std::string& out, std::string_view s);
/// Same, for C strings; nullptr writes "".
inline void append_string(std::string& out, const char* s) {
  append_string(out, std::string_view(s != nullptr ? s : ""));
}

/// Appends `v` as a JSON number (null when non-finite).
void append_number(std::string& out, double v);

/// Appends `v` with exactly six decimals (`0.200000`), null when
/// non-finite — the fixed form /sloz and /clientz keep greppable.
void append_fixed6(std::string& out, double v);

}  // namespace mev::obs::json
