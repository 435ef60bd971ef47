#include "obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace mev::obs::json {

void append_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  // 64 bytes hold any shortest round-trip double (at most 24 chars) and
  // any whole value below 9e15 in fixed form (at most 17).
  char buf[64];
  const bool whole = v == std::floor(v) && std::abs(v) < 9e15;
  const auto res =
      whole ? std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed)
            : std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

void append_fixed6(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  // Same digits as printf("%.6f"); 400 bytes hold the widest finite
  // double (309 integer digits) in that form.
  char buf[400];
  const auto res =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed, 6);
  out.append(buf, res.ptr);
}

}  // namespace mev::obs::json
