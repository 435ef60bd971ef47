#include "net/wire.hpp"

#include <charconv>
#include <cmath>
#include <cstring>
#include <vector>

#include "obs/json.hpp"

namespace mev::net {

namespace {

// Little-endian framing matches the x86-64 targets this builds on; the
// codec memcpy's scalars whole rather than byte-swapping.
void append_u32(std::string& out, std::uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out.append(buf, 4);
}

std::uint32_t read_u32(const char* p) noexcept {
  std::uint32_t v = 0;
  std::memcpy(&v, p, 4);
  return v;
}

void skip_ws(std::string_view body, std::size_t& pos) noexcept {
  while (pos < body.size() &&
         (body[pos] == ' ' || body[pos] == '\t' || body[pos] == '\n' ||
          body[pos] == '\r'))
    ++pos;
}

BodyParseResult fail(std::string error) {
  BodyParseResult result;
  result.error = std::move(error);
  return result;
}

}  // namespace

BodyParseResult parse_json_rows(std::string_view body,
                                std::size_t expected_cols,
                                std::size_t max_rows) {
  std::size_t pos = 0;
  skip_ws(body, pos);
  if (pos >= body.size() || body[pos] != '[')
    return fail("expected top-level JSON array of rows");
  ++pos;
  std::vector<float> values;
  std::size_t rows = 0;
  skip_ws(body, pos);
  if (pos < body.size() && body[pos] == ']')
    return fail("no rows: body must contain at least one row");
  for (;;) {
    skip_ws(body, pos);
    if (pos >= body.size() || body[pos] != '[')
      return fail("expected '[' opening row " + std::to_string(rows));
    ++pos;
    std::size_t cols = 0;
    for (;;) {
      skip_ws(body, pos);
      if (pos >= body.size()) return fail("unterminated row");
      double value = 0.0;
      const auto res = std::from_chars(body.data() + pos,
                                       body.data() + body.size(), value);
      if (res.ec != std::errc() || res.ptr == body.data() + pos)
        return fail("expected a number in row " + std::to_string(rows));
      if (!std::isfinite(value))
        return fail("non-finite value in row " + std::to_string(rows));
      values.push_back(static_cast<float>(value));
      ++cols;
      pos = static_cast<std::size_t>(res.ptr - body.data());
      skip_ws(body, pos);
      if (pos >= body.size()) return fail("unterminated row");
      if (body[pos] == ',') {
        ++pos;
        continue;
      }
      if (body[pos] == ']') {
        ++pos;
        break;
      }
      return fail("expected ',' or ']' in row " + std::to_string(rows));
    }
    if (cols != expected_cols)
      return fail("row " + std::to_string(rows) + " has " +
                  std::to_string(cols) + " columns, expected " +
                  std::to_string(expected_cols));
    ++rows;
    if (max_rows != 0 && rows > max_rows)
      return fail("too many rows: limit is " + std::to_string(max_rows));
    skip_ws(body, pos);
    if (pos >= body.size()) return fail("unterminated rows array");
    if (body[pos] == ',') {
      ++pos;
      continue;
    }
    if (body[pos] == ']') {
      ++pos;
      break;
    }
    return fail("expected ',' or ']' after row " + std::to_string(rows - 1));
  }
  skip_ws(body, pos);
  if (pos != body.size()) return fail("trailing bytes after rows array");

  BodyParseResult result;
  result.ok = true;
  result.rows = math::Matrix(rows, expected_cols);
  std::memcpy(result.rows.data(), values.data(),
              values.size() * sizeof(float));
  return result;
}

BodyParseResult parse_binary_rows(std::string_view body,
                                  std::size_t expected_cols,
                                  std::size_t max_rows) {
  if (body.size() < 12) return fail("binary body shorter than its header");
  if (read_u32(body.data()) != kBinaryMagic)
    return fail("bad magic: not an x-mev-rows body");
  const std::uint32_t rows = read_u32(body.data() + 4);
  const std::uint32_t cols = read_u32(body.data() + 8);
  if (rows == 0) return fail("no rows: row count is zero");
  if (cols != expected_cols)
    return fail("binary header declares " + std::to_string(cols) +
                " columns, expected " + std::to_string(expected_cols));
  if (max_rows != 0 && rows > max_rows)
    return fail("too many rows: limit is " + std::to_string(max_rows));
  const std::size_t payload =
      static_cast<std::size_t>(rows) * cols * sizeof(float);
  if (body.size() != 12 + payload)
    return fail("binary body is " + std::to_string(body.size()) +
                " bytes, expected " + std::to_string(12 + payload));

  // The JSON decoder's contract: NaN and +/-Inf would pass straight
  // through the feature transform into a verdict. A float is non-finite
  // iff its exponent bits are all ones; testing the bits vectorizes,
  // where std::isfinite's floating-point compare does not.
  for (std::size_t r = 0; r < rows; ++r) {
    const char* row = body.data() + 12 + r * cols * sizeof(float);
    std::uint32_t non_finite = 0;
    for (std::size_t c = 0; c < cols; ++c)
      non_finite |= (read_u32(row + 4 * c) & 0x7f800000u) == 0x7f800000u;
    if (non_finite != 0)
      return fail("non-finite value in row " + std::to_string(r));
  }

  BodyParseResult result;
  result.ok = true;
  result.rows = math::Matrix(rows, cols);
  std::memcpy(result.rows.data(), body.data() + 12, payload);
  return result;
}

std::string encode_binary_rows(const math::Matrix& rows) {
  const std::size_t payload = rows.rows() * rows.cols() * sizeof(float);
  std::string out;
  out.reserve(12 + payload);
  append_u32(out, kBinaryMagic);
  append_u32(out, static_cast<std::uint32_t>(rows.rows()));
  append_u32(out, static_cast<std::uint32_t>(rows.cols()));
  out.append(reinterpret_cast<const char*>(rows.data()), payload);
  return out;
}

std::string format_verdicts_json(const serve::ScoreResult& result) {
  std::string out = "{\"model_version\":";
  out += std::to_string(result.model_version);
  out += ",\"verdicts\":[";
  bool first = true;
  for (const core::Verdict& verdict : result.verdicts) {
    if (!first) out += ',';
    first = false;
    out += "{\"malware\":";
    out += verdict.is_malware() ? "true" : "false";
    out += ",\"confidence\":";
    obs::json::append_number(out, verdict.malware_confidence);
    out += '}';
  }
  out += "]}\n";
  return out;
}

std::string format_error_json(std::string_view error,
                              std::string_view detail) {
  std::string out = "{\"error\":";
  obs::json::append_string(out, error);
  out += ",\"detail\":";
  obs::json::append_string(out, detail);
  out += "}\n";
  return out;
}

HttpStatus status_for(serve::RejectReason reason) noexcept {
  switch (reason) {
    case serve::RejectReason::kNone: return {200, "ok"};
    case serve::RejectReason::kQueueFull: return {503, "queue_full"};
    case serve::RejectReason::kShuttingDown: return {503, "shutting_down"};
    case serve::RejectReason::kDeadline: return {504, "deadline"};
    case serve::RejectReason::kOverloaded: return {503, "overloaded"};
    case serve::RejectReason::kInternalError: return {500, "internal_error"};
  }
  return {500, "internal_error"};
}

}  // namespace mev::net
