// Wire formats for POST /v1/score, negotiated via Content-Type:
//
//   application/json        [[f, f, ...], [f, f, ...], ...]
//                           one inner array per row, expected_cols floats
//                           each; strict — no objects, no strings, no
//                           non-finite values.
//
//   application/x-mev-rows  compact length-prefixed binary (all integers
//                           and floats little-endian):
//                             u32 magic  'MEVB' (0x4256454D)
//                             u32 rows   (>0)
//                             u32 cols   (must equal expected_cols)
//                             f32 payload[rows*cols], row-major, finite
//                           total size must be exactly 12 + rows*cols*4 —
//                           trailing bytes are an error, not padding; a
//                           NaN or +/-Inf value is rejected like JSON's.
//
// Responses are JSON either way:
//   200  {"model_version":N,"verdicts":[{"malware":b,"confidence":c},..]}
//   4xx/5xx {"error":"<reason token>","detail":"..."}
//
// Pure string/byte processing — no sockets, no service — so every framing
// edge is unit-testable in isolation.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "math/matrix.hpp"
#include "serve/request.hpp"

namespace mev::net {

inline constexpr const char* kJsonContentType = "application/json";
inline constexpr const char* kBinaryContentType = "application/x-mev-rows";
inline constexpr std::uint32_t kBinaryMagic = 0x4256454Du;  // "MEVB" LE

/// Parsed request body: `ok` false carries a human-readable `error` for
/// the 400 response body.
struct BodyParseResult {
  bool ok = false;
  std::string error;
  math::Matrix rows;
};

/// Strict JSON array-of-rows; every row must have exactly expected_cols
/// finite numbers. `max_rows` bounds the accepted row count (0 = no cap).
BodyParseResult parse_json_rows(std::string_view body,
                                std::size_t expected_cols,
                                std::size_t max_rows = 0);

/// Length-prefixed binary rows (see header comment for layout).
BodyParseResult parse_binary_rows(std::string_view body,
                                  std::size_t expected_cols,
                                  std::size_t max_rows = 0);

/// Serializes a matrix into the binary request format (clients, bench,
/// tests).
std::string encode_binary_rows(const math::Matrix& rows);

/// The 200 response body for a scored result.
std::string format_verdicts_json(const serve::ScoreResult& result);

/// An error response body: {"error":"...","detail":"..."}.
std::string format_error_json(std::string_view error,
                              std::string_view detail);

/// Maps a serve-layer rejection to its HTTP status + stable reason token:
/// queue_full/overloaded/shutting_down → 503, deadline → 504,
/// internal_error → 500 (kNone → 200/"ok").
struct HttpStatus {
  int status = 200;
  const char* reason = "ok";
};
HttpStatus status_for(serve::RejectReason reason) noexcept;

}  // namespace mev::net
