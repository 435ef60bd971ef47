// Wire codecs for POST /v1/score: strict JSON rows, the length-prefixed
// binary format, response formatting, and the serve→HTTP status mapping.
// Pure string processing — no sockets — so every framing edge is covered
// here and the socket tests (test_frontend.cpp) only need happy paths.
#include "net/wire.hpp"

#include <cstring>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "data/dataset.hpp"

namespace {

using mev::net::BodyParseResult;
using mev::net::encode_binary_rows;
using mev::net::format_error_json;
using mev::net::format_verdicts_json;
using mev::net::kBinaryMagic;
using mev::net::parse_binary_rows;
using mev::net::parse_json_rows;
using mev::net::status_for;

namespace math = mev::math;

math::Matrix ramp(std::size_t rows, std::size_t cols) {
  math::Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = static_cast<float>(i) * 0.5f;
  return m;
}

// ---------------------------------------------------------------- JSON --

TEST(WireJson, ParsesRowsWithAssortedSpacingAndNumberForms) {
  const auto result = parse_json_rows(
      " [ [1, 2.5 ,3e0] ,\n\t[-4.25,0,1e2] ]\n", /*expected_cols=*/3);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.rows.rows(), 2u);
  ASSERT_EQ(result.rows.cols(), 3u);
  EXPECT_FLOAT_EQ(result.rows.row(0)[0], 1.0f);
  EXPECT_FLOAT_EQ(result.rows.row(0)[1], 2.5f);
  EXPECT_FLOAT_EQ(result.rows.row(0)[2], 3.0f);
  EXPECT_FLOAT_EQ(result.rows.row(1)[0], -4.25f);
  EXPECT_FLOAT_EQ(result.rows.row(1)[2], 100.0f);
}

TEST(WireJson, RejectsMalformedBodies) {
  const char* bad[] = {
      "",                      // empty
      "{}",                    // not an array
      "[]",                    // zero rows
      "[[1,2]",                // unterminated outer array
      "[[1,2],]",              // trailing comma = missing row
      "[[1,2],[3]]",           // ragged columns
      "[[1,\"x\"]]",           // non-number
      "[[1,nan]]",             // from_chars parses nan → non-finite
      "[[1,2]] extra",         // trailing bytes
      "[1,2]",                 // rows must be arrays
  };
  for (const char* body : bad) {
    const auto result = parse_json_rows(body, 2);
    EXPECT_FALSE(result.ok) << body;
    EXPECT_FALSE(result.error.empty()) << body;
  }
}

TEST(WireJson, ColumnMismatchNamesTheOffendingRow) {
  const auto result = parse_json_rows("[[1,2,3],[4,5]]", 3);
  ASSERT_FALSE(result.ok);
  EXPECT_NE(result.error.find("row 1"), std::string::npos) << result.error;
  EXPECT_NE(result.error.find("2 columns"), std::string::npos);
}

TEST(WireJson, EnforcesTheRowCap) {
  EXPECT_TRUE(parse_json_rows("[[1],[2]]", 1, /*max_rows=*/2).ok);
  const auto over = parse_json_rows("[[1],[2],[3]]", 1, /*max_rows=*/2);
  EXPECT_FALSE(over.ok);
  EXPECT_NE(over.error.find("too many rows"), std::string::npos);
}

// -------------------------------------------------------------- binary --

TEST(WireBinary, RoundTripsThroughTheEncoder) {
  const math::Matrix m = ramp(3, 5);
  const std::string body = encode_binary_rows(m);
  ASSERT_EQ(body.size(), 12u + 3 * 5 * sizeof(float));
  std::uint32_t magic = 0;
  std::memcpy(&magic, body.data(), 4);
  EXPECT_EQ(magic, kBinaryMagic);

  const auto result = parse_binary_rows(body, 5);
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.rows.rows(), 3u);
  ASSERT_EQ(result.rows.cols(), 5u);
  EXPECT_EQ(std::memcmp(result.rows.data(), m.data(),
                        m.size() * sizeof(float)),
            0);
}

TEST(WireBinary, RejectsBadFrames) {
  const std::string good = encode_binary_rows(ramp(2, 4));

  EXPECT_FALSE(parse_binary_rows("", 4).ok);
  EXPECT_FALSE(parse_binary_rows(good.substr(0, 11), 4).ok);  // short header

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_FALSE(parse_binary_rows(bad_magic, 4).ok);

  EXPECT_FALSE(parse_binary_rows(good, 5).ok);          // column mismatch
  EXPECT_FALSE(parse_binary_rows(good + "x", 4).ok);    // trailing bytes
  EXPECT_FALSE(parse_binary_rows(good.substr(0, good.size() - 4), 4).ok);

  std::string zero_rows = good;
  const std::uint32_t zero = 0;
  std::memcpy(zero_rows.data() + 4, &zero, 4);
  EXPECT_FALSE(parse_binary_rows(zero_rows, 4).ok);

  EXPECT_FALSE(parse_binary_rows(good, 4, /*max_rows=*/1).ok);
  EXPECT_TRUE(parse_binary_rows(good, 4, /*max_rows=*/2).ok);

  // Non-finite payload values: rejected with the JSON decoder's wording.
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    math::Matrix rows = ramp(2, 4);
    rows(1, 2) = bad;
    const auto result = parse_binary_rows(encode_binary_rows(rows), 4);
    EXPECT_FALSE(result.ok) << bad;
    EXPECT_EQ(result.error, "non-finite value in row 1") << bad;
  }
}

TEST(WireBinary, DeclaredRowCountCannotOverrunTheBody) {
  // Header claims 1000 rows but carries 2 rows of payload: the exact-size
  // check must fail before any memcpy sizing happens off the header.
  std::string lying = encode_binary_rows(ramp(2, 4));
  const std::uint32_t claimed = 1000;
  std::memcpy(lying.data() + 4, &claimed, 4);
  const auto result = parse_binary_rows(lying, 4);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("expected"), std::string::npos);
}

// ----------------------------------------------------------- responses --

TEST(WireResponses, FormatsVerdictsAsJson) {
  mev::serve::ScoreResult result;
  result.model_version = 7;
  result.verdicts.push_back(
      {mev::data::kMalwareLabel, 0.75});
  result.verdicts.push_back({mev::data::kCleanLabel, 0.25});
  const std::string json = format_verdicts_json(result);
  EXPECT_EQ(json,
            "{\"model_version\":7,\"verdicts\":["
            "{\"malware\":true,\"confidence\":0.75},"
            "{\"malware\":false,\"confidence\":0.25}]}\n");
}

TEST(WireResponses, FormatsEmptyVerdictLists) {
  mev::serve::ScoreResult result;
  result.model_version = 1;
  EXPECT_EQ(format_verdicts_json(result),
            "{\"model_version\":1,\"verdicts\":[]}\n");
}

TEST(WireResponses, ErrorJsonEscapesHostileDetail) {
  EXPECT_EQ(format_error_json("bad_request", "say \"no\" to back\\slash"),
            "{\"error\":\"bad_request\","
            "\"detail\":\"say \\\"no\\\" to back\\\\slash\"}\n");
  // Control characters are \u00XX-escaped, not emitted raw.
  EXPECT_EQ(format_error_json("x", "a\r\nb"),
            "{\"error\":\"x\",\"detail\":\"a\\u000d\\u000ab\"}\n");
}

TEST(WireResponses, StatusMappingCoversEveryRejectReason) {
  using mev::serve::RejectReason;
  EXPECT_EQ(status_for(RejectReason::kNone).status, 200);
  EXPECT_EQ(status_for(RejectReason::kQueueFull).status, 503);
  EXPECT_STREQ(status_for(RejectReason::kQueueFull).reason, "queue_full");
  EXPECT_EQ(status_for(RejectReason::kOverloaded).status, 503);
  EXPECT_STREQ(status_for(RejectReason::kOverloaded).reason, "overloaded");
  EXPECT_EQ(status_for(RejectReason::kShuttingDown).status, 503);
  EXPECT_STREQ(status_for(RejectReason::kShuttingDown).reason,
               "shutting_down");
  EXPECT_EQ(status_for(RejectReason::kDeadline).status, 504);
  EXPECT_STREQ(status_for(RejectReason::kDeadline).reason, "deadline");
  EXPECT_EQ(status_for(RejectReason::kInternalError).status, 500);
}

}  // namespace
