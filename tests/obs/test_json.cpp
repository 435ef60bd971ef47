// The shared JSON writer: string escaping (quotes, backslashes, control
// bytes as \u00XX), the number rule (null for non-finite, whole values
// without fraction or exponent, shortest round-trip otherwise) and the
// fixed six-decimal form.
#include "obs/json.hpp"

#include <limits>
#include <string>

#include <gtest/gtest.h>

namespace {

namespace json = mev::obs::json;

std::string str(std::string_view s) {
  std::string out;
  json::append_string(out, s);
  return out;
}

std::string num(double v) {
  std::string out;
  json::append_number(out, v);
  return out;
}

std::string fixed6(double v) {
  std::string out;
  json::append_fixed6(out, v);
  return out;
}

TEST(JsonWriter, StringsAreQuotedAndEscaped) {
  EXPECT_EQ(str("plain"), "\"plain\"");
  EXPECT_EQ(str("say \"hi\" \\ there"), "\"say \\\"hi\\\" \\\\ there\"");
  EXPECT_EQ(str(std::string_view("a\x01\n\x1f" "b\0", 6)),
            "\"a\\u0001\\u000a\\u001fb\\u0000\"");
  EXPECT_EQ(str("caf\xc3\xa9"), "\"caf\xc3\xa9\"");  // UTF-8 passes through
  std::string out = "x";
  json::append_string(out, static_cast<const char*>(nullptr));
  EXPECT_EQ(out, "x\"\"");
}

TEST(JsonWriter, NumbersFollowOneRule) {
  EXPECT_EQ(num(0.0), "0");
  EXPECT_EQ(num(-0.0), "-0");
  EXPECT_EQ(num(1.0), "1");
  EXPECT_EQ(num(-2.0), "-2");
  EXPECT_EQ(num(100000.0), "100000");  // not 1e+05
  EXPECT_EQ(num(8999999999999999.0), "8999999999999999");
  EXPECT_EQ(num(9e15), "9e+15");  // the whole-number form stops at 9e15
  EXPECT_EQ(num(0.75), "0.75");
  EXPECT_EQ(num(0.1), "0.1");
  EXPECT_EQ(num(1.5e-7), "1.5e-07");
  EXPECT_EQ(num(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(num(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(num(-std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonWriter, FixedSixDecimals) {
  EXPECT_EQ(fixed6(10.0), "10.000000");
  EXPECT_EQ(fixed6(0.2), "0.200000");
  EXPECT_EQ(fixed6(-1.0 / 3.0), "-0.333333");
  EXPECT_EQ(fixed6(2.5e-7), "0.000000");
  EXPECT_EQ(fixed6(std::numeric_limits<double>::max()).size(), 316u);
  EXPECT_EQ(fixed6(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(fixed6(-std::numeric_limits<double>::infinity()), "null");
}

}  // namespace
