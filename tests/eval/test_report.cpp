#include "eval/report.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace mev::eval {
namespace {

TEST(Table, RendersHeaderAndRows) {
  Table t("My Title");
  t.header({"col1", "column2"});
  t.row({"a", "b"});
  t.row({"longer", "x"});
  const std::string out = t.render();
  EXPECT_NE(out.find("My Title"), std::string::npos);
  EXPECT_NE(out.find("col1"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
}

TEST(Table, SeparatorRenders) {
  Table t("Wide title");
  t.row({"alpha"});
  t.separator();
  t.row({"beta"});
  const std::string out = t.render();
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(Table::fmt(0.12345, 3), "0.123");
  EXPECT_EQ(Table::fmt(2.0, 1), "2.0");
}

TEST(Table, FmtOrNan) {
  EXPECT_EQ(Table::fmt_or_nan(std::nan("")), "nan");
  EXPECT_EQ(Table::fmt_or_nan(0.5), "0.500");
}

SecurityCurve curve(const std::string& name) {
  SecurityCurve c;
  c.name = name;
  c.parameter = "gamma";
  for (int i = 0; i < 4; ++i) {
    CurvePoint p;
    p.attack_strength = 0.01 * i;
    p.detection_rate = 1.0 - 0.2 * i;
    p.mean_l2 = 0.1 * i;
    p.mean_features = 2.0 * i;
    c.points.push_back(p);
  }
  return c;
}

TEST(Curves, RenderSingle) {
  const std::string out = render_curves({curve("target")});
  EXPECT_NE(out.find("gamma"), std::string::npos);
  EXPECT_NE(out.find("target"), std::string::npos);
  EXPECT_NE(out.find("0.800"), std::string::npos);
}

TEST(Curves, RenderMultipleNamesAllSeries) {
  const std::string out = render_curves({curve("alpha"), curve("beta")});
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("beta"), std::string::npos);
  // ASCII plot legend letters
  EXPECT_NE(out.find("A = alpha"), std::string::npos);
  EXPECT_NE(out.find("B = beta"), std::string::npos);
}

TEST(Curves, EmptyInput) {
  EXPECT_EQ(render_curves({}), "(no curves)\n");
}

}  // namespace
}  // namespace mev::eval
