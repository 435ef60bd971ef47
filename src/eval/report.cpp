#include "eval/report.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

namespace mev::eval {

Table& Table::header(std::vector<std::string> cells) {
  rows_.insert(rows_.begin(), std::move(cells));
  is_separator_.insert(is_separator_.begin(), false);
  has_header_ = true;
  return *this;
}

Table& Table::row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
  is_separator_.push_back(false);
  return *this;
}

Table& Table::separator() {
  rows_.emplace_back();
  is_separator_.push_back(true);
  return *this;
}

std::string Table::fmt(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

std::string Table::fmt_or_nan(double value, int precision) {
  if (std::isnan(value)) return "nan";
  return fmt(value, precision);
}

std::string Table::render() const {
  std::vector<std::size_t> widths;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (is_separator_[i]) continue;
    const auto& row = rows_[i];
    if (widths.size() < row.size()) widths.resize(row.size(), 0);
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());
  }
  std::size_t total_width = widths.empty() ? 0 : 3 * (widths.size() - 1);
  for (std::size_t w : widths) total_width += w;
  total_width = std::max(total_width, title_.size());

  std::ostringstream os;
  os << std::string(total_width, '=') << '\n' << title_ << '\n'
     << std::string(total_width, '=') << '\n';
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (is_separator_[i]) {
      os << std::string(total_width, '-') << '\n';
      continue;
    }
    const auto& row = rows_[i];
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) os << " | ";
      os << std::left << std::setw(static_cast<int>(widths[c])) << row[c];
    }
    os << '\n';
    if (i == 0 && has_header_) os << std::string(total_width, '-') << '\n';
  }
  return os.str();
}

namespace {

/// A coarse 10-row ASCII plot of detection rate (y in [0,1]) vs index.
std::string ascii_plot(const std::vector<SecurityCurve>& curves) {
  if (curves.empty() || curves[0].points.empty()) return {};
  const std::size_t n = curves[0].points.size();
  constexpr int kRows = 10;
  std::ostringstream os;
  for (int r = kRows; r >= 0; --r) {
    const double level = static_cast<double>(r) / kRows;
    os << std::fixed << std::setprecision(1) << level << " |";
    for (std::size_t i = 0; i < n; ++i) {
      char mark = ' ';
      for (std::size_t c = 0; c < curves.size(); ++c) {
        if (i >= curves[c].points.size()) continue;
        const double y = curves[c].points[i].detection_rate;
        if (std::abs(y - level) <= 0.5 / kRows)
          mark = static_cast<char>('A' + (c % 26));
      }
      os << ' ' << mark << ' ';
    }
    os << '\n';
  }
  os << "     ";
  for (std::size_t i = 0; i < n; ++i)
    os << std::setw(3) << std::left << i;
  os << "(index into " << curves[0].parameter << " grid)\n";
  for (std::size_t c = 0; c < curves.size(); ++c)
    os << "  " << static_cast<char>('A' + (c % 26)) << " = "
       << curves[c].name << '\n';
  return os.str();
}

}  // namespace

std::string render_curves(const std::vector<SecurityCurve>& curves) {
  if (curves.empty()) return "(no curves)\n";
  std::ostringstream os;
  Table table("Security evaluation: detection rate vs " + curves[0].parameter);
  std::vector<std::string> head{curves[0].parameter};
  for (const auto& c : curves) head.push_back(c.name);
  head.push_back("mean L2 (" + curves[0].name + ")");
  head.push_back("mean #features");
  table.header(std::move(head));
  const std::size_t n = curves[0].points.size();
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::string> row{Table::fmt(curves[0].points[i].attack_strength, 4)};
    for (const auto& c : curves)
      row.push_back(i < c.points.size()
                        ? Table::fmt(c.points[i].detection_rate)
                        : "-");
    row.push_back(Table::fmt(curves[0].points[i].mean_l2));
    row.push_back(Table::fmt(curves[0].points[i].mean_features, 1));
    table.row(std::move(row));
  }
  os << table.render() << '\n' << ascii_plot(curves);
  return os.str();
}

}  // namespace mev::eval
