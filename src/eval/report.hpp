// ASCII reporting helpers so every bench binary prints paper-style tables
// and curve series in a consistent format.
#pragma once

#include <string>
#include <vector>

#include "eval/metrics.hpp"

namespace mev::eval {

/// Column-aligned ASCII table with a title row.
class Table {
 public:
  explicit Table(std::string title) : title_(std::move(title)) {}

  Table& header(std::vector<std::string> cells);
  Table& row(std::vector<std::string> cells);
  Table& separator();

  /// Renders with box-drawing dashes, padding each column to its widest
  /// cell.
  std::string render() const;

  static std::string fmt(double value, int precision = 3);
  /// "nan" for NaN values, matching the paper's Table VI.
  static std::string fmt_or_nan(double value, int precision = 3);

 private:
  std::string title_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<bool> is_separator_;
  bool has_header_ = false;
};

/// Renders security-evaluation curves over the same x-grid side by side, as
/// an aligned series plus a coarse ASCII plot (detection rate vs strength):
/// the textual analogue of the paper's Fig. 3 and Fig. 4.
std::string render_curves(const std::vector<SecurityCurve>& curves);

}  // namespace mev::eval
