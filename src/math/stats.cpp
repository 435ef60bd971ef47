#include "math/stats.hpp"

#include <algorithm>
#include <stdexcept>

namespace mev::math {

double percentile(std::span<const double> v, double p) {
  if (v.empty()) throw std::invalid_argument("percentile: empty input");
  if (p < 0.0 || p > 100.0)
    throw std::invalid_argument("percentile: p out of [0,100]");
  std::vector<double> sorted(v.begin(), v.end());
  std::sort(sorted.begin(), sorted.end());
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Matrix covariance_matrix(const Matrix& x) {
  if (x.rows() == 0) throw std::invalid_argument("covariance: empty matrix");
  const auto mu = column_means(x);
  Matrix centered = x;
  for (std::size_t r = 0; r < centered.rows(); ++r) {
    auto row = centered.row(r);
    for (std::size_t c = 0; c < centered.cols(); ++c) row[c] -= mu[c];
  }
  Matrix cov = matmul_at_b(centered, centered);
  cov *= 1.0f / static_cast<float>(x.rows());
  return cov;
}

}  // namespace mev::math
