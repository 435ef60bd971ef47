#include "math/pca.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "math/rng.hpp"
#include "math/stats.hpp"

namespace mev::math {

namespace {

/// Sorts eigenpairs by descending eigenvalue.
EigenResult sort_eigen(std::vector<double> values, Matrix vectors) {
  std::vector<std::size_t> order(values.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return values[a] > values[b]; });
  EigenResult out;
  out.values.reserve(values.size());
  for (std::size_t i : order) out.values.push_back(values[i]);
  out.vectors = vectors.gather_cols(order);
  return out;
}

/// Modified Gram-Schmidt orthonormalization of the columns of Q in place.
void orthonormalize_columns(Matrix& q, Rng& rng) {
  const std::size_t n = q.rows(), k = q.cols();
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t prev = 0; prev < j; ++prev) {
      double proj = 0.0;
      for (std::size_t i = 0; i < n; ++i)
        proj += static_cast<double>(q(i, j)) * q(i, prev);
      for (std::size_t i = 0; i < n; ++i)
        q(i, j) -= static_cast<float>(proj) * q(i, prev);
    }
    double norm = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      norm += static_cast<double>(q(i, j)) * q(i, j);
    norm = std::sqrt(norm);
    if (norm < 1e-12) {
      // Degenerate column: replace with a random direction and retry once.
      for (std::size_t i = 0; i < n; ++i)
        q(i, j) = static_cast<float>(rng.normal());
      for (std::size_t prev = 0; prev < j; ++prev) {
        double proj = 0.0;
        for (std::size_t i = 0; i < n; ++i)
          proj += static_cast<double>(q(i, j)) * q(i, prev);
        for (std::size_t i = 0; i < n; ++i)
          q(i, j) -= static_cast<float>(proj) * q(i, prev);
      }
      norm = 0.0;
      for (std::size_t i = 0; i < n; ++i)
        norm += static_cast<double>(q(i, j)) * q(i, j);
      norm = std::sqrt(std::max(norm, 1e-12));
    }
    const float inv = static_cast<float>(1.0 / norm);
    for (std::size_t i = 0; i < n; ++i) q(i, j) *= inv;
  }
}

}  // namespace

EigenResult jacobi_eigen_symmetric(const Matrix& a, int max_sweeps,
                                   double tol) {
  if (a.rows() != a.cols())
    throw std::invalid_argument("jacobi_eigen_symmetric: non-square matrix");
  const std::size_t n = a.rows();
  Matrix d = a;          // working copy, converges to diagonal
  Matrix v(n, n, 0.0f);  // accumulated rotations
  for (std::size_t i = 0; i < n; ++i) v(i, i) = 1.0f;

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t p = 0; p < n; ++p)
      for (std::size_t q = p + 1; q < n; ++q)
        off += static_cast<double>(d(p, q)) * d(p, q);
    if (std::sqrt(off) < tol) break;

    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = d(p, q);
        if (std::abs(apq) < 1e-30) continue;
        const double app = d(p, p), aqq = d(q, q);
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (std::size_t i = 0; i < n; ++i) {
          const double dip = d(i, p), diq = d(i, q);
          d(i, p) = static_cast<float>(c * dip - s * diq);
          d(i, q) = static_cast<float>(s * dip + c * diq);
        }
        for (std::size_t i = 0; i < n; ++i) {
          const double dpi = d(p, i), dqi = d(q, i);
          d(p, i) = static_cast<float>(c * dpi - s * dqi);
          d(q, i) = static_cast<float>(s * dpi + c * dqi);
        }
        for (std::size_t i = 0; i < n; ++i) {
          const double vip = v(i, p), viq = v(i, q);
          v(i, p) = static_cast<float>(c * vip - s * viq);
          v(i, q) = static_cast<float>(s * vip + c * viq);
        }
      }
    }
  }

  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = d(i, i);
  return sort_eigen(std::move(values), std::move(v));
}

EigenResult top_k_eigen(const Matrix& a, std::size_t k, int iterations,
                        double tol, std::uint64_t seed) {
  if (a.rows() != a.cols())
    throw std::invalid_argument("top_k_eigen: non-square matrix");
  if (k == 0 || k > a.rows())
    throw std::invalid_argument("top_k_eigen: k out of range");
  const std::size_t n = a.rows();
  Rng rng(seed);
  Matrix q(n, k);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < k; ++j)
      q(i, j) = static_cast<float>(rng.normal());
  orthonormalize_columns(q, rng);

  std::vector<double> prev(k, 0.0);
  std::vector<double> values(k, 0.0);
  for (int it = 0; it < iterations; ++it) {
    Matrix y = matmul(a, q);  // n x k
    // Rayleigh quotients before re-orthonormalization.
    for (std::size_t j = 0; j < k; ++j) {
      double num = 0.0;
      for (std::size_t i = 0; i < n; ++i)
        num += static_cast<double>(q(i, j)) * y(i, j);
      values[j] = num;
    }
    q = std::move(y);
    orthonormalize_columns(q, rng);
    double delta = 0.0;
    for (std::size_t j = 0; j < k; ++j)
      delta = std::max(delta, std::abs(values[j] - prev[j]));
    if (it > 2 && delta < tol * (1.0 + std::abs(values[0]))) break;
    prev = values;
  }
  return sort_eigen(std::move(values), std::move(q));
}

void Pca::fit(const Matrix& x, std::size_t k, bool exact) {
  if (x.rows() == 0 || x.cols() == 0)
    throw std::invalid_argument("Pca::fit: empty data");
  if (k == 0 || k > x.cols())
    throw std::invalid_argument("Pca::fit: k out of range");
  mean_ = column_means(x);
  const Matrix cov = covariance_matrix(x);
  total_variance_ = 0.0;
  for (std::size_t i = 0; i < cov.rows(); ++i) total_variance_ += cov(i, i);

  EigenResult eig = exact ? jacobi_eigen_symmetric(cov)
                          : top_k_eigen(cov, k);
  eigenvalues_.assign(eig.values.begin(),
                      eig.values.begin() + static_cast<std::ptrdiff_t>(k));
  std::vector<std::size_t> keep(k);
  for (std::size_t i = 0; i < k; ++i) keep[i] = i;
  components_ = eig.vectors.gather_cols(keep);
  kept_variance_ = 0.0;
  for (double v : eigenvalues_) kept_variance_ += std::max(v, 0.0);
}

Matrix Pca::transform(const Matrix& x) const {
  if (!fitted()) throw std::logic_error("Pca::transform before fit");
  if (x.cols() != components_.rows())
    throw std::invalid_argument("Pca::transform: dimension mismatch");
  Matrix centered = x;
  for (std::size_t r = 0; r < centered.rows(); ++r) {
    auto row = centered.row(r);
    for (std::size_t c = 0; c < centered.cols(); ++c) row[c] -= mean_[c];
  }
  return matmul(centered, components_);
}

}  // namespace mev::math
