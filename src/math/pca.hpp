// Principal component analysis — the substrate for the dimensionality-
// reduction defense (Bhagoji et al. 2017, as used in §II-C.4 of the paper).
//
// Two eigensolvers are provided:
//  * jacobi_eigen_symmetric: full spectrum via cyclic Jacobi rotations;
//    exact, O(n^3) per sweep — used for small matrices and in tests.
//  * top_k_eigen: leading k eigenpairs via subspace (orthogonal) iteration;
//    the practical path for the 491x491 API-feature covariance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "math/matrix.hpp"

namespace mev::math {

struct EigenResult {
  /// Eigenvalues in descending order.
  std::vector<double> values;
  /// Column i of `vectors` is the unit eigenvector for values[i].
  Matrix vectors;
};

/// Full eigendecomposition of a symmetric matrix by cyclic Jacobi.
/// Throws std::invalid_argument for non-square input.
EigenResult jacobi_eigen_symmetric(const Matrix& a, int max_sweeps = 64,
                                   double tol = 1e-10);

/// Leading k eigenpairs of a symmetric PSD matrix by subspace iteration.
/// Requires 1 <= k <= a.rows().
EigenResult top_k_eigen(const Matrix& a, std::size_t k, int iterations = 256,
                        double tol = 1e-9, std::uint64_t seed = 42);

/// PCA model: fit on data rows, project to k components and back.
class Pca {
 public:
  /// Fits on the rows of X, keeping `k` components. `exact` selects the
  /// Jacobi solver (full spectrum) instead of subspace iteration.
  void fit(const Matrix& x, std::size_t k, bool exact = false);

  bool fitted() const noexcept { return components_.cols() > 0; }
  std::size_t k() const noexcept { return components_.cols(); }
  std::size_t input_dim() const noexcept { return components_.rows(); }

  /// Projects rows of X (original space) into the k-dim component space.
  Matrix transform(const Matrix& x) const;

  /// Eigenvalues of the kept components (descending).
  const std::vector<double>& explained_variance() const noexcept {
    return eigenvalues_;
  }

  /// Fraction of total variance captured by the kept components.
  /// Only meaningful when fitted with `exact` (needs the full spectrum
  /// trace); otherwise computed against the trace of the covariance.
  double explained_variance_ratio() const noexcept {
    return total_variance_ > 0.0 ? kept_variance_ / total_variance_ : 0.0;
  }

  const std::vector<float>& mean() const noexcept { return mean_; }
  /// input_dim x k matrix whose columns are principal directions.
  const Matrix& components() const noexcept { return components_; }

 private:
  std::vector<float> mean_;
  Matrix components_;  // d x k
  std::vector<double> eigenvalues_;
  double kept_variance_ = 0.0;
  double total_variance_ = 0.0;
};

}  // namespace mev::math
