// Descriptive statistics used by the evaluation and reporting code.
#pragma once

#include <span>
#include <vector>

#include "math/matrix.hpp"

namespace mev::math {

/// p-th percentile (p in [0,100]) by linear interpolation; sorts a copy.
double percentile(std::span<const double> v, double p);

/// Sample covariance matrix of the rows of X (features are columns),
/// normalized by N (population covariance). Requires X.rows() >= 1.
Matrix covariance_matrix(const Matrix& x);

}  // namespace mev::math
