#include "math/pca.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "math/rng.hpp"
#include "math/stats.hpp"

namespace mev::math {
namespace {

Matrix correlated_data(std::size_t n, std::size_t d, std::uint64_t seed) {
  // Data with variance concentrated in a few directions.
  Rng rng(seed);
  Matrix x(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = rng.normal();   // dominant direction
    const double u = rng.normal();   // second direction
    for (std::size_t j = 0; j < d; ++j) {
      const double loading1 = std::sin(0.3 * static_cast<double>(j + 1));
      const double loading2 = std::cos(0.7 * static_cast<double>(j + 1));
      x(i, j) = static_cast<float>(5.0 * t * loading1 + 2.0 * u * loading2 +
                                   0.1 * rng.normal());
    }
  }
  return x;
}

TEST(Jacobi, DiagonalMatrix) {
  const Matrix a{{3, 0}, {0, 1}};
  const EigenResult e = jacobi_eigen_symmetric(a);
  EXPECT_NEAR(e.values[0], 3.0, 1e-6);
  EXPECT_NEAR(e.values[1], 1.0, 1e-6);
}

TEST(Jacobi, KnownSymmetricMatrix) {
  // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
  const Matrix a{{2, 1}, {1, 2}};
  const EigenResult e = jacobi_eigen_symmetric(a);
  EXPECT_NEAR(e.values[0], 3.0, 1e-5);
  EXPECT_NEAR(e.values[1], 1.0, 1e-5);
  // Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::abs(e.vectors(0, 0)), std::sqrt(0.5), 1e-4);
}

TEST(Jacobi, NonSquareThrows) {
  EXPECT_THROW(jacobi_eigen_symmetric(Matrix(2, 3)), std::invalid_argument);
}

TEST(Jacobi, ReconstructsMatrix) {
  Rng rng(5);
  Matrix a(6, 6);
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = i; j < 6; ++j) {
      const float v = static_cast<float>(rng.normal());
      a(i, j) = v;
      a(j, i) = v;
    }
  const EigenResult e = jacobi_eigen_symmetric(a);
  // A = V diag(w) V^T
  Matrix lambda(6, 6);
  for (std::size_t i = 0; i < 6; ++i)
    lambda(i, i) = static_cast<float>(e.values[i]);
  const Matrix rebuilt =
      matmul(matmul(e.vectors, lambda), e.vectors.transposed());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR(rebuilt.data()[i], a.data()[i], 1e-3);
}

TEST(TopK, MatchesJacobiOnLeadingPairs) {
  const Matrix x = correlated_data(200, 12, 9);
  const Matrix cov = covariance_matrix(x);
  const EigenResult full = jacobi_eigen_symmetric(cov);
  const EigenResult top = top_k_eigen(cov, 3);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_NEAR(top.values[i], full.values[i],
                1e-3 * (1.0 + std::abs(full.values[i])));
}

TEST(TopK, VectorsAreOrthonormal) {
  const Matrix x = correlated_data(150, 10, 11);
  const EigenResult e = top_k_eigen(covariance_matrix(x), 4);
  for (std::size_t a = 0; a < 4; ++a) {
    for (std::size_t b = 0; b < 4; ++b) {
      double dot = 0;
      for (std::size_t i = 0; i < 10; ++i)
        dot += static_cast<double>(e.vectors(i, a)) * e.vectors(i, b);
      EXPECT_NEAR(dot, a == b ? 1.0 : 0.0, 1e-3);
    }
  }
}

TEST(TopK, InvalidKThrows) {
  const Matrix a{{1, 0}, {0, 1}};
  EXPECT_THROW(top_k_eigen(a, 0), std::invalid_argument);
  EXPECT_THROW(top_k_eigen(a, 3), std::invalid_argument);
}

TEST(Pca, TransformShapes) {
  const Matrix x = correlated_data(100, 8, 13);
  Pca pca;
  pca.fit(x, 3);
  EXPECT_TRUE(pca.fitted());
  EXPECT_EQ(pca.k(), 3u);
  EXPECT_EQ(pca.input_dim(), 8u);
  const Matrix z = pca.transform(x);
  EXPECT_EQ(z.rows(), 100u);
  EXPECT_EQ(z.cols(), 3u);
}

TEST(Pca, ReconstructionErrorDecreasesWithK) {
  const Matrix x = correlated_data(200, 10, 17);
  double prev_err = 1e30;
  for (std::size_t k : {1u, 2u, 5u, 9u}) {
    Pca pca;
    pca.fit(x, k);
    // Project, map back through the components and add the mean again.
    const Matrix rec =
        matmul(pca.transform(x), pca.components().transposed());
    double err = 0;
    for (std::size_t r = 0; r < x.rows(); ++r) {
      for (std::size_t c = 0; c < x.cols(); ++c) {
        const double d = x(r, c) - (rec(r, c) + pca.mean()[c]);
        err += d * d;
      }
    }
    EXPECT_LT(err, prev_err + 1e-6);
    prev_err = err;
  }
}

TEST(Pca, TwoComponentsCaptureAlmostAllVariance) {
  const Matrix x = correlated_data(300, 10, 19);
  Pca pca;
  pca.fit(x, 2);
  EXPECT_GT(pca.explained_variance_ratio(), 0.95);
}

TEST(Pca, ExactModeMatchesIterative) {
  const Matrix x = correlated_data(120, 7, 23);
  Pca exact, iterative;
  exact.fit(x, 2, /*exact=*/true);
  iterative.fit(x, 2, /*exact=*/false);
  for (std::size_t i = 0; i < 2; ++i)
    EXPECT_NEAR(exact.explained_variance()[i],
                iterative.explained_variance()[i],
                1e-2 * (1.0 + exact.explained_variance()[i]));
}

TEST(Pca, Errors) {
  Pca pca;
  EXPECT_THROW(pca.transform(Matrix(1, 3)), std::logic_error);
  EXPECT_THROW(pca.fit(Matrix(0, 3), 1), std::invalid_argument);
  const Matrix x = correlated_data(20, 4, 29);
  EXPECT_THROW(pca.fit(x, 5), std::invalid_argument);
  pca.fit(x, 2);
  EXPECT_THROW(pca.transform(Matrix(1, 5)), std::invalid_argument);
}

}  // namespace
}  // namespace mev::math
