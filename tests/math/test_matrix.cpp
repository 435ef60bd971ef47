#include "math/matrix.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "math/rng.hpp"

namespace mev::math {
namespace {

TEST(Matrix, DefaultConstructedIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(Matrix, ZeroInitialized) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 4; ++c) EXPECT_EQ(m(r, c), 0.0f);
}

TEST(Matrix, FillValueConstructor) {
  Matrix m(2, 2, 3.5f);
  EXPECT_EQ(m(0, 0), 3.5f);
  EXPECT_EQ(m(1, 1), 3.5f);
}

TEST(Matrix, InitializerList) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m(0, 2), 3.0f);
  EXPECT_EQ(m(1, 0), 4.0f);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1, 2}, {3}}), std::invalid_argument);
}

TEST(Matrix, RowAndColVector) {
  const std::vector<float> v{1, 2, 3};
  const Matrix row = Matrix::row_vector(v);
  EXPECT_EQ(row.rows(), 1u);
  EXPECT_EQ(row.cols(), 3u);
  const Matrix col = Matrix::col_vector(v);
  EXPECT_EQ(col.rows(), 3u);
  EXPECT_EQ(col.cols(), 1u);
  EXPECT_EQ(col(2, 0), 3.0f);
}

TEST(Matrix, AtThrowsOutOfRange) {
  Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), std::out_of_range);
  EXPECT_THROW(m.at(0, 2), std::out_of_range);
  EXPECT_NO_THROW(m.at(1, 1));
}

TEST(Matrix, RowSpanMutates) {
  Matrix m(2, 3);
  auto row = m.row(1);
  row[2] = 9.0f;
  EXPECT_EQ(m(1, 2), 9.0f);
}

TEST(Matrix, SetRowAndAppendRow) {
  Matrix m(1, 3);
  const std::vector<float> v{7, 8, 9};
  m.set_row(0, v);
  EXPECT_EQ(m(0, 1), 8.0f);
  m.append_row(v);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m(1, 2), 9.0f);
}

TEST(Matrix, AppendRowToEmptyDefinesCols) {
  Matrix m;
  const std::vector<float> v{1, 2};
  m.append_row(v);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_EQ(m.rows(), 1u);
}

TEST(Matrix, SetRowLengthMismatchThrows) {
  Matrix m(1, 3);
  const std::vector<float> bad{1, 2};
  EXPECT_THROW(m.set_row(0, bad), std::invalid_argument);
}

TEST(Matrix, ElementwiseArithmetic) {
  Matrix a{{1, 2}, {3, 4}};
  const Matrix b{{10, 20}, {30, 40}};
  a += b;
  EXPECT_EQ(a(1, 1), 44.0f);
  a -= b;
  EXPECT_EQ(a(0, 0), 1.0f);
  a *= 2.0f;
  EXPECT_EQ(a(0, 1), 4.0f);
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(2, 2), b(2, 3);
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(a -= b, std::invalid_argument);
  EXPECT_THROW(a.hadamard(b), std::invalid_argument);
}

TEST(Matrix, Hadamard) {
  Matrix a{{1, 2}, {3, 4}};
  const Matrix b{{2, 2}, {2, 2}};
  a.hadamard(b);
  EXPECT_EQ(a(1, 0), 6.0f);
}

TEST(Matrix, ApplyAndClamp) {
  Matrix m{{-1, 0.5f}, {2, 3}};
  m.apply([](float x) { return x * x; });
  EXPECT_EQ(m(0, 0), 1.0f);
  m.clamp(0.0f, 4.0f);
  EXPECT_EQ(m(1, 1), 4.0f);
}

TEST(Matrix, Transposed) {
  const Matrix m{{1, 2, 3}, {4, 5, 6}};
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(t(2, 1), 6.0f);

  // transpose_into: a shape that does not fit the tile evenly, written
  // into a larger buffer that must be reshaped and fully rewritten.
  Rng rng(80);
  Matrix a(17, 33);
  for (std::size_t i = 0; i < a.size(); ++i)
    a.data()[i] = static_cast<float>(rng.normal());
  Matrix at(40, 40);
  transpose_into(a, at);
  ASSERT_EQ(at.rows(), 33u);
  ASSERT_EQ(at.cols(), 17u);
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c) EXPECT_EQ(at(c, r), a(r, c));
  EXPECT_THROW(transpose_into(a, a), std::invalid_argument);
}

TEST(Matrix, SliceRows) {
  const Matrix m{{1, 2}, {3, 4}, {5, 6}};
  const Matrix s = m.slice_rows(1, 3);
  EXPECT_EQ(s.rows(), 2u);
  EXPECT_EQ(s(0, 0), 3.0f);
  EXPECT_THROW(m.slice_rows(2, 4), std::out_of_range);
}

TEST(Matrix, GatherRows) {
  const Matrix m{{1, 1}, {2, 2}, {3, 3}};
  const std::vector<std::size_t> idx{2, 0};
  const Matrix g = m.gather_rows(idx);
  EXPECT_EQ(g(0, 0), 3.0f);
  EXPECT_EQ(g(1, 0), 1.0f);
  const std::vector<std::size_t> bad{5};
  EXPECT_THROW(m.gather_rows(bad), std::out_of_range);
}

TEST(Matrix, GatherCols) {
  const Matrix m{{1, 2, 3}, {4, 5, 6}};
  const std::vector<std::size_t> idx{2, 1};
  const Matrix g = m.gather_cols(idx);
  EXPECT_EQ(g(0, 0), 3.0f);
  EXPECT_EQ(g(1, 1), 5.0f);
}

TEST(Matrix, SumNormMaxAbs) {
  const Matrix m{{3, -4}};
  EXPECT_DOUBLE_EQ(m.sum(), -1.0);
  EXPECT_DOUBLE_EQ(m.frobenius_norm(), 5.0);
  EXPECT_EQ(m.max_abs(), 4.0f);
}

TEST(Matrix, MatmulKnownValues) {
  const Matrix a{{1, 2}, {3, 4}};
  const Matrix b{{5, 6}, {7, 8}};
  const Matrix c = matmul(a, b);
  EXPECT_EQ(c(0, 0), 19.0f);
  EXPECT_EQ(c(0, 1), 22.0f);
  EXPECT_EQ(c(1, 0), 43.0f);
  EXPECT_EQ(c(1, 1), 50.0f);
}

TEST(Matrix, MatmulDimensionMismatchThrows) {
  EXPECT_THROW(matmul(Matrix(2, 3), Matrix(2, 3)), std::invalid_argument);
}

TEST(Matrix, MatmulMatchesNaiveOnRandom) {
  Rng rng(77);
  Matrix a(17, 23), b(23, 11);
  for (std::size_t i = 0; i < a.size(); ++i)
    a.data()[i] = static_cast<float>(rng.normal());
  for (std::size_t i = 0; i < b.size(); ++i)
    b.data()[i] = static_cast<float>(rng.normal());
  const Matrix c = matmul(a, b);
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double s = 0;
      for (std::size_t k = 0; k < a.cols(); ++k)
        s += static_cast<double>(a(i, k)) * b(k, j);
      EXPECT_NEAR(c(i, j), s, 1e-3);
    }
}

TEST(Matrix, MatmulAtBMatchesExplicitTranspose) {
  Rng rng(78);
  Matrix a(9, 6), b(9, 4);
  for (std::size_t i = 0; i < a.size(); ++i)
    a.data()[i] = static_cast<float>(rng.normal());
  for (std::size_t i = 0; i < b.size(); ++i)
    b.data()[i] = static_cast<float>(rng.normal());
  const Matrix expected = matmul(a.transposed(), b);
  const Matrix got = matmul_at_b(a, b);
  ASSERT_TRUE(got.same_shape(expected));
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_NEAR(got.data()[i], expected.data()[i], 1e-4);
}

// C = A·Bᵀ as one scalar dot product per element, summed in k order from
// +0: the reference matmul_into against a packed Bᵀ must reproduce.
Matrix dot_product_a_bt(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.rows(); ++j) {
      float s = 0.0f;
      for (std::size_t k = 0; k < a.cols(); ++k) s += a(i, k) * b(j, k);
      c(i, j) = s;
    }
  return c;
}

TEST(Matrix, MatmulABtMatchesExplicitTranspose) {
  // matmul_into against a packed B^T must reproduce the dot-product
  // reference byte for byte: both sum k = 0..K-1 in order from +0, and the
  // zero skip in matmul_into only drops +-0 products, which never change
  // such a sum. Shapes: the 491-128-64-2 detector's weights (B) at batch
  // 1/13/96, plus one that does not fit the transpose tile evenly.
  struct Shape {
    std::size_t m, n, k;  // A is m x k, B is n x k
  };
  const Shape shapes[] = {{1, 491, 128},  {13, 491, 128}, {96, 491, 128},
                          {1, 128, 64},   {13, 128, 64},  {96, 128, 64},
                          {1, 64, 2},     {13, 64, 2},    {96, 64, 2},
                          {5, 17, 33}};
  Rng rng(79);
  for (const Shape& s : shapes) {
    for (const bool sparse : {false, true}) {
      Matrix a(s.m, s.k), b(s.n, s.k);
      for (std::size_t i = 0; i < a.size(); ++i) {
        a.data()[i] = static_cast<float>(rng.normal());
        // About half exact zeros, a quarter of those negative zeros.
        if (sparse && rng.uniform() < 0.5)
          a.data()[i] = rng.uniform() < 0.25 ? -0.0f : 0.0f;
      }
      for (std::size_t i = 0; i < b.size(); ++i)
        b.data()[i] = static_cast<float>(rng.normal());
      const Matrix want = dot_product_a_bt(a, b);
      Matrix bt, got;
      transpose_into(b, bt);
      matmul_into(a, bt, got);
      ASSERT_TRUE(got.same_shape(want));
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            got.size() * sizeof(float)),
                0)
          << s.m << "x" << s.k << " * (" << s.n << "x" << s.k
          << ")^T, sparse=" << sparse;
    }
  }
}

TEST(Matrix, MatmulRejectsAnOutputAliasingAnInput) {
  // Resizing C before reading would otherwise zero the input silently.
  Matrix sq{{1, 2}, {3, 4}};
  const Matrix other{{1, 0}, {0, 1}};
  EXPECT_THROW(matmul_into(sq, other, sq), std::invalid_argument);
  EXPECT_THROW(matmul_into(other, sq, sq), std::invalid_argument);
  EXPECT_THROW(matmul_at_b_into(sq, other, sq), std::invalid_argument);
  EXPECT_THROW(matmul_at_b_into(other, sq, sq), std::invalid_argument);
  EXPECT_THROW(matmul_at_b_into(sq, other, sq, /*accumulate=*/true),
               std::invalid_argument);
  EXPECT_EQ(sq, (Matrix{{1, 2}, {3, 4}}));
}

TEST(Matrix, Matvec) {
  const Matrix a{{1, 2}, {3, 4}};
  const std::vector<float> x{1, 1};
  const auto y = matvec(a, x);
  EXPECT_EQ(y[0], 3.0f);
  EXPECT_EQ(y[1], 7.0f);
  const std::vector<float> bad{1};
  EXPECT_THROW(matvec(a, bad), std::invalid_argument);
}

TEST(Matrix, AddRowBroadcast) {
  Matrix m(2, 3, 1.0f);
  const std::vector<float> bias{1, 2, 3};
  add_row_broadcast(m, bias);
  EXPECT_EQ(m(0, 0), 2.0f);
  EXPECT_EQ(m(1, 2), 4.0f);
}

TEST(Matrix, ColumnSumsAndMeans) {
  const Matrix m{{1, 2}, {3, 4}};
  const auto sums = column_sums(m);
  EXPECT_EQ(sums[0], 4.0f);
  EXPECT_EQ(sums[1], 6.0f);
  const auto means = column_means(m);
  EXPECT_EQ(means[0], 2.0f);
  EXPECT_THROW(column_means(Matrix(0, 2)), std::invalid_argument);
}

TEST(Matrix, EqualityAndToString) {
  const Matrix a{{1, 2}};
  const Matrix b{{1, 2}};
  EXPECT_EQ(a, b);
  const Matrix c{{1, 3}};
  EXPECT_NE(a, c);
  EXPECT_NE(a.to_string().find("1x2"), std::string::npos);
}

}  // namespace
}  // namespace mev::math
