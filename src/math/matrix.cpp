#include "math/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "math/gemm.hpp"

namespace mev::math {

namespace {

void require(bool cond, const char* what) {
  if (!cond) throw std::invalid_argument(what);
}

}  // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, float value)
    : rows_(rows), cols_(cols), data_(rows * cols, value) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<float>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    require(r.size() == cols_, "Matrix: ragged initializer list");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::row_vector(std::span<const float> v) {
  Matrix m(1, v.size());
  std::copy(v.begin(), v.end(), m.data_.begin());
  return m;
}

void Matrix::set_row(std::size_t r, std::span<const float> src) {
  require(src.size() == cols_, "Matrix::set_row: length mismatch");
  if (r >= rows_) throw std::out_of_range("Matrix::set_row");
  std::copy(src.begin(), src.end(), data_.begin() + r * cols_);
}

void Matrix::append_row(std::span<const float> src) {
  if (rows_ == 0 && cols_ == 0) cols_ = src.size();
  require(src.size() == cols_, "Matrix::append_row: length mismatch");
  data_.insert(data_.end(), src.begin(), src.end());
  ++rows_;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  require(same_shape(rhs), "Matrix::operator+=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(float scalar) noexcept {
  for (auto& x : data_) x *= scalar;
  return *this;
}

Matrix& Matrix::hadamard(const Matrix& rhs) {
  require(same_shape(rhs), "Matrix::hadamard: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] *= rhs.data_[i];
  return *this;
}

void Matrix::fill(float value) noexcept {
  std::fill(data_.begin(), data_.end(), value);
}

void Matrix::resize(std::size_t rows, std::size_t cols) {
  data_.resize(rows * cols);
  rows_ = rows;
  cols_ = cols;
}

void Matrix::reserve(std::size_t rows, std::size_t cols) {
  data_.reserve(rows * cols);
}

Matrix Matrix::transposed() const {
  Matrix t;
  transpose_into(*this, t);
  return t;
}

Matrix Matrix::slice_rows(std::size_t begin, std::size_t end) const {
  if (begin > end || end > rows_) throw std::out_of_range("slice_rows");
  Matrix out(end - begin, cols_);
  std::copy(data_.begin() + begin * cols_, data_.begin() + end * cols_,
            out.data_.begin());
  return out;
}

Matrix Matrix::gather_rows(std::span<const std::size_t> indices) const {
  Matrix out(indices.size(), cols_);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    if (indices[i] >= rows_) throw std::out_of_range("gather_rows");
    out.set_row(i, row(indices[i]));
  }
  return out;
}

Matrix Matrix::gather_cols(std::span<const std::size_t> indices) const {
  Matrix out(rows_, indices.size());
  for (std::size_t c = 0; c < indices.size(); ++c)
    if (indices[c] >= cols_) throw std::out_of_range("gather_cols");
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < indices.size(); ++c)
      out(r, c) = (*this)(r, indices[c]);
  return out;
}

double Matrix::sum() const noexcept {
  double s = 0.0;
  for (float x : data_) s += x;
  return s;
}

float Matrix::max_abs() const noexcept {
  float m = 0.0f;
  for (float x : data_) m = std::max(m, std::abs(x));
  return m;
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_into(a, b, c);
  return c;
}

Matrix matmul_at_b(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_at_b_into(a, b, c);
  return c;
}

namespace {

/// C = A * B (or C += A * B) over C's rows [begin, end), on this thread.
void run_gemm(const Matrix& c_shape, gemm::Operands op, std::size_t begin,
              std::size_t end) {
  require(begin <= end && end <= c_shape.rows(), "matmul: row range");
  op.a += begin * op.a_row_stride;
  op.c += begin * op.n;
  op.m = end - begin;
  gemm::run(gemm::selected(), op);
}

/// A * B as operands: A read by rows.
gemm::Operands ab(const Matrix& a, const Matrix& b, Matrix& c) {
  require(a.cols() == b.rows(), "matmul: inner dimension mismatch");
  require(&c != &a && &c != &b, "matmul: output aliases an input");
  return {.a = a.data(), .a_row_stride = a.cols(), .a_k_stride = 1,
          .b = b.data(), .c = c.data(),
          .m = a.rows(), .n = b.cols(), .k = a.cols(), .accumulate = false};
}

/// Aᵀ * B as operands: Aᵀ is read in place, row i of Aᵀ being column i
/// of A.
gemm::Operands at_b(const Matrix& a, const Matrix& b, Matrix& c) {
  require(a.rows() == b.rows(), "matmul_at_b: row mismatch");
  require(&c != &a && &c != &b, "matmul_at_b: output aliases an input");
  return {.a = a.data(), .a_row_stride = 1, .a_k_stride = a.cols(),
          .b = b.data(), .c = c.data(),
          .m = a.cols(), .n = b.cols(), .k = a.rows(), .accumulate = false};
}

}  // namespace

void matmul_into(const Matrix& a, const Matrix& b, Matrix& c) {
  gemm::Operands op = ab(a, b, c);
  c.resize(a.rows(), b.cols());
  op.c = c.data();
  run_gemm(c, op, 0, c.rows());
}

void matmul_at_b_into(const Matrix& a, const Matrix& b, Matrix& c) {
  gemm::Operands op = at_b(a, b, c);
  c.resize(a.cols(), b.cols());
  op.c = c.data();
  run_gemm(c, op, 0, c.rows());
}

void matmul_rows(const Matrix& a, const Matrix& b, Matrix& c,
                 std::size_t begin, std::size_t end) {
  require(c.rows() == a.rows() && c.cols() == b.cols(),
          "matmul_rows: output shape mismatch");
  run_gemm(c, ab(a, b, c), begin, end);
}

void add_matmul_at_b_rows(const Matrix& a, const Matrix& b, Matrix& c,
                          std::size_t begin, std::size_t end) {
  require(c.rows() == a.cols() && c.cols() == b.cols(),
          "add_matmul_at_b_rows: output shape mismatch");
  gemm::Operands op = at_b(a, b, c);
  op.accumulate = true;
  run_gemm(c, op, begin, end);
}

void transpose_into(const Matrix& a, Matrix& t) {
  require(&a != &t, "transpose_into: output aliases input");
  const std::size_t rows = a.rows(), cols = a.cols();
  t.resize(cols, rows);
  // Square tiles keep the rows being read and the rows being written
  // cache-resident together.
  constexpr std::size_t kTile = 16;
  for (std::size_t r0 = 0; r0 < rows; r0 += kTile) {
    const std::size_t r1 = std::min(r0 + kTile, rows);
    for (std::size_t c0 = 0; c0 < cols; c0 += kTile) {
      const std::size_t c1 = std::min(c0 + kTile, cols);
      for (std::size_t r = r0; r < r1; ++r)
        for (std::size_t c = c0; c < c1; ++c) t(c, r) = a(r, c);
    }
  }
}

void add_column_sums(const Matrix& m, Matrix& acc, std::size_t begin,
                     std::size_t end) {
  require(acc.rows() == 1 && acc.cols() == m.cols(),
          "add_column_sums: shape mismatch");
  require(begin <= end && end <= m.cols(), "add_column_sums: column range");
  float* s = acc.data();
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const float* row = m.data() + r * m.cols();
    for (std::size_t c = begin; c < end; ++c) s[c] += row[c];
  }
}

void add_row_broadcast(Matrix& m, std::span<const float> bias,
                       std::size_t begin, std::size_t end) {
  require(bias.size() == m.cols(), "add_row_broadcast: length mismatch");
  require(begin <= end && end <= m.rows(), "add_row_broadcast: row range");
  for (std::size_t r = begin; r < end; ++r) {
    float* row = m.data() + r * m.cols();
    for (std::size_t c = 0; c < m.cols(); ++c) row[c] += bias[c];
  }
}

std::vector<float> column_sums(const Matrix& m) {
  std::vector<float> s(m.cols(), 0.0f);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const float* row = m.data() + r * m.cols();
    for (std::size_t c = 0; c < m.cols(); ++c) s[c] += row[c];
  }
  return s;
}

std::vector<float> column_means(const Matrix& m) {
  require(m.rows() > 0, "column_means: empty matrix");
  auto s = column_sums(m);
  const float inv = 1.0f / static_cast<float>(m.rows());
  for (auto& x : s) x *= inv;
  return s;
}

}  // namespace mev::math
