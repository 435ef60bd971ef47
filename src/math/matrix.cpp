#include "math/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
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

Matrix Matrix::col_vector(std::span<const float> v) {
  Matrix m(v.size(), 1);
  std::copy(v.begin(), v.end(), m.data_.begin());
  return m;
}

float& Matrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
  return (*this)(r, c);
}

float Matrix::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
  return (*this)(r, c);
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

Matrix& Matrix::operator-=(const Matrix& rhs) {
  require(same_shape(rhs), "Matrix::operator-=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
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

Matrix& Matrix::apply(const std::function<float(float)>& f) {
  for (auto& x : data_) x = f(x);
  return *this;
}

Matrix& Matrix::clamp(float lo, float hi) noexcept {
  for (auto& x : data_) x = std::clamp(x, lo, hi);
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

double Matrix::frobenius_norm() const noexcept {
  double s = 0.0;
  for (float x : data_) s += static_cast<double>(x) * x;
  return std::sqrt(s);
}

float Matrix::max_abs() const noexcept {
  float m = 0.0f;
  for (float x : data_) m = std::max(m, std::abs(x));
  return m;
}

std::string Matrix::to_string(std::size_t max_rows) const {
  std::ostringstream os;
  os << rows_ << "x" << cols_ << " [";
  const std::size_t shown = std::min(rows_, max_rows);
  for (std::size_t r = 0; r < shown; ++r) {
    os << (r == 0 ? "[" : " [");
    for (std::size_t c = 0; c < cols_; ++c) {
      if (c) os << ", ";
      os << (*this)(r, c);
    }
    os << "]";
    if (r + 1 < shown) os << "\n";
  }
  if (shown < rows_) os << "\n ...";
  os << "]";
  return os.str();
}

Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
Matrix operator*(Matrix lhs, float scalar) { return lhs *= scalar; }
Matrix operator*(float scalar, Matrix rhs) { return rhs *= scalar; }

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

void matmul_into(const Matrix& a, const Matrix& b, Matrix& c) {
  require(a.cols() == b.rows(), "matmul: inner dimension mismatch");
  require(&c != &a && &c != &b, "matmul_into: output aliases an input");
  c.resize(a.rows(), b.cols());
  gemm::run(gemm::selected(),
            {.a = a.data(), .a_row_stride = a.cols(), .a_k_stride = 1,
             .b = b.data(), .c = c.data(),
             .m = a.rows(), .n = b.cols(), .k = a.cols(),
             .accumulate = false});
}

void matmul_at_b_into(const Matrix& a, const Matrix& b, Matrix& c,
                      bool accumulate) {
  require(a.rows() == b.rows(), "matmul_at_b: row mismatch");
  require(&c != &a && &c != &b, "matmul_at_b_into: output aliases an input");
  const std::size_t m = a.cols(), k = a.rows(), n = b.cols();
  if (accumulate) {
    require(c.rows() == m && c.cols() == n,
            "matmul_at_b_into: accumulate shape mismatch");
  } else {
    c.resize(m, n);
  }
  // Aᵀ is read in place: row i of Aᵀ is column i of A.
  gemm::run(gemm::selected(),
            {.a = a.data(), .a_row_stride = 1, .a_k_stride = a.cols(),
             .b = b.data(), .c = c.data(),
             .m = m, .n = n, .k = k, .accumulate = accumulate});
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

void gather_rows_into(const Matrix& src, std::span<const std::size_t> indices,
                      Matrix& out) {
  out.resize(indices.size(), src.cols());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    if (indices[i] >= src.rows()) throw std::out_of_range("gather_rows_into");
    const auto row = src.row(indices[i]);
    std::copy(row.begin(), row.end(), out.data() + i * out.cols());
  }
}

void add_column_sums(const Matrix& m, Matrix& acc) {
  require(acc.rows() == 1 && acc.cols() == m.cols(),
          "add_column_sums: shape mismatch");
  float* s = acc.data();
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const float* row = m.data() + r * m.cols();
    for (std::size_t c = 0; c < m.cols(); ++c) s[c] += row[c];
  }
}

std::vector<float> matvec(const Matrix& a, std::span<const float> x) {
  require(a.cols() == x.size(), "matvec: dimension mismatch");
  std::vector<float> y(a.rows(), 0.0f);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const float* ai = a.data() + i * a.cols();
    float s = 0.0f;
    for (std::size_t j = 0; j < a.cols(); ++j) s += ai[j] * x[j];
    y[i] = s;
  }
  return y;
}

void add_row_broadcast(Matrix& m, std::span<const float> bias) {
  require(bias.size() == m.cols(), "add_row_broadcast: length mismatch");
  for (std::size_t r = 0; r < m.rows(); ++r) {
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
