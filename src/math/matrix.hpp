// Dense row-major float matrix — the storage type for datasets, network
// weights and activations throughout the library.
//
// Design notes:
//  * float (not double): matches the precision malware-detection DNNs ship
//    with and halves memory traffic on the hot matmul path.
//  * Row-major with contiguous storage so a row is a feature vector usable
//    as a span without copying.
//  * Shape errors are programming errors and throw std::invalid_argument —
//    they are never data-dependent.
#pragma once

#include <cstddef>
#include <functional>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace mev::math {

class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols);

  /// rows x cols matrix filled with `value`.
  Matrix(std::size_t rows, std::size_t cols, float value);

  /// Builds from nested initializer lists; all rows must be equal length.
  Matrix(std::initializer_list<std::initializer_list<float>> rows);

  /// Builds a 1 x v.size() row matrix from a vector.
  static Matrix row_vector(std::span<const float> v);

  /// Builds a v.size() x 1 column matrix from a vector.
  static Matrix col_vector(std::span<const float> v);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  float& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  float operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  /// Bounds-checked access (throws std::out_of_range).
  float& at(std::size_t r, std::size_t c);
  float at(std::size_t r, std::size_t c) const;

  std::span<float> row(std::size_t r) noexcept {
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const float> row(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
  }

  float* data() noexcept { return data_.data(); }
  const float* data() const noexcept { return data_.data(); }

  /// Copies `src` (length == cols) into row r.
  void set_row(std::size_t r, std::span<const float> src);

  /// Appends one row (length must equal cols, or define cols if empty).
  void append_row(std::span<const float> src);

  bool same_shape(const Matrix& other) const noexcept {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  // Elementwise in-place arithmetic. Shapes must match.
  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(float scalar) noexcept;
  /// Hadamard (elementwise) product.
  Matrix& hadamard(const Matrix& rhs);

  /// Applies f to every element in place. Type-erased overload for cold
  /// call sites; hot paths should use the templated apply_fn below, which
  /// inlines the functor.
  Matrix& apply(const std::function<float(float)>& f);

  /// Applies f to every element in place with the functor inlined.
  template <typename F>
  Matrix& apply_fn(F&& f) {
    for (auto& x : data_) x = f(x);
    return *this;
  }

  /// Clamps every element to [lo, hi].
  Matrix& clamp(float lo, float hi) noexcept;

  void fill(float value) noexcept;

  /// Reshapes to rows x cols without shrinking capacity: growing past the
  /// high-water mark allocates, everything after that is allocation-free.
  /// Element values are unspecified after a resize that changes the total
  /// element count (workspaces overwrite them anyway).
  void resize(std::size_t rows, std::size_t cols);

  /// Pre-allocates capacity for a rows x cols matrix without reshaping.
  void reserve(std::size_t rows, std::size_t cols);

  Matrix transposed() const;

  /// Extracts rows [begin, end) as a new matrix.
  Matrix slice_rows(std::size_t begin, std::size_t end) const;

  /// Extracts the given rows (gather) as a new matrix.
  Matrix gather_rows(std::span<const std::size_t> indices) const;

  /// Extracts the given columns (gather) as a new matrix.
  Matrix gather_cols(std::span<const std::size_t> indices) const;

  /// Sum of all elements.
  double sum() const noexcept;

  /// Frobenius norm.
  double frobenius_norm() const noexcept;

  /// Maximum absolute element (0 for empty).
  float max_abs() const noexcept;

  bool operator==(const Matrix& rhs) const noexcept = default;

  /// Human-readable dump for debugging/tests (rows capped at `max_rows`).
  std::string to_string(std::size_t max_rows = 8) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

Matrix operator+(Matrix lhs, const Matrix& rhs);
Matrix operator-(Matrix lhs, const Matrix& rhs);
Matrix operator*(Matrix lhs, float scalar);
Matrix operator*(float scalar, Matrix rhs);

/// C = A * B. A register-tiled kernel (a block of C held in vector
/// registers across all of k), compiled for AVX-512, AVX2 and baseline
/// x86-64, the widest the CPU supports picked at first use; OpenMP over
/// row blocks for large products. Every variant returns the bits of the
/// scalar loop c += a*b over k in order from +0, skipping a == 0 terms
/// (see math/gemm.hpp).
Matrix matmul(const Matrix& a, const Matrix& b);

/// C = A^T * B without materializing A^T (the kernel reads A^T in place).
Matrix matmul_at_b(const Matrix& a, const Matrix& b);

// Destination-passing variants: `c` is resized (capacity-preserving) and
// overwritten, so a warm workspace makes them allocation-free. `c` must
// not alias `a` or `b` (std::invalid_argument).

/// C = A * B.
void matmul_into(const Matrix& a, const Matrix& b, Matrix& c);

/// C = A^T * B (or C += A^T * B when `accumulate`; shapes must already
/// match in that case). The accumulate form is the gradient-accumulation
/// kernel for dense-layer weight gradients.
void matmul_at_b_into(const Matrix& a, const Matrix& b, Matrix& c,
                      bool accumulate = false);

/// T = Aᵀ, written tile by tile (a.cols() x a.rows()).
void transpose_into(const Matrix& a, Matrix& t);

/// Gathers the given rows of `src` into `out` (resized, overwritten).
/// `out` must not alias `src`.
void gather_rows_into(const Matrix& src, std::span<const std::size_t> indices,
                      Matrix& out);

/// acc(0, j) += sum over rows of m(:, j). `acc` must be 1 x m.cols().
void add_column_sums(const Matrix& m, Matrix& acc);

/// y = A * x for a vector x (x.size() == A.cols()).
std::vector<float> matvec(const Matrix& a, std::span<const float> x);

/// Adds the row vector `bias` (length == m.cols()) to every row of m.
void add_row_broadcast(Matrix& m, std::span<const float> bias);

/// Column-wise sums, length == m.cols().
std::vector<float> column_sums(const Matrix& m);

/// Column-wise means, length == m.cols(). Requires m.rows() > 0.
std::vector<float> column_means(const Matrix& m);

}  // namespace mev::math
