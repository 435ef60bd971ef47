// The GEMM kernel behind matmul_into, matmul_at_b_into and their row-range
// forms matmul_rows and add_matmul_at_b_rows.
//
// One register-tiled kernel, compiled for AVX-512, AVX2 and baseline
// x86-64 (the generic 16-byte vector elsewhere). The widest variant the CPU
// supports is picked once, at first use. Every variant computes each C
// element with the same terms in the same order, so all of them return the
// same bits; this header exists so tests can run each variant and compare.
// It is not a setting: library code calls the math/matrix.hpp products.
//
// A GEMM runs on the calling thread; no call here opens an OpenMP region.
// Regions open one level up, around a whole piece of work: an
// InferenceSession pass opens one, and each of its threads multiplies its
// own rows through every layer (matmul_rows, add_matmul_at_b_rows). Rows
// never share an accumulator, so any cut into row ranges gives the bits of
// the whole product.
#pragma once

#include <cstddef>
#include <vector>

namespace mev::math::gemm {

/// C = A·B, or C += A·B when `accumulate`. A is m x k, read as
/// a[i * a_row_stride + kk * a_k_stride], so Aᵀ of a stored matrix is read
/// in place. B is k x n and C is m x n, both row-major and dense. C must
/// not overlap A or B.
struct Operands {
  const float* a = nullptr;
  std::size_t a_row_stride = 0;
  std::size_t a_k_stride = 0;
  const float* b = nullptr;
  float* c = nullptr;
  std::size_t m = 0, n = 0, k = 0;
  bool accumulate = false;
};

enum class Variant { kBaseline, kAvx2, kAvx512 };

/// "baseline", "avx2" or "avx512".
const char* name(Variant v) noexcept;

/// The variants this CPU can run, baseline first.
std::vector<Variant> supported();

/// The variant matmul_into and matmul_at_b_into use: the last of
/// supported(), chosen once.
Variant selected() noexcept;

/// Rows per work item when a caller splits a GEMM by rows: a multiple of
/// every variant's tile height, so a row range cut at block boundaries
/// runs the same tiles the whole product would.
inline constexpr std::size_t kBlockRows = 4;

/// Runs `v` over all rows on the calling thread. `v` must be one of
/// supported().
void run(Variant v, const Operands& op);

}  // namespace mev::math::gemm
