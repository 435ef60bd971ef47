// The GEMM kernel behind matmul_into and matmul_at_b_into.
//
// One register-tiled kernel, compiled for AVX-512, AVX2 and baseline
// x86-64 (the generic 16-byte vector elsewhere). The widest variant the CPU
// supports is picked once, at first use. Every variant computes each C
// element with the same terms in the same order, so all of them return the
// same bits; this header exists so tests can run each variant and compare.
// It is not a setting: library code calls matmul_into / matmul_at_b_into.
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

/// Runs `v` over all rows; OpenMP over 4-row blocks when m*n*k > 2^16.
/// `v` must be one of supported().
void run(Variant v, const Operands& op);

}  // namespace mev::math::gemm
