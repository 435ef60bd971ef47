#include "math/gemm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "math/rng.hpp"

namespace mev::math::gemm {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

// Bitwise equality, except that any NaN equals any NaN: which payload wins
// when two NaNs meet in one term follows the compiled operand order, which
// is not part of the contract.
bool same_bits(float x, float y) {
  if (std::isnan(x) || std::isnan(y)) return std::isnan(x) && std::isnan(y);
  return std::memcmp(&x, &y, sizeof x) == 0;
}

// Index of the first element that differs, or -1.
long first_mismatch(const std::vector<float>& x, const std::vector<float>& y) {
  if (x.size() != y.size()) return 0;
  for (std::size_t i = 0; i < x.size(); ++i)
    if (!same_bits(x[i], y[i])) return static_cast<long>(i);
  return -1;
}

enum class Fill { kDense, kSparse };

// Dense: N(0,1). Sparse: about 60% zeros (a third of them -0), one all-zero
// row (mixed signs), and a few ±Inf and NaN at random places.
std::vector<float> make(std::size_t rows, std::size_t cols, Fill fill,
                        Rng& rng) {
  // Exact size: the buffer ends at the last element, so a read past a
  // column tail lands outside the allocation (caught under ASan).
  std::vector<float> v(rows * cols);
  for (float& x : v) x = static_cast<float>(rng.normal());
  if (fill == Fill::kDense || v.empty()) return v;
  for (float& x : v)
    if (rng.uniform() < 0.6) x = rng.uniform() < 0.33 ? -0.0f : 0.0f;
  const std::size_t zero_row = rng.uniform_index(rows);
  for (std::size_t c = 0; c < cols; ++c)
    v[zero_row * cols + c] = c % 2 ? -0.0f : 0.0f;
  for (const float special : {kInf, -kInf, kNaN})
    for (int t = 0; t < 2; ++t) v[rng.uniform_index(v.size())] = special;
  return v;
}

// Holds -0 and NaN among ordinary values: the accumulate path must keep
// both where every A value of the row is zero.
std::vector<float> make_c(std::size_t rows, std::size_t cols, Rng& rng) {
  std::vector<float> v(rows * cols);
  for (float& x : v) {
    const double u = rng.uniform();
    x = u < 0.1 ? -0.0f : u < 0.15 ? kNaN : static_cast<float>(rng.normal());
  }
  return v;
}

struct Product {
  std::size_t m, n, k;
  bool transposed_a;  // A stored k x m and read as Aᵀ (matmul_at_b_into)
  bool accumulate;
};

std::string describe(const Product& p, Fill fill) {
  std::ostringstream os;
  os << (p.transposed_a ? "At" : "A") << "(" << p.m << "x" << p.k << ")*B("
     << p.k << "x" << p.n << ")" << (p.accumulate ? " accumulate" : "")
     << (fill == Fill::kSparse ? " sparse" : " dense");
  return os.str();
}

std::vector<float> run_variant(Variant v, const Product& p,
                               const std::vector<float>& a,
                               const std::vector<float>& b,
                               const std::vector<float>& c0) {
  std::vector<float> c = p.accumulate ? c0 : std::vector<float>(p.m * p.n);
  Operands op;
  op.a = a.data();
  op.a_row_stride = p.transposed_a ? 1 : p.k;
  op.a_k_stride = p.transposed_a ? p.m : 1;
  op.b = b.data();
  op.c = c.data();
  op.m = p.m;
  op.n = p.n;
  op.k = p.k;
  op.accumulate = p.accumulate;
  run(v, op);
  return c;
}

// Every variant this CPU supports against the baseline on one product.
void expect_variants_agree(const Product& p, Fill fill, Rng& rng) {
  const auto a = p.transposed_a ? make(p.k, p.m, fill, rng)
                                : make(p.m, p.k, fill, rng);
  const auto b = make(p.k, p.n, fill, rng);
  const auto c0 = make_c(p.m, p.n, rng);
  const auto want = run_variant(Variant::kBaseline, p, a, b, c0);
  for (const Variant v : supported()) {
    if (v == Variant::kBaseline) continue;
    const auto got = run_variant(v, p, a, b, c0);
    const long at = first_mismatch(got, want);
    EXPECT_EQ(at, -1) << name(v) << " vs baseline, " << describe(p, fill)
                      << ": element " << at << " is "
                      << (at >= 0 ? got[at] : 0.0f) << ", want "
                      << (at >= 0 ? want[at] : 0.0f);
  }
}

// The three products a dense layer runs, at batch m: forward X·W, input
// gradient δ·Wᵀ (against the packed Wᵀ), and weight gradient Xᵀ·δ in both
// modes.
void expect_layer_agrees(std::size_t m, std::size_t in, std::size_t out,
                         Rng& rng) {
  for (const Fill fill : {Fill::kDense, Fill::kSparse}) {
    expect_variants_agree({m, out, in, false, false}, fill, rng);
    expect_variants_agree({m, in, out, false, false}, fill, rng);
    expect_variants_agree({in, out, m, true, false}, fill, rng);
    expect_variants_agree({in, out, m, true, true}, fill, rng);
  }
}

TEST(Gemm, SelectedVariant) {
  const auto all = supported();
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(all.front(), Variant::kBaseline);
  EXPECT_EQ(selected(), all.back());
  std::string list;
  for (const Variant v : all) {
    if (!list.empty()) list += ",";
    list += name(v);
  }
  RecordProperty("variant", name(selected()));
  RecordProperty("supported", list);
  std::printf("gemm variant: %s (supported: %s)\n", name(selected()),
              list.c_str());
}

TEST(Gemm, BaselineMatchesTheScalarDefinition) {
  // c[i][j] = (c or +0) + a[i][0]*b[0][j] + ... in k order, skipping the
  // terms whose a is zero.
  Rng rng(181);
  const std::size_t shapes[][3] = {{1, 1, 1},  {3, 5, 0},   {5, 17, 33},
                                   {4, 65, 7}, {13, 63, 64}, {2, 2, 491}};
  for (const auto& s : shapes) {
    for (const bool transposed : {false, true}) {
      for (const bool accumulate : {false, true}) {
        const Product p{s[0], s[1], s[2], transposed, accumulate};
        const auto a = transposed ? make(p.k, p.m, Fill::kSparse, rng)
                                  : make(p.m, p.k, Fill::kSparse, rng);
        const auto b = make(p.k, p.n, Fill::kSparse, rng);
        const auto c0 = make_c(p.m, p.n, rng);
        std::vector<float> want =
            accumulate ? c0 : std::vector<float>(p.m * p.n, 0.0f);
        for (std::size_t i = 0; i < p.m; ++i)
          for (std::size_t kk = 0; kk < p.k; ++kk) {
            const float aik = transposed ? a[kk * p.m + i] : a[i * p.k + kk];
            if (aik == 0.0f) continue;
            for (std::size_t j = 0; j < p.n; ++j)
              want[i * p.n + j] += aik * b[kk * p.n + j];
          }
        const auto got = run_variant(Variant::kBaseline, p, a, b, c0);
        EXPECT_EQ(first_mismatch(got, want), -1)
            << describe(p, Fill::kSparse);
      }
    }
  }
}

TEST(Gemm, EveryVariantMatchesBaseline) {
  // The detector (491-128-64-2) and the substitute's "tiny" (491-48-64-48-2)
  // and "fast" (491-192-240-208-2) layers, at every batch size the tile
  // splits differently: whole 4-row blocks, each leftover 1-3, and large.
  const std::vector<std::vector<std::size_t>> nets = {
      {491, 128, 64, 2}, {491, 48, 64, 48, 2}, {491, 192, 240, 208, 2}};
  Rng rng(182);
  for (const auto& widths : nets)
    for (std::size_t l = 0; l + 1 < widths.size(); ++l)
      for (const std::size_t m : {1, 2, 3, 4, 5, 13, 96, 256})
        expect_layer_agrees(m, widths[l], widths[l + 1], rng);
}

TEST(Gemm, EveryVariantMatchesBaselineOnRaggedColumns) {
  // n that ends mid-vector and mid-tile for every vector width.
  Rng rng(183);
  for (const std::size_t n : {1, 2, 15, 17, 33, 63, 65})
    for (const std::size_t m : {1, 2, 3, 4, 5, 13})
      for (const std::size_t k : {0, 1, 3, 17, 491})
        for (const Fill fill : {Fill::kDense, Fill::kSparse}) {
          expect_variants_agree({m, n, k, false, false}, fill, rng);
          expect_variants_agree({m, n, k, true, false}, fill, rng);
          expect_variants_agree({m, n, k, true, true}, fill, rng);
        }
}

}  // namespace
}  // namespace mev::math::gemm
