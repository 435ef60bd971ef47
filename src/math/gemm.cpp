#include "math/gemm.hpp"

#include <stdexcept>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define MEV_GEMM_X86 1
#endif

// Every variant returns the bits of the scalar reference
//
//   c = accumulate ? c : +0;  for kk in 0..k-1: if (a[kk] != 0) c += a[kk]*b
//
// for each C element, because every tile keeps three rules:
//  * it sums the k terms of an element in k order, in its own accumulator;
//  * each term is one multiply and then one add, never an FMA. The build
//    sets -ffp-contract=off: with GCC's default, a plain x*b + acc inside
//    target("avx512f") (which implies FMA) is fused and rounds once
//    instead of twice. The AVX-512 variant's masked-add intrinsic is not
//    contracted today, but nothing here relies on that;
//  * a row whose A value is 0 keeps its accumulators untouched (a masked
//    add or a branch), as the reference skips that term. Adding the ±0
//    product instead would turn a -0 accumulator into +0, and 0·Inf into
//    NaN.
// Rows never share an accumulator, so row blocks and column tiles can be
// cut anywhere without changing a bit.

namespace mev::math::gemm {

namespace {

// Per-ISA pieces: the vector type, the tile shape, how a zero A value
// skips its row, and the masked tail load/store (a partial last vector
// never reads or writes past the row). Everything else is the one kernel
// below.
//
// The tile shape follows the register file. AVX-512 has 32 registers: 4
// rows x 4 vectors of accumulators, each B vector loaded once per k and
// reused by the 4 rows, and a zero row costs nothing (merge-masked add).
// With 16 registers and no masked add, 4 rows would need a branch per row
// per column tile and k; one row x 8 vectors branches once per k and tile.
struct Baseline {
  using V = float __attribute__((vector_size(16)));
  static constexpr std::size_t kLanes = 4;
  static constexpr std::size_t kRows = 1;
  static constexpr std::size_t kTileVecs = 8;
  static constexpr bool kMaskedAdd = false;
  // lanes is 1..3. Spelled out so the compiler cannot turn it into a
  // memcpy call inside the k loop.
  static void load_tail(V& v, const float* p, std::size_t lanes) {
    v = V{};
    switch (lanes) {
      case 3: v[2] = p[2]; [[fallthrough]];
      case 2: v[1] = p[1]; [[fallthrough]];
      default: v[0] = p[0];
    }
  }
  static void store_tail(float* p, const V& v, std::size_t lanes) {
    switch (lanes) {
      case 3: p[2] = v[2]; [[fallthrough]];
      case 2: p[1] = v[1]; [[fallthrough]];
      default: p[0] = v[0];
    }
  }
};

#ifdef MEV_GEMM_X86
struct Avx2 {
  using V = float __attribute__((vector_size(32)));
  static constexpr std::size_t kLanes = 8;
  static constexpr std::size_t kRows = 1;
  static constexpr std::size_t kTileVecs = 8;
  static constexpr bool kMaskedAdd = false;
  [[gnu::target("avx2")]] static __m256i mask(std::size_t lanes) {
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(lanes)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  [[gnu::target("avx2")]] static void load_tail(V& v, const float* p,
                                                std::size_t lanes) {
    v = reinterpret_cast<V>(_mm256_maskload_ps(p, mask(lanes)));
  }
  [[gnu::target("avx2")]] static void store_tail(float* p, const V& v,
                                                 std::size_t lanes) {
    _mm256_maskstore_ps(p, mask(lanes), reinterpret_cast<__m256>(v));
  }
};

struct Avx512 {
  using V = float __attribute__((vector_size(64)));
  static constexpr std::size_t kLanes = 16;
  static constexpr std::size_t kRows = 4;
  static constexpr std::size_t kTileVecs = 4;
  static constexpr bool kMaskedAdd = true;
  [[gnu::target("avx512f")]] static void load_tail(V& v, const float* p,
                                                   std::size_t lanes) {
    v = reinterpret_cast<V>(_mm512_maskz_loadu_ps(
        static_cast<__mmask16>((1u << lanes) - 1), p));
  }
  [[gnu::target("avx512f")]] static void store_tail(float* p, const V& v,
                                                    std::size_t lanes) {
    _mm512_mask_storeu_ps(p, static_cast<__mmask16>((1u << lanes) - 1),
                          reinterpret_cast<__m512>(v));
  }
  // acc = p + acc, or acc untouched when a == 0: one merge-masked add.
  [[gnu::target("avx512f")]] static void add_unless_zero(V& acc, const V& p,
                                                         float a) {
    const auto keep = static_cast<__mmask16>(a != 0.0f ? 0xFFFF : 0);
    acc = reinterpret_cast<V>(_mm512_mask_add_ps(
        reinterpret_cast<__m512>(acc), keep, reinterpret_cast<__m512>(p),
        reinterpret_cast<__m512>(acc)));
  }
};
#endif

static_assert(kBlockRows % Baseline::kRows == 0);
#ifdef MEV_GEMM_X86
static_assert(kBlockRows % Avx2::kRows == 0);
static_assert(kBlockRows % Avx512::kRows == 0);
#endif

// The one kernel. It is written once and reaches each ISA only by being
// inlined (gnu::flatten) into that ISA's entry point below, which carries
// the target attribute; no out-of-line copy of it is ever called.
template <class Isa>
struct Kernel {
  using V = typename Isa::V;
  static constexpr std::size_t kLanes = Isa::kLanes;
  static constexpr std::size_t kVecs = Isa::kTileVecs;

  // C[i, i+R) x [j, j + NV*kLanes) held in registers across all of k (the
  // fully unrolled loops let the compiler keep acc[][] out of memory).
  // With `Tail`, the last vector covers only `tail` lanes.
  template <std::size_t R, std::size_t NV, bool Tail>
  static void tile(const Operands& op, std::size_t i, std::size_t j,
                   std::size_t tail) {
    const auto load = [tail](V& v, const float* p, std::size_t vec) {
      if (Tail && vec == NV - 1)
        Isa::load_tail(v, p, tail);
      else
        __builtin_memcpy(&v, p, sizeof v);
    };
    V acc[R][NV];
    float* c = op.c + i * op.n + j;
#pragma GCC unroll 16
    for (std::size_t r = 0; r < R; ++r)
#pragma GCC unroll 16
      for (std::size_t v = 0; v < NV; ++v) {
        if (op.accumulate)
          load(acc[r][v], c + r * op.n + v * kLanes, v);
        else
          acc[r][v] = V{};
      }
    const float* a = op.a + i * op.a_row_stride;
    const float* b = op.b + j;
    for (std::size_t kk = 0; kk < op.k;
         ++kk, a += op.a_k_stride, b += op.n) {
      float av[R];
      bool any = false;
#pragma GCC unroll 16
      for (std::size_t r = 0; r < R; ++r) {
        av[r] = a[r * op.a_row_stride];
        any |= av[r] != 0.0f;
      }
      if (!any) continue;  // feature vectors are sparse
      V bv[NV];
#pragma GCC unroll 16
      for (std::size_t v = 0; v < NV; ++v) load(bv[v], b + v * kLanes, v);
#pragma GCC unroll 16
      for (std::size_t r = 0; r < R; ++r) {
        if (!Isa::kMaskedAdd && av[r] == 0.0f) continue;
        const V x = av[r] - V{};  // a broadcast: x - (+0) is x, even for -0
#pragma GCC unroll 16
        for (std::size_t v = 0; v < NV; ++v) {
          if constexpr (Isa::kMaskedAdd)
            Isa::add_unless_zero(acc[r][v], x * bv[v], av[r]);
          else
            acc[r][v] = x * bv[v] + acc[r][v];
        }
      }
    }
#pragma GCC unroll 16
    for (std::size_t r = 0; r < R; ++r)
#pragma GCC unroll 16
      for (std::size_t v = 0; v < NV; ++v) {
        float* p = c + r * op.n + v * kLanes;
        if (Tail && v == NV - 1)
          Isa::store_tail(p, acc[r][v], tail);
        else
          __builtin_memcpy(p, &acc[r][v], sizeof(V));
      }
  }

  // Columns [j, n), fewer than one full tile: the narrowest tile that
  // covers them, its last vector partial when they are not whole vectors.
  template <std::size_t R, std::size_t NV = kVecs>
  static void edge(const Operands& op, std::size_t i, std::size_t j) {
    if constexpr (NV > 0) {
      const std::size_t rest = op.n - j;
      if (rest <= (NV - 1) * kLanes) return edge<R, NV - 1>(op, i, j);
      const std::size_t tail = rest - (NV - 1) * kLanes;
      if (tail == kLanes)
        tile<R, NV, false>(op, i, j, 0);
      else
        tile<R, NV, true>(op, i, j, tail);
    }
  }

  // Rows [i, i+R), every column.
  template <std::size_t R>
  static void block(const Operands& op, std::size_t i) {
    constexpr std::size_t kCols = kVecs * kLanes;
    std::size_t j = 0;
    for (; j + kCols <= op.n; j += kCols) tile<R, kVecs, false>(op, i, j, 0);
    if (j < op.n) edge<R>(op, i, j);
  }

  // The rows left after whole kRows blocks: one block of exactly that many.
  template <std::size_t R = Isa::kRows - 1>
  static void leftover(const Operands& op, std::size_t i, std::size_t rows) {
    if constexpr (R > 0) {
      if (rows == R) return block<R>(op, i);
      leftover<R - 1>(op, i, rows);
    }
  }

  static void rows(const Operands& op, std::size_t begin, std::size_t end) {
    std::size_t i = begin;
    for (; i + Isa::kRows <= end; i += Isa::kRows) block<Isa::kRows>(op, i);
    leftover(op, i, end - i);
  }
};

using RowsFn = void (*)(const Operands&, std::size_t, std::size_t);

[[gnu::flatten]] void rows_baseline(const Operands& op, std::size_t begin,
                                    std::size_t end) {
  Kernel<Baseline>::rows(op, begin, end);
}

#ifdef MEV_GEMM_X86
[[gnu::flatten, gnu::target("avx2")]] void rows_avx2(const Operands& op,
                                                     std::size_t begin,
                                                     std::size_t end) {
  Kernel<Avx2>::rows(op, begin, end);
}

[[gnu::flatten, gnu::target("avx512f")]] void rows_avx512(
    const Operands& op, std::size_t begin, std::size_t end) {
  Kernel<Avx512>::rows(op, begin, end);
}
#endif

RowsFn rows_fn(Variant v) {
  switch (v) {
#ifdef MEV_GEMM_X86
    case Variant::kAvx2: return rows_avx2;
    case Variant::kAvx512: return rows_avx512;
#endif
    case Variant::kBaseline: return rows_baseline;
    default: throw std::invalid_argument("gemm: variant not built");
  }
}

}  // namespace

const char* name(Variant v) noexcept {
  switch (v) {
    case Variant::kAvx2: return "avx2";
    case Variant::kAvx512: return "avx512";
    case Variant::kBaseline: break;
  }
  return "baseline";
}

std::vector<Variant> supported() {
  std::vector<Variant> out{Variant::kBaseline};
#ifdef MEV_GEMM_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) out.push_back(Variant::kAvx2);
  if (__builtin_cpu_supports("avx512f")) out.push_back(Variant::kAvx512);
#endif
  return out;
}

Variant selected() noexcept {
  static const Variant chosen = supported().back();
  return chosen;
}

void run(Variant v, const Operands& op) { rows_fn(v)(op, 0, op.m); }

}  // namespace mev::math::gemm
