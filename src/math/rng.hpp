// Deterministic pseudo-random number generation for reproducible experiments.
//
// All stochastic components of the library (synthetic data generation, weight
// initialization, mini-batch shuffling, random-addition attacks) draw from
// mev::math::Rng so that every experiment is exactly reproducible from a
// 64-bit seed. The generator is xoshiro256**, seeded via SplitMix64.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace mev::math {

/// xoshiro256** generator with distribution helpers.
///
/// Satisfies the UniformRandomBitGenerator requirements, so it can also be
/// used with <random> facilities, but the member distributions below are
/// preferred: they are guaranteed stable across standard-library versions,
/// which <random> distributions are not.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit lanes from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  /// Next raw 64-bit value.
  result_type operator()() noexcept { return next(); }
  result_type next() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;
  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n) noexcept;
  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Standard normal via Marsaglia polar method (cached pair).
  double normal() noexcept;
  /// Normal with the given mean and standard deviation (stddev >= 0).
  double normal(double mean, double stddev) noexcept;

  /// Bernoulli draw with success probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept;

  /// Poisson draw. Uses Knuth multiplication for small lambda and a
  /// normal approximation with continuity correction for lambda > 30.
  std::uint32_t poisson(double lambda) noexcept;

  /// Gamma(shape k > 0, scale theta > 0) via Marsaglia-Tsang.
  double gamma(double shape, double scale) noexcept;

  /// Exponential with the given rate (> 0).
  double exponential(double rate) noexcept;

  /// Fisher-Yates shuffle of an index span.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = uniform_index(i);
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace mev::math
