// Deterministic, seedable random number generation for simulation and
// synthetic data. We implement xoshiro256** (public-domain algorithm by
// Blackman & Vigna) rather than relying on std::mt19937 so that streams are
// cheap to split per-entity (per worker, per granule) and results are
// reproducible across standard library implementations.
#pragma once

#include <cmath>
#include <cstdint>
#include <numbers>

namespace mfw::util {

/// SplitMix64: used to seed xoshiro streams and to hash integers into seeds.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Stateless 64-bit mix, handy for deriving per-entity seeds from
/// (base_seed, entity_id) pairs.
inline std::uint64_t mix64(std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  return splitmix64(s);
}

/// xoshiro256** PRNG. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9b1a5d3c7e2f4680ULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : s_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>((*this)() % span);
  }

  /// The two uniforms one normal() consumes, in its order: u1 in (0, 1),
  /// redrawn while it is 0, then u2 in [0, 1).
  struct NormalDraw {
    double u1 = 0.0;
    double u2 = 0.0;
  };
  NormalDraw normal_draw() {
    double u1 = uniform();
    while (u1 <= 0.0) u1 = uniform();
    return {u1, uniform()};
  }

  /// The Box-Muller normal of one draw: sqrt(-2 log u1) cos(2 pi u2).
  static double box_muller(double u1, double u2) {
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * std::numbers::pi * u2);
  }

  /// Standard normal: box_muller of one normal_draw. MOD02's radiance noise
  /// draws a swath row's pairs in a batch, normal_draw by normal_draw, and
  /// decides most values from an approximation of box_muller (see
  /// modis::noisy_radiance); both must stay exactly this draw order and this
  /// expression, or every MOD02 byte changes.
  double normal() {
    const NormalDraw d = normal_draw();
    return box_muller(d.u1, d.u2);
  }

  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  /// Lognormal such that the *median* of the distribution is `median` and the
  /// log-space standard deviation is `sigma`. Used for network throughput
  /// variability.
  double lognormal_median(double median, double sigma) {
    return median * std::exp(sigma * normal());
  }

  /// Exponential with the given mean (> 0).
  double exponential(double mean) {
    double u = uniform();
    while (u <= 0.0) u = uniform();
    return -mean * std::log(u);
  }

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p) { return uniform() < p; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4]{};
};

}  // namespace mfw::util
