// Seeded procedural noise for synthetic Earth fields.
//
// Value noise with smooth interpolation, summed over octaves (fBm), defined
// over continuous (x, y) so that cloud fields and continents are consistent
// at any sampling resolution — the same granule sampled at full resolution
// (preprocessing tests) and at coarse resolution (workload estimation for
// the discrete-event benchmarks) sees the same geography.
#pragma once

#include <cstdint>

namespace mfw::modis {

/// Deterministic 2-D value-noise field; cheap and allocation-free.
class NoiseField {
 public:
  /// Caller-owned memo of the four lattice corner values of the cell each
  /// octave sampled last. Neighbouring samples mostly fall in the same cells,
  /// so a sampling loop that threads one memo through its fbm calls skips
  /// most lattice hashing; results stay bit-identical to fresh evaluation.
  /// A memo serves one sampling frame of one field: handed to a field with
  /// another seed, fbm drops its cells first. Keep memos local to a call —
  /// they are what lets a shared const field stay thread-safe.
  class Memo {
   public:
    /// Octaves past this many are evaluated without the memo.
    static constexpr int kOctaves = 8;

   private:
    friend class NoiseField;
    struct Cell {
      bool filled = false;
      std::int64_t ix = 0;
      std::int64_t iy = 0;
      double v00 = 0.0, v10 = 0.0, v01 = 0.0, v11 = 0.0;
    };
    bool bound_ = false;
    std::uint64_t seed_ = 0;
    Cell cells_[kOctaves];
  };

  explicit NoiseField(std::uint64_t seed) : seed_(seed) {}

  /// Smooth noise in [-1, 1] at continuous coordinates.
  double at(double x, double y) const;

  /// Fractional Brownian motion: `octaves` layers, each at double frequency
  /// and `gain` amplitude. Result approximately in [-1, 1].
  double fbm(double x, double y, int octaves, double gain = 0.5,
             double lacunarity = 2.0) const;

  /// fbm reusing (and updating) `memo`; equal to fbm(x, y, octaves, ...).
  double fbm(double x, double y, int octaves, Memo& memo, double gain = 0.5,
             double lacunarity = 2.0) const;

 private:
  /// Noise at (x, y), taking the corner values from `cell` when (x, y) lies
  /// in it and refilling it otherwise.
  double at(double x, double y, Memo::Cell& cell) const;

  /// Hash of integer lattice point -> [-1, 1].
  double lattice(std::int64_t ix, std::int64_t iy) const;

  std::uint64_t seed_;
};

}  // namespace mfw::modis
