// Seeded procedural noise for synthetic Earth fields.
//
// Value noise with smooth interpolation, summed over octaves (fBm), defined
// over continuous (x, y) so that cloud fields and continents are consistent
// at any sampling resolution — the same granule sampled at full resolution
// (preprocessing tests) and at coarse resolution (workload estimation for
// the discrete-event benchmarks) sees the same geography.
#pragma once

#include <cstdint>
#include <limits>

namespace mfw::modis {

/// A closed interval [lo, hi].
struct Interval {
  double lo = 0.0;
  double hi = 0.0;
};

/// Where a threshold test lands for a set of values (an interval, or the
/// values over a set of points): above the threshold for every one
/// (kAbove), for none (kBelow), or not decided (kUndecided).
enum class Side : std::uint8_t { kBelow, kAbove, kUndecided };

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
    static constexpr double kEmpty = std::numeric_limits<double>::quiet_NaN();
    std::uint64_t seed_ = 0;
    // Octave k's cell: its floor coordinates (NaN while empty, so no sample
    // matches) and its corner values, one array per quantity so that four
    // octaves load as one vector.
    alignas(32) double fx_[kOctaves] = {kEmpty, kEmpty, kEmpty, kEmpty,
                                        kEmpty, kEmpty, kEmpty, kEmpty};
    alignas(32) double fy_[kOctaves] = {};
    alignas(32) double v00_[kOctaves] = {};
    alignas(32) double v10_[kOctaves] = {};
    alignas(32) double v01_[kOctaves] = {};
    alignas(32) double v11_[kOctaves] = {};
  };

  explicit NoiseField(std::uint64_t seed) : seed_(seed) {}

  /// Smooth noise in [-1, 1] at continuous coordinates.
  double at(double x, double y) const;

  /// Fractional Brownian motion: `octaves` layers, octave k sampled at
  /// (x, y) * 2^k with amplitude 2^-k, normalised by the amplitude sum.
  /// Result approximately in [-1, 1].
  double fbm(double x, double y, int octaves) const;

  /// fbm reusing (and updating) `memo`; equal to fbm(x, y, octaves).
  double fbm(double x, double y, int octaves, Memo& memo) const;

  /// Whether fbm(x, y, octaves, memo) + offset > threshold for every offset
  /// in [offset_lo, offset_hi] (kAbove), for none (kBelow) or for some only
  /// (kUndecided); an answer it gives is the full evaluation's for every
  /// such offset. Octaves are evaluated four at a time; after each group it
  /// returns as soon as the octaves still missing, each adding at most its
  /// amplitude, cannot flip the comparison. It answers kUndecided only after
  /// the last octave, with `value` set to fbm(x, y, octaves, memo), so the
  /// caller finishes with its exact offset as `value + offset > threshold`.
  /// With offset_lo == offset_hi it never answers kUndecided.
  Side fbm_above(double x, double y, int octaves, Memo& memo,
                 double offset_lo, double offset_hi, double threshold,
                 double& value) const;

  /// Bounds fbm(x, y, octaves) over the box [x0, x1] x [y0, y1], up to a
  /// few ulps of rounding, from lattice corners hashed fresh (no memo). Per
  /// octave, a box inside one lattice cell is bounded by the noise at its
  /// four corners, a box across at most three cells per axis by the corner
  /// values it touches, and a larger one by [-1, 1].
  Interval fbm_range(double x0, double y0, double x1, double y1,
                     int octaves) const;

 private:
  /// Bounds at(x, y) over the box [x0, x1] x [y0, y1], as fbm_range does
  /// for one octave.
  Interval at_range(double x0, double y0, double x1, double y1) const;

  /// Adds amplitude * noise for octaves [first, last) to `sum` in octave
  /// order and returns it; fbm is add_octaves(..., 0, n, ..., 0.0) divided
  /// by the amplitude sum. `first` is a multiple of four.
  double add_octaves(double x, double y, int first, int last, Memo& memo,
                     double sum) const;

  /// add_octaves four octaves per instruction: x86 with AVX2 only, and
  /// last <= Memo::kOctaves.
  double add_octave_lanes(double x, double y, int first, int last,
                          Memo& memo, double sum) const;

  /// Noise at (x, y) through octave k's memo cell, refilling it when (x, y)
  /// lies in another cell.
  double at(double x, double y, Memo& memo, int k) const;

  /// Makes octave k's memo cell the one with floor corner (fx, fy).
  void fill(Memo& memo, int k, double fx, double fy) const;

  /// Drops the memo's cells unless they were filled by this field.
  void bind(Memo& memo) const;

  /// Hash of integer lattice point -> [-1, 1].
  double lattice(std::int64_t ix, std::int64_t iy) const;

  std::uint64_t seed_;
};

}  // namespace mfw::modis
