#include "modis/noise.hpp"

#include <cmath>

#include "util/rng.hpp"

namespace mfw::modis {

namespace {
// Quintic smoothstep keeps first and second derivatives continuous, which
// avoids visible lattice artifacts in the cloud textures.
double smooth(double t) { return t * t * t * (t * (t * 6.0 - 15.0) + 10.0); }
}  // namespace

// lattice and the memoised at are inline so that fbm's octave loop runs
// without calls; they are private and used only in this file.
inline double NoiseField::lattice(std::int64_t ix, std::int64_t iy) const {
  const std::uint64_t h = util::mix64(
      seed_, util::mix64(static_cast<std::uint64_t>(ix) * 0x9e3779b97f4a7c15ULL,
                         static_cast<std::uint64_t>(iy)));
  // Map the top 53 bits to [-1, 1].
  return static_cast<double>(h >> 11) * 0x1.0p-52 - 1.0;
}

inline double NoiseField::at(double x, double y, Memo::Cell& cell) const {
  const double fx = std::floor(x);
  const double fy = std::floor(y);
  const auto ix = static_cast<std::int64_t>(fx);
  const auto iy = static_cast<std::int64_t>(fy);
  if (!cell.filled || cell.ix != ix || cell.iy != iy) {
    cell.filled = true;
    cell.ix = ix;
    cell.iy = iy;
    cell.v00 = lattice(ix, iy);
    cell.v10 = lattice(ix + 1, iy);
    cell.v01 = lattice(ix, iy + 1);
    cell.v11 = lattice(ix + 1, iy + 1);
  }
  const double tx = smooth(x - fx);
  const double ty = smooth(y - fy);
  const double a = cell.v00 + (cell.v10 - cell.v00) * tx;
  const double b = cell.v01 + (cell.v11 - cell.v01) * tx;
  return a + (b - a) * ty;
}

double NoiseField::at(double x, double y) const {
  Memo::Cell cell;
  return at(x, y, cell);
}

double NoiseField::fbm(double x, double y, int octaves, double gain,
                       double lacunarity) const {
  Memo memo;
  return fbm(x, y, octaves, memo, gain, lacunarity);
}

double NoiseField::fbm(double x, double y, int octaves, Memo& memo,
                       double gain, double lacunarity) const {
  if (!memo.bound_ || memo.seed_ != seed_) {
    memo = Memo{};
    memo.bound_ = true;
    memo.seed_ = seed_;
  }
  double sum = 0.0;
  double amplitude = 1.0;
  double norm = 0.0;
  double fx = x;
  double fy = y;
  for (int i = 0; i < octaves; ++i) {
    sum += amplitude *
           (i < Memo::kOctaves ? at(fx, fy, memo.cells_[i]) : at(fx, fy));
    norm += amplitude;
    amplitude *= gain;
    fx *= lacunarity;
    fy *= lacunarity;
  }
  return norm > 0 ? sum / norm : 0.0;
}

}  // namespace mfw::modis
