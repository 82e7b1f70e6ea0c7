#include "modis/noise.hpp"

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define MFW_NOISE_X86 1
#include <immintrin.h>
#endif

namespace mfw::modis {

namespace {

// Octaves per AVX2 vector, and so per group that fbm_above evaluates before
// it tests its bound.
constexpr int kLanes = 4;

// Sum of the amplitudes of octaves [0, n), added in octave order: fbm's
// normaliser.
double amplitude_sum(int n) {
  double sum = 0.0;
  double amplitude = 1.0;
  for (int k = 0; k < n; ++k) {
    sum += amplitude;
    amplitude *= 0.5;
  }
  return sum;
}

// Quintic smoothstep keeps first and second derivatives continuous, which
// avoids visible lattice artifacts in the cloud textures.
double smooth(double t) { return t * t * t * (t * (t * 6.0 - 15.0) + 10.0); }

// Noise at (x, y) inside the cell with floor corner (fx, fy) and the given
// corner values.
double blend(double x, double y, double fx, double fy, double v00, double v10,
             double v01, double v11) {
  const double tx = smooth(x - fx);
  const double ty = smooth(y - fy);
  const double a = v00 + (v10 - v00) * tx;
  const double b = v01 + (v11 - v01) * tx;
  return a + (b - a) * ty;
}

#ifdef MFW_NOISE_X86
// Octave k samples at (x, y) * 2^k with amplitude 2^-k. Both are powers of
// two, so the products are exact and equal to repeated doubling and halving.
constexpr double kScale[NoiseField::Memo::kOctaves] = {1,  2,  4,  8,
                                                       16, 32, 64, 128};
constexpr double kAmplitude[NoiseField::Memo::kOctaves] = {
    1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125};

// smooth on four lanes, in its operation order.
__attribute__((target("avx2"))) inline __m256d smooth4(__m256d t) {
  const __m256d t3 = _mm256_mul_pd(_mm256_mul_pd(t, t), t);
  __m256d p = _mm256_sub_pd(_mm256_mul_pd(t, _mm256_set1_pd(6.0)),
                            _mm256_set1_pd(15.0));
  p = _mm256_add_pd(_mm256_mul_pd(t, p), _mm256_set1_pd(10.0));
  return _mm256_mul_pd(t3, p);
}
#endif

bool detect_avx2() {
#ifdef MFW_NOISE_X86
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}
const bool kHaveAvx2 = detect_avx2();

}  // namespace

// lattice, fill and the memoised at are inline so that the octave loops run
// without calls; they are private and used only in this file.
inline double NoiseField::lattice(std::int64_t ix, std::int64_t iy) const {
  const std::uint64_t h = util::mix64(
      seed_, util::mix64(static_cast<std::uint64_t>(ix) * 0x9e3779b97f4a7c15ULL,
                         static_cast<std::uint64_t>(iy)));
  // Map the top 53 bits to [-1, 1].
  return static_cast<double>(h >> 11) * 0x1.0p-52 - 1.0;
}

inline void NoiseField::fill(Memo& memo, int k, double fx, double fy) const {
  const auto ix = static_cast<std::int64_t>(fx);
  const auto iy = static_cast<std::int64_t>(fy);
  memo.fx_[k] = fx;
  memo.fy_[k] = fy;
  memo.v00_[k] = lattice(ix, iy);
  memo.v10_[k] = lattice(ix + 1, iy);
  memo.v01_[k] = lattice(ix, iy + 1);
  memo.v11_[k] = lattice(ix + 1, iy + 1);
}

inline double NoiseField::at(double x, double y, Memo& memo, int k) const {
  const double fx = std::floor(x);
  const double fy = std::floor(y);
  if (!(fx == memo.fx_[k] && fy == memo.fy_[k])) fill(memo, k, fx, fy);
  return blend(x, y, fx, fy, memo.v00_[k], memo.v10_[k], memo.v01_[k],
               memo.v11_[k]);
}

void NoiseField::bind(Memo& memo) const {
  if (memo.seed_ != seed_) {
    memo = Memo{};
    memo.seed_ = seed_;
  }
}

double NoiseField::at(double x, double y) const {
  const double fx = std::floor(x);
  const double fy = std::floor(y);
  const auto ix = static_cast<std::int64_t>(fx);
  const auto iy = static_cast<std::int64_t>(fy);
  return blend(x, y, fx, fy, lattice(ix, iy), lattice(ix + 1, iy),
               lattice(ix, iy + 1), lattice(ix + 1, iy + 1));
}

#ifdef MFW_NOISE_X86
// Lane l of a group holds octave g + l. Every step below is the scalar
// path's operation in its order, one IEEE operation per intrinsic, so each
// lane is bit-identical to `at`. The target is avx2 alone: with fma enabled
// the compiler may contract a * b + c into one rounding.
__attribute__((target("avx2"))) double NoiseField::add_octave_lanes(
    double x, double y, int first, int last, Memo& memo, double sum) const {
  const __m256d vx = _mm256_set1_pd(x);
  const __m256d vy = _mm256_set1_pd(y);
  for (int g = first; g < last; g += kLanes) {
    const __m256d px = _mm256_mul_pd(vx, _mm256_loadu_pd(kScale + g));
    const __m256d py = _mm256_mul_pd(vy, _mm256_loadu_pd(kScale + g));
    constexpr int kFloor = _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC;
    const __m256d fx = _mm256_round_pd(px, kFloor);
    const __m256d fy = _mm256_round_pd(py, kFloor);
    const int lanes = std::min(last - g, kLanes);
    const __m256d hit = _mm256_and_pd(
        _mm256_cmp_pd(fx, _mm256_loadu_pd(memo.fx_ + g), _CMP_EQ_OQ),
        _mm256_cmp_pd(fy, _mm256_loadu_pd(memo.fy_ + g), _CMP_EQ_OQ));
    unsigned miss = ((1u << lanes) - 1u) &
                    ~static_cast<unsigned>(_mm256_movemask_pd(hit));
    if (miss != 0) {
      double cx[kLanes];
      double cy[kLanes];
      _mm256_storeu_pd(cx, fx);
      _mm256_storeu_pd(cy, fy);
      for (; miss != 0; miss &= miss - 1) {
        const int l = __builtin_ctz(miss);
        fill(memo, g + l, cx[l], cy[l]);
      }
    }
    const __m256d tx = smooth4(_mm256_sub_pd(px, fx));
    const __m256d ty = smooth4(_mm256_sub_pd(py, fy));
    const __m256d v00 = _mm256_loadu_pd(memo.v00_ + g);
    const __m256d v10 = _mm256_loadu_pd(memo.v10_ + g);
    const __m256d v01 = _mm256_loadu_pd(memo.v01_ + g);
    const __m256d v11 = _mm256_loadu_pd(memo.v11_ + g);
    const __m256d a =
        _mm256_add_pd(v00, _mm256_mul_pd(_mm256_sub_pd(v10, v00), tx));
    const __m256d b =
        _mm256_add_pd(v01, _mm256_mul_pd(_mm256_sub_pd(v11, v01), tx));
    const __m256d n = _mm256_add_pd(a, _mm256_mul_pd(_mm256_sub_pd(b, a), ty));
    double terms[kLanes];
    _mm256_storeu_pd(terms,
                     _mm256_mul_pd(_mm256_loadu_pd(kAmplitude + g), n));
    for (int l = 0; l < lanes; ++l) sum += terms[l];
  }
  return sum;
}
#endif

inline double NoiseField::add_octaves(double x, double y, int first,
                                      int last, Memo& memo, double sum) const {
#ifdef MFW_NOISE_X86
  if (last <= Memo::kOctaves && kHaveAvx2)
    return add_octave_lanes(x, y, first, last, memo, sum);
#endif
  double amplitude = 1.0;
  double fx = x;
  double fy = y;
  for (int k = 0; k < last; ++k) {
    if (k >= first)
      sum += amplitude *
             (k < Memo::kOctaves ? at(fx, fy, memo, k) : at(fx, fy));
    amplitude *= 0.5;
    fx *= 2.0;
    fy *= 2.0;
  }
  return sum;
}

double NoiseField::fbm(double x, double y, int octaves) const {
  Memo memo;
  return fbm(x, y, octaves, memo);
}

double NoiseField::fbm(double x, double y, int octaves, Memo& memo) const {
  bind(memo);
  const double norm = amplitude_sum(octaves);
  const double sum = add_octaves(x, y, 0, octaves, memo, 0.0);
  return norm > 0 ? sum / norm : 0.0;
}

Side NoiseField::fbm_above(double x, double y, int octaves, Memo& memo,
                           double offset_lo, double offset_hi,
                           double threshold, double& value) const {
  bind(memo);
  const double norm = amplitude_sum(octaves);
  double sum = 0.0;
  for (int done = 0; done < octaves;) {
    const int next = std::min(done + kLanes, octaves);
    sum = add_octaves(x, y, done, next, memo, sum);
    done = next;
    if (done == octaves) break;
    // Each octave still missing adds at most its amplitude (|noise| <= 1)
    // to sum; the slack covers the roundings of both sides.
    const double rest =
        (norm - amplitude_sum(done)) / norm * (1.0 + 1e-6) + 1e-12;
    const double estimate = sum / norm;
    if (estimate + offset_lo - rest > threshold) return Side::kAbove;
    if (estimate + offset_hi + rest < threshold) return Side::kBelow;
  }
  // Rounded addition is monotone, so value + offset lies between the two
  // ends for every offset in the interval.
  value = norm > 0 ? sum / norm : 0.0;
  if (value + offset_lo > threshold) return Side::kAbove;
  if (!(value + offset_hi > threshold)) return Side::kBelow;
  return Side::kUndecided;
}

Interval NoiseField::at_range(double x0, double y0, double x1,
                              double y1) const {
  const double fx0 = std::floor(x0);
  const double fy0 = std::floor(y0);
  const double fx1 = std::floor(x1);
  const double fy1 = std::floor(y1);
  if (!(fx1 - fx0 <= 2.0 && fy1 - fy0 <= 2.0)) return {-1.0, 1.0};
  const auto ix = static_cast<std::int64_t>(fx0);
  const auto iy = static_cast<std::int64_t>(fy0);
  if (fx0 == fx1 && fy0 == fy1) {
    // Inside one cell the noise is bilinear in smooth(x - fx) and
    // smooth(y - fy), and smooth is monotone on [0, 1]: its extremes over
    // the box are at the box's corners.
    const double v00 = lattice(ix, iy);
    const double v10 = lattice(ix + 1, iy);
    const double v01 = lattice(ix, iy + 1);
    const double v11 = lattice(ix + 1, iy + 1);
    const double c[] = {blend(x0, y0, fx0, fy0, v00, v10, v01, v11),
                        blend(x1, y0, fx0, fy0, v00, v10, v01, v11),
                        blend(x0, y1, fx0, fy0, v00, v10, v01, v11),
                        blend(x1, y1, fx0, fy0, v00, v10, v01, v11)};
    return {std::min({c[0], c[1], c[2], c[3]}),
            std::max({c[0], c[1], c[2], c[3]})};
  }
  // Within each cell the noise is a convex combination of the cell's
  // corners, so the corners the box touches bound it.
  const auto nx = static_cast<std::int64_t>(fx1 - fx0);
  const auto ny = static_cast<std::int64_t>(fy1 - fy0);
  Interval range{1.0, -1.0};
  for (std::int64_t i = 0; i <= nx + 1; ++i) {
    for (std::int64_t j = 0; j <= ny + 1; ++j) {
      const double v = lattice(ix + i, iy + j);
      range.lo = std::min(range.lo, v);
      range.hi = std::max(range.hi, v);
    }
  }
  return range;
}

Interval NoiseField::fbm_range(double x0, double y0, double x1, double y1,
                               int octaves) const {
  const double norm = amplitude_sum(octaves);
  if (!(norm > 0)) return {};
  Interval sum;
  double amplitude = 1.0;
  for (int k = 0; k < octaves; ++k) {
    const Interval r = at_range(x0, y0, x1, y1);
    sum.lo += amplitude * r.lo;
    sum.hi += amplitude * r.hi;
    amplitude *= 0.5;
    x0 *= 2.0;
    y0 *= 2.0;
    x1 *= 2.0;
    y1 *= 2.0;
  }
  return {sum.lo / norm, sum.hi / norm};
}

}  // namespace mfw::modis
