#include "modis/products.hpp"

#include <algorithm>
#include <array>
#include <bitset>
#include <charconv>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <numbers>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "util/rng.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define MFW_PRODUCTS_X86 1
#include <immintrin.h>
#endif

namespace mfw::modis {

namespace {

// Threshold on the continent noise chosen empirically for ~30% land.
constexpr double kLandThreshold = 0.18;

double day_fraction(const GranuleSpec& spec, double row_frac) {
  return (static_cast<double>(spec.slot) + row_frac) / kSlotsPerDay;
}

void check_spec(const GranuleSpec& spec) {
  if (spec.slot < 0 || spec.slot >= kSlotsPerDay)
    throw std::invalid_argument("granule slot out of range");
  if (spec.geometry.rows <= 0 || spec.geometry.cols <= 0 ||
      spec.geometry.bands <= 0)
    throw std::invalid_argument("granule geometry must be positive");
  if (spec.day_of_year < 1 || spec.day_of_year > 366)
    throw std::invalid_argument("day_of_year out of range");
}

std::vector<std::uint64_t> grid_shape(const GranuleSpec& spec) {
  return {static_cast<std::uint64_t>(spec.geometry.rows),
          static_cast<std::uint64_t>(spec.geometry.cols)};
}

void put_spec_attrs(storage::HdflFile& file, const GranuleSpec& spec,
                    const char* product) {
  auto& attrs = file.attrs();
  attrs["product"] = product;
  attrs["satellite"] = satellite_name(spec.satellite);
  attrs["year"] = std::to_string(spec.year);
  attrs["day_of_year"] = std::to_string(spec.day_of_year);
  attrs["slot"] = std::to_string(spec.slot);
  attrs["rows"] = std::to_string(spec.geometry.rows);
  attrs["cols"] = std::to_string(spec.geometry.cols);
  attrs["bands"] = std::to_string(spec.geometry.bands);
}

GranuleSpec spec_from_attrs(const storage::HdflFile& file) {
  const auto& attrs = file.attrs();
  auto get = [&](const char* key) -> const std::string& {
    const auto it = attrs.find(key);
    if (it == attrs.end())
      throw storage::FormatError(std::string("granule missing attr ") + key);
    return it->second;
  };
  auto get_int = [&](const char* key, int min, int max) {
    const std::string& text = get(key);
    int value = 0;
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc{} || end != text.data() + text.size())
      throw storage::FormatError(std::string("granule attr ") + key +
                                 " is not an int: '" + text + "'");
    if (value < min || value > max)
      throw storage::FormatError(std::string("granule attr ") + key + " " +
                                 text + " is outside [" + std::to_string(min) +
                                 ", " + std::to_string(max) + "]");
    return value;
  };
  constexpr int kIntMax = std::numeric_limits<int>::max();
  GranuleSpec spec;
  const std::string& satellite = get("satellite");
  if (satellite == satellite_name(Satellite::kTerra))
    spec.satellite = Satellite::kTerra;
  else if (satellite == satellite_name(Satellite::kAqua))
    spec.satellite = Satellite::kAqua;
  else
    throw storage::FormatError("granule attr satellite is neither Terra nor "
                               "Aqua: '" + satellite + "'");
  // check_spec's ranges, and a year that GranuleId::filename prints in its
  // four digits, so that a tile file names a granule that parses back.
  spec.year = get_int("year", 0, 9999);
  spec.day_of_year = get_int("day_of_year", 1, 366);
  spec.slot = get_int("slot", 0, kSlotsPerDay - 1);
  spec.geometry.rows = get_int("rows", 1, kIntMax);
  spec.geometry.cols = get_int("cols", 1, kIntMax);
  spec.geometry.bands = get_int("bands", 1, kIntMax);
  return spec;
}

// The geometry comes from attributes, which no CRC covers, so every dataset
// is checked against it here rather than indexed past later: `name` must
// hold `layers` grids of rows x cols elements.
const storage::Dataset& grid_dataset(const storage::HdflFile& file,
                                     const GranuleGeometry& geometry,
                                     const char* name, int layers = 1) {
  const auto& ds = file.dataset(name);
  std::size_t expected = 0;
  if (__builtin_mul_overflow(geometry.rows, geometry.cols, &expected) ||
      __builtin_mul_overflow(expected, layers, &expected) ||
      ds.element_count() != expected)
    throw storage::FormatError(
        std::string("granule dataset ") + name + " holds " +
        std::to_string(ds.element_count()) + " elements, geometry " +
        std::to_string(layers) + "x" + std::to_string(geometry.rows) + "x" +
        std::to_string(geometry.cols) + " needs their product");
  return ds;
}

// Cloudiness added by latitude: the ITCZ band and mid-latitude storm tracks.
double cloud_climatology(double lat) {
  const double lat_rad = lat * std::numbers::pi / 180.0;
  return 0.18 * std::exp(-std::pow(lat / 12.0, 2)) +
         0.22 * std::exp(-std::pow((std::abs(lat) - 52.0) / 16.0, 2)) +
         0.05 * std::cos(2.0 * lat_rad);
}

// Added to the continents field by the land test: pushes land away from the
// poles a little (Southern Ocean / Arctic ocean).
double polar_offset(double lat) {
  return 0.10 * std::cos(lat * std::numbers::pi / 90.0);
}

// Octaves of the continents field, and its sampling frame: scaled so that
// continents span ~40-80 degrees.
constexpr int kContinentOctaves = 5;
double continents_x(double lon) { return lon / 42.0; }
double continents_y(double lat) { return lat / 30.0; }

// Latitude cells of LatitudeTable, each with a node at either end.
constexpr int kLatitudeCells = 180 * LatitudeTable::kNodesPerDegree;

#ifdef MFW_PRODUCTS_X86
// fdlibm's minimax coefficients, highest power first: Lg7, Lg5, Lg3, Lg1
// and Lg6, Lg4, Lg2 of e_log.c, S6..S1 of k_sin.c and C6..C1 of k_cos.c.
// Each kernel is within about one ulp.
constexpr double kLogOdd[] = {
    1.479819860511658591e-01, 1.818357216161805012e-01,
    2.857142874366239149e-01, 6.666666666666735130e-01};
constexpr double kLogEven[] = {1.531383769920937332e-01,
                               2.222219843214978396e-01,
                               3.999999999940941908e-01};
constexpr double kSin[] = {
    1.58969099521155010221e-10, -2.50507602534068634195e-08,
    2.75573137070700676789e-06, -1.98412698298579493134e-04,
    8.33333333332248946124e-03, -1.66666666666666324348e-01};
constexpr double kCos[] = {
    -1.13596475577881948265e-11, 2.08757232129817482790e-09,
    -2.75573143513906633035e-07, 2.48015872894767294178e-05,
    -1.38888888888741095749e-03, 4.16666666666666019037e-02};

// The polynomial with coefficients c (highest power first) at x.
template <std::size_t N>
__attribute__((target("avx2,fma"))) inline __m256d horner(
    __m256d x, const double (&c)[N]) {
  __m256d p = _mm256_set1_pd(c[0]);
  for (std::size_t i = 1; i < N; ++i)
    p = _mm256_fmadd_pd(p, x, _mm256_set1_pd(c[i]));
  return p;
}

// util::Rng::box_muller on four lanes, with the fdlibm kernels in place of
// libm's log and cos. Its error against box_muller is measured by
// Radiance.ApproximateNormalsWithinBound.
__attribute__((target("avx2,fma"))) inline __m256d box_muller4(__m256d u1,
                                                               __m256d u2) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d half = _mm256_set1_pd(0.5);
  // log(u1): u1 = 2^k m with m in [1, 2), moved to (sqrt(2)/2, sqrt(2)] so
  // that f = m - 1 (exact) is small; log(u1) = k ln 2 + log(1 + f). u1 is
  // positive and normal (at least 2^-53), so its exponent field is k + 1023;
  // set as the low bits of 2^52 it reads 2^52 + k + 1023 exactly.
  const __m256i bits = _mm256_castpd_si256(u1);
  __m256d m = _mm256_castsi256_pd(_mm256_or_si256(
      _mm256_and_si256(bits, _mm256_set1_epi64x(0x000fffffffffffffLL)),
      _mm256_set1_epi64x(0x3ff0000000000000LL)));
  __m256d k = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(
          _mm256_srli_epi64(bits, 52),
          _mm256_set1_epi64x(0x4330000000000000LL))),
      _mm256_set1_pd(0x1p52 + 1023.0));
  const __m256d big =
      _mm256_cmp_pd(m, _mm256_set1_pd(std::numbers::sqrt2), _CMP_GT_OQ);
  m = _mm256_blendv_pd(m, _mm256_mul_pd(m, half), big);
  k = _mm256_add_pd(k, _mm256_and_pd(big, one));
  const __m256d f = _mm256_sub_pd(m, one);
  // log(1 + f) = f - (f^2/2 - s (f^2/2 + R)) with s = f / (2 + f), z = s^2
  // and R = z Lg_odd(z^2) + z^2 Lg_even(z^2).
  const __m256d s = _mm256_div_pd(f, _mm256_add_pd(_mm256_set1_pd(2.0), f));
  const __m256d z = _mm256_mul_pd(s, s);
  const __m256d w = _mm256_mul_pd(z, z);
  const __m256d r = _mm256_add_pd(_mm256_mul_pd(z, horner(w, kLogOdd)),
                                  _mm256_mul_pd(w, horner(w, kLogEven)));
  const __m256d hfsq = _mm256_mul_pd(_mm256_mul_pd(half, f), f);
  // ln 2 = ln2_hi + ln2_lo; k ln2_hi is exact for |k| < 2^11.
  const __m256d ln2_hi = _mm256_set1_pd(6.93147180369123816490e-01);
  const __m256d ln2_lo = _mm256_set1_pd(1.90821492927058770002e-10);
  const __m256d tail = _mm256_sub_pd(
      _mm256_sub_pd(hfsq, _mm256_fmadd_pd(s, _mm256_add_pd(hfsq, r),
                                          _mm256_mul_pd(k, ln2_lo))),
      f);
  const __m256d log_u1 = _mm256_sub_pd(_mm256_mul_pd(k, ln2_hi), tail);
  const __m256d radius =
      _mm256_sqrt_pd(_mm256_mul_pd(_mm256_set1_pd(-2.0), log_u1));

  // cos(x) for box_muller's own argument x = 2 pi u2 in [0, 2 pi): with q
  // the nearest multiple of pi/2, theta = x - q pi/2 in [-pi/4, pi/4] by
  // Cody-Waite. pio2_1 has 33 significant bits, so q pio2_1 is exact for
  // q <= 4 and x - q pio2_1 is exact (Sterbenz); pio2_1t = pi/2 - pio2_1.
  const __m256d x = _mm256_mul_pd(u2, _mm256_set1_pd(2.0 * std::numbers::pi));
  const __m256d q = _mm256_round_pd(
      _mm256_mul_pd(x, _mm256_set1_pd(2.0 / std::numbers::pi)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m256d theta = _mm256_fnmadd_pd(
      q, _mm256_set1_pd(6.07710050650619224932e-11),
      _mm256_fnmadd_pd(q, _mm256_set1_pd(0x1.921fb544p+0), x));
  const __m256d t2 = _mm256_mul_pd(theta, theta);
  // sin(theta) = theta + theta^3 S(t2).
  const __m256d sin_t =
      _mm256_fmadd_pd(_mm256_mul_pd(t2, theta), horner(t2, kSin), theta);
  // cos(theta) = (1 - t2/2) + t2^2 C(t2), with the rounding error of
  // 1 - t2/2 added back.
  const __m256d hz = _mm256_mul_pd(half, t2);
  const __m256d w1 = _mm256_sub_pd(one, hz);
  const __m256d cos_t = _mm256_add_pd(
      w1, _mm256_fmadd_pd(_mm256_mul_pd(t2, t2), horner(t2, kCos),
                          _mm256_sub_pd(_mm256_sub_pd(one, w1), hz)));
  // cos(x) by quadrant: cos, -sin, -cos, sin for q mod 4 = 0, 1, 2, 3.
  const __m256i qi = _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(q));
  const __m256i one_i = _mm256_set1_epi64x(1);
  const __m256d use_sin = _mm256_castsi256_pd(
      _mm256_cmpeq_epi64(_mm256_and_si256(qi, one_i), one_i));
  const __m256i sign = _mm256_slli_epi64(
      _mm256_and_si256(_mm256_add_epi64(qi, one_i), _mm256_set1_epi64x(2)),
      62);
  const __m256d cos_x = _mm256_xor_pd(_mm256_blendv_pd(cos_t, sin_t, use_sin),
                                      _mm256_castsi256_pd(sign));
  return _mm256_mul_pd(radius, cos_x);
}

__attribute__((target("avx2,fma"))) void approximate_normals_avx2(
    const double* u1, const double* u2, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(out + i, box_muller4(_mm256_loadu_pd(u1 + i),
                                          _mm256_loadu_pd(u2 + i)));
  if (i == n) return;
  // The last one to three draws, padded with u1 = 1/2, u2 = 0.
  double a[4] = {0.5, 0.5, 0.5, 0.5};
  double b[4] = {0.0, 0.0, 0.0, 0.0};
  double c[4];
  for (std::size_t l = 0; i + l < n; ++l) {
    a[l] = u1[i + l];
    b[l] = u2[i + l];
  }
  _mm256_storeu_pd(c, box_muller4(_mm256_loadu_pd(a), _mm256_loadu_pd(b)));
  for (std::size_t l = 0; i + l < n; ++l) out[i + l] = c[l];
}
#endif

bool detect_avx2_fma() {
#ifdef MFW_PRODUCTS_X86
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}
const bool kHaveAvx2Fma = detect_avx2_fma();

}  // namespace

void approximate_normals(std::span<const double> u1,
                         std::span<const double> u2, std::span<double> out) {
  if (u2.size() != u1.size() || out.size() != u1.size())
    throw std::invalid_argument("approximate_normals: spans differ in size");
#ifdef MFW_PRODUCTS_X86
  if (kHaveAvx2Fma) {
    approximate_normals_avx2(u1.data(), u2.data(), out.data(), u1.size());
    return;
  }
#endif
  for (std::size_t i = 0; i < u1.size(); ++i)
    out[i] = util::Rng::box_muller(u1[i], u2[i]);
}

float noisy_radiance(double a, double coef, double approx, double u1,
                     double u2) {
  // The stored value is (float)s for s = fl(a + fl(coef n)) with
  // n = box_muller(u1, u2); v = fl(a + p) with p = fl(coef approx) is the
  // same sum of the approximation. With e = |n - approx| <= E / 2 and
  // u = 2^-53, each rounding errs by at most u times its result, so to
  // first order in u
  //   |fl(coef n) - p| <= coef e + 2u |p|,
  //   |s - v| <= |fl(coef n) - p| + 2u |v|,
  // and rounding v -/+ slack moves each end point by at most u |v| more.
  // slack = coef E + 8u (|p| + |v|) covers all three with room to spare:
  // coef E is at least twice coef e, which absorbs the second-order terms
  // and any underflow (at most 2^-1074 each), and 8u exceeds 2u and 3u. So
  // lo <= s <= hi. Rounding a double to float is monotone: when lo and hi
  // give one float, s gives it too. Otherwise n is computed.
  const double p = coef * approx;
  const double v = a + p;
  const double slack =
      coef * kNormalApproxError + 0x1p-50 * (std::fabs(p) + std::fabs(v));
  const float lo = static_cast<float>(v - slack);
  if (lo == static_cast<float>(v + slack)) return lo;
  return static_cast<float>(a + coef * util::Rng::box_muller(u1, u2));
}

LatitudeTable::LatitudeTable()
    : polar_(kLatitudeCells + 1), climatology_(kLatitudeCells + 1) {
  for (int i = 0; i <= kLatitudeCells; ++i) {
    // Exact: i / 64 has at most 14 significant bits.
    const double lat = -90.0 + static_cast<double>(i) / kNodesPerDegree;
    polar_[static_cast<std::size_t>(i)] = polar_offset(lat);
    climatology_[static_cast<std::size_t>(i)] = cloud_climatology(lat);
  }
}

const LatitudeTable& LatitudeTable::instance() {
  static const LatitudeTable table;
  return table;
}

Interval LatitudeTable::lookup(const std::vector<double>& nodes,
                               double lat) {
  const double u = (lat + 90.0) * kNodesPerDegree;
  if (!(u >= 0.0 && u <= kLatitudeCells))
    return {-std::numeric_limits<double>::infinity(),
            std::numeric_limits<double>::infinity()};
  const int i = std::min(static_cast<int>(u), kLatitudeCells - 1);
  const double a = nodes[static_cast<std::size_t>(i)];
  const double b = nodes[static_cast<std::size_t>(i) + 1];
  const double v = a + (b - a) * (u - i);
  return {v - kSlack, v + kSlack};
}

EarthModel::EarthModel(std::uint64_t seed)
    : continents_(util::mix64(seed, 1)),
      weather_(util::mix64(seed, 2)),
      texture_(util::mix64(seed, 3)),
      pressure_(util::mix64(seed, 4)) {}

bool EarthModel::is_land(const LatLon& p, Memo& memo) const {
  // The exact polar offset is needed only when its interval straddles the
  // threshold.
  const auto polar = LatitudeTable::instance().polar(p.lat);
  double value = 0.0;
  const auto side = continents_.fbm_above(
      continents_x(p.lon), continents_y(p.lat), kContinentOctaves, memo.land,
      polar.lo, polar.hi, kLandThreshold, value);
  if (side != Side::kUndecided) return side == Side::kAbove;
  return value + polar_offset(p.lat) > kLandThreshold;
}

Side EarthModel::land_over(std::span<const LatLon> points) const {
  if (points.empty()) return Side::kUndecided;
  LatLon lo = points.front();
  LatLon hi = lo;
  for (const LatLon& p : points.subspan(1)) {
    lo.lat = std::min(lo.lat, p.lat);
    hi.lat = std::max(hi.lat, p.lat);
    lo.lon = std::min(lo.lon, p.lon);
    hi.lon = std::max(hi.lon, p.lon);
  }
  // Points on both sides of the dateline have no lat/lon box in the
  // continents' frame.
  if (!(hi.lon - lo.lon <= 180.0)) return Side::kUndecided;
  // Division by a positive constant is monotone, so the scaled box holds
  // every point's sampling coordinates.
  const auto field = continents_.fbm_range(
      continents_x(lo.lon), continents_y(lo.lat), continents_x(hi.lon),
      continents_y(hi.lat), kContinentOctaves);
  // The polar offset is even and decreases in |lat|.
  const double nearest = lo.lat > 0.0 ? lo.lat : hi.lat < 0.0 ? -hi.lat : 0.0;
  const double farthest = std::max(-lo.lat, hi.lat);
  const auto& table = LatitudeTable::instance();
  // The slack covers the roundings of fbm_range and of each point's sum.
  constexpr double kSlack = 1e-9;
  if (field.hi + table.polar(nearest).hi + kSlack < kLandThreshold)
    return Side::kBelow;
  if (field.lo + table.polar(farthest).lo - kSlack > kLandThreshold)
    return Side::kAbove;
  return Side::kUndecided;
}

double EarthModel::synoptic_cloud(const LatLon& p, int day_of_year,
                                  Memo& memo) const {
  // Synoptic-scale systems drift with the day of year.
  const double drift = static_cast<double>(day_of_year) * 0.37;
  const double synoptic = weather_.fbm(p.lon / 18.0 + drift,
                                       p.lat / 14.0 - 0.3 * drift, 4,
                                       memo.synoptic);
  return 0.55 + 0.75 * synoptic;
}

double EarthModel::mesoscale_cloud(const LatLon& p, Memo& memo) const {
  // Mesoscale texture gives the within-tile variance AICCA tiles show.
  return 0.35 * texture_.fbm(p.lon / 2.2, p.lat / 2.2, 3, memo.meso);
}

double EarthModel::cloud_intensity(const LatLon& p, int day_of_year,
                                   Memo& memo) const {
  const double v = synoptic_cloud(p, day_of_year, memo) +
                   mesoscale_cloud(p, memo) + cloud_climatology(p.lat);
  return std::fmin(1.0, std::fmax(0.0, v));
}

bool EarthModel::is_cloudy(const LatLon& p, int day_of_year, Interval meso,
                           Memo& memo) const {
  // The clamp in cloud_intensity keeps every value on its side of the
  // threshold, so the unclamped sum (synoptic + mesoscale) + climatology is
  // compared. Rounded addition is monotone: the sum taken with the low ends
  // of both intervals is at most the exact terms' sum, and with the high
  // ends at least it, so an answer either end gives is the exact terms'.
  const double synoptic = synoptic_cloud(p, day_of_year, memo);
  const auto climo = LatitudeTable::instance().climatology(p.lat);
  if (synoptic + meso.lo + climo.lo > kCloudThreshold) return true;
  if (!(synoptic + meso.hi + climo.hi > kCloudThreshold)) return false;
  // Straddling: the exact mesoscale term (a point interval is that term),
  // then the exact climatology if its interval still straddles.
  const double v =
      synoptic + (meso.lo == meso.hi ? meso.lo : mesoscale_cloud(p, memo));
  if (v + climo.lo > kCloudThreshold) return true;
  if (!(v + climo.hi > kCloudThreshold)) return false;
  return v + cloud_climatology(p.lat) > kCloudThreshold;
}

namespace {

// Bucket b holds the mesoscale terms in [-0.35 + b w, -0.35 + (b + 1) w]
// for w = 0.7 / kMesoBuckets. meso_bucket's index and the edges computed
// here are each within a few ulps of 0.7 of their exact values, so a margin
// of 1e-12 on either side covers every rounding.
constexpr double kMesoBucketScale = kMesoBuckets / 0.7;
constexpr double kMesoBucketMargin = 1e-12;

constexpr std::array<Interval, 256> make_meso_intervals() {
  std::array<Interval, 256> intervals;
  for (int b = 0; b < 256; ++b)
    intervals[static_cast<std::size_t>(b)] = {
        b == 0 || b >= kMesoBuckets
            ? -kMesoBound
            : -0.35 + b / kMesoBucketScale - kMesoBucketMargin,
        b >= kMesoBuckets - 1
            ? kMesoBound
            : -0.35 + (b + 1) / kMesoBucketScale + kMesoBucketMargin};
  return intervals;
}
constexpr std::array<Interval, 256> kMesoIntervals = make_meso_intervals();

}  // namespace

std::uint8_t meso_bucket(double meso) {
  // Terms a rounding puts outside [-0.35, 0.35] go to the outer buckets,
  // whose intervals reach out to +-kMesoBound.
  const double u = (meso + 0.35) * kMesoBucketScale;
  return static_cast<std::uint8_t>(
      std::fmin(std::fmax(u, 0.0), kMesoBuckets - 1.0));
}

Interval meso_interval(std::uint8_t bucket) { return kMesoIntervals[bucket]; }

double EarthModel::cloud_top_pressure(const LatLon& p, int day_of_year,
                                      Memo& memo) const {
  const double drift = static_cast<double>(day_of_year) * 0.21;
  const double v =
      pressure_.fbm(p.lon / 9.0 + drift, p.lat / 9.0, 3, memo.pressure);
  // 250 hPa (deep convection) .. 900 hPa (marine stratocumulus).
  return 575.0 + 325.0 * v;
}

double EarthModel::surface_temperature(const LatLon& p, Memo& memo) const {
  const double lat_rad = p.lat * std::numbers::pi / 180.0;
  const double base = 300.0 - 35.0 * std::pow(std::sin(lat_rad), 2);
  return base +
         3.0 * continents_.fbm(p.lon / 15.0, p.lat / 15.0, 2, memo.surface);
}

// The candidate tiles of each (satellite, slot) for one tiling key, and the
// mesoscale buckets of their samples; entry e = satellite * kSlotsPerDay +
// slot. Only the call that claims an empty entry writes its candidate bits,
// outside the lock; it records the buckets in an array of its own, which it
// hands over when it marks the entry filled, under the lock. Calls read the
// bits and buckets of filled entries only, and those never change while the
// block lives. A key change replaces the block: calls still holding the old
// one finish on it, and their fills are dropped with it.
struct GranuleGenerator::SlotTable {
  struct Key {
    GranuleGeometry geometry;
    int tile_size = 0;
    int samples_per_axis = 0;

    bool operator==(const Key&) const = default;
  };

  static constexpr std::size_t kEntries = 2 * kSlotsPerDay;

  struct Block {
    explicit Block(std::size_t tiles)
        : words((tiles + 63) / 64), bits(kEntries * words) {}

    std::size_t words;  // candidate bits per entry, in 64-bit words
    std::bitset<kEntries> filled;
    std::bitset<kEntries> claimed;
    // Entry e's candidate bits from word e * words: bit t for tile
    // t = tile_row * tile_cols + tile_col.
    std::vector<std::uint64_t> bits;
    // Entry e's buckets once filled, candidate by candidate in tile order
    // (see estimate_granule_stats).
    std::array<std::unique_ptr<std::uint8_t[]>, kEntries> buckets;
  };

  /// One call's view of its entry.
  struct Slot {
    std::shared_ptr<Block> block;  // kept alive for the call
    std::uint64_t* bits = nullptr;          // the entry's candidate bits
    const std::uint8_t* buckets = nullptr;  // filled: the entry's buckets
    std::size_t entry = 0;
    bool filled = false;   // the bits hold the slot's candidates
    bool claimed = false;  // this call records them
  };

  Slot find(const Key& want, std::size_t tiles, std::size_t entry) {
    const std::lock_guard lock(mutex);
    if (!block || !(key == want)) {
      // Allocate first: a failed allocation leaves the old key and block.
      block = std::make_shared<Block>(tiles);
      key = want;
    }
    Slot slot{block, block->bits.data() + entry * block->words,
              block->buckets[entry].get(), entry};
    slot.filled = block->filled.test(entry);
    slot.claimed = !block->claimed.test(entry);
    block->claimed.set(entry);
    return slot;
  }

  void fill(const Slot& slot, std::unique_ptr<std::uint8_t[]> buckets) {
    const std::lock_guard lock(mutex);
    if (block != slot.block) return;
    block->buckets[slot.entry] = std::move(buckets);
    block->filled.set(slot.entry);
  }

  std::mutex mutex;
  Key key;
  std::shared_ptr<Block> block;
};

GranuleGenerator::GranuleGenerator(std::uint64_t world_seed)
    : seed_(world_seed),
      earth_(world_seed),
      slots_(std::make_unique<SlotTable>()) {}

GranuleGenerator::GranuleGenerator(GranuleGenerator&&) noexcept = default;
GranuleGenerator& GranuleGenerator::operator=(GranuleGenerator&&) noexcept =
    default;
GranuleGenerator::~GranuleGenerator() = default;

GranuleProducts GranuleGenerator::generate(const GranuleSpec& spec) const {
  check_spec(spec);
  const auto& g = spec.geometry;
  GranuleProducts out;
  Mod02Granule& m02 = out.mod02;
  Mod03Granule& m03 = out.mod03;
  Mod06Granule& m06 = out.mod06;
  m02.spec = m03.spec = m06.spec = spec;
  m02.daytime = is_daytime(spec.satellite, spec.slot, spec.day_of_year);
  // Arrays in the reverse of the order the workflow usually asks for the
  // products (MOD03, MOD06, MOD02), so that the first freed lie highest in
  // the heap; the order changes no byte (EXPERIMENTS.md has its RSS).
  m02.radiance.resize(static_cast<std::size_t>(g.bands) * g.pixels());
  m06.cloud_mask.resize(g.pixels());
  m06.cloud_optical_thickness.resize(g.pixels());
  m06.cloud_top_pressure.resize(g.pixels());
  m06.cloud_water_path.resize(g.pixels());
  m03.latitude.resize(g.pixels());
  m03.longitude.resize(g.pixels());
  m03.land_mask.resize(g.pixels());
  m03.solar_zenith.resize(g.pixels());
  // Per-granule sensor noise stream: one normal per band of each pixel,
  // pixel by pixel, except the reflective bands [0, 3) at night. A row's
  // draws are taken in that order before its pixels are synthesised.
  util::Rng rng(util::mix64(
      seed_, util::mix64(static_cast<std::uint64_t>(spec.slot) + 1000,
                         static_cast<std::uint64_t>(spec.day_of_year))));
  const int undrawn = m02.daytime ? 0 : std::min(g.bands, 3);
  const std::size_t row_draws =
      static_cast<std::size_t>(g.bands - undrawn) *
      static_cast<std::size_t>(g.cols);
  std::vector<double> u1(row_draws);
  std::vector<double> u2(row_draws);
  std::vector<double> normal(row_draws);
  const SunAngles sun(spec.day_of_year);
  EarthModel::Memo memo;
  for (int r = 0; r < g.rows; ++r) {
    for (std::size_t k = 0; k < row_draws; ++k) {
      const auto draw = rng.normal_draw();
      u1[k] = draw.u1;
      u2[k] = draw.u2;
    }
    approximate_normals(u1, u2, normal);
    std::size_t next = 0;  // the row's next draw
    const double row_frac = (r + 0.5) / g.rows;
    const SwathRow row = swath_row(spec.satellite, spec.slot, row_frac);
    const double utc = day_fraction(spec, row_frac);
    for (int c = 0; c < g.cols; ++c) {
      const double col_frac = (c + 0.5) / g.cols;
      const LatLon p = swath_pixel(row, col_frac);
      const std::size_t pix =
          static_cast<std::size_t>(r) * static_cast<std::size_t>(g.cols) +
          static_cast<std::size_t>(c);
      // MOD03: geolocation, land mask and solar zenith.
      const bool land = earth_.is_land(p, memo);
      m03.latitude[pix] = static_cast<float>(p.lat);
      m03.longitude[pix] = static_cast<float>(p.lon);
      m03.land_mask[pix] = land ? 1 : 0;
      m03.solar_zenith[pix] = static_cast<float>(sun.zenith_deg(p, utc));
      // MOD06: the cloud mask and, for cloudy pixels, the cloud properties.
      // Cloud reflectance grows with optical thickness (saturating); a clear
      // pixel's is exactly 0. A cloudy pixel's scene temperature is its
      // cloud top's, a clear one's the surface's.
      const double intensity =
          earth_.cloud_intensity(p, spec.day_of_year, memo);
      const bool cloudy = intensity > kCloudThreshold;
      m06.cloud_mask[pix] = cloudy ? 1 : 0;
      double cloud_ref = 0.0;
      double t_scene = 0.0;
      if (cloudy) {
        const double excess = std::fmax(0.0, intensity - kCloudThreshold);
        const double tau = 2.0 + 55.0 * excess;
        const double ctp = earth_.cloud_top_pressure(p, spec.day_of_year, memo);
        m06.cloud_optical_thickness[pix] = static_cast<float>(tau);
        m06.cloud_top_pressure[pix] = static_cast<float>(ctp);
        m06.cloud_water_path[pix] =
            static_cast<float>(20.0 + 900.0 * excess * excess);
        cloud_ref = 1.0 - std::exp(-tau / 12.0);
        t_scene = 230.0 + 60.0 * (ctp - 250.0) / 650.0;
      } else {
        m06.cloud_optical_thickness[pix] = 0.0f;
        m06.cloud_top_pressure[pix] = kFillValue;
        m06.cloud_water_path[pix] = 0.0f;
        t_scene = earth_.surface_temperature(p, memo);
      }
      // MOD02: the scene's radiance in each band, plus sensor noise.
      const double surface_ref = land ? 0.18 : 0.05;
      const double reflectance =
          cloud_ref * 0.85 + (1.0 - cloud_ref) * surface_ref;
      for (int b = 0; b < g.bands; ++b) {
        const std::size_t i = static_cast<std::size_t>(b) * g.pixels() + pix;
        float value;
        if (b < 3) {
          // Reflective bands (roles of MODIS bands 6/7/20): fill at night.
          if (!m02.daytime) {
            value = kFillValue;
          } else {
            const double band_gain = 1.0 - 0.08 * b;
            value = noisy_radiance(reflectance * band_gain, 0.01,
                                   normal[next], u1[next], u2[next]);
            ++next;
          }
        } else {
          // Thermal bands (roles of 28/29/31 and beyond): brightness temp,
          // normalized to ~[0,1] for the ML stage ((320K - T) / 120K).
          const double band_shift = 2.0 * (b - 3);
          value = noisy_radiance((320.0 - (t_scene - band_shift)) / 120.0,
                                 0.005, normal[next], u1[next], u2[next]);
          ++next;
        }
        m02.radiance[i] = value;
      }
    }
  }
  return out;
}

float Mod02Granule::at(int band, int row, int col) const {
  const auto& g = spec.geometry;
  return radiance[static_cast<std::size_t>(band) * g.pixels() +
                  static_cast<std::size_t>(row) * g.cols +
                  static_cast<std::size_t>(col)];
}

storage::HdflFile Mod03Granule::to_hdfl() && {
  storage::HdflFile file;
  put_spec_attrs(file, spec, "MOD03");
  const auto shape = grid_shape(spec);
  file.add(storage::Dataset::f32("Latitude", shape, std::move(latitude)));
  file.add(storage::Dataset::f32("Longitude", shape, std::move(longitude)));
  file.add(storage::Dataset::u8("LandSeaMask", shape, std::move(land_mask)));
  file.add(storage::Dataset::f32("SolarZenith", shape, std::move(solar_zenith)));
  return file;
}

Mod03Granule Mod03Granule::from_hdfl(const storage::HdflFile& file) {
  Mod03Granule out;
  out.spec = spec_from_attrs(file);
  const auto& g = out.spec.geometry;
  out.latitude = grid_dataset(file, g, "Latitude").as_f32().to_vector();
  out.longitude = grid_dataset(file, g, "Longitude").as_f32().to_vector();
  out.land_mask = grid_dataset(file, g, "LandSeaMask").as_u8().to_vector();
  out.solar_zenith = grid_dataset(file, g, "SolarZenith").as_f32().to_vector();
  return out;
}

storage::HdflFile Mod06Granule::to_hdfl() && {
  storage::HdflFile file;
  put_spec_attrs(file, spec, "MOD06");
  const auto shape = grid_shape(spec);
  file.add(storage::Dataset::u8("CloudMask", shape, std::move(cloud_mask)));
  file.add(storage::Dataset::f32("CloudOpticalThickness", shape,
                                 std::move(cloud_optical_thickness)));
  file.add(storage::Dataset::f32("CloudTopPressure", shape,
                                 std::move(cloud_top_pressure)));
  file.add(storage::Dataset::f32("CloudWaterPath", shape,
                                 std::move(cloud_water_path)));
  return file;
}

Mod06Granule Mod06Granule::from_hdfl(const storage::HdflFile& file) {
  Mod06Granule out;
  out.spec = spec_from_attrs(file);
  const auto& g = out.spec.geometry;
  out.cloud_mask = grid_dataset(file, g, "CloudMask").as_u8().to_vector();
  out.cloud_optical_thickness =
      grid_dataset(file, g, "CloudOpticalThickness").as_f32().to_vector();
  out.cloud_top_pressure =
      grid_dataset(file, g, "CloudTopPressure").as_f32().to_vector();
  out.cloud_water_path =
      grid_dataset(file, g, "CloudWaterPath").as_f32().to_vector();
  return out;
}

storage::HdflFile Mod02Granule::to_hdfl() && {
  storage::HdflFile file;
  put_spec_attrs(file, spec, "MOD02");
  file.attrs()["daytime"] = daytime ? "1" : "0";
  file.add(storage::Dataset::f32(
      "Radiance",
      {static_cast<std::uint64_t>(spec.geometry.bands),
       static_cast<std::uint64_t>(spec.geometry.rows),
       static_cast<std::uint64_t>(spec.geometry.cols)},
      std::move(radiance)));
  return file;
}

Mod02Granule Mod02Granule::from_hdfl(const storage::HdflFile& file) {
  Mod02Granule out;
  out.spec = spec_from_attrs(file);
  const auto it = file.attrs().find("daytime");
  out.daytime = it != file.attrs().end() && it->second == "1";
  const auto& g = out.spec.geometry;
  out.radiance = grid_dataset(file, g, "Radiance", g.bands).as_f32().to_vector();
  return out;
}

GranuleStats estimate_granule_stats(const GranuleGenerator& generator,
                                    const GranuleSpec& spec, int tile_size,
                                    int samples_per_axis) {
  check_spec(spec);
  if (tile_size <= 0) throw std::invalid_argument("tile_size must be positive");
  if (samples_per_axis <= 0 || samples_per_axis > kMaxSamplesPerAxis)
    throw std::invalid_argument("samples_per_axis must be in [1, " +
                                std::to_string(kMaxSamplesPerAxis) + "]");
  GranuleStats stats;
  stats.daytime = is_daytime(spec.satellite, spec.slot, spec.day_of_year);
  if (!stats.daytime) return stats;  // night granules yield no AICCA tiles

  const auto& g = spec.geometry;
  const int n = samples_per_axis;
  const int tile_rows = g.rows / tile_size;
  const int tile_cols = g.cols / tile_size;
  const auto& earth = generator.earth();
  // A tile is selected at a cloud fraction of 0.3: `need` is the fewest
  // cloudy samples whose fraction, cloudy / (n n) in double, reaches it.
  const int samples = n * n;
  int need = 0;
  while (static_cast<double>(need) / static_cast<double>(samples) < 0.3)
    ++need;
  // A filled entry names the slot's candidates, and only they are sampled,
  // with the buckets of their samples' mesoscale terms. Otherwise every
  // tile is tested for land, and the call that claimed the entry records
  // the candidates it finds and the buckets of the samples it tests.
  const auto slot = generator.slots_->find(
      {g, tile_size, n},
      static_cast<std::size_t>(tile_rows) * static_cast<std::size_t>(tile_cols),
      static_cast<std::size_t>(spec.satellite) * kSlotsPerDay +
          static_cast<std::size_t>(spec.slot));
  // A candidate's buckets are those of the samples its claiming call
  // tested, a prefix of the sampling order, then one kUnrecordedBucket.
  // The claiming call appends them to `recorded`; a call on a filled entry
  // reads the next candidate's at `next`.
  std::vector<std::uint8_t> recorded;
  const std::uint8_t* next = slot.buckets;
  EarthModel::Memo memo;
  std::array<SwathRow, kMaxSamplesPerAxis> rows;
  std::array<LatLon, kMaxSamplesPerAxis * kMaxSamplesPerAxis> points;
  std::size_t index = 0;  // tile_row * tile_cols + tile_col
  for (int tr = 0; tr < tile_rows; ++tr) {
    bool have_rows = false;
    for (int tc = 0; tc < tile_cols; ++tc, ++index) {
      const std::uint64_t bit = std::uint64_t{1} << (index % 64);
      if (slot.filled && (slot.bits[index / 64] & bit) == 0) continue;
      if (!have_rows) {
        for (int sr = 0; sr < n; ++sr) {
          const double row_frac =
              (tr * tile_size + (sr + 0.5) * tile_size / n) / g.rows;
          rows[sr] = swath_row(spec.satellite, spec.slot, row_frac);
        }
        have_rows = true;
      }
      // Samples go column by column, down one column and up the next:
      // along-track neighbours are the closest, so the memo's cells carry
      // over. The counts below do not depend on the order.
      std::size_t sampled = 0;
      for (int sc = 0; sc < n; ++sc) {
        const double col_frac =
            (tc * tile_size + (sc + 0.5) * tile_size / n) / g.cols;
        for (int k = 0; k < n; ++k) {
          const int sr = sc % 2 == 0 ? k : n - 1 - k;
          points[sampled++] = swath_pixel(rows[sr], col_frac);
        }
      }
      const std::span<const LatLon> tile(points.data(), sampled);
      if (!slot.filled) {
        // Land first: one land sample rules the tile out, and its cloud
        // field is never needed. A bound over the tile's box finds most
        // tiles all land (kAbove) or all ocean (kBelow) without a
        // per-sample test.
        const Side land = earth.land_over(tile);
        if (land == Side::kAbove) continue;
        if (land == Side::kUndecided &&
            std::any_of(tile.begin(), tile.end(), [&](const LatLon& p) {
              return earth.is_land(p, memo);
            }))
          continue;
        if (slot.claimed) slot.bits[index / 64] |= bit;
      }
      // Test for cloud only until the selection is decided: `need` cloudy
      // samples select the tile, and it is ruled out once the samples left
      // cannot reach `need`. The claiming call computes each tested
      // sample's mesoscale term and records its bucket; a call on a filled
      // entry bounds the term by its bucket's interval, or by the unrecorded
      // interval past the tile's recorded prefix.
      const std::uint8_t* buckets = next;
      std::size_t known = 0;  // samples with a recorded bucket
      if (slot.filled) {
        known = static_cast<std::size_t>(
            std::find(next, next + sampled, kUnrecordedBucket) - next);
        next += known + 1;
      }
      ++stats.candidate_tiles;
      int cloudy = 0;
      for (int left = samples; cloudy < need && cloudy + left >= need;
           --left) {
        const std::size_t s = static_cast<std::size_t>(samples - left);
        Interval meso =
            meso_interval(s < known ? buckets[s] : kUnrecordedBucket);
        if (slot.claimed) {
          const double m = earth.mesoscale_cloud(tile[s], memo);
          recorded.push_back(meso_bucket(m));
          meso = {m, m};
        }
        if (earth.is_cloudy(tile[s], spec.day_of_year, meso, memo)) ++cloudy;
      }
      if (slot.claimed) recorded.push_back(kUnrecordedBucket);
      if (cloudy == need) ++stats.selected_tiles;
    }
  }
  if (slot.claimed) {
    // The entry keeps an exact-size copy, none of the vector's spare
    // capacity, for as long as the block lives.
    auto buckets = std::make_unique_for_overwrite<std::uint8_t[]>(
        recorded.size());
    std::copy(recorded.begin(), recorded.end(), buckets.get());
    generator.slots_->fill(slot, std::move(buckets));
  }
  return stats;
}

}  // namespace mfw::modis
