// Synthetic MODIS product synthesis (MOD02 / MOD03 / MOD06).
//
// Substitution note (see DESIGN.md): NASA's real granules are unavailable
// offline, so we generate procedurally consistent products. Consistency
// matters more than radiometric realism: the preprocessing stage joins all
// three products per time step, so the same (satellite, day, slot) must see
// the same geography, cloud field, and day/night state in MOD02, MOD03, and
// MOD06. That holds by construction: GranuleGenerator::generate synthesises
// the three in one pass over the swath, from one sample of one seeded
// EarthModel per pixel.
//
// Band layout: real RICC/AICCA uses 6 of MODIS's 36 bands (6, 7, 20, 28, 29,
// 31 — two shortwave reflectance, one SWIR, three thermal IR). Our generator
// orders its bands so that bands [0..5] carry exactly those roles; at full
// geometry (36 bands) the remaining bands are filled with correlated
// radiances so file sizes and partial-read behaviour match.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "modis/geo.hpp"
#include "modis/noise.hpp"
#include "storage/hdfl.hpp"

namespace mfw::modis {

/// Grid dimensions of a granule. Full MODIS scale is 2030 x 1354 x 36; tests
/// and examples use reduced geometry for speed — all code paths are
/// geometry-agnostic.
struct GranuleGeometry {
  int rows = 2030;
  int cols = 1354;
  int bands = 36;

  std::size_t pixels() const {
    return static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
  }

  bool operator==(const GranuleGeometry&) const = default;
};

inline constexpr GranuleGeometry kFullGeometry{2030, 1354, 36};
/// ~1/8 linear scale; keeps a 2x1 tile grid with 128-px tiles.
inline constexpr GranuleGeometry kSmallGeometry{256, 170, 8};

/// Identifies one 5-minute granule of one product family.
struct GranuleSpec {
  Satellite satellite = Satellite::kTerra;
  int year = 2022;
  int day_of_year = 1;  // 1-based
  int slot = 0;         // 0..287
  GranuleGeometry geometry{};

  bool operator==(const GranuleSpec&) const = default;
};

/// cloud_intensity above this is cloudy: MOD06's cloud mask, and the
/// cloudy samples that select a tile in estimate_granule_stats.
inline constexpr double kCloudThreshold = 0.45;

/// Bounds cloud_intensity's mesoscale term, 0.35 times a fBm whose octaves
/// each lie in [-1, 1], with a margin for the roundings.
inline constexpr double kMesoBound = 0.35 * (1.0 + 1e-6) + 1e-12;

/// A mesoscale term in one byte: [-0.35, 0.35] cut into kMesoBuckets equal
/// buckets, numbered from the bottom. meso_bucket(m) is m's bucket, and
/// meso_interval(b) holds every term whose bucket is b: the bucket's edges
/// widened by a margin that covers the roundings of both functions, the
/// outer edges pushed out to +-kMesoBound. kUnrecordedBucket is no bucket,
/// and its interval is [-kMesoBound, kMesoBound].
inline constexpr int kMesoBuckets = 255;
inline constexpr std::uint8_t kUnrecordedBucket = 0xFF;
std::uint8_t meso_bucket(double meso);
Interval meso_interval(std::uint8_t bucket);

/// The two latitude-only terms of the land and cloud tests, the polar offset
/// 0.10 cos(lat pi / 90) and the cloud climatology, tabulated at 1/64 degree
/// over [-90, 90] from their exact functions. A look-up interpolates
/// linearly and widens the result by kSlack on each side, so the interval it
/// returns holds the exact term: the interpolation error is at most
/// h^2/8 max|f''|, 1.4e-7 for the climatology and 3.7e-9 for the polar
/// offset, and 0 is a node, so the climatology's kink at the equator never
/// falls inside a cell. Built once, on first use; const and safe to share
/// across threads.
class LatitudeTable {
 public:
  static constexpr int kNodesPerDegree = 64;
  static constexpr double kSlack = 1e-6;

  static const LatitudeTable& instance();

  /// Intervals holding each term at `lat`; (-inf, inf) for a latitude
  /// outside [-90, 90] or NaN.
  Interval polar(double lat) const { return lookup(polar_, lat); }
  Interval climatology(double lat) const {
    return lookup(climatology_, lat);
  }

 private:
  LatitudeTable();
  static Interval lookup(const std::vector<double>& nodes, double lat);

  std::vector<double> polar_;
  std::vector<double> climatology_;
};

/// Shared procedural geography: continents, sea-surface temperature, and the
/// daily weather (cloud) field. One instance per world seed; all products of
/// all granules sample it, which is what keeps them mutually consistent.
///
/// Every query takes a caller-owned Memo (one NoiseField::Memo per field and
/// sampling frame). A sampling loop keeps one Memo on its stack for the whole
/// loop; results do not depend on the memo's history, and the model itself
/// stays const and safe to share across threads.
class EarthModel {
 public:
  struct Memo {
    NoiseField::Memo land;
    NoiseField::Memo surface;
    NoiseField::Memo synoptic;
    NoiseField::Memo meso;
    NoiseField::Memo pressure;
  };

  explicit EarthModel(std::uint64_t seed);

  /// True over continents/islands (~30% of the globe). Usually decided from
  /// the continents' first four octaves and the tabulated polar offset; the
  /// answer is always the one the full evaluation gives.
  bool is_land(const LatLon& p, Memo& memo) const;

  /// is_land at every one of `points`, decided at once from a bound over
  /// their lat/lon box: kAbove when all are land, kBelow when none is. The
  /// continents field is bounded by NoiseField::fbm_range, the polar offset
  /// by its table at the box's nearest and farthest latitudes from the
  /// equator. kUndecided when the box straddles the dateline or the bound
  /// straddles the threshold; is_land must then be asked point by point.
  Side land_over(std::span<const LatLon> points) const;

  /// Cloud presence probability in [0, 1] for a day's weather.
  double cloud_intensity(const LatLon& p, int day_of_year, Memo& memo) const;

  /// cloud_intensity's mesoscale texture term, which depends on location
  /// only; within [-kMesoBound, kMesoBound].
  double mesoscale_cloud(const LatLon& p, Memo& memo) const;

  /// cloud_intensity(p, day_of_year, memo) > kCloudThreshold, given an
  /// interval `meso` that holds mesoscale_cloud(p): a bucket's
  /// meso_interval, [m, m] for the term m itself, or
  /// meso_interval(kUnrecordedBucket) when nothing narrower is known. It
  /// evaluates the day's synoptic field and decides from the ends of `meso`
  /// and of the tabulated climatology's interval when they settle it; only
  /// otherwise does it evaluate the mesoscale texture (unless `meso` is a
  /// point), and then the exact climatology only if its interval still
  /// straddles the threshold.
  bool is_cloudy(const LatLon& p, int day_of_year, Interval meso,
                 Memo& memo) const;

  /// Cloud-top pressure proxy in hPa (lower = higher cloud); only meaningful
  /// where cloud_intensity is high.
  double cloud_top_pressure(const LatLon& p, int day_of_year,
                            Memo& memo) const;

  /// Sea-surface temperature proxy in Kelvin.
  double surface_temperature(const LatLon& p, Memo& memo) const;

 private:
  // cloud_intensity before its clamp is synoptic_cloud + mesoscale_cloud +
  // a latitude climatology, added in that order.
  double synoptic_cloud(const LatLon& p, int day_of_year, Memo& memo) const;

  NoiseField continents_;
  NoiseField weather_;
  NoiseField texture_;
  NoiseField pressure_;
};

// Each product's to_hdfl is called on an rvalue: its arrays move into the
// file as the datasets' payloads, uncopied. Each product's from_hdfl throws
// storage::FormatError when a spec attribute is missing or not an int, the
// geometry is not positive, or a dataset's element count disagrees with it
// (bands x rows x cols for Radiance, rows x cols for every other dataset).

/// MOD03: geolocation + land/sea mask + solar zenith, row-major [rows][cols].
struct Mod03Granule {
  GranuleSpec spec;
  std::vector<float> latitude;
  std::vector<float> longitude;
  std::vector<std::uint8_t> land_mask;  // 1 = land
  std::vector<float> solar_zenith;      // degrees

  storage::HdflFile to_hdfl() &&;
  static Mod03Granule from_hdfl(const storage::HdflFile& file);
};

/// MOD06: cloud mask and derived physical properties, row-major.
struct Mod06Granule {
  GranuleSpec spec;
  std::vector<std::uint8_t> cloud_mask;  // 1 = cloudy
  std::vector<float> cloud_optical_thickness;
  std::vector<float> cloud_top_pressure;  // hPa
  std::vector<float> cloud_water_path;    // g/m^2

  storage::HdflFile to_hdfl() &&;
  static Mod06Granule from_hdfl(const storage::HdflFile& file);
};

/// MOD02: calibrated radiances, [bands][rows][cols]. Night granules carry
/// fill values (-999) in the reflective bands [0..2], as with real L1B.
struct Mod02Granule {
  GranuleSpec spec;
  bool daytime = true;
  std::vector<float> radiance;  // bands * rows * cols

  float at(int band, int row, int col) const;
  storage::HdflFile to_hdfl() &&;
  static Mod02Granule from_hdfl(const storage::HdflFile& file);
};

inline constexpr float kFillValue = -999.0f;

// MOD02's sensor noise. Each radiance is (float)(a + coef * n) for a scene
// value a, a band's noise scale coef > 0 and the normal
// n = util::Rng::box_muller(u1, u2) of one util::Rng::normal_draw. The
// normals of a swath row are approximated four at a time, and n itself is
// computed only where the approximation cannot decide the float.

/// E: noisy_radiance decides exactly for any approximation within E / 2 of
/// the normal. The tests hold approximate_normals to E / 1000 over a million
/// draws and the edge draws of its range reductions, a margin for a bound
/// that is measured rather than proved.
inline constexpr double kNormalApproxError = 1e-11;

/// out[i] = util::Rng::box_muller(u1[i], u2[i]) to within
/// kNormalApproxError, for u1[i] in (0, 1) and u2[i] in [0, 1). On hosts
/// without AVX2 and FMA, out[i] is box_muller itself. The spans have one
/// size.
void approximate_normals(std::span<const double> u1,
                         std::span<const double> u2, std::span<double> out);

/// (float)(a + coef * util::Rng::box_muller(u1, u2)), bit for bit, given an
/// `approx` within kNormalApproxError / 2 of that normal.
float noisy_radiance(double a, double coef, double approx, double u1,
                     double u2);

/// The three products of one granule, synthesised together.
struct GranuleProducts {
  Mod02Granule mod02;
  Mod03Granule mod03;
  Mod06Granule mod06;
};

struct GranuleStats;

/// Generates the three products for a spec. Deterministic in (spec, seed).
class GranuleGenerator {
 public:
  explicit GranuleGenerator(std::uint64_t world_seed = 2022);
  /// A moved-from generator may only be assigned to or destroyed.
  GranuleGenerator(GranuleGenerator&&) noexcept;
  GranuleGenerator& operator=(GranuleGenerator&&) noexcept;
  ~GranuleGenerator();

  /// The granule's MOD02, MOD03 and MOD06 from one pass over its swath: each
  /// pixel's location, land test and cloud intensity are computed once and
  /// feed every product that reads them; the cloud-top pressure is computed
  /// for cloudy pixels only (MOD06's value and MOD02's scene temperature),
  /// the surface temperature for clear ones only. Each MOD02 band adds a
  /// seeded sensor noise (see noisy_radiance). Throws std::invalid_argument
  /// for a slot, day or geometry out of range. Const and safe to call from
  /// several threads at once.
  GranuleProducts generate(const GranuleSpec& spec) const;

  const EarthModel& earth() const { return earth_; }

 private:
  // estimate_granule_stats' slot table (see there). A mutex guards it, so
  // the generator stays safe to share across threads; it lives behind a
  // pointer, so the generator stays movable.
  struct SlotTable;
  friend GranuleStats estimate_granule_stats(const GranuleGenerator&,
                                             const GranuleSpec&, int, int);

  std::uint64_t seed_;
  EarthModel earth_;
  std::unique_ptr<SlotTable> slots_;
};

/// Coarse per-granule workload statistics used by the discrete-event
/// benchmarks: candidate 128-px tiles (no-land) and selected ocean-cloud
/// tiles (cloud fraction >= 0.3), estimated by sparse sampling — no full
/// granule is materialized. Deterministic.
struct GranuleStats {
  bool daytime = false;
  int candidate_tiles = 0;   // tiles with zero land pixels (sampled)
  int selected_tiles = 0;    // candidates passing the cloud threshold
};

/// Largest samples_per_axis estimate_granule_stats accepts; the swath rows
/// of one tile row and the sample points of one tile live on its stack.
inline constexpr int kMaxSamplesPerAxis = 32;

/// Samples each tile on a samples_per_axis^2 grid. A tile with a land
/// sample is no candidate, and its cloud is never tested. A candidate's
/// samples are tested for cloud, in the sampling order, only until the
/// selection is decided: once enough are cloudy to reach a fraction of 0.3,
/// or once the samples left cannot reach it. Throws std::invalid_argument
/// for a bad spec, tile_size <= 0, or samples_per_axis outside
/// [1, kMaxSamplesPerAxis].
///
/// Land depends only on location, and a slot's swath is the same every day,
/// so which tiles are candidates depends on (satellite, slot, geometry,
/// tile_size, samples_per_axis) and the world seed, never on the day, and
/// so does each sample's mesoscale cloud term. The generator holds both in
/// a slot table. A slot's first daytime call tests every tile for land and
/// records its candidates, one bit per tile, and the meso_bucket of each
/// sample its cloud tests visit: one byte per visited sample, a prefix of
/// each candidate's samples, then one kUnrecordedBucket byte per candidate.
/// Every later call for the slot samples only those tiles and hands
/// is_cloudy each sample's meso_interval (the unrecorded interval past a
/// tile's prefix), so it mostly evaluates the day's synoptic field alone.
/// The table holds one (geometry, tile_size, samples_per_axis) key at a
/// time: 2 x 288 x ceil(tiles / 64) words of candidate bits beside
/// 2 x 576 flag bits and 576 pointers, allocated by the key's first daytime
/// call (18,608 bytes at full geometry with 128-px tiles), and each filled
/// entry's bytes, allocated by the call that fills it (at most
/// candidates x (samples_per_axis^2 + 1), 5,550 bytes at full geometry with
/// 128-px tiles and 6 x 6 samples). A call with another key replaces them
/// all. The answers never depend on what the table holds.
GranuleStats estimate_granule_stats(const GranuleGenerator& generator,
                                    const GranuleSpec& spec,
                                    int tile_size = 128,
                                    int samples_per_axis = 6);

}  // namespace mfw::modis
