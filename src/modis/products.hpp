// Synthetic MODIS product synthesis (MOD02 / MOD03 / MOD06).
//
// Substitution note (see DESIGN.md): NASA's real granules are unavailable
// offline, so we generate procedurally consistent products. Consistency
// matters more than radiometric realism: the preprocessing stage joins all
// three products per time step, so the same (satellite, day, slot) must see
// the same geography, cloud field, and day/night state in MOD02, MOD03, and
// MOD06 — which holds here because all three sample one seeded EarthModel.
//
// Band layout: real RICC/AICCA uses 6 of MODIS's 36 bands (6, 7, 20, 28, 29,
// 31 — two shortwave reflectance, one SWIR, three thermal IR). Our generator
// orders its bands so that bands [0..5] carry exactly those roles; at full
// geometry (36 bands) the remaining bands are filled with correlated
// radiances so file sizes and partial-read behaviour match.
#pragma once

#include <cstdint>
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
  std::uint64_t world_seed = 2022;
};

/// cloud_intensity above this is cloudy: MOD06's cloud mask, and the
/// cloudy samples estimate_granule_stats counts.
inline constexpr double kCloudThreshold = 0.45;

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

  /// cloud_intensity(p, day_of_year, memo) > kCloudThreshold, skipping the
  /// mesoscale texture when the synoptic field and the tabulated climatology
  /// settle it, and the exact climatology when its interval does.
  bool is_cloudy(const LatLon& p, int day_of_year, Memo& memo) const;

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
  double mesoscale_cloud(const LatLon& p, Memo& memo) const;

  NoiseField continents_;
  NoiseField weather_;
  NoiseField texture_;
  NoiseField pressure_;
};

// Each product's from_hdfl throws storage::FormatError when a spec attribute
// is missing or not an int, the geometry is not positive, or a dataset's
// element count disagrees with it (bands x rows x cols for Radiance, rows x
// cols for every other dataset).

/// MOD03: geolocation + land/sea mask + solar zenith, row-major [rows][cols].
struct Mod03Granule {
  GranuleSpec spec;
  std::vector<float> latitude;
  std::vector<float> longitude;
  std::vector<std::uint8_t> land_mask;  // 1 = land
  std::vector<float> solar_zenith;      // degrees

  storage::HdflFile to_hdfl() const;
  static Mod03Granule from_hdfl(const storage::HdflFile& file);
};

/// MOD06: cloud mask and derived physical properties, row-major.
struct Mod06Granule {
  GranuleSpec spec;
  std::vector<std::uint8_t> cloud_mask;  // 1 = cloudy
  std::vector<float> cloud_optical_thickness;
  std::vector<float> cloud_top_pressure;  // hPa
  std::vector<float> cloud_water_path;    // g/m^2

  storage::HdflFile to_hdfl() const;
  static Mod06Granule from_hdfl(const storage::HdflFile& file);
};

/// MOD02: calibrated radiances, [bands][rows][cols]. Night granules carry
/// fill values (-999) in the reflective bands [0..2], as with real L1B.
struct Mod02Granule {
  GranuleSpec spec;
  bool daytime = true;
  std::vector<float> radiance;  // bands * rows * cols

  float at(int band, int row, int col) const;
  storage::HdflFile to_hdfl() const;
  static Mod02Granule from_hdfl(const storage::HdflFile& file);
};

inline constexpr float kFillValue = -999.0f;

/// Generates the three products for a spec. Deterministic in (spec, seed).
class GranuleGenerator {
 public:
  explicit GranuleGenerator(std::uint64_t world_seed = 2022);

  Mod03Granule mod03(const GranuleSpec& spec) const;
  Mod06Granule mod06(const GranuleSpec& spec) const;
  /// Requires the matching MOD03/MOD06 content internally; generates it on
  /// the fly so callers can request MOD02 alone.
  Mod02Granule mod02(const GranuleSpec& spec) const;

  const EarthModel& earth() const { return earth_; }

 private:
  std::uint64_t seed_;
  EarthModel earth_;
};

/// Coarse per-granule workload statistics used by the discrete-event
/// benchmarks: candidate 128-px tiles (no-land) and selected ocean-cloud
/// tiles (cloud fraction >= 0.3), estimated by sparse sampling — no full
/// granule is materialized. Deterministic.
struct GranuleStats {
  bool daytime = false;
  int candidate_tiles = 0;   // tiles with zero land pixels (sampled)
  int selected_tiles = 0;    // candidates passing the cloud threshold
  double mean_cloud_fraction = 0.0;  // over candidates
};

/// Largest samples_per_axis estimate_granule_stats accepts; the swath rows
/// of one tile row and the sample points of one tile live on its stack.
inline constexpr int kMaxSamplesPerAxis = 32;

/// Samples each tile on a samples_per_axis^2 grid. Throws
/// std::invalid_argument for a bad spec, tile_size <= 0, or samples_per_axis
/// outside [1, kMaxSamplesPerAxis].
GranuleStats estimate_granule_stats(const GranuleGenerator& generator,
                                    const GranuleSpec& spec,
                                    int tile_size = 128,
                                    int samples_per_axis = 6);

}  // namespace mfw::modis
