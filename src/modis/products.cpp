#include "modis/products.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>
#include <string>
#include <system_error>

#include "util/rng.hpp"

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
  auto get_int = [&](const char* key) {
    const std::string& text = get(key);
    int value = 0;
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc{} || end != text.data() + text.size())
      throw storage::FormatError(std::string("granule attr ") + key +
                                 " is not an int: '" + text + "'");
    return value;
  };
  GranuleSpec spec;
  spec.satellite =
      get("satellite") == "Aqua" ? Satellite::kAqua : Satellite::kTerra;
  spec.year = get_int("year");
  spec.day_of_year = get_int("day_of_year");
  spec.slot = get_int("slot");
  spec.geometry.rows = get_int("rows");
  spec.geometry.cols = get_int("cols");
  spec.geometry.bands = get_int("bands");
  if (spec.geometry.rows <= 0 || spec.geometry.cols <= 0 ||
      spec.geometry.bands <= 0)
    throw storage::FormatError("granule geometry must be positive");
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

}  // namespace

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

bool EarthModel::is_cloudy(const LatLon& p, int day_of_year,
                           Memo& memo) const {
  // The clamp in cloud_intensity keeps every value on its side of the
  // threshold, so the unclamped sum is compared. The mesoscale term lies in
  // [-0.35, 0.35]; the slack covers the roundings of both sides. Rounded
  // addition is monotone, so each test against an end of the climatology's
  // interval gives the exact climatology's answer whenever it decides.
  const double synoptic = synoptic_cloud(p, day_of_year, memo);
  const auto climo = LatitudeTable::instance().climatology(p.lat);
  constexpr double kMesoBound = 0.35 * (1.0 + 1e-6) + 1e-12;
  if (synoptic + climo.lo - kMesoBound > kCloudThreshold) return true;
  if (synoptic + climo.hi + kMesoBound < kCloudThreshold) return false;
  const double v = synoptic + mesoscale_cloud(p, memo);
  if (v + climo.lo > kCloudThreshold) return true;
  if (!(v + climo.hi > kCloudThreshold)) return false;
  return v + cloud_climatology(p.lat) > kCloudThreshold;
}

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

GranuleGenerator::GranuleGenerator(std::uint64_t world_seed)
    : seed_(world_seed), earth_(world_seed) {}

Mod03Granule GranuleGenerator::mod03(const GranuleSpec& spec) const {
  check_spec(spec);
  const auto& g = spec.geometry;
  Mod03Granule out;
  out.spec = spec;
  out.latitude.resize(g.pixels());
  out.longitude.resize(g.pixels());
  out.land_mask.resize(g.pixels());
  out.solar_zenith.resize(g.pixels());
  EarthModel::Memo memo;
  for (int r = 0; r < g.rows; ++r) {
    const double row_frac = (r + 0.5) / g.rows;
    const SwathRow row = swath_row(spec.satellite, spec.slot, row_frac);
    for (int c = 0; c < g.cols; ++c) {
      const double col_frac = (c + 0.5) / g.cols;
      const LatLon p = swath_pixel(row, col_frac);
      const std::size_t i =
          static_cast<std::size_t>(r) * static_cast<std::size_t>(g.cols) +
          static_cast<std::size_t>(c);
      out.latitude[i] = static_cast<float>(p.lat);
      out.longitude[i] = static_cast<float>(p.lon);
      out.land_mask[i] = earth_.is_land(p, memo) ? 1 : 0;
      out.solar_zenith[i] = static_cast<float>(
          solar_zenith_deg(p, day_fraction(spec, row_frac), spec.day_of_year));
    }
  }
  return out;
}

Mod06Granule GranuleGenerator::mod06(const GranuleSpec& spec) const {
  check_spec(spec);
  const auto& g = spec.geometry;
  Mod06Granule out;
  out.spec = spec;
  out.cloud_mask.resize(g.pixels());
  out.cloud_optical_thickness.resize(g.pixels());
  out.cloud_top_pressure.resize(g.pixels());
  out.cloud_water_path.resize(g.pixels());
  EarthModel::Memo memo;
  for (int r = 0; r < g.rows; ++r) {
    const double row_frac = (r + 0.5) / g.rows;
    const SwathRow row = swath_row(spec.satellite, spec.slot, row_frac);
    for (int c = 0; c < g.cols; ++c) {
      const double col_frac = (c + 0.5) / g.cols;
      const LatLon p = swath_pixel(row, col_frac);
      const std::size_t i =
          static_cast<std::size_t>(r) * static_cast<std::size_t>(g.cols) +
          static_cast<std::size_t>(c);
      const double intensity =
          earth_.cloud_intensity(p, spec.day_of_year, memo);
      const bool cloudy = intensity > kCloudThreshold;
      out.cloud_mask[i] = cloudy ? 1 : 0;
      const double excess = std::fmax(0.0, intensity - kCloudThreshold);
      out.cloud_optical_thickness[i] =
          cloudy ? static_cast<float>(2.0 + 55.0 * excess) : 0.0f;
      out.cloud_top_pressure[i] =
          cloudy ? static_cast<float>(
                       earth_.cloud_top_pressure(p, spec.day_of_year, memo))
                 : kFillValue;
      out.cloud_water_path[i] =
          cloudy ? static_cast<float>(20.0 + 900.0 * excess * excess) : 0.0f;
    }
  }
  return out;
}

Mod02Granule GranuleGenerator::mod02(const GranuleSpec& spec) const {
  check_spec(spec);
  const auto& g = spec.geometry;
  Mod02Granule out;
  out.spec = spec;
  out.daytime = is_daytime(spec.satellite, spec.slot, spec.day_of_year);
  out.radiance.resize(static_cast<std::size_t>(g.bands) * g.pixels());
  // Per-granule sensor noise stream.
  util::Rng rng(util::mix64(
      seed_, util::mix64(static_cast<std::uint64_t>(spec.slot) + 1000,
                         static_cast<std::uint64_t>(spec.day_of_year))));
  EarthModel::Memo memo;
  for (int r = 0; r < g.rows; ++r) {
    const double row_frac = (r + 0.5) / g.rows;
    const SwathRow row = swath_row(spec.satellite, spec.slot, row_frac);
    for (int c = 0; c < g.cols; ++c) {
      const double col_frac = (c + 0.5) / g.cols;
      const LatLon p = swath_pixel(row, col_frac);
      const std::size_t pix =
          static_cast<std::size_t>(r) * static_cast<std::size_t>(g.cols) +
          static_cast<std::size_t>(c);
      const double intensity =
          earth_.cloud_intensity(p, spec.day_of_year, memo);
      const bool cloudy = intensity > kCloudThreshold;
      const bool land = earth_.is_land(p, memo);
      const double tau =
          cloudy ? 2.0 + 55.0 * std::fmax(0.0, intensity - kCloudThreshold)
                 : 0.0;
      // Cloud reflectance grows with optical thickness (saturating).
      const double cloud_ref = 1.0 - std::exp(-tau / 12.0);
      const double surface_ref = land ? 0.18 : 0.05;
      const double reflectance =
          cloud_ref * 0.85 + (1.0 - cloud_ref) * surface_ref;
      double t_scene = earth_.surface_temperature(p, memo);
      if (cloudy) {
        const double ctp = earth_.cloud_top_pressure(p, spec.day_of_year, memo);
        t_scene = 230.0 + 60.0 * (ctp - 250.0) / 650.0;
      }
      for (int b = 0; b < g.bands; ++b) {
        const std::size_t i = static_cast<std::size_t>(b) * g.pixels() + pix;
        float value;
        if (b < 3) {
          // Reflective bands (roles of MODIS bands 6/7/20): fill at night.
          if (!out.daytime) {
            value = kFillValue;
          } else {
            const double band_gain = 1.0 - 0.08 * b;
            value = static_cast<float>(reflectance * band_gain +
                                       0.01 * rng.normal());
          }
        } else {
          // Thermal bands (roles of 28/29/31 and beyond): brightness temp,
          // normalized to ~[0,1] for the ML stage ((320K - T) / 120K).
          const double band_shift = 2.0 * (b - 3);
          value = static_cast<float>((320.0 - (t_scene - band_shift)) / 120.0 +
                                     0.005 * rng.normal());
        }
        out.radiance[i] = value;
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

storage::HdflFile Mod03Granule::to_hdfl() const {
  storage::HdflFile file;
  put_spec_attrs(file, spec, "MOD03");
  const auto shape = grid_shape(spec);
  file.add(storage::Dataset::f32("Latitude", shape, latitude));
  file.add(storage::Dataset::f32("Longitude", shape, longitude));
  file.add(storage::Dataset::u8("LandSeaMask", shape, land_mask));
  file.add(storage::Dataset::f32("SolarZenith", shape, solar_zenith));
  return file;
}

Mod03Granule Mod03Granule::from_hdfl(const storage::HdflFile& file) {
  Mod03Granule out;
  out.spec = spec_from_attrs(file);
  const auto& g = out.spec.geometry;
  const auto lat = grid_dataset(file, g, "Latitude").as_f32();
  const auto lon = grid_dataset(file, g, "Longitude").as_f32();
  const auto mask = grid_dataset(file, g, "LandSeaMask").as_u8();
  const auto zen = grid_dataset(file, g, "SolarZenith").as_f32();
  out.latitude.assign(lat.begin(), lat.end());
  out.longitude.assign(lon.begin(), lon.end());
  out.land_mask.assign(mask.begin(), mask.end());
  out.solar_zenith.assign(zen.begin(), zen.end());
  return out;
}

storage::HdflFile Mod06Granule::to_hdfl() const {
  storage::HdflFile file;
  put_spec_attrs(file, spec, "MOD06");
  const auto shape = grid_shape(spec);
  file.add(storage::Dataset::u8("CloudMask", shape, cloud_mask));
  file.add(storage::Dataset::f32("CloudOpticalThickness", shape,
                                 cloud_optical_thickness));
  file.add(storage::Dataset::f32("CloudTopPressure", shape, cloud_top_pressure));
  file.add(storage::Dataset::f32("CloudWaterPath", shape, cloud_water_path));
  return file;
}

Mod06Granule Mod06Granule::from_hdfl(const storage::HdflFile& file) {
  Mod06Granule out;
  out.spec = spec_from_attrs(file);
  const auto& g = out.spec.geometry;
  const auto mask = grid_dataset(file, g, "CloudMask").as_u8();
  const auto cot = grid_dataset(file, g, "CloudOpticalThickness").as_f32();
  const auto ctp = grid_dataset(file, g, "CloudTopPressure").as_f32();
  const auto cwp = grid_dataset(file, g, "CloudWaterPath").as_f32();
  out.cloud_mask.assign(mask.begin(), mask.end());
  out.cloud_optical_thickness.assign(cot.begin(), cot.end());
  out.cloud_top_pressure.assign(ctp.begin(), ctp.end());
  out.cloud_water_path.assign(cwp.begin(), cwp.end());
  return out;
}

storage::HdflFile Mod02Granule::to_hdfl() const {
  storage::HdflFile file;
  put_spec_attrs(file, spec, "MOD02");
  file.attrs()["daytime"] = daytime ? "1" : "0";
  file.add(storage::Dataset::f32(
      "Radiance",
      {static_cast<std::uint64_t>(spec.geometry.bands),
       static_cast<std::uint64_t>(spec.geometry.rows),
       static_cast<std::uint64_t>(spec.geometry.cols)},
      radiance));
  return file;
}

Mod02Granule Mod02Granule::from_hdfl(const storage::HdflFile& file) {
  Mod02Granule out;
  out.spec = spec_from_attrs(file);
  const auto it = file.attrs().find("daytime");
  out.daytime = it != file.attrs().end() && it->second == "1";
  const auto& g = out.spec.geometry;
  const auto rad = grid_dataset(file, g, "Radiance", g.bands).as_f32();
  out.radiance.assign(rad.begin(), rad.end());
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
  EarthModel::Memo memo;
  std::array<SwathRow, kMaxSamplesPerAxis> rows;
  std::array<LatLon, kMaxSamplesPerAxis * kMaxSamplesPerAxis> points;
  double cloud_sum = 0.0;
  for (int tr = 0; tr < tile_rows; ++tr) {
    for (int sr = 0; sr < n; ++sr) {
      const double row_frac =
          (tr * tile_size + (sr + 0.5) * tile_size / n) / g.rows;
      rows[sr] = swath_row(spec.satellite, spec.slot, row_frac);
    }
    for (int tc = 0; tc < tile_cols; ++tc) {
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
      // Land first: one land sample rules the tile out, and its cloud field
      // is never needed. A bound over the tile's box finds most tiles all
      // land (kAbove) or all ocean (kBelow) without a per-sample test.
      const Side land = earth.land_over(tile);
      if (land == Side::kAbove) continue;
      if (land == Side::kUndecided &&
          std::any_of(tile.begin(), tile.end(), [&](const LatLon& p) {
            return earth.is_land(p, memo);
          }))
        continue;
      int cloudy = 0;
      for (const LatLon& p : tile)
        if (earth.is_cloudy(p, spec.day_of_year, memo)) ++cloudy;
      ++stats.candidate_tiles;
      const double cloud_frac =
          static_cast<double>(cloudy) / static_cast<double>(n * n);
      cloud_sum += cloud_frac;
      if (cloud_frac >= 0.3) ++stats.selected_tiles;
    }
  }
  stats.mean_cloud_fraction =
      stats.candidate_tiles ? cloud_sum / stats.candidate_tiles : 0.0;
  return stats;
}

}  // namespace mfw::modis
