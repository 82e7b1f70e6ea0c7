// Swath geometry for a sun-synchronous polar orbiter.
//
// MODIS granules are 5-minute slices of a ~99-minute polar orbit; each day
// has 288 slots. We model a simplified circular sun-synchronous orbit (98.2°
// inclination, equator crossing 10:30 for Terra / 13:30 for Aqua) that gives
// every granule a deterministic, physically plausible lat/lon footprint and
// solar geometry. Accuracy to the real ephemeris is irrelevant; what matters
// for the workload is the *distribution*: granules sweep all latitudes, half
// the orbit is on the night side, and ocean fraction varies with longitude.
#pragma once

#include <cstdint>

namespace mfw::modis {

enum class Satellite : std::uint8_t { kTerra = 0, kAqua = 1 };

constexpr const char* satellite_name(Satellite s) {
  return s == Satellite::kTerra ? "Terra" : "Aqua";
}

/// Granules per day (one per 5-minute slot).
inline constexpr int kSlotsPerDay = 288;

/// Lat/lon in degrees; lat in [-90, 90], lon in [-180, 180).
struct LatLon {
  double lat = 0.0;
  double lon = 0.0;
};

/// Position of the sub-satellite point for a given day slot and along-track
/// fraction u in [0, 1) within the 5-minute granule.
LatLon ground_track(Satellite satellite, int slot, double u);

/// The day-of-year terms of the solar zenith: the solar declination's sine
/// and cosine, computed once for all the pixels of a granule.
class SunAngles {
 public:
  explicit SunAngles(int day_of_year);

  /// Solar zenith angle (degrees) at a location for a UTC time-of-day
  /// fraction (0 = midnight, 0.5 = noon) on this object's day.
  double zenith_deg(const LatLon& where, double utc_day_fraction) const;

 private:
  double sin_decl_ = 0.0;
  double cos_decl_ = 1.0;
};

/// SunAngles(day_of_year).zenith_deg(where, utc_day_fraction).
double solar_zenith_deg(const LatLon& where, double utc_day_fraction,
                        int day_of_year);

/// The part of swath_pixel shared by every pixel of one swath row: the
/// ground-track centre, the unit track direction and the clamped cosine of
/// the centre latitude. Sampling loops compute it once per row.
struct SwathRow {
  LatLon centre;
  double dlat = 0.0;
  double dlon = 0.0;
  double cos_lat = 1.0;
};

/// Row part of swath_pixel for along-track fraction `row_frac`.
SwathRow swath_row(Satellite satellite, int slot, double row_frac);

/// Column part of swath_pixel: the pixel at `col_frac` in [0,1) across the
/// ~2330 km swath (cross-track) of `row`.
LatLon swath_pixel(const SwathRow& row, double col_frac);

/// True when the granule's centre is on the day side (solar zenith < 85°),
/// matching the availability of MOD02 visible bands used for tiles.
bool is_daytime(Satellite satellite, int slot, int day_of_year);

}  // namespace mfw::modis
