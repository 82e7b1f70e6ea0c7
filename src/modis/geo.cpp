#include "modis/geo.hpp"

#include <cmath>
#include <numbers>

namespace mfw::modis {

namespace {
constexpr double kPi = std::numbers::pi;
constexpr double kDeg = 180.0 / kPi;
constexpr double kRad = kPi / 180.0;
// Orbital period ~98.8 minutes => 14.57 orbits/day.
constexpr double kOrbitsPerDay = 14.57;
constexpr double kInclinationDeg = 98.2;
// Cross-track half-width of the swath in degrees of arc (~2330 km wide).
constexpr double kHalfSwathDeg = 10.5;

double wrap_lon(double lon) {
  while (lon >= 180.0) lon -= 360.0;
  while (lon < -180.0) lon += 360.0;
  return lon;
}
}  // namespace

LatLon ground_track(Satellite satellite, int slot, double u) {
  // Time of day in [0,1) at this position.
  const double t = (static_cast<double>(slot) + u) / kSlotsPerDay;
  // Orbit phase (radians): Terra descends on the day side ~10:30, Aqua
  // ascends ~13:30; a fixed per-satellite phase offset realises that.
  const double phase0 = satellite == Satellite::kTerra ? 0.35 : 1.82;
  const double phase = 2.0 * kPi * kOrbitsPerDay * t + phase0;
  const double inc = kInclinationDeg * kRad;
  const double lat = std::asin(std::sin(inc) * std::sin(phase)) * kDeg;
  // Node longitude regresses ~360°/day relative to the rotating Earth;
  // add the in-orbit longitude advance.
  const double node = -360.0 * t + (satellite == Satellite::kTerra ? -78.0 : 102.0);
  const double in_orbit =
      std::atan2(std::cos(inc) * std::sin(phase), std::cos(phase)) * kDeg;
  return {lat, wrap_lon(node + in_orbit)};
}

SunAngles::SunAngles(int day_of_year) {
  // Solar declination (Cooper's formula).
  const double decl =
      23.45 * kRad *
      std::sin(2.0 * kPi * (284.0 + static_cast<double>(day_of_year)) / 365.0);
  sin_decl_ = std::sin(decl);
  cos_decl_ = std::cos(decl);
}

double SunAngles::zenith_deg(const LatLon& where,
                             double utc_day_fraction) const {
  // Hour angle from local solar time.
  const double local_time = utc_day_fraction * 24.0 + where.lon / 15.0;
  const double hour_angle = (local_time - 12.0) * 15.0 * kRad;
  const double lat = where.lat * kRad;
  const double cos_zenith = std::sin(lat) * sin_decl_ +
                            std::cos(lat) * cos_decl_ * std::cos(hour_angle);
  return std::acos(std::fmin(1.0, std::fmax(-1.0, cos_zenith))) * kDeg;
}

double solar_zenith_deg(const LatLon& where, double utc_day_fraction,
                        int day_of_year) {
  return SunAngles(day_of_year).zenith_deg(where, utc_day_fraction);
}

SwathRow swath_row(Satellite satellite, int slot, double row_frac) {
  SwathRow row;
  row.centre = ground_track(satellite, slot, row_frac);
  // Cross-track offset perpendicular to the ground track. We approximate the
  // track direction from two nearby centre points.
  const LatLon ahead = ground_track(satellite, slot, row_frac + 1e-3);
  double dlat = ahead.lat - row.centre.lat;
  double dlon = wrap_lon(ahead.lon - row.centre.lon);
  const double norm = std::sqrt(dlat * dlat + dlon * dlon);
  if (norm > 1e-12) {
    dlat /= norm;
    dlon /= norm;
  }
  row.dlat = dlat;
  row.dlon = dlon;
  row.cos_lat = std::fmax(0.2, std::cos(row.centre.lat * kRad));
  return row;
}

LatLon swath_pixel(const SwathRow& row, double col_frac) {
  // Perpendicular direction (dlon, -dlat), scaled by the cross-track angle.
  const double offset = (col_frac - 0.5) * 2.0 * kHalfSwathDeg;
  double lat = row.centre.lat + row.dlon * offset;
  double lon = row.centre.lon - row.dlat * offset / row.cos_lat;
  lat = std::fmin(90.0, std::fmax(-90.0, lat));
  return {lat, wrap_lon(lon)};
}

bool is_daytime(Satellite satellite, int slot, int day_of_year) {
  const LatLon centre = ground_track(satellite, slot, 0.5);
  const double t = (static_cast<double>(slot) + 0.5) / kSlotsPerDay;
  return solar_zenith_deg(centre, t, day_of_year) < 85.0;
}

}  // namespace mfw::modis
