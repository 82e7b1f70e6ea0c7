// Unit tests for the synthetic MODIS system: noise determinism, orbit
// geometry, product consistency, catalog naming/sizing, and workload
// statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "modis/catalog.hpp"
#include "modis/noise.hpp"
#include "modis/products.hpp"
#include "util/rng.hpp"

namespace mfw::modis {
namespace {

// FNV-1a over bytes, with integers fed little-endian so the pins below do
// not depend on the host's byte order.
class Fnv1a {
 public:
  void bytes(std::span<const std::byte> data) {
    for (const std::byte b : data) byte(static_cast<std::uint8_t>(b));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  std::uint64_t value() const { return h_; }

 private:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

TEST(Noise, DeterministicPerSeed) {
  NoiseField a(42), b(42), c(43);
  EXPECT_DOUBLE_EQ(a.at(1.5, 2.5), b.at(1.5, 2.5));
  EXPECT_NE(a.at(1.5, 2.5), c.at(1.5, 2.5));
}

TEST(Noise, BoundedAndSmooth) {
  NoiseField field(7);
  for (double x = -10; x < 10; x += 0.37) {
    for (double y = -10; y < 10; y += 0.41) {
      const double v = field.fbm(x, y, 4);
      ASSERT_GE(v, -1.0);
      ASSERT_LE(v, 1.0);
      // Smoothness: nearby samples are close.
      const double v2 = field.fbm(x + 1e-4, y, 4);
      ASSERT_LT(std::abs(v - v2), 0.02);
    }
  }
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// A walk that steps forward and backward inside cells, jumps across cells,
// wanders through negative coordinates and lands exactly on lattice lines
// (multiples of 1/16 are lattice points at the first five octaves).
std::vector<std::pair<double, double>> noise_walk() {
  std::vector<std::pair<double, double>> walk = {
      {0.0, 0.0},       {-0.0, -0.0}, {0.5, 0.5},     {-0.5, 0.5},
      {-1.0, -1.0},     {1.0, -1.0},  {-1e-300, 2.0}, {3.0, 3.0},
      {-0.9375, 0.0625}, {2.999, 3.0},
  };
  util::Rng rng(3);
  double x = 0.3;
  double y = 0.7;
  for (int i = 0; i < 4000; ++i) {
    switch (i % 4) {
      case 0:  // small step in any direction
        x += rng.uniform(-0.05, 0.05);
        y += rng.uniform(-0.05, 0.05);
        break;
      case 1:  // step backward
        x -= rng.uniform(0.0, 0.02);
        y -= rng.uniform(0.0, 0.02);
        break;
      case 2:  // jump several cells
        x += rng.uniform(-3.0, 3.0);
        y += rng.uniform(-3.0, 3.0);
        break;
      default:  // snap onto lattice lines
        x = std::round(x * 16.0) / 16.0;
        y = std::round(y * 16.0) / 16.0;
    }
    walk.emplace_back(x, y);
  }
  return walk;
}

// The noise written out plainly, as the test's oracle: every lattice corner
// hashed fresh, octaves at doubled coordinates and halved amplitude.
double oracle_lattice(std::uint64_t seed, std::int64_t ix, std::int64_t iy) {
  const std::uint64_t h = util::mix64(
      seed, util::mix64(static_cast<std::uint64_t>(ix) * 0x9e3779b97f4a7c15ULL,
                        static_cast<std::uint64_t>(iy)));
  return static_cast<double>(h >> 11) * 0x1.0p-52 - 1.0;
}

double oracle_smooth(double t) {
  return t * t * t * (t * (t * 6.0 - 15.0) + 10.0);
}

double oracle_noise(std::uint64_t seed, double x, double y) {
  const double fx = std::floor(x);
  const double fy = std::floor(y);
  const auto ix = static_cast<std::int64_t>(fx);
  const auto iy = static_cast<std::int64_t>(fy);
  const double v00 = oracle_lattice(seed, ix, iy);
  const double v10 = oracle_lattice(seed, ix + 1, iy);
  const double v01 = oracle_lattice(seed, ix, iy + 1);
  const double v11 = oracle_lattice(seed, ix + 1, iy + 1);
  const double tx = oracle_smooth(x - fx);
  const double ty = oracle_smooth(y - fy);
  const double a = v00 + (v10 - v00) * tx;
  const double b = v01 + (v11 - v01) * tx;
  return a + (b - a) * ty;
}

double oracle_fbm(std::uint64_t seed, double x, double y, int octaves) {
  double sum = 0.0;
  double amplitude = 1.0;
  double norm = 0.0;
  for (int i = 0; i < octaves; ++i) {
    sum += amplitude * oracle_noise(seed, x, y);
    norm += amplitude;
    amplitude *= 0.5;
    x *= 2.0;
    y *= 2.0;
  }
  return norm > 0 ? sum / norm : 0.0;
}

TEST(Noise, MatchesFreshHashOracle) {
  const auto walk = noise_walk();
  ASSERT_TRUE(std::any_of(walk.begin() + 10, walk.end(),
                          [](const auto& p) { return p.first < -1.0; }));
  ASSERT_TRUE(std::any_of(walk.begin() + 10, walk.end(),
                          [](const auto& p) { return p.second < -1.0; }));

  // Two fields alternate on the shared memo, so every call rebinds it and
  // each octave lane refills; the own memo hits and misses lane by lane as
  // the walk moves. 1-8 octaves cover every lane count of both groups of
  // four; 11 runs past the memo's octave capacity.
  const NoiseField a(11);
  const NoiseField b(12);
  for (const int octaves : {1, 2, 3, 4, 5, 6, 7, 8, 11}) {
    NoiseField::Memo shared;
    NoiseField::Memo own;
    for (const auto& [px, py] : walk) {
      const double want_a = oracle_fbm(11, px, py, octaves);
      ASSERT_EQ(bits(a.fbm(px, py, octaves, shared)), bits(want_a))
          << "octaves " << octaves << " at (" << px << ", " << py << ")";
      ASSERT_EQ(bits(b.fbm(px, py, octaves, shared)),
                bits(oracle_fbm(12, px, py, octaves)))
          << "octaves " << octaves << " at (" << px << ", " << py << ")";
      ASSERT_EQ(bits(a.fbm(px, py, octaves, own)), bits(want_a))
          << "octaves " << octaves << " at (" << px << ", " << py << ")";
    }
  }
  for (const auto& [px, py] : walk)
    ASSERT_EQ(bits(a.at(px, py)), bits(oracle_noise(11, px, py)));
}

TEST(Noise, FbmAboveMatchesFullComparison) {
  // Thresholds far from the value are settled after the first group of
  // four octaves; the ones a rounding step away need every octave. A point
  // offset always gets an answer; an interval offset gets one only when
  // both of its ends agree, and otherwise the fbm value to finish with.
  const auto walk = noise_walk();
  const NoiseField field(5);
  int undecided = 0;
  for (const int octaves : {1, 4, 5, 8, 11}) {
    NoiseField::Memo memo;
    for (const auto& [px, py] : walk) {
      const double offset = 0.1 * std::sin(px);
      const double fbm = oracle_fbm(5, px, py, octaves);
      const double v = fbm + offset;
      for (const double threshold :
           {v - 0.5, v - 1e-3, std::nextafter(v, -2.0), v,
            std::nextafter(v, 2.0), v + 1e-3, v + 0.5}) {
        double value = 0.0;
        ASSERT_EQ(field.fbm_above(px, py, octaves, memo, offset, offset,
                                  threshold, value),
                  v > threshold ? Side::kAbove : Side::kBelow)
            << "octaves " << octaves << " at (" << px << ", " << py
            << "), threshold " << threshold - v << " from the value";
        const double lo = offset - 1e-6;
        const double hi = offset + 1e-6;
        const bool above_lo = fbm + lo > threshold;
        const bool above_hi = fbm + hi > threshold;
        const Side want = above_lo   ? Side::kAbove
                          : above_hi ? Side::kUndecided
                                     : Side::kBelow;
        ASSERT_EQ(field.fbm_above(px, py, octaves, memo, lo, hi, threshold,
                                  value),
                  want)
            << "octaves " << octaves << " at (" << px << ", " << py
            << "), threshold " << threshold - v << " from the value";
        if (want == Side::kUndecided) {
          ASSERT_EQ(bits(value), bits(fbm));
          ++undecided;
        }
      }
    }
  }
  EXPECT_GT(undecided, 0);
}

TEST(Noise, FbmRangeHoldsEverySampleOfItsBox) {
  // Random boxes inside one lattice cell, across two or three cells and
  // across many, sampled on a dense grid that includes their edges: every
  // sample lies in fbm_range's interval, up to rounding. At one octave the
  // one-cell boxes take the corner bound, the wider ones the corner-value
  // bound and the widest [-1, 1]; more octaves mix all three.
  const NoiseField field(17);
  util::Rng rng(23);
  constexpr int kGrid = 33;
  constexpr double kRounding = 1e-12;
  for (const double max_width : {0.9, 2.5, 9.0}) {
    for (int octaves = 1; octaves <= 5; ++octaves) {
      for (int box = 0; box < 40; ++box) {
        const double width = rng.uniform(0.05, 1.0) * max_width;
        const double height = rng.uniform(0.05, 1.0) * max_width;
        double x0 = rng.uniform(-20.0, 20.0);
        double y0 = rng.uniform(-20.0, 20.0);
        if (max_width < 1.0) {
          // Keep the box inside the cell it starts in.
          x0 = std::floor(x0) + rng.uniform(0.0, 1.0 - width);
          y0 = std::floor(y0) + rng.uniform(0.0, 1.0 - height);
        }
        const double x1 = x0 + width;
        const double y1 = y0 + height;
        const auto range = field.fbm_range(x0, y0, x1, y1, octaves);
        ASSERT_LE(range.lo, range.hi);
        NoiseField::Memo memo;
        for (int i = 0; i < kGrid; ++i) {
          const double x = i + 1 == kGrid ? x1 : x0 + width * i / (kGrid - 1);
          for (int j = 0; j < kGrid; ++j) {
            const double y =
                j + 1 == kGrid ? y1 : y0 + height * j / (kGrid - 1);
            const double v = field.fbm(x, y, octaves, memo);
            ASSERT_GE(v, range.lo - kRounding)
                << octaves << " octaves, box [" << x0 << ", " << x1
                << "] x [" << y0 << ", " << y1 << "] at (" << x << ", " << y
                << ")";
            ASSERT_LE(v, range.hi + kRounding)
                << octaves << " octaves, box [" << x0 << ", " << x1
                << "] x [" << y0 << ", " << y1 << "] at (" << x << ", " << y
                << ")";
          }
        }
      }
    }
  }
}

TEST(Noise, MemoNeverSharedAcrossSeeds) {
  // Two fields alternate on one memo over the same cells: each must see its
  // own lattice, never the corners the other field left behind.
  const NoiseField a(1);
  const NoiseField b(2);
  NoiseField::Memo memo;
  for (double x = 0.1; x < 3.0; x += 0.2) {
    const double va = a.fbm(x, 0.5, 5, memo);
    const double vb = b.fbm(x, 0.5, 5, memo);
    ASSERT_EQ(bits(va), bits(a.fbm(x, 0.5, 5)));
    ASSERT_EQ(bits(vb), bits(b.fbm(x, 0.5, 5)));
    ASSERT_NE(va, vb);
  }
}

TEST(Noise, FreshMemoHasNoSentinelCell) {
  // A new memo's slots read as cell (0, 0) of seed 0. The first sample there
  // must still hash its corners instead of reading the empty slots: it has
  // to match a memo that was filled elsewhere first and so must refill.
  for (const std::uint64_t seed : {0ULL, 1ULL, 42ULL}) {
    const NoiseField field(seed);
    NoiseField::Memo fresh;
    NoiseField::Memo warmed;
    field.fbm(5.5, -3.5, 3, warmed);
    EXPECT_EQ(bits(field.fbm(0.25, 0.75, 3, fresh)),
              bits(field.fbm(0.25, 0.75, 3, warmed)));
  }
}

TEST(Geo, GroundTrackCoversLatitudes) {
  double min_lat = 90, max_lat = -90;
  for (int slot = 0; slot < kSlotsPerDay; ++slot) {
    const auto p = ground_track(Satellite::kTerra, slot, 0.5);
    min_lat = std::min(min_lat, p.lat);
    max_lat = std::max(max_lat, p.lat);
    ASSERT_GE(p.lon, -180.0);
    ASSERT_LT(p.lon, 180.0);
  }
  EXPECT_LT(min_lat, -75.0);  // polar orbit reaches high latitudes
  EXPECT_GT(max_lat, 75.0);
}

TEST(Geo, DayNightSplitRoughlyHalf) {
  int day = 0;
  for (int slot = 0; slot < kSlotsPerDay; ++slot)
    if (is_daytime(Satellite::kTerra, slot, 1)) ++day;
  EXPECT_GT(day, kSlotsPerDay / 4);
  EXPECT_LT(day, 3 * kSlotsPerDay / 4);
}

TEST(Geo, SolarZenithExtremes) {
  // Local noon at the equator (lon 0, day fraction 0.5): low zenith.
  const double noon = solar_zenith_deg({0.0, 0.0}, 0.5, 80);
  const double midnight = solar_zenith_deg({0.0, 0.0}, 0.0, 80);
  EXPECT_LT(noon, 30.0);
  EXPECT_GT(midnight, 90.0);
}

TEST(Products, GeneratedShapesMatchGeometry) {
  GranuleGenerator gen(1);
  GranuleSpec spec;
  spec.geometry = kSmallGeometry;
  spec.slot = 100;
  const auto m03 = gen.mod03(spec);
  EXPECT_EQ(m03.latitude.size(), spec.geometry.pixels());
  EXPECT_EQ(m03.land_mask.size(), spec.geometry.pixels());
  const auto m06 = gen.mod06(spec);
  EXPECT_EQ(m06.cloud_mask.size(), spec.geometry.pixels());
  const auto m02 = gen.mod02(spec);
  EXPECT_EQ(m02.radiance.size(),
            spec.geometry.pixels() * static_cast<std::size_t>(spec.geometry.bands));
}

TEST(Products, CrossProductConsistency) {
  // MOD06 cloud mask and MOD02 radiance must describe the same scene: cloudy
  // pixels are brighter in the visible bands (daytime granule).
  GranuleGenerator gen(2022);
  GranuleSpec spec;
  spec.geometry = kSmallGeometry;
  // Find a daytime slot.
  int slot = 0;
  while (!is_daytime(spec.satellite, slot, spec.day_of_year)) ++slot;
  spec.slot = slot;
  const auto m02 = gen.mod02(spec);
  const auto m06 = gen.mod06(spec);
  ASSERT_TRUE(m02.daytime);
  double cloudy_sum = 0, clear_sum = 0;
  std::size_t cloudy_n = 0, clear_n = 0;
  for (int r = 0; r < spec.geometry.rows; ++r) {
    for (int c = 0; c < spec.geometry.cols; ++c) {
      const std::size_t i =
          static_cast<std::size_t>(r) * spec.geometry.cols + c;
      const float vis = m02.at(0, r, c);
      if (m06.cloud_mask[i]) {
        cloudy_sum += vis;
        ++cloudy_n;
      } else {
        clear_sum += vis;
        ++clear_n;
      }
    }
  }
  ASSERT_GT(cloudy_n, 0u);
  ASSERT_GT(clear_n, 0u);
  EXPECT_GT(cloudy_sum / cloudy_n, clear_sum / clear_n + 0.1);
}

TEST(Products, NightGranulesHaveFilledReflectiveBands) {
  GranuleGenerator gen(2022);
  GranuleSpec spec;
  spec.geometry = kSmallGeometry;
  int slot = 0;
  while (is_daytime(spec.satellite, slot, spec.day_of_year)) ++slot;
  spec.slot = slot;
  const auto m02 = gen.mod02(spec);
  ASSERT_FALSE(m02.daytime);
  EXPECT_FLOAT_EQ(m02.at(0, 0, 0), kFillValue);
  EXPECT_FLOAT_EQ(m02.at(2, 5, 5), kFillValue);
  // Thermal bands remain valid at night.
  EXPECT_NE(m02.at(3, 0, 0), kFillValue);
}

TEST(Products, HdflRoundTripAllProducts) {
  GranuleGenerator gen(5);
  GranuleSpec spec;
  spec.geometry = GranuleGeometry{64, 48, 4};
  spec.slot = 37;
  const auto m02 = gen.mod02(spec);
  const auto back02 = Mod02Granule::from_hdfl(
      storage::HdflFile::deserialize(m02.to_hdfl().serialize()));
  EXPECT_EQ(back02.spec.slot, 37);
  EXPECT_EQ(back02.daytime, m02.daytime);
  EXPECT_EQ(back02.radiance, m02.radiance);

  const auto m03 = gen.mod03(spec);
  const auto back03 = Mod03Granule::from_hdfl(
      storage::HdflFile::deserialize(m03.to_hdfl().serialize()));
  EXPECT_EQ(back03.land_mask, m03.land_mask);

  const auto m06 = gen.mod06(spec);
  const auto back06 = Mod06Granule::from_hdfl(
      storage::HdflFile::deserialize(m06.to_hdfl().serialize()));
  EXPECT_EQ(back06.cloud_mask, m06.cloud_mask);
}

TEST(Products, FromHdflRejectsGeometryThatDisagreesWithDatasets) {
  GranuleGenerator gen(5);
  GranuleSpec spec;
  spec.geometry = GranuleGeometry{64, 48, 4};
  while (!is_daytime(spec.satellite, spec.slot, spec.day_of_year)) ++spec.slot;
  const auto m02 = gen.mod02(spec).to_hdfl();
  const auto m03 = gen.mod03(spec).to_hdfl();
  const auto m06 = gen.mod06(spec).to_hdfl();
  // No CRC covers the attributes, so each edited file still loads.
  const auto edited = [](storage::HdflFile file, const char* key,
                         const char* value) {
    file.attrs()[key] = value;
    return storage::HdflFile::deserialize(file.serialize());
  };
  const auto decode_all = [&](const char* key, const char* value) {
    EXPECT_THROW(Mod02Granule::from_hdfl(edited(m02, key, value)),
                 storage::FormatError)
        << "MOD02 " << key << "=" << value;
    EXPECT_THROW(Mod03Granule::from_hdfl(edited(m03, key, value)),
                 storage::FormatError)
        << "MOD03 " << key << "=" << value;
    EXPECT_THROW(Mod06Granule::from_hdfl(edited(m06, key, value)),
                 storage::FormatError)
        << "MOD06 " << key << "=" << value;
  };
  decode_all("rows", "128");  // doubled: the tiler would read past the end
  decode_all("rows", "32");
  decode_all("cols", "49");
  decode_all("rows", "0");
  decode_all("cols", "-48");
  decode_all("bands", "0");
  decode_all("rows", "64x");
  decode_all("cols", "");
  decode_all("slot", "abc");
  decode_all("year", "99999999999");  // out of int range
  // rows x cols x bands that overflows 64 bits.
  auto huge = edited(m02, "rows", "2147483647");
  huge.attrs()["cols"] = "2147483647";
  huge.attrs()["bands"] = "2147483647";
  EXPECT_THROW(Mod02Granule::from_hdfl(huge), storage::FormatError);

  // Radiance alone carries the band count.
  EXPECT_THROW(Mod02Granule::from_hdfl(edited(m02, "bands", "8")),
               storage::FormatError);
  EXPECT_NO_THROW(Mod03Granule::from_hdfl(edited(m03, "bands", "8")));
  EXPECT_NO_THROW(Mod06Granule::from_hdfl(edited(m06, "bands", "8")));
}

TEST(Products, LandFractionPlausible) {
  EarthModel earth(2022);
  EarthModel::Memo memo;
  int land = 0;
  const int n = 6000;
  util::Rng rng(1);
  for (int i = 0; i < n; ++i) {
    const LatLon p{rng.uniform(-80, 80), rng.uniform(-180, 180)};
    if (earth.is_land(p, memo)) ++land;
  }
  const double frac = static_cast<double>(land) / n;
  EXPECT_GT(frac, 0.12);
  EXPECT_LT(frac, 0.55);
}

TEST(Products, LandAndCloudTestsMatchFullEvaluation) {
  // is_land and is_cloudy may answer before every octave is in; on a dense
  // grid their answers must equal the full evaluation's, including at the
  // points within 1e-4 of each threshold, which always take the full sum.
  const std::uint64_t seed = 2022;
  const EarthModel earth(seed);
  const std::uint64_t continents = util::mix64(seed, 1);
  EarthModel::Memo memo;
  EarthModel::Memo full;
  int near_land = 0;
  int near_cloud = 0;
  for (double lat = -89.75; lat < 90.0; lat += 0.5) {
    for (double lon = -179.75; lon < 180.0; lon += 0.5) {
      const LatLon p{lat, lon};
      const double land = oracle_fbm(continents, lon / 42.0, lat / 30.0, 5) +
                          0.10 * std::cos(lat * std::numbers::pi / 90.0);
      ASSERT_EQ(earth.is_land(p, memo), land > 0.18)
          << "(" << lat << ", " << lon << ")";
      if (std::abs(land - 0.18) < 1e-4) ++near_land;
      for (const int day : {1, 91, 182, 274}) {
        const double intensity = earth.cloud_intensity(p, day, full);
        ASSERT_EQ(earth.is_cloudy(p, day, memo), intensity > kCloudThreshold)
            << "(" << lat << ", " << lon << ") day " << day;
        if (std::abs(intensity - kCloudThreshold) < 1e-4) ++near_cloud;
      }
    }
  }
  EXPECT_GE(near_land, 10);
  EXPECT_GE(near_cloud, 10);
}

// The latitude terms written out plainly.
double oracle_polar(double lat) {
  return 0.10 * std::cos(lat * std::numbers::pi / 90.0);
}

double oracle_climatology(double lat) {
  return 0.18 * std::exp(-std::pow(lat / 12.0, 2)) +
         0.22 * std::exp(-std::pow((std::abs(lat) - 52.0) / 16.0, 2)) +
         0.05 * std::cos(2.0 * lat * std::numbers::pi / 180.0);
}

TEST(Products, LatitudeTableWithinATenthOfItsSlack) {
  // Every node, the points where the climatology peaks or kinks, the poles,
  // and a million latitudes at random: each interval holds the exact term,
  // and its centre, the interpolated value, is within a tenth of the slack.
  const auto& table = LatitudeTable::instance();
  std::vector<double> lats = {0.0, -0.0, 12.0, -12.0, 52.0, -52.0, 90.0, -90.0};
  for (int i = 0; i <= 180 * LatitudeTable::kNodesPerDegree; ++i)
    lats.push_back(-90.0 + static_cast<double>(i) /
                               LatitudeTable::kNodesPerDegree);
  util::Rng rng(31);
  for (int i = 0; i < 1'000'000; ++i) lats.push_back(rng.uniform(-90, 90));
  double polar_error = 0.0;
  double climatology_error = 0.0;
  for (const double lat : lats) {
    const auto polar = table.polar(lat);
    const auto climatology = table.climatology(lat);
    const double want_polar = oracle_polar(lat);
    const double want_climatology = oracle_climatology(lat);
    ASSERT_LE(polar.lo, want_polar) << lat;
    ASSERT_GE(polar.hi, want_polar) << lat;
    ASSERT_LE(climatology.lo, want_climatology) << lat;
    ASSERT_GE(climatology.hi, want_climatology) << lat;
    polar_error = std::max(
        polar_error, std::abs(0.5 * (polar.lo + polar.hi) - want_polar));
    climatology_error = std::max(
        climatology_error,
        std::abs(0.5 * (climatology.lo + climatology.hi) - want_climatology));
  }
  EXPECT_LE(polar_error, LatitudeTable::kSlack / 10) << polar_error;
  EXPECT_LE(climatology_error, LatitudeTable::kSlack / 10)
      << climatology_error;

  // Off the table, an interval that decides nothing.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double lat : {-90.5, 90.5, std::nan("")}) {
    EXPECT_EQ(table.polar(lat).lo, -kInf);
    EXPECT_EQ(table.climatology(lat).hi, kInf);
  }
}

// Finds where f(lon) - threshold changes sign along the parallel at `lat`,
// scanning in half-degree steps, and bisects each crossing down to two
// neighbouring longitudes; appends both ends of each crossing.
template <typename F>
void bisect_crossings(double lat, double threshold, F f,
                      std::vector<LatLon>& out) {
  double a = -180.0;
  bool above_a = f(LatLon{lat, a}) > threshold;
  for (double b = a + 0.5; b < 180.0; b += 0.5) {
    const bool above_b = f(LatLon{lat, b}) > threshold;
    if (above_b != above_a) {
      double lo = a;
      double hi = b;
      for (;;) {
        const double mid = 0.5 * (lo + hi);
        if (mid <= lo || mid >= hi) break;
        if ((f(LatLon{lat, mid}) > threshold) == above_a)
          lo = mid;
        else
          hi = mid;
      }
      out.push_back({lat, lo});
      out.push_back({lat, hi});
    }
    a = b;
    above_a = above_b;
  }
}

TEST(Products, LandAndCloudFallbacksAtThreshold) {
  // Points within 1e-12 of each threshold, where the tabulated term's
  // interval always straddles it, so is_land and is_cloudy finish with the
  // exact polar offset and climatology: their answers match the full
  // evaluation on both sides of every crossing.
  const std::uint64_t seed = 2022;
  const EarthModel earth(seed);
  const NoiseField continents(util::mix64(seed, 1));
  NoiseField::Memo land_memo;
  auto land = [&](const LatLon& p) {
    return continents.fbm(p.lon / 42.0, p.lat / 30.0, 5, land_memo) +
           oracle_polar(p.lat);
  };
  EarthModel::Memo full;
  EarthModel::Memo memo;
  util::Rng rng(41);
  std::vector<LatLon> land_points;
  for (int i = 0; i < 30; ++i)
    bisect_crossings(rng.uniform(-80, 80), 0.18, land, land_points);
  ASSERT_GE(land_points.size(), 100u);
  for (const LatLon& p : land_points) {
    const double v = land(p);
    ASSERT_LT(std::abs(v - 0.18), 1e-12) << "(" << p.lat << ", " << p.lon << ")";
    ASSERT_EQ(earth.is_land(p, memo), v > 0.18)
        << "(" << p.lat << ", " << p.lon << ")";
  }
  for (const int day : {1, 182}) {
    auto cloud = [&](const LatLon& p) {
      return earth.cloud_intensity(p, day, full);
    };
    std::vector<LatLon> cloud_points;
    for (int i = 0; i < 10; ++i)
      bisect_crossings(rng.uniform(-80, 80), kCloudThreshold, cloud,
                       cloud_points);
    ASSERT_GE(cloud_points.size(), 100u);
    for (const LatLon& p : cloud_points) {
      const double v = cloud(p);
      ASSERT_LT(std::abs(v - kCloudThreshold), 1e-12)
          << "(" << p.lat << ", " << p.lon << ") day " << day;
      ASSERT_EQ(earth.is_cloudy(p, day, memo), v > kCloudThreshold)
          << "(" << p.lat << ", " << p.lon << ") day " << day;
    }
  }
}

TEST(Products, EarthQueriesIgnoreMemoHistory) {
  // One memo threaded through scattered queries answers exactly as a fresh
  // memo per query.
  const EarthModel earth(2022);
  EarthModel::Memo shared;
  util::Rng rng(9);
  for (int i = 0; i < 2000; ++i) {
    const LatLon p{rng.uniform(-90, 90), rng.uniform(-180, 180)};
    const int day = 1 + i % 365;
    EarthModel::Memo a, b, c, d, e;
    ASSERT_EQ(earth.is_land(p, shared), earth.is_land(p, a));
    ASSERT_EQ(earth.is_cloudy(p, day, shared), earth.is_cloudy(p, day, e));
    ASSERT_EQ(bits(earth.cloud_intensity(p, day, shared)),
              bits(earth.cloud_intensity(p, day, b)));
    ASSERT_EQ(bits(earth.cloud_top_pressure(p, day, shared)),
              bits(earth.cloud_top_pressure(p, day, c)));
    ASSERT_EQ(bits(earth.surface_temperature(p, shared)),
              bits(earth.surface_temperature(p, d)));
  }
}

TEST(Catalog, FilenameRoundTrip) {
  GranuleId id{ProductKind::kMod02, Satellite::kTerra, 2022, 1, 95};
  EXPECT_EQ(id.filename(), "MOD021KM.A2022001.0755.061.hdf");
  const auto parsed = parse_granule_filename(id.filename());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, id);

  GranuleId aqua{ProductKind::kMod06, Satellite::kAqua, 2023, 365, 0};
  EXPECT_EQ(aqua.filename(), "MYD06_L2.A2023365.0000.061.hdf");
  EXPECT_EQ(*parse_granule_filename(aqua.filename()), aqua);
}

TEST(Catalog, RejectsMalformedFilenames) {
  EXPECT_FALSE(parse_granule_filename("notaproduct.A2022001.0000.061.hdf"));
  EXPECT_FALSE(parse_granule_filename("MOD021KM.A2022001.0003.061.hdf"));  // minute not multiple of 5
  EXPECT_FALSE(parse_granule_filename("MOD021KM.A2022001.0000.061.txt"));
  EXPECT_FALSE(parse_granule_filename("MOD021KM.X2022001.0000.061.hdf"));
}

TEST(Catalog, ProductNames) {
  EXPECT_EQ(product_short_name(ProductKind::kMod03, Satellite::kAqua), "MYD03");
  const auto parsed = parse_product_name("MOD021KM");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->first, ProductKind::kMod02);
  EXPECT_FALSE(parse_product_name("TROPOMI").has_value());
}

TEST(Catalog, ListsFullDay) {
  ArchiveService archive(2022);
  const auto entries = archive.list(ProductKind::kMod02, Satellite::kTerra,
                                    DaySpan{2022, 1, 1});
  ASSERT_EQ(entries.size(), 288u);
  EXPECT_EQ(entries.front().id.slot, 0);
  EXPECT_EQ(entries.back().id.slot, 287);
  for (const auto& e : entries) ASSERT_GT(e.size_bytes, 0u);
}

TEST(Catalog, DayVolumesMatchPaper) {
  // Paper: ~32 GB MOD02, ~8.4 GB MOD03, ~18 GB MOD06 per day.
  ArchiveService archive(2022);
  auto total = [&](ProductKind kind) {
    std::uint64_t sum = 0;
    for (const auto& e :
         archive.list(kind, Satellite::kTerra, DaySpan{2022, 1, 1}))
      sum += e.size_bytes;
    return static_cast<double>(sum) / (1024.0 * 1024 * 1024);
  };
  EXPECT_NEAR(total(ProductKind::kMod02), 32.0, 6.0);
  EXPECT_NEAR(total(ProductKind::kMod03), 8.4, 1.5);
  EXPECT_NEAR(total(ProductKind::kMod06), 18.0, 3.0);
}

TEST(Catalog, SizesDeterministic) {
  ArchiveService a(2022), b(2022);
  const GranuleId id{ProductKind::kMod02, Satellite::kTerra, 2022, 15, 100};
  EXPECT_EQ(a.size_of(id), b.size_of(id));
}

TEST(Catalog, MaterializeParsesBack) {
  ArchiveService archive(2022);
  const GranuleId id{ProductKind::kMod06, Satellite::kTerra, 2022, 1, 130};
  const auto bytes = archive.materialize(id, GranuleGeometry{64, 48, 4});
  const auto granule = Mod06Granule::from_hdfl(storage::HdflFile::deserialize(bytes));
  EXPECT_EQ(granule.spec.slot, 130);
  EXPECT_EQ(granule.cloud_mask.size(), 64u * 48u);
}

TEST(Stats, NightGranulesYieldNoTiles) {
  GranuleGenerator gen(2022);
  GranuleSpec spec;
  spec.geometry = kFullGeometry;
  int slot = 0;
  while (is_daytime(spec.satellite, slot, spec.day_of_year)) ++slot;
  spec.slot = slot;
  const auto stats = estimate_granule_stats(gen, spec);
  EXPECT_FALSE(stats.daytime);
  EXPECT_EQ(stats.selected_tiles, 0);
}

TEST(Stats, RejectsBadSampling) {
  // Checked before the night shortcut, so every slot rejects them.
  GranuleGenerator gen(2022);
  for (const int slot : {0, 150}) {
    GranuleSpec spec;
    spec.geometry = kFullGeometry;
    spec.slot = slot;
    EXPECT_THROW(estimate_granule_stats(gen, spec, 0, 6),
                 std::invalid_argument);
    EXPECT_THROW(estimate_granule_stats(gen, spec, -128, 6),
                 std::invalid_argument);
    EXPECT_THROW(estimate_granule_stats(gen, spec, 128, 0),
                 std::invalid_argument);
    EXPECT_THROW(estimate_granule_stats(gen, spec, 128, -2),
                 std::invalid_argument);
    EXPECT_THROW(estimate_granule_stats(gen, spec, 128, kMaxSamplesPerAxis + 1),
                 std::invalid_argument);
    const auto stats =
        estimate_granule_stats(gen, spec, 1024, kMaxSamplesPerAxis);
    EXPECT_FALSE(std::isnan(stats.mean_cloud_fraction));
    EXPECT_LE(stats.candidate_tiles, 1);  // one 1024-px tile fits
  }
}

TEST(Stats, SharedGeneratorAcrossThreads) {
  // Sampling memos live on each call's stack, so threads sharing one const
  // generator get exactly the serial answers.
  const GranuleGenerator gen(2022);
  auto stats_of = [&gen](int slot) {
    GranuleSpec spec;
    spec.geometry = kFullGeometry;
    spec.slot = slot;
    return estimate_granule_stats(gen, spec);
  };
  constexpr int kThreads = 4;
  std::vector<GranuleStats> parallel(kSlotsPerDay);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int slot = t; slot < kSlotsPerDay; slot += kThreads)
        parallel[static_cast<std::size_t>(slot)] = stats_of(slot);
    });
  for (auto& thread : threads) thread.join();
  for (int slot = 0; slot < kSlotsPerDay; ++slot) {
    const auto serial = stats_of(slot);
    const auto& got = parallel[static_cast<std::size_t>(slot)];
    ASSERT_EQ(got.daytime, serial.daytime) << slot;
    ASSERT_EQ(got.candidate_tiles, serial.candidate_tiles) << slot;
    ASSERT_EQ(got.selected_tiles, serial.selected_tiles) << slot;
    ASSERT_EQ(bits(got.mean_cloud_fraction), bits(serial.mean_cloud_fraction))
        << slot;
  }
}

TEST(Stats, TileLandBoundAgreesWithEverySample) {
  // Every tile of both satellites at the three golden tilings, sampled as
  // the estimator samples it. Land does not depend on the day and a slot's
  // swath is the same every day, so every slot covers the daytime tiles of
  // any days (1, 91, 182 and 274 among them). A tile the bound decides must
  // agree with is_land at every sample; the undecided ones must include
  // samples within 1e-4 of the threshold, which no bound could settle.
  const std::uint64_t seed = 2022;
  const GranuleGenerator gen(seed);
  const EarthModel& earth = gen.earth();
  const NoiseField continents(util::mix64(seed, 1));
  NoiseField::Memo continents_memo;
  EarthModel::Memo memo;
  long tiles[3] = {0, 0, 0};  // indexed by Side
  long near_threshold = 0;
  const std::pair<int, int> tilings[] = {{128, 6}, {96, 5}, {200, 9}};
  std::vector<LatLon> points;
  for (const auto& [tile_size, n] : tilings) {
    const auto& g = kFullGeometry;
    for (const Satellite sat : {Satellite::kTerra, Satellite::kAqua}) {
      for (int slot = 0; slot < kSlotsPerDay; ++slot) {
        for (int tr = 0; tr < g.rows / tile_size; ++tr) {
          std::vector<SwathRow> rows;
          for (int sr = 0; sr < n; ++sr)
            rows.push_back(swath_row(
                sat, slot,
                (tr * tile_size + (sr + 0.5) * tile_size / n) / g.rows));
          for (int tc = 0; tc < g.cols / tile_size; ++tc) {
            points.clear();
            for (int sc = 0; sc < n; ++sc)
              for (const SwathRow& row : rows)
                points.push_back(swath_pixel(
                    row, (tc * tile_size + (sc + 0.5) * tile_size / n) /
                             g.cols));
            const Side bound = earth.land_over(points);
            ++tiles[static_cast<int>(bound)];
            for (const LatLon& p : points) {
              const bool land = earth.is_land(p, memo);
              if (bound == Side::kUndecided) {
                const double v = continents.fbm(p.lon / 42.0, p.lat / 30.0,
                                                5, continents_memo) +
                                 oracle_polar(p.lat);
                if (std::abs(v - 0.18) < 1e-4) ++near_threshold;
                continue;
              }
              ASSERT_EQ(land, bound == Side::kAbove)
                  << satellite_name(sat) << " slot " << slot << ", tile ("
                  << tr << ", " << tc << ") of " << tile_size << " px at ("
                  << p.lat << ", " << p.lon << ")";
            }
          }
        }
      }
    }
  }
  EXPECT_GT(tiles[static_cast<int>(Side::kBelow)], 0);
  EXPECT_GT(tiles[static_cast<int>(Side::kAbove)], 0);
  EXPECT_GT(tiles[static_cast<int>(Side::kUndecided)], 0);
  EXPECT_GE(near_threshold, 10);
}

TEST(Stats, SelectedSubsetOfCandidates) {
  GranuleGenerator gen(2022);
  for (int slot = 0; slot < 288; slot += 17) {
    GranuleSpec spec;
    spec.geometry = kFullGeometry;
    spec.slot = slot;
    const auto stats = estimate_granule_stats(gen, spec);
    ASSERT_LE(stats.selected_tiles, stats.candidate_tiles);
    ASSERT_LE(stats.candidate_tiles, 150);  // 15 x 10 grid at full geometry
    ASSERT_GE(stats.selected_tiles, 0);
  }
}

TEST(Stats, DayYieldIsRealistic) {
  // Across a full day, mean selected tiles per daytime granule should be in
  // the range the AICCA papers describe (tens to ~150 per swath).
  GranuleGenerator gen(2022);
  long total = 0;
  int day_granules = 0;
  for (int slot = 0; slot < 288; ++slot) {
    GranuleSpec spec;
    spec.geometry = kFullGeometry;
    spec.slot = slot;
    const auto stats = estimate_granule_stats(gen, spec);
    if (stats.daytime) {
      ++day_granules;
      total += stats.selected_tiles;
    }
  }
  ASSERT_GT(day_granules, 0);
  const double mean = static_cast<double>(total) / day_granules;
  EXPECT_GT(mean, 30.0);
  EXPECT_LT(mean, 150.0);
}

// Golden pins: fingerprints of the generator's outputs, recorded from the
// straightforward per-sample evaluation (a fresh swath_pixel and fresh
// lattice hashes for every sample). Any change to the sampling kernels must
// leave every bit of these outputs unchanged.

TEST(Golden, GranuleStatsBitIdentical) {
  // Terra and Aqua, every slot of three days at full geometry, with the
  // default tiling and two others (odd samples per axis, tile sizes that do
  // not divide the granule).
  struct Tiling {
    int tile_size;
    int samples_per_axis;
    std::uint64_t pin;
  };
  const Tiling tilings[] = {
      {128, 6, 0x8db8f8ce5a18a822ULL},
      {96, 5, 0xe73b0a0332fec9fdULL},
      {200, 9, 0xc47243d3d3fc3d95ULL},
  };
  const GranuleGenerator gen(2022);
  for (const auto& tiling : tilings) {
    Fnv1a hash;
    for (const Satellite sat : {Satellite::kTerra, Satellite::kAqua}) {
      for (const int day : {1, 91, 182}) {
        for (int slot = 0; slot < kSlotsPerDay; ++slot) {
          GranuleSpec spec;
          spec.satellite = sat;
          spec.day_of_year = day;
          spec.slot = slot;
          spec.geometry = kFullGeometry;
          const auto stats = estimate_granule_stats(
              gen, spec, tiling.tile_size, tiling.samples_per_axis);
          hash.u64(stats.daytime ? 1 : 0);
          hash.u64(static_cast<std::uint64_t>(stats.candidate_tiles));
          hash.u64(static_cast<std::uint64_t>(stats.selected_tiles));
          hash.u64(bits(stats.mean_cloud_fraction));
        }
      }
    }
    EXPECT_EQ(hash.value(), tiling.pin)
        << "tile_size " << tiling.tile_size << ", samples_per_axis "
        << tiling.samples_per_axis << ": 0x" << std::hex << hash.value();
  }
}

TEST(Golden, ProductBytesBitIdentical) {
  // Serialized MOD02/MOD03/MOD06 at small and odd geometries, day and night,
  // both satellites.
  struct Case {
    GranuleGeometry geometry;
    std::uint64_t pin;
  };
  const Case cases[] = {
      {GranuleGeometry{61, 47, 7}, 0x24666792ead6dc56ULL},
      {GranuleGeometry{1, 1, 1}, 0x0d433e13699df4a8ULL},
      {GranuleGeometry{17, 233, 3}, 0x33770c5987a9df43ULL},
      {kSmallGeometry, 0xacc22e447f75201fULL},
  };
  const GranuleGenerator gen(5);
  int day_granules = 0;
  for (const auto& c : cases) {
    Fnv1a hash;
    for (const Satellite sat : {Satellite::kTerra, Satellite::kAqua}) {
      for (const int slot : {40, 150}) {
        GranuleSpec spec;
        spec.satellite = sat;
        spec.day_of_year = 200;
        spec.slot = slot;
        spec.geometry = c.geometry;
        const auto mod02 = gen.mod02(spec);
        if (mod02.daytime) ++day_granules;
        hash.bytes(mod02.to_hdfl().serialize());
        hash.bytes(gen.mod03(spec).to_hdfl().serialize());
        hash.bytes(gen.mod06(spec).to_hdfl().serialize());
      }
    }
    EXPECT_EQ(hash.value(), c.pin)
        << c.geometry.rows << "x" << c.geometry.cols << "x"
        << c.geometry.bands << ": 0x" << std::hex << hash.value();
  }
  // The slots cover both day and night granules.
  EXPECT_GT(day_granules, 0);
  EXPECT_LT(day_granules, 4 * static_cast<int>(std::size(cases)));
}

}  // namespace
}  // namespace mfw::modis
