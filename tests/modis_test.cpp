// Unit tests for the synthetic MODIS system: noise determinism, orbit
// geometry, product consistency, catalog naming/sizing, and workload
// statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <numbers>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "modis/catalog.hpp"
#include "modis/noise.hpp"
#include "modis/products.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

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
  const auto [m02, m03, m06] = gen.generate(spec);
  EXPECT_EQ(m03.latitude.size(), spec.geometry.pixels());
  EXPECT_EQ(m03.land_mask.size(), spec.geometry.pixels());
  EXPECT_EQ(m06.cloud_mask.size(), spec.geometry.pixels());
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
  const auto granule = gen.generate(spec);
  const auto& m02 = granule.mod02;
  const auto& m06 = granule.mod06;
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
  const auto m02 = gen.generate(spec).mod02;
  ASSERT_FALSE(m02.daytime);
  EXPECT_FLOAT_EQ(m02.at(0, 0, 0), kFillValue);
  EXPECT_FLOAT_EQ(m02.at(2, 5, 5), kFillValue);
  // Thermal bands remain valid at night.
  EXPECT_NE(m02.at(3, 0, 0), kFillValue);
}

TEST(Products, HdflRoundTripAllProducts) {
  GranuleGenerator gen(5);
  GranuleSpec spec;
  spec.satellite = Satellite::kAqua;
  spec.geometry = GranuleGeometry{64, 48, 4};
  spec.slot = 37;
  const auto [m02, m03, m06] = gen.generate(spec);
  const auto back02 = Mod02Granule::from_hdfl(
      storage::HdflFile::deserialize(Mod02Granule(m02).to_hdfl().serialize()));
  EXPECT_EQ(back02.spec, spec);
  EXPECT_EQ(back02.daytime, m02.daytime);
  EXPECT_EQ(back02.radiance, m02.radiance);

  const auto back03 = Mod03Granule::from_hdfl(
      storage::HdflFile::deserialize(Mod03Granule(m03).to_hdfl().serialize()));
  EXPECT_EQ(back03.spec, spec);
  EXPECT_EQ(back03.land_mask, m03.land_mask);

  const auto back06 = Mod06Granule::from_hdfl(
      storage::HdflFile::deserialize(Mod06Granule(m06).to_hdfl().serialize()));
  EXPECT_EQ(back06.spec, spec);
  EXPECT_EQ(back06.cloud_mask, m06.cloud_mask);
}

TEST(Products, FromHdflRejectsGeometryThatDisagreesWithDatasets) {
  GranuleGenerator gen(5);
  GranuleSpec spec;
  spec.geometry = GranuleGeometry{64, 48, 4};
  while (!is_daytime(spec.satellite, spec.slot, spec.day_of_year)) ++spec.slot;
  const auto granule = gen.generate(spec);
  const auto m02 = Mod02Granule(granule.mod02).to_hdfl();
  const auto m03 = Mod03Granule(granule.mod03).to_hdfl();
  const auto m06 = Mod06Granule(granule.mod06).to_hdfl();
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
  // Out of check_spec's ranges, or a year GranuleId::filename cannot print
  // in four digits: the tiles would name a granule that does not parse.
  for (const char* slot : {"288", "500", "-3"}) decode_all("slot", slot);
  for (const char* day : {"0", "367", "400"}) decode_all("day_of_year", day);
  for (const char* year : {"-1", "10000"}) decode_all("year", year);
  for (const auto& [key, value] :
       {std::pair{"slot", "0"}, {"slot", "287"}, {"day_of_year", "1"},
        {"day_of_year", "366"}, {"year", "0"}, {"year", "9999"}}) {
    EXPECT_NO_THROW(Mod02Granule::from_hdfl(edited(m02, key, value)))
        << key << "=" << value;
    EXPECT_NO_THROW(Mod03Granule::from_hdfl(edited(m03, key, value)))
        << key << "=" << value;
    EXPECT_NO_THROW(Mod06Granule::from_hdfl(edited(m06, key, value)))
        << key << "=" << value;
  }
  for (const char* satellite : {"Bogus", "", "aqua", "Terra "})
    decode_all("satellite", satellite);  // only "Terra" and "Aqua" decode
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

// The mesoscale term at p as is_cloudy may be given it: not known, by the
// bucket a slot table records, and exactly.
std::array<Interval, 3> meso_inputs(const EarthModel& earth, const LatLon& p,
                                    EarthModel::Memo& memo) {
  const double m = earth.mesoscale_cloud(p, memo);
  return {meso_interval(kUnrecordedBucket), meso_interval(meso_bucket(m)),
          Interval{m, m}};
}

TEST(Products, LandAndCloudTestsMatchFullEvaluation) {
  // is_land and is_cloudy may answer before every octave is in; on a dense
  // grid their answers must equal the full evaluation's, including at the
  // points within 1e-4 of each threshold, which always take the full sum.
  // is_cloudy answers alike for each way of giving it the mesoscale term.
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
      const auto mesos = meso_inputs(earth, p, full);
      for (const int day : {1, 91, 182, 274}) {
        const double intensity = earth.cloud_intensity(p, day, full);
        for (const Interval& meso : mesos)
          ASSERT_EQ(earth.is_cloudy(p, day, meso, memo),
                    intensity > kCloudThreshold)
              << "(" << lat << ", " << lon << ") day " << day << ", meso ["
              << meso.lo << ", " << meso.hi << "]";
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
  // evaluation on both sides of every crossing. A bucket's interval of the
  // mesoscale term straddles there too, so is_cloudy given it evaluates the
  // exact term first; given the term itself, it uses that.
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
      for (const Interval& meso : meso_inputs(earth, p, full))
        ASSERT_EQ(earth.is_cloudy(p, day, meso, memo), v > kCloudThreshold)
            << "(" << p.lat << ", " << p.lon << ") day " << day << ", meso ["
            << meso.lo << ", " << meso.hi << "]";
    }
  }
}

// Whether the interval of the bucket `m` lands in holds it. The bucket must
// be a real one, not kUnrecordedBucket, and its interval at most a bucket
// wide but for the outer buckets' reach out to +-kMesoBound.
::testing::AssertionResult bucket_holds(double m) {
  const std::uint8_t bucket = meso_bucket(m);
  if (bucket >= kMesoBuckets)
    return ::testing::AssertionFailure()
           << std::hexfloat << m << " lands in bucket " << int{bucket};
  const Interval in = meso_interval(bucket);
  if (!(in.lo <= m && m <= in.hi) ||
      !(in.hi - in.lo <= 0.7 / kMesoBuckets + 1e-6))
    return ::testing::AssertionFailure()
           << std::hexfloat << m << " in bucket " << int{bucket} << ", ["
           << in.lo << ", " << in.hi << "]";
  return ::testing::AssertionSuccess();
}

TEST(Products, MesoBucketIntervalsHoldTheTerm) {
  // A hit decides a sample from its bucket's interval, so that interval
  // must hold the mesoscale term exactly as is_cloudy would compute it: at
  // a million seeded points, at points bisected to each bucket edge the
  // field reaches, at every edge's neighbouring doubles, and at the
  // extremes, the field's and those of its bound.
  const EarthModel earth(2022);
  EarthModel::Memo memo;
  const auto term = [&](const LatLon& p) {
    return earth.mesoscale_cloud(p, memo);
  };
  std::array<std::optional<LatLon>, kMesoBuckets> reached;  // one point each
  double lowest = std::numeric_limits<double>::infinity();
  double highest = -lowest;
  util::Rng rng(53);
  for (int i = 0; i < 1'000'000; ++i) {
    const LatLon p{rng.uniform(-90, 90), rng.uniform(-180, 180)};
    const double m = term(p);
    ASSERT_TRUE(bucket_holds(m)) << "(" << p.lat << ", " << p.lon << ")";
    auto& seen = reached[meso_bucket(m)];
    if (!seen) seen = p;
    lowest = std::min(lowest, m);
    highest = std::max(highest, m);
  }
  // Edge e is the bottom of bucket e. Between a point below it and one above
  // it, bisection finds two neighbouring points on either side.
  const int first = meso_bucket(lowest) + 1;
  const int last = meso_bucket(highest);
  ASSERT_GE(last - first, 100);
  int below = first - 1;
  for (int e = first; e <= last; ++e) {
    if (reached[static_cast<std::size_t>(e - 1)]) below = e - 1;
    int above = e;
    while (!reached[static_cast<std::size_t>(above)]) ++above;
    const LatLon a = *reached[static_cast<std::size_t>(below)];
    const LatLon b = *reached[static_cast<std::size_t>(above)];
    const auto at = [&](double t) {
      return t == 1.0 ? b
                      : LatLon{a.lat + (b.lat - a.lat) * t,
                               a.lon + (b.lon - a.lon) * t};
    };
    double lo = 0.0;
    double hi = 1.0;
    for (;;) {
      const double mid = 0.5 * (lo + hi);
      if (mid <= lo || mid >= hi) break;
      (meso_bucket(term(at(mid))) >= e ? hi : lo) = mid;
    }
    for (const double t : {lo, hi}) {
      const double m = term(at(t));
      ASSERT_EQ(meso_bucket(m) >= e, t == hi) << "edge " << e;
      ASSERT_TRUE(bucket_holds(m)) << "edge " << e;
    }
  }
  for (int e = 1; e < kMesoBuckets; ++e) {
    double m = -0.35 + e * (0.7 / kMesoBuckets);
    for (int k = 0; k < 8; ++k) m = std::nextafter(m, -1.0);
    for (int k = 0; k < 16; ++k, m = std::nextafter(m, 1.0))
      ASSERT_TRUE(bucket_holds(m)) << "edge " << e;
  }
  for (const double m : {lowest, highest, -0.35, 0.35, -kMesoBound,
                         kMesoBound, 0.0})
    EXPECT_TRUE(bucket_holds(m));
  // A term never recorded may be anything the bound allows.
  EXPECT_EQ(meso_interval(kUnrecordedBucket).lo, -kMesoBound);
  EXPECT_EQ(meso_interval(kUnrecordedBucket).hi, kMesoBound);
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
    const Interval unknown = meso_interval(kUnrecordedBucket);
    ASSERT_EQ(earth.is_cloudy(p, day, unknown, shared),
              earth.is_cloudy(p, day, unknown, e));
    ASSERT_EQ(bits(earth.cloud_intensity(p, day, shared)),
              bits(earth.cloud_intensity(p, day, b)));
    ASSERT_EQ(bits(earth.cloud_top_pressure(p, day, shared)),
              bits(earth.cloud_top_pressure(p, day, c)));
    ASSERT_EQ(bits(earth.surface_temperature(p, shared)),
              bits(earth.surface_temperature(p, d)));
  }
}

// MOD02 radiance noise: the approximation of util::Rng::box_muller, and
// the decision that must give the exact normal's float every time.

// The draws the tests below feed the approximation: `count` draws of a
// seeded stream, then every pair of edge values. u1 takes 1 - 2^-53, every
// power of two from 2^-53 to 1/2, and sqrt(2)/2 with its neighbours (where
// the log's reduction switches); u2 takes 1 - 2^-53 and each k/8 in [0, 1)
// with the draws 2^-53 either side (the octants, where the cos's reduction
// switches).
struct Draws {
  std::vector<double> u1;
  std::vector<double> u2;
};

Draws normal_draws(std::size_t count, std::uint64_t seed) {
  Draws d;
  util::Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    const auto draw = rng.normal_draw();
    d.u1.push_back(draw.u1);
    d.u2.push_back(draw.u2);
  }
  const double root = std::sqrt(0.5);
  std::vector<double> u1s = {1.0 - 0x1p-53, std::nextafter(root, 0.0), root,
                             std::nextafter(root, 1.0)};
  for (int k = 1; k <= 53; ++k) u1s.push_back(std::ldexp(1.0, -k));
  std::vector<double> u2s = {1.0 - 0x1p-53};
  for (int k = 0; k < 8; ++k)
    for (const double d2 : {-0x1p-53, 0.0, 0x1p-53})
      if (k > 0 || d2 >= 0.0) u2s.push_back(k / 8.0 + d2);
  for (const double a : u1s) {
    for (const double b : u2s) {
      d.u1.push_back(a);
      d.u2.push_back(b);
    }
  }
  return d;
}

TEST(Radiance, ApproximateNormalsWithinBound) {
  // A count that is not a multiple of the four lanes, so the padded tail
  // runs too.
  const Draws d = normal_draws(1'000'003, 17);
  std::vector<double> approx(d.u1.size());
  approximate_normals(d.u1, d.u2, approx);
  for (std::size_t i = 0; i < d.u1.size(); ++i) {
    const double err =
        std::abs(approx[i] - util::Rng::box_muller(d.u1[i], d.u2[i]));
    ASSERT_LE(err, kNormalApproxError / 1000)
        << "u1 " << d.u1[i] << ", u2 " << d.u2[i];
  }
  // Every length from 0 to 9 gives the same values as the long call.
  for (std::size_t n = 0; n < 10; ++n) {
    std::vector<double> part(n);
    approximate_normals(std::span(d.u1).first(n), std::span(d.u2).first(n),
                        part);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(bits(part[i]), bits(approx[i]));
  }
  std::vector<double> short_out(2);
  EXPECT_THROW(approximate_normals(std::span(d.u1).first(3),
                                   std::span(d.u2).first(3), short_out),
               std::invalid_argument);
}

TEST(Radiance, UndecidedValuesTakeTheExactNormal) {
  // Approximate normals that differ from the exact one (the kernel's own,
  // where they differ, and the exact one moved by the largest error
  // noisy_radiance allows), each with a radiance a chosen so that a float
  // midpoint M
  // falls between the two sums: a + coef n' lands on M and a + coef n
  // beyond it, or the reverse, whichever makes the tie at M round away
  // from the other sum. A decision from the approximation alone gives the
  // wrong float for every one.
  const Draws d = normal_draws(200'000, 23);
  std::vector<double> approx(d.u1.size());
  approximate_normals(d.u1, d.u2, approx);
  constexpr double kMoved = kNormalApproxError / 2;
  int forced = 0;
  for (std::size_t i = 0; i < d.u1.size(); ++i) {
    const double exact = util::Rng::box_muller(d.u1[i], d.u2[i]);
    for (const double n : {approx[i], exact + kMoved, exact - kMoved}) {
      for (const double coef : {0.01, 0.005}) {
        const double p_exact = coef * exact;
        const double p_approx = coef * n;
        if (p_exact == p_approx) continue;
        const float f = static_cast<float>(std::min(p_exact, p_approx));
        const double mid =
            0.5 * (static_cast<double>(f) +
                   static_cast<double>(std::nextafter(f, HUGE_VALF)));
        for (const double a : {mid - p_exact, mid - p_approx}) {
          const float want = static_cast<float>(a + coef * exact);
          if (want == static_cast<float>(a + coef * n)) continue;
          ++forced;
          ASSERT_EQ(std::bit_cast<std::uint32_t>(
                        noisy_radiance(a, coef, n, d.u1[i], d.u2[i])),
                    std::bit_cast<std::uint32_t>(want))
              << "u1 " << d.u1[i] << ", u2 " << d.u2[i] << ", approx " << n
              << ", a " << a;
        }
      }
    }
  }
  EXPECT_GE(forced, 100'000);
}

// The per-pixel synthesis the generator replaced, kept verbatim as the
// oracle for every product byte: one loop per product, each sampling the
// Earth model on its own, a fresh libm normal per band, the solar zenith
// (declination included) recomputed for every pixel, and the surface
// temperature of every pixel, cloudy or not. The parameters carry the
// generator's member names so that the loop bodies stay verbatim.
double direct_solar_zenith_deg(const LatLon& where, double utc_day_fraction,
                               int day_of_year) {
  constexpr double kPi = std::numbers::pi;
  constexpr double kDeg = 180.0 / kPi;
  constexpr double kRad = kPi / 180.0;
  // Solar declination (Cooper's formula).
  const double decl =
      23.45 * kRad *
      std::sin(2.0 * kPi * (284.0 + static_cast<double>(day_of_year)) / 365.0);
  // Hour angle from local solar time.
  const double local_time = utc_day_fraction * 24.0 + where.lon / 15.0;
  const double hour_angle = (local_time - 12.0) * 15.0 * kRad;
  const double lat = where.lat * kRad;
  const double cos_zenith = std::sin(lat) * std::sin(decl) +
                            std::cos(lat) * std::cos(decl) * std::cos(hour_angle);
  return std::acos(std::fmin(1.0, std::fmax(-1.0, cos_zenith))) * kDeg;
}

double direct_day_fraction(const GranuleSpec& spec, double row_frac) {
  return (static_cast<double>(spec.slot) + row_frac) / kSlotsPerDay;
}

Mod03Granule direct_mod03(const EarthModel& earth_, const GranuleSpec& spec) {
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
      out.solar_zenith[i] = static_cast<float>(direct_solar_zenith_deg(
          p, direct_day_fraction(spec, row_frac), spec.day_of_year));
    }
  }
  return out;
}

Mod06Granule direct_mod06(const EarthModel& earth_, const GranuleSpec& spec) {
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

Mod02Granule direct_mod02(const EarthModel& earth_, std::uint64_t seed_,
                          const GranuleSpec& spec) {
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

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

// Every byte of the three products of `spec` equals the direct synthesis.
void expect_direct_bytes(const GranuleGenerator& gen, std::uint64_t seed,
                         const GranuleSpec& spec) {
  const auto [m02, m03, m06] = gen.generate(spec);
  const auto want02 = direct_mod02(gen.earth(), seed, spec);
  const auto want03 = direct_mod03(gen.earth(), spec);
  const auto want06 = direct_mod06(gen.earth(), spec);
  const auto& g = spec.geometry;
  SCOPED_TRACE(::testing::Message()
               << satellite_name(spec.satellite) << " day "
               << spec.day_of_year << " slot " << spec.slot << " at "
               << g.rows << "x" << g.cols << "x" << g.bands);
  EXPECT_EQ(m02.daytime, want02.daytime);
  EXPECT_TRUE(same_bytes(m02.radiance, want02.radiance));
  EXPECT_TRUE(same_bytes(m03.latitude, want03.latitude));
  EXPECT_TRUE(same_bytes(m03.longitude, want03.longitude));
  EXPECT_TRUE(same_bytes(m03.land_mask, want03.land_mask));
  EXPECT_TRUE(same_bytes(m03.solar_zenith, want03.solar_zenith));
  EXPECT_TRUE(same_bytes(m06.cloud_mask, want06.cloud_mask));
  EXPECT_TRUE(same_bytes(m06.cloud_optical_thickness,
                         want06.cloud_optical_thickness));
  EXPECT_TRUE(same_bytes(m06.cloud_top_pressure, want06.cloud_top_pressure));
  EXPECT_TRUE(same_bytes(m06.cloud_water_path, want06.cloud_water_path));
}

// Both satellites, four days, every 7th slot (day and night granules), at
// one odd geometry per instance, one with fewer bands than the three
// reflective ones. Each geometry is its own ctest entry, so a parallel ctest
// spreads the oracle's cost.
class BytesMatchDirectSynthesis
    : public ::testing::TestWithParam<GranuleGeometry> {};

TEST_P(BytesMatchDirectSynthesis, EverySeventhSlot) {
  const std::uint64_t seed = 5;
  const GranuleGenerator gen(seed);
  int day_granules = 0;
  int granules = 0;
  for (const Satellite sat : {Satellite::kTerra, Satellite::kAqua}) {
    for (const int day : {1, 100, 200, 300}) {
      for (int slot = 0; slot < kSlotsPerDay; slot += 7) {
        GranuleSpec spec;
        spec.satellite = sat;
        spec.day_of_year = day;
        spec.slot = slot;
        spec.geometry = GetParam();
        expect_direct_bytes(gen, seed, spec);
        if (is_daytime(sat, slot, day)) ++day_granules;
        ++granules;
      }
    }
  }
  EXPECT_GT(day_granules, granules / 4);
  EXPECT_LT(day_granules, 3 * granules / 4);
}

INSTANTIATE_TEST_SUITE_P(
    Products, BytesMatchDirectSynthesis,
    ::testing::Values(GranuleGeometry{61, 47, 7}, GranuleGeometry{1, 1, 1},
                      GranuleGeometry{17, 233, 3}, GranuleGeometry{9, 7, 2}),
    [](const ::testing::TestParamInfo<GranuleGeometry>& info) {
      const GranuleGeometry& g = info.param;
      return std::to_string(g.rows) + "x" + std::to_string(g.cols) + "x" +
             std::to_string(g.bands);
    });

TEST(Products, BenchmarkGranulesMatchDirectSynthesis) {
  // The materialized benchmark's granules: the default world's first four
  // daytime Terra slots of day 1 at 512 x 340 x 6, and its first night one.
  const GranuleGenerator world(2022);
  GranuleSpec spec;
  spec.geometry = GranuleGeometry{512, 340, 6};
  int day_slots = 0;
  bool night_slot = false;
  for (spec.slot = 0; day_slots < 4 || !night_slot; ++spec.slot) {
    const bool daytime =
        is_daytime(spec.satellite, spec.slot, spec.day_of_year);
    if (daytime ? day_slots == 4 : night_slot) continue;
    expect_direct_bytes(world, 2022, spec);
    if (daytime)
      ++day_slots;
    else
      night_slot = true;
  }
}

// The serialized MOD02, MOD03 and MOD06 of `granule`, one after another.
std::vector<std::byte> serialized(const GranuleProducts& granule) {
  std::vector<std::byte> bytes;
  for (const auto& file : {Mod02Granule(granule.mod02).to_hdfl(),
                           Mod03Granule(granule.mod03).to_hdfl(),
                           Mod06Granule(granule.mod06).to_hdfl()}) {
    const auto one = file.serialize();
    bytes.insert(bytes.end(), one.begin(), one.end());
  }
  return bytes;
}

TEST(Products, SharedGeneratorAcrossThreads) {
  // The noise buffers and memos of a call are its own, so threads sharing
  // one const generator get exactly the serial products.
  const GranuleGenerator gen(2022);
  constexpr int kThreads = 4;
  constexpr int kGranules = 16;
  auto spec_of = [](int k) {
    GranuleSpec spec;
    spec.satellite = k % 2 == 0 ? Satellite::kTerra : Satellite::kAqua;
    spec.slot = 11 * k;
    spec.geometry = GranuleGeometry{40, 33, 7};
    return spec;
  };
  std::vector<std::vector<std::byte>> parallel(kGranules);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int k = t; k < kGranules; k += kThreads) {
        const auto spec = spec_of(k);
        parallel[static_cast<std::size_t>(k)] = serialized(gen.generate(spec));
      }
    });
  for (auto& thread : threads) thread.join();
  int day_granules = 0;
  for (int k = 0; k < kGranules; ++k) {
    const auto spec = spec_of(k);
    EXPECT_EQ(parallel[static_cast<std::size_t>(k)],
              serialized(gen.generate(spec)))
        << k;
    if (is_daytime(spec.satellite, spec.slot, spec.day_of_year))
      ++day_granules;
  }
  EXPECT_GT(day_granules, 0);
  EXPECT_LT(day_granules, kGranules);
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

  // Every product of both satellites, every day and slot.
  for (const Satellite sat : {Satellite::kTerra, Satellite::kAqua}) {
    for (const ProductKind kind :
         {ProductKind::kMod02, ProductKind::kMod03, ProductKind::kMod06}) {
      for (int day = 1; day <= 366; ++day) {
        for (int slot = 0; slot < kSlotsPerDay; ++slot) {
          const GranuleId one{kind, sat, 2022, day, slot};
          const auto back = parse_granule_filename(one.filename());
          ASSERT_TRUE(back.has_value()) << one.filename();
          ASSERT_EQ(*back, one) << one.filename();
        }
      }
    }
  }
}

TEST(Catalog, FilenameIsThePrintfFormat) {
  // The name is printf's "%s.A%04d%03d.%02d%02d.061.hdf", fields beyond
  // their width and negative ones included.
  for (const Satellite sat : {Satellite::kTerra, Satellite::kAqua}) {
    for (const ProductKind kind :
         {ProductKind::kMod02, ProductKind::kMod03, ProductKind::kMod06}) {
      for (const int year : {-5, 0, 7, 999, 2022, 12345}) {
        for (const int day : {-3, 1, 42, 366, 1000}) {
          for (const int slot : {-13, 0, 1, 95, 287, 300, 2400}) {
            const GranuleId id{kind, sat, year, day, slot};
            const int minutes = slot * 5;
            char expect[96];
            std::snprintf(expect, sizeof expect,
                          "%s.A%04d%03d.%02d%02d.061.hdf",
                          product_short_name(kind, sat).c_str(), year, day,
                          minutes / 60, minutes % 60);
            EXPECT_EQ(id.filename(), expect);
          }
        }
      }
    }
  }
}

TEST(Catalog, RejectsMalformedFilenames) {
  EXPECT_FALSE(parse_granule_filename("notaproduct.A2022001.0000.061.hdf"));
  EXPECT_FALSE(parse_granule_filename("MOD021KM.A2022001.0003.061.hdf"));  // minute not multiple of 5
  EXPECT_FALSE(parse_granule_filename("MOD021KM.A2022001.0000.061.txt"));
  EXPECT_FALSE(parse_granule_filename("MOD021KM.X2022001.0000.061.hdf"));
  // Each field is digits only, the collection is 061, and the name is the
  // one its granule prints: a lenient number parse read the first four as
  // year 20, day 1, slot 12 and slot 8.
  EXPECT_FALSE(parse_granule_filename("MOD03.A20x2001.0040.061.hdf"));
  EXPECT_FALSE(parse_granule_filename("MOD03.A2022 01.0040.061.hdf"));
  EXPECT_FALSE(parse_granule_filename("MOD03.A2022001.+100.061.hdf"));
  EXPECT_FALSE(parse_granule_filename("MOD03.A2022001.0 40.061.hdf"));
  EXPECT_FALSE(parse_granule_filename("MOD03.A2022001.0040.999.hdf"));
  EXPECT_FALSE(parse_granule_filename("MOD03.A2022001.-040.061.hdf"));
  EXPECT_FALSE(parse_granule_filename("MOD03.A2022001.0075.061.hdf"));
  EXPECT_FALSE(parse_granule_filename("MOD03.A2022000.0040.061.hdf"));
  EXPECT_FALSE(parse_granule_filename("MOD03.A2022367.0040.061.hdf"));
  EXPECT_FALSE(parse_granule_filename("MOD03.A2022001.2400.061.hdf"));
  EXPECT_TRUE(parse_granule_filename("MOD03.A2022001.0040.061.hdf"));
  // Every time field 0000-9999 and day field 000-999: a name is accepted
  // exactly when it is the name its granule prints.
  int times = 0;
  for (int t = 0; t < 10000; ++t) {
    const std::string name =
        util::strformat("MYD06_L2.A2022200.%04d.061.hdf", t);
    if (const auto id = parse_granule_filename(name)) {
      ++times;
      ASSERT_EQ(id->filename(), name);
    }
  }
  EXPECT_EQ(times, kSlotsPerDay);
  int days = 0;
  for (int d = 0; d < 1000; ++d) {
    const std::string name =
        util::strformat("MOD021KM.A1999%03d.2355.061.hdf", d);
    if (const auto id = parse_granule_filename(name)) {
      ++days;
      ASSERT_EQ(id->filename(), name);
    }
  }
  EXPECT_EQ(days, 366);
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

// One archive request: a granule's product at a geometry.
struct Request {
  GranuleId id;
  GranuleGeometry geometry;
};

GranuleId product_of(GranuleId id, ProductKind kind) {
  id.product = kind;
  return id;
}

// The serialized products of a fresh generator's synthesis of each granule
// asked for, synthesised once per granule.
class FreshProducts {
 public:
  explicit FreshProducts(std::uint64_t seed) : seed_(seed) {}

  const std::vector<std::byte>& of(const Request& r) {
    const auto& g = r.geometry;
    const std::string key = product_of(r.id, ProductKind::kMod02).filename() +
                            " " + std::to_string(g.rows) + "x" +
                            std::to_string(g.cols) + "x" +
                            std::to_string(g.bands);
    auto it = made_.find(key);
    if (it == made_.end()) {
      GranuleSpec spec;
      spec.satellite = r.id.satellite;
      spec.year = r.id.year;
      spec.day_of_year = r.id.day_of_year;
      spec.slot = r.id.slot;
      spec.geometry = g;
      const auto granule = GranuleGenerator(seed_).generate(spec);
      it = made_
               .emplace(key, std::array{
                                 Mod02Granule(granule.mod02).to_hdfl().serialize(),
                                 Mod03Granule(granule.mod03).to_hdfl().serialize(),
                                 Mod06Granule(granule.mod06).to_hdfl().serialize()})
               .first;
    }
    return it->second[static_cast<std::size_t>(r.id.product)];
  }

 private:
  std::uint64_t seed_;
  std::map<std::string, std::array<std::vector<std::byte>, 3>> made_;
};

// Serves `requests` in order from one archive; each answer must equal the
// product of a fresh synthesis.
void expect_fresh_answers(const ArchiveService& archive, FreshProducts& fresh,
                          const std::vector<Request>& requests) {
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    const auto& g = r.geometry;
    ASSERT_EQ(archive.materialize(r.id, g), fresh.of(r))
        << "request " << i << ": " << r.id.filename() << " at " << g.rows
        << "x" << g.cols << "x" << g.bands;
  }
}

// The first daytime (or night) slot of a satellite's day at or after `from`.
int slot_where(Satellite sat, int day, bool daytime, int from = 0) {
  int slot = from;
  while (is_daytime(sat, slot, day) != daytime) ++slot;
  return slot;
}

TEST(Catalog, MaterializeMatchesGenerateInAnyOrder) {
  constexpr std::uint64_t kSeed = 2022;
  constexpr ProductKind k02 = ProductKind::kMod02;
  constexpr ProductKind k03 = ProductKind::kMod03;
  constexpr ProductKind k06 = ProductKind::kMod06;
  const GranuleGeometry big{512, 340, 6};
  const GranuleGeometry one{1, 1, 1};
  const GranuleGeometry small{24, 17, 4};
  const auto granule = [](Satellite sat, int slot, int day = 1) {
    return GranuleId{ProductKind::kMod02, sat, 2022, day, slot};
  };
  const Satellite terra = Satellite::kTerra;
  const Satellite aqua = Satellite::kAqua;
  // Day and night granules of both satellites, at both geometries.
  const std::vector<Request> granules = {
      {granule(terra, slot_where(terra, 1, true)), big},
      {granule(aqua, slot_where(aqua, 1, false)), one},
      {granule(terra, slot_where(terra, 1, false)), one},
      {granule(aqua, slot_where(aqua, 1, true)), one},
  };
  FreshProducts fresh(kSeed);

  SCOPED_TRACE("every order of the three products");
  std::array<ProductKind, 3> order = {k02, k03, k06};
  int orders = 0;
  do {
    const ArchiveService archive(kSeed);
    std::vector<Request> requests;
    for (const Request& g : granules)
      for (const ProductKind kind : order)
        requests.push_back({product_of(g.id, kind), g.geometry});
    expect_fresh_answers(archive, fresh, requests);
    ++orders;
  } while (std::next_permutation(order.begin(), order.end()));
  EXPECT_EQ(orders, 6);

  // The workflow's request order over the materialized benchmark's four
  // granules (three download workers): at most two granules partly served.
  {
    SCOPED_TRACE("the workflow's interleaving");
    std::vector<GranuleId> g;
    for (int slot = 0; g.size() < 4; ++slot)
      if (is_daytime(terra, slot, 1)) g.push_back(granule(terra, slot));
    const std::pair<int, ProductKind> order[] = {
        {0, k03}, {0, k06}, {1, k03}, {0, k02}, {1, k06}, {1, k02},
        {2, k03}, {2, k06}, {2, k02}, {3, k03}, {3, k02}, {3, k06}};
    std::vector<Request> requests;
    for (const auto& [k, kind] : order)
      requests.push_back({product_of(g[static_cast<std::size_t>(k)], kind),
                          big});
    expect_fresh_answers(ArchiveService(kSeed), fresh, requests);
  }

  // Granules that differ in one key field only, interleaved: the geometry,
  // the satellite, the slot, the day and the year.
  {
    SCOPED_TRACE("granules one key field apart");
    const GranuleId a = granule(terra, 40, 200);
    GranuleId year = a;
    year.year = 2023;
    const std::pair<GranuleId, GranuleGeometry> pairs[][2] = {
        {{a, one}, {a, small}},
        {{a, small}, {granule(aqua, 40, 200), small}},
        {{a, small}, {granule(terra, 41, 200), small}},
        {{a, small}, {granule(terra, 40, 201), small}},
        {{a, small}, {year, small}},
    };
    for (const auto& pair : pairs) {
      std::vector<Request> requests;
      for (const ProductKind kind : {k02, k03, k06})
        for (const auto& [id, geometry] : pair)
          requests.push_back({product_of(id, kind), geometry});
      expect_fresh_answers(ArchiveService(kSeed), fresh, requests);
    }
  }

  // A product asked for again after it was handed out.
  {
    SCOPED_TRACE("products asked for twice");
    const GranuleId a = granule(aqua, slot_where(aqua, 1, true));
    expect_fresh_answers(ArchiveService(kSeed), fresh,
                         {{product_of(a, k02), small},
                          {product_of(a, k02), small},
                          {product_of(a, k06), small},
                          {product_of(a, k03), small},
                          {product_of(a, k06), small},
                          {product_of(a, k02), small}});
  }

  // More granules started than the service holds, then finished in the
  // order they were started and in reverse.
  {
    SCOPED_TRACE("more granules started than held");
    constexpr int kStarted = 7;
    for (const bool reverse : {false, true}) {
      std::vector<Request> requests;
      for (int k = 0; k < kStarted; ++k)
        requests.push_back({product_of(granule(terra, 30 * k), k06), small});
      for (const ProductKind kind : {k02, k03}) {
        for (int i = 0; i < kStarted; ++i) {
          const int k = reverse ? kStarted - 1 - i : i;
          requests.push_back({product_of(granule(terra, 30 * k), kind), small});
        }
      }
      expect_fresh_answers(ArchiveService(kSeed), fresh, requests);
    }
  }
}

TEST(Catalog, MaterializeAcrossThreads) {
  // Four threads share one const archive, each asking for every product of
  // the same eight granules in its own order; each answer equals a serial
  // run's.
  constexpr std::uint64_t kSeed = 2022;
  constexpr int kThreads = 4;
  constexpr int kGranules = 8;
  const GranuleGeometry geometry{40, 33, 7};
  std::vector<GranuleId> ids;
  for (int k = 0; k < kGranules; ++k)
    for (const ProductKind kind :
         {ProductKind::kMod02, ProductKind::kMod03, ProductKind::kMod06})
      ids.push_back(GranuleId{kind,
                              k % 2 == 0 ? Satellite::kTerra : Satellite::kAqua,
                              2022, 1, 23 * k});
  std::vector<std::vector<std::byte>> serial;
  {
    const ArchiveService archive(kSeed);
    for (const GranuleId& id : ids)
      serial.push_back(archive.materialize(id, geometry));
  }
  const ArchiveService archive(kSeed);
  std::vector<std::vector<std::vector<std::byte>>> parallel(
      kThreads, std::vector<std::vector<std::byte>>(ids.size()));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      // Thread t starts t * 5 requests in and walks forwards (even t) or
      // backwards (odd t).
      const std::size_t n = ids.size();
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t step = t % 2 == 0 ? i : n - 1 - i;
        const std::size_t k = (step + 5 * static_cast<std::size_t>(t)) % n;
        parallel[static_cast<std::size_t>(t)][k] =
            archive.materialize(ids[k], geometry);
      }
    });
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t)
    for (std::size_t k = 0; k < ids.size(); ++k)
      EXPECT_EQ(parallel[static_cast<std::size_t>(t)][k], serial[k])
          << "thread " << t << ", " << ids[k].filename();
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
    EXPECT_LE(stats.candidate_tiles, 1);  // one 1024-px tile fits
  }
}

// estimate_granule_stats on a generator that has never been asked anything:
// its slot table is empty, so every tile is tested for land.
GranuleStats fresh_stats(const GranuleSpec& spec, int tile_size = 128,
                         int samples_per_axis = 6) {
  return estimate_granule_stats(GranuleGenerator(2022), spec, tile_size,
                                samples_per_axis);
}

void expect_same_stats(const GranuleStats& got, const GranuleStats& want,
                       const std::string& where) {
  EXPECT_EQ(got.daytime, want.daytime) << where;
  EXPECT_EQ(got.candidate_tiles, want.candidate_tiles) << where;
  EXPECT_EQ(got.selected_tiles, want.selected_tiles) << where;
}

TEST(Stats, SharedGeneratorAcrossThreads) {
  // Four threads walk every third slot of two days on one generator, each
  // from its own offset, so they race on cold slot-table entries before
  // they reach the ones other threads filled. Every answer must be the
  // fresh generator's.
  const GranuleGenerator gen(2022);
  std::vector<GranuleSpec> walk;
  for (const int day : {1, 182})
    for (int slot = 0; slot < kSlotsPerDay; slot += 3) {
      GranuleSpec spec;
      spec.geometry = kFullGeometry;
      spec.day_of_year = day;
      spec.slot = slot;
      walk.push_back(spec);
    }
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<GranuleStats>> got(
      kThreads, std::vector<GranuleStats>(walk.size()));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < walk.size(); ++i) {
        const std::size_t k = (i + 2 * t) % walk.size();
        got[t][k] = estimate_granule_stats(gen, walk[k]);
      }
    });
  for (auto& thread : threads) thread.join();
  for (std::size_t k = 0; k < walk.size(); ++k) {
    const auto want = fresh_stats(walk[k]);
    for (std::size_t t = 0; t < kThreads; ++t)
      expect_same_stats(got[t][k], want,
                        "thread " + std::to_string(t) + ", day " +
                            std::to_string(walk[k].day_of_year) + " slot " +
                            std::to_string(walk[k].slot));
  }
}

TEST(Stats, ConcurrentHitsOnlyReadTheirEntry) {
  // Day 1 fills the entries of every fourth slot from one thread; then four
  // threads walk the same slots of day 2 in the same order at once, so their
  // hit calls read each entry together. A hit only reads the table (under
  // TSan a write races the other readers), and every answer must be a fresh
  // generator's.
  const GranuleGenerator gen(2022);
  std::vector<GranuleSpec> walk;
  for (int slot = 0; slot < kSlotsPerDay; slot += 4) {
    GranuleSpec spec;
    spec.geometry = kFullGeometry;
    spec.slot = slot;
    estimate_granule_stats(gen, spec);
    spec.day_of_year = 2;
    walk.push_back(spec);
  }
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<GranuleStats>> got(
      kThreads, std::vector<GranuleStats>(walk.size()));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (std::size_t k = 0; k < walk.size(); ++k)
        got[t][k] = estimate_granule_stats(gen, walk[k]);
    });
  for (auto& thread : threads) thread.join();
  for (std::size_t k = 0; k < walk.size(); ++k) {
    const auto want = fresh_stats(walk[k]);
    for (std::size_t t = 0; t < kThreads; ++t)
      expect_same_stats(got[t][k], want,
                        "thread " + std::to_string(t) + ", slot " +
                            std::to_string(walk[k].slot));
  }
}

TEST(Stats, SlotTableAgreesWithAFreshGenerator) {
  // One generator walks both satellites over every fifth slot of days 300,
  // 1, 150 and 1 again. The table holds one (geometry, tiling) key at a
  // time; each pass keeps the previous pass's key, so the pass hits what
  // that one filled, and then changes it: the default tiling, (96, 5) and a
  // second geometry in turn. Every answer must equal a fresh generator's,
  // which tests every tile for land.
  struct Key {
    GranuleGeometry geometry;
    int tile_size;
    int samples_per_axis;

    bool operator==(const Key&) const = default;
  };
  const Key tiling{kFullGeometry, 128, 6};
  const Key finer{kFullGeometry, 96, 5};
  const Key smaller{GranuleGeometry{1500, 1000, 36}, 128, 6};
  const std::pair<int, Key> passes[] = {
      {300, tiling}, {1, tiling},  {1, finer},  {150, finer},
      {150, smaller}, {1, smaller}, {1, tiling},
  };
  const GranuleGenerator gen(2022);
  // Slots first seen at night under a key and later by day under it: the
  // night call must not fill their entries.
  std::map<std::pair<int, int>, bool> night_first;  // (satellite, slot)
  int night_then_day = 0;
  int selected = 0;
  for (std::size_t p = 0; p < std::size(passes); ++p) {
    const auto& [day, key] = passes[p];
    if (p > 0 && !(passes[p - 1].second == key)) night_first.clear();
    for (const Satellite sat : {Satellite::kTerra, Satellite::kAqua}) {
      for (int slot = 0; slot < kSlotsPerDay; slot += 5) {
        GranuleSpec spec;
        spec.satellite = sat;
        spec.day_of_year = day;
        spec.slot = slot;
        spec.geometry = key.geometry;
        const auto got = estimate_granule_stats(gen, spec, key.tile_size,
                                                key.samples_per_axis);
        const auto want =
            fresh_stats(spec, key.tile_size, key.samples_per_axis);
        expect_same_stats(got, want,
                          "pass " + std::to_string(p) + ", " +
                              satellite_name(sat) + " day " +
                              std::to_string(day) + " slot " +
                              std::to_string(slot));
        selected += want.selected_tiles;
        const auto seen = night_first.try_emplace(
            {static_cast<int>(sat), slot}, !want.daytime);
        if (!seen.second && seen.first->second && want.daytime) {
          ++night_then_day;
          seen.first->second = false;
        }
      }
    }
  }
  EXPECT_GT(night_then_day, 0);
  EXPECT_GT(selected, 0);
}

// Reference for estimate_granule_stats: the full count, which tests every
// sample of a candidate for cloud and selects the tile by its cloud
// fraction. `cloudy_tiles[c]` counts the candidates with c cloudy samples.
struct FullCount {
  int candidate_tiles = 0;
  int selected_tiles = 0;
  std::vector<long> cloudy_tiles;
};

FullCount full_count_stats(const GranuleGenerator& generator,
                           const GranuleSpec& spec, int tile_size,
                           int samples_per_axis) {
  FullCount stats;
  const int n = samples_per_axis;
  stats.cloudy_tiles.assign(static_cast<std::size_t>(n * n) + 1, 0);
  if (!is_daytime(spec.satellite, spec.slot, spec.day_of_year)) return stats;

  const auto& g = spec.geometry;
  const int tile_rows = g.rows / tile_size;
  const int tile_cols = g.cols / tile_size;
  const auto& earth = generator.earth();
  EarthModel::Memo memo;
  std::array<SwathRow, kMaxSamplesPerAxis> rows;
  std::array<LatLon, kMaxSamplesPerAxis * kMaxSamplesPerAxis> points;
  for (int tr = 0; tr < tile_rows; ++tr) {
    for (int sr = 0; sr < n; ++sr) {
      const double row_frac =
          (tr * tile_size + (sr + 0.5) * tile_size / n) / g.rows;
      rows[sr] = swath_row(spec.satellite, spec.slot, row_frac);
    }
    for (int tc = 0; tc < tile_cols; ++tc) {
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
      const Side land = earth.land_over(tile);
      if (land == Side::kAbove) continue;
      if (land == Side::kUndecided &&
          std::any_of(tile.begin(), tile.end(), [&](const LatLon& p) {
            return earth.is_land(p, memo);
          }))
        continue;
      int cloudy = 0;
      for (const LatLon& p : tile)
        if (earth.is_cloudy(p, spec.day_of_year,
                            meso_interval(kUnrecordedBucket), memo))
          ++cloudy;
      ++stats.candidate_tiles;
      ++stats.cloudy_tiles[static_cast<std::size_t>(cloudy)];
      const double cloud_frac =
          static_cast<double>(cloudy) / static_cast<double>(n * n);
      if (cloud_frac >= 0.3) ++stats.selected_tiles;
    }
  }
  return stats;
}

TEST(Stats, DecidedTilesMatchFullCount) {
  // The estimator stops testing a candidate's samples for cloud once its
  // selection is decided; its counts must equal the full count's. Sample
  // grids of n x n with `need`, the fewest cloudy samples whose fraction
  // reaches 0.3, at 1, 2, 3, 8, 11, 25 and 30 (30/100 lands exactly on 0.3).
  // Tiles one sample short of `need` and tiles exactly at it must both
  // occur, or a threshold off by one would go unseen.
  const GranuleGenerator gen(2022);
  const std::pair<int, int> grids[] = {{1, 1},  {2, 2},  {3, 3},  {5, 8},
                                       {6, 11}, {9, 25}, {10, 30}};
  for (const auto& [n, need] : grids) {
    const double samples = static_cast<double>(n * n);
    ASSERT_LT(static_cast<double>(need - 1) / samples, 0.3) << n;
    ASSERT_GE(static_cast<double>(need) / samples, 0.3) << n;
    long short_by_one = 0;
    long at_need = 0;
    long selected = 0;
    for (const Satellite sat : {Satellite::kTerra, Satellite::kAqua}) {
      for (const int day : {1, 91, 182}) {
        for (int slot = 0; slot < kSlotsPerDay; slot += 13) {
          GranuleSpec spec;
          spec.satellite = sat;
          spec.day_of_year = day;
          spec.slot = slot;
          spec.geometry = kFullGeometry;
          const auto got = estimate_granule_stats(gen, spec, 128, n);
          const auto want = full_count_stats(gen, spec, 128, n);
          ASSERT_EQ(got.candidate_tiles, want.candidate_tiles)
              << satellite_name(sat) << " day " << day << " slot " << slot
              << ", " << n << "x" << n;
          ASSERT_EQ(got.selected_tiles, want.selected_tiles)
              << satellite_name(sat) << " day " << day << " slot " << slot
              << ", " << n << "x" << n;
          short_by_one += want.cloudy_tiles[static_cast<std::size_t>(need - 1)];
          at_need += want.cloudy_tiles[static_cast<std::size_t>(need)];
          selected += want.selected_tiles;
        }
      }
    }
    EXPECT_GT(short_by_one, 0) << n << "x" << n;
    EXPECT_GT(at_need, 0) << n << "x" << n;
    EXPECT_GT(selected, 0) << n << "x" << n;
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
  // The tiling decisions (daytime, candidate and selected tiles) of Terra
  // and Aqua, every slot of three days at full geometry, with the default
  // tiling and two others (odd samples per axis, tile sizes that do not
  // divide the granule).
  struct Tiling {
    int tile_size;
    int samples_per_axis;
    std::uint64_t pin;
  };
  const Tiling tilings[] = {
      {128, 6, 0x25d1edfa1b8ba5ecULL},
      {96, 5, 0x646e8d8b37b1c86bULL},
      {200, 9, 0x79d52eb1203a8746ULL},
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
        const auto granule = gen.generate(spec);
        if (granule.mod02.daytime) ++day_granules;
        hash.bytes(Mod02Granule(granule.mod02).to_hdfl().serialize());
        hash.bytes(Mod03Granule(granule.mod03).to_hdfl().serialize());
        hash.bytes(Mod06Granule(granule.mod06).to_hdfl().serialize());
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
