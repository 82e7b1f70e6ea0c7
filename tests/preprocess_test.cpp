// Tests for the tiler (ocean-cloud selection semantics), tile file I/O, and
// the end-to-end real preprocessing function.
#include <gtest/gtest.h>

#include "preprocess/tasks.hpp"
#include "preprocess/tile_io.hpp"
#include "preprocess/tiler.hpp"
#include "storage/memfs.hpp"

namespace mfw::preprocess {
namespace {

// A small daytime granule triplet.
modis::GranuleProducts make_triplet(
    int slot_hint = 0, modis::GranuleGeometry geometry = {128, 96, 4}) {
  modis::GranuleGenerator gen(2022);
  modis::GranuleSpec spec;
  spec.geometry = geometry;
  spec.slot = slot_hint;
  while (!modis::is_daytime(spec.satellite, spec.slot, spec.day_of_year))
    ++spec.slot;
  return gen.generate(spec);
}

TilerOptions small_options() {
  TilerOptions options;
  options.tile_size = 32;
  options.channels = 3;
  options.min_cloud_fraction = 0.3;
  return options;
}

TEST(Tiler, ProducesTilesWithExpectedShape) {
  const auto t = make_triplet();
  const auto result = make_tiles(t.mod02, t.mod03, t.mod06, small_options());
  EXPECT_TRUE(result.daytime);
  EXPECT_EQ(result.candidate_positions, (128 / 32) * (96 / 32));
  for (const auto& tile : result.tiles) {
    EXPECT_EQ(tile.tile_size, 32);
    EXPECT_EQ(tile.channels, 3);
    EXPECT_EQ(tile.data.size(), 3u * 32 * 32);
    EXPECT_GE(tile.cloud_fraction, 0.3f);
  }
  EXPECT_EQ(static_cast<int>(result.tiles.size()) + result.rejected_land +
                result.rejected_clear,
            result.candidate_positions);
}

TEST(Tiler, SelectionRespectsCloudThreshold) {
  const auto t = make_triplet();
  auto options = small_options();
  options.min_cloud_fraction = 0.0;
  const auto all = make_tiles(t.mod02, t.mod03, t.mod06, options);
  options.min_cloud_fraction = 0.99;
  const auto strict = make_tiles(t.mod02, t.mod03, t.mod06, options);
  EXPECT_LE(strict.tiles.size(), all.tiles.size());
  // With threshold 0 every no-land tile is selected.
  EXPECT_EQ(static_cast<int>(all.tiles.size()),
            all.candidate_positions - all.rejected_land);
}

TEST(Tiler, NoLandPixelsInSelectedTiles) {
  const auto t = make_triplet();
  const auto result = make_tiles(t.mod02, t.mod03, t.mod06, small_options());
  const int cols = t.mod02.spec.geometry.cols;
  for (const auto& tile : result.tiles) {
    for (int r = tile.origin_row; r < tile.origin_row + tile.tile_size; ++r) {
      for (int c = tile.origin_col; c < tile.origin_col + tile.tile_size; ++c) {
        ASSERT_EQ(t.mod03.land_mask[static_cast<std::size_t>(r) * cols + c], 0);
      }
    }
  }
}

TEST(Tiler, TileDataMatchesSourceRadiance) {
  const auto t = make_triplet();
  const auto result = make_tiles(t.mod02, t.mod03, t.mod06, small_options());
  ASSERT_FALSE(result.tiles.empty());
  const auto& tile = result.tiles.front();
  EXPECT_FLOAT_EQ(tile.at(1, 3, 5),
                  t.mod02.at(1, tile.origin_row + 3, tile.origin_col + 5));
}

TEST(Tiler, NightGranuleYieldsNothing) {
  modis::GranuleGenerator gen(2022);
  modis::GranuleSpec spec;
  spec.geometry = modis::GranuleGeometry{64, 64, 4};
  while (modis::is_daytime(spec.satellite, spec.slot, spec.day_of_year))
    ++spec.slot;
  const auto granule = gen.generate(spec);
  const auto result = make_tiles(granule.mod02, granule.mod03, granule.mod06,
                                 small_options());
  EXPECT_FALSE(result.daytime);
  EXPECT_TRUE(result.tiles.empty());
}

TEST(Tiler, MismatchedProductsRejected) {
  const auto t1 = make_triplet(0);
  auto t2 = make_triplet(t1.mod02.spec.slot + 1);
  EXPECT_THROW(make_tiles(t1.mod02, t2.mod03, t1.mod06, small_options()),
               std::invalid_argument);
  auto options = small_options();
  options.channels = 99;
  EXPECT_THROW(make_tiles(t1.mod02, t1.mod03, t1.mod06, options),
               std::invalid_argument);
}

TEST(TileIo, FullFileRoundTrip) {
  const auto t = make_triplet();
  const auto result = make_tiles(t.mod02, t.mod03, t.mod06, small_options());
  ASSERT_FALSE(result.tiles.empty());
  storage::MemFs fs("x");
  modis::GranuleId id{modis::ProductKind::kMod02, t.mod02.spec.satellite,
                      t.mod02.spec.year, t.mod02.spec.day_of_year,
                      t.mod02.spec.slot};
  write_tile_file(fs, "tiles/out.ncl", id, result);

  const auto summary = read_tile_summary(fs, "tiles/out.ncl");
  EXPECT_EQ(summary.tile_count, result.tiles.size());
  EXPECT_TRUE(summary.has_pixel_data);
  EXPECT_FALSE(summary.has_labels);
  EXPECT_EQ(summary.granule.slot, id.slot);

  const auto file = read_tile_file(fs, "tiles/out.ncl");
  const auto tiles = tiles_from_ncl(file);
  ASSERT_EQ(tiles.size(), result.tiles.size());
  EXPECT_EQ(tiles[0].data, result.tiles[0].data);
  EXPECT_FLOAT_EQ(tiles[0].center_lat, result.tiles[0].center_lat);
  EXPECT_EQ(tiles[0].origin_row, result.tiles[0].origin_row);
  // Inference reads a file one tile at a time; each equals the bulk read.
  ASSERT_EQ(pixel_tile_count(file), tiles.size());
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    const Tile one = tile_from_ncl(file, i);
    EXPECT_EQ(one.data, tiles[i].data);
    EXPECT_EQ(one.origin_row, tiles[i].origin_row);
    EXPECT_FLOAT_EQ(one.center_lat, tiles[i].center_lat);
  }
}

// A tile file with `count` tiles of `channels` x y x x pixels, written
// variable by variable so its layout need not be write_tile_file's.
storage::NclFile tile_file(std::uint64_t count, std::uint64_t channels,
                           std::uint64_t y, std::uint64_t x) {
  storage::NclFile file;
  file.add_dim("tile", count);
  file.add_dim("channel", channels);
  file.add_dim("y", y);
  file.add_dim("x", x);
  file.add_f32("tiles", {"tile", "channel", "y", "x"},
               std::vector<float>(count * channels * y * x, 1.0f));
  const std::vector<float> f(count, 0.5f);
  const std::vector<std::int32_t> i(count, 3);
  for (const char* name : {"latitude", "longitude", "cloud_fraction",
                           "cloud_optical_thickness", "cloud_top_pressure",
                           "cloud_water_path"})
    file.add_f32(name, {"tile"}, f);
  file.add_i32("origin_row", {"tile"}, i);
  file.add_i32("origin_col", {"tile"}, i);
  return storage::NclFile::deserialize(file.serialize());
}

TEST(TileIo, DecoderRejectsLayoutItCannotIndex) {
  const auto good = tile_file(2, 3, 4, 4);
  EXPECT_EQ(tile_from_ncl(good, 1).data.size(), 3u * 4 * 4);
  EXPECT_EQ(tiles_from_ncl(good).size(), 2u);
  EXPECT_THROW(tile_from_ncl(good, 2), std::out_of_range);

  // Tiles 4 rows by 2 columns: a square-tile reader would run past the end.
  const auto narrow = tile_file(2, 1, 4, 2);
  EXPECT_THROW(tile_from_ncl(narrow, 1), storage::FormatError);
  EXPECT_THROW(tiles_from_ncl(narrow), storage::FormatError);

  // A per-tile variable with fewer elements than tiles.
  auto short_var = tile_file(3, 1, 2, 2);
  short_var.add_dim("one", 1);
  short_var.add_f32("cloud_water_path", {"one"}, std::vector<float>{0.0f});
  EXPECT_THROW(tile_from_ncl(short_var, 2), storage::FormatError);
  auto short_i32 = tile_file(3, 1, 2, 2);
  short_i32.add_dim("one", 1);
  short_i32.add_i32("origin_col", {"one"}, std::vector<std::int32_t>{0});
  EXPECT_THROW(tiles_from_ncl(short_i32), storage::FormatError);

  // `tiles` over its dims in another order, or with another dtype.
  auto swapped = tile_file(2, 3, 4, 4);
  swapped.add_f32("tiles", {"channel", "tile", "y", "x"},
                  std::vector<float>(2 * 3 * 4 * 4, 1.0f));
  EXPECT_THROW(tile_from_ncl(swapped, 0), storage::FormatError);
  auto ints = tile_file(2, 3, 4, 4);
  ints.add_i32("tiles", {"tile", "channel", "y", "x"},
               std::vector<std::int32_t>(2 * 3 * 4 * 4, 1));
  EXPECT_THROW(tile_from_ncl(ints, 0), storage::FormatError);
}

TEST(TileIo, ManifestRoundTrip) {
  storage::MemFs fs("x");
  modis::GranuleId id{modis::ProductKind::kMod02, modis::Satellite::kTerra,
                      2022, 1, 95};
  write_tile_manifest(fs, "tiles/m.ncl", id, 77);
  const auto summary = read_tile_summary(fs, "tiles/m.ncl");
  EXPECT_EQ(summary.tile_count, 77u);
  EXPECT_FALSE(summary.has_pixel_data);
  EXPECT_EQ(summary.granule, id);
  // A manifest carries no pixel tiles.
  const auto file = read_tile_file(fs, "tiles/m.ncl");
  EXPECT_EQ(pixel_tile_count(file), 0u);
  EXPECT_THROW(tile_from_ncl(file, 0), std::out_of_range);
}

TEST(TileIo, MalformedGranuleAttributeRejected) {
  // Names a lenient number parse once read as some other granule (year 20,
  // day 1, slot 12, slot 8) or accepted (collection 999).
  storage::MemFs fs("x");
  const modis::GranuleId id{modis::ProductKind::kMod02,
                            modis::Satellite::kTerra, 2022, 1, 95};
  write_tile_manifest(fs, "m.ncl", id, 3);
  auto file = read_tile_file(fs, "m.ncl");
  for (const char* name :
       {"MOD03.A20x2001.0040.061.hdf", "MOD03.A2022 01.0040.061.hdf",
        "MOD03.A2022001.+100.061.hdf", "MOD03.A2022001.0 40.061.hdf",
        "MOD03.A2022001.0040.999.hdf"}) {
    file.attrs()["granule"] = name;
    fs.write_file("bad.ncl", file.serialize());
    EXPECT_THROW(read_tile_summary(fs, "bad.ncl"), storage::FormatError)
        << name;
  }
}

TEST(TileIo, MalformedTileCountRejected) {
  // A lenient parse such as std::stoull reads the first three as 12, 7 and
  // 2^64 - 1, and rejects the rest with untyped exceptions.
  storage::MemFs fs("x");
  const modis::GranuleId id{modis::ProductKind::kMod02,
                            modis::Satellite::kTerra, 2022, 1, 95};
  write_tile_manifest(fs, "m.ncl", id, 3);
  const auto manifest = read_tile_file(fs, "m.ncl");
  const auto write_count = [&](const char* count) {
    auto file = manifest;
    file.attrs()["tile_count"] = count;
    fs.write_file("c.ncl", file.serialize());
  };
  for (const char* count :
       {"12abc", " 7", "-1", "abc", "", "123456789012345678901"}) {
    write_count(count);
    EXPECT_THROW(read_tile_summary(fs, "c.ncl"), storage::FormatError)
        << "'" << count << "'";
    EXPECT_THROW(append_labels(fs, "c.ncl", std::vector<std::int32_t>(7, 0)),
                 storage::FormatError)
        << "'" << count << "'";
  }
  for (const auto& [count, n] :
       {std::pair<const char*, std::size_t>{"0", 0}, {"477", 477}}) {
    write_count(count);
    EXPECT_EQ(read_tile_summary(fs, "c.ncl").tile_count, n) << count;
    EXPECT_NO_THROW(
        append_labels(fs, "c.ncl", std::vector<std::int32_t>(n, 1)))
        << count;
    EXPECT_TRUE(read_tile_summary(fs, "c.ncl").has_labels) << count;
  }
}

TEST(TileIo, AppendLabels) {
  const auto t = make_triplet();
  const auto result = make_tiles(t.mod02, t.mod03, t.mod06, small_options());
  ASSERT_FALSE(result.tiles.empty());
  storage::MemFs fs("x");
  modis::GranuleId id{modis::ProductKind::kMod02, t.mod02.spec.satellite,
                      t.mod02.spec.year, t.mod02.spec.day_of_year,
                      t.mod02.spec.slot};
  write_tile_file(fs, "t.ncl", id, result);
  std::vector<std::int32_t> labels(result.tiles.size());
  for (std::size_t i = 0; i < labels.size(); ++i)
    labels[i] = static_cast<std::int32_t>(i % 42);
  append_labels(fs, "t.ncl", labels);

  const auto file = read_tile_file(fs, "t.ncl");
  ASSERT_TRUE(file.has_var("label"));
  EXPECT_EQ(file.var("label").as_i32()[0], 0);
  EXPECT_TRUE(read_tile_summary(fs, "t.ncl").has_labels);

  // Wrong label count rejected.
  std::vector<std::int32_t> bad(labels.size() + 1, 0);
  EXPECT_THROW(append_labels(fs, "t.ncl", bad), std::invalid_argument);
}

TEST(TileIo, AppendLabelsOnManifest) {
  storage::MemFs fs("x");
  modis::GranuleId id{modis::ProductKind::kMod02, modis::Satellite::kTerra,
                      2022, 1, 95};
  write_tile_manifest(fs, "m.ncl", id, 3);
  const std::vector<std::int32_t> labels{1, 2, 3};
  append_labels(fs, "m.ncl", labels);
  EXPECT_TRUE(read_tile_summary(fs, "m.ncl").has_labels);
}

TEST(RunPreprocess, EndToEndFromHdflFiles) {
  modis::GranuleGenerator gen(2022);
  modis::GranuleSpec spec;
  spec.geometry = modis::GranuleGeometry{96, 64, 4};
  while (!modis::is_daytime(spec.satellite, spec.slot, spec.day_of_year))
    ++spec.slot;
  storage::MemFs fs("defiant");
  const auto granule = gen.generate(spec);
  fs.write_file("staging/m02.hdf",
                modis::Mod02Granule(granule.mod02).to_hdfl().serialize());
  fs.write_file("staging/m03.hdf",
                modis::Mod03Granule(granule.mod03).to_hdfl().serialize());
  fs.write_file("staging/m06.hdf",
                modis::Mod06Granule(granule.mod06).to_hdfl().serialize());

  GranulePaths paths{"staging/m02.hdf", "staging/m03.hdf", "staging/m06.hdf"};
  TilerOptions options;
  options.tile_size = 32;
  options.channels = 4;
  const auto result = run_preprocess(fs, paths, fs, "tiles/out.ncl", options);
  EXPECT_TRUE(fs.exists("tiles/out.ncl"));
  const auto summary = read_tile_summary(fs, "tiles/out.ncl");
  EXPECT_EQ(summary.tile_count, result.tiles.size());
}

}  // namespace
}  // namespace mfw::preprocess
