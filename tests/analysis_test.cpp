// Tests for the downstream AICCA analytics module, including an end-to-end
// check against the materialized pipeline's Orion output.
#include <gtest/gtest.h>

#include "analysis/aicca.hpp"
#include "pipeline/eoml_workflow.hpp"
#include "preprocess/tile_io.hpp"
#include "storage/memfs.hpp"
#include "util/log.hpp"

namespace mfw::analysis {
namespace {

// Builds a labelled tile file with hand-chosen records.
void write_labelled_file(storage::FileSystem& fs, const std::string& path,
                         int slot, const std::vector<TileRecord>& tiles) {
  preprocess::TilerResult result;
  result.daytime = true;
  for (const auto& record : tiles) {
    preprocess::Tile tile;
    tile.tile_size = 4;
    tile.channels = 1;
    tile.data.assign(16, 0.5f);
    tile.center_lat = record.latitude;
    tile.center_lon = record.longitude;
    tile.cloud_fraction = record.cloud_fraction;
    tile.mean_optical_thickness = record.optical_thickness;
    tile.mean_cloud_top_pressure = record.cloud_top_pressure;
    tile.mean_water_path = record.water_path;
    result.tiles.push_back(std::move(tile));
  }
  modis::GranuleId id{modis::ProductKind::kMod02, modis::Satellite::kTerra,
                      2022, 1, slot};
  preprocess::write_tile_file(fs, path, id, result);
  std::vector<std::int32_t> labels;
  for (const auto& record : tiles) labels.push_back(record.label);
  preprocess::append_labels(fs, path, labels);
}

TileRecord make_record(int label, float lat, float cf, float cot) {
  TileRecord record;
  record.label = label;
  record.latitude = lat;
  record.cloud_fraction = cf;
  record.optical_thickness = cot;
  record.cloud_top_pressure = 500.0f;
  record.water_path = 100.0f;
  return record;
}

TEST(AiccaArchive, LoadsRecordsAndClassCounts) {
  storage::MemFs fs("orion");
  write_labelled_file(fs, "aicca/a.ncl", 0,
                      {make_record(0, 10.0f, 0.5f, 5.0f),
                       make_record(1, -40.0f, 0.8f, 20.0f)});
  write_labelled_file(fs, "aicca/b.ncl", 5,
                      {make_record(1, 55.0f, 0.9f, 30.0f)});
  const auto archive = AiccaArchive::load(fs, "aicca/*.ncl");
  EXPECT_EQ(archive.tile_count(), 3u);
  EXPECT_EQ(archive.file_count(), 2u);
  const auto stats = archive.class_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats.at(0).count, 1u);
  EXPECT_EQ(stats.at(1).count, 2u);
}

TEST(AiccaArchive, ClassStatsAggregateCorrectly) {
  storage::MemFs fs("orion");
  write_labelled_file(fs, "aicca/a.ncl", 0,
                      {make_record(2, 10.0f, 0.4f, 10.0f),
                       make_record(2, -30.0f, 0.6f, 30.0f)});
  const auto archive = AiccaArchive::load(fs, "aicca/*.ncl");
  const auto stats = archive.class_stats();
  ASSERT_EQ(stats.size(), 1u);
  const auto& entry = stats.at(2);
  EXPECT_EQ(entry.count, 2u);
  EXPECT_NEAR(entry.mean_cloud_fraction, 0.5, 1e-6);
  EXPECT_NEAR(entry.mean_optical_thickness, 20.0, 1e-5);
  EXPECT_NEAR(entry.mean_abs_latitude, 20.0, 1e-5);
}

TEST(AiccaArchive, ZonalCountsBucketByLatitude) {
  storage::MemFs fs("orion");
  write_labelled_file(fs, "aicca/a.ncl", 0,
                      {make_record(0, -89.9f, 0.5f, 5.0f),
                       make_record(0, 0.1f, 0.5f, 5.0f),
                       make_record(1, 89.9f, 0.5f, 5.0f)});
  const auto archive = AiccaArchive::load(fs, "aicca/*.ncl");
  const auto zonal = archive.zonal_class_counts(2, 15.0);
  ASSERT_EQ(zonal.size(), 12u);
  EXPECT_EQ(zonal.front()[0], 1u);   // south pole band, class 0
  EXPECT_EQ(zonal[6][0], 1u);        // [0, 15) band
  EXPECT_EQ(zonal.back()[1], 1u);    // north pole band, class 1
  EXPECT_THROW(archive.zonal_class_counts(2, 0.0), std::invalid_argument);
}

TEST(AiccaArchive, SkipsManifestOnlyFiles) {
  storage::MemFs fs("orion");
  modis::GranuleId id{modis::ProductKind::kMod02, modis::Satellite::kTerra,
                      2022, 1, 7};
  preprocess::write_tile_manifest(fs, "aicca/manifest.ncl", id, 12);
  write_labelled_file(fs, "aicca/full.ncl", 8,
                      {make_record(0, 0.0f, 0.5f, 5.0f)});
  const auto archive = AiccaArchive::load(fs, "aicca/*.ncl");
  EXPECT_EQ(archive.tile_count(), 1u);
  EXPECT_EQ(archive.skipped_manifests(), 1u);
  EXPECT_FALSE(archive.report(42).empty());
}

TEST(AiccaArchive, RejectsMalformedGranuleAttribute) {
  // A labelled file whose granule attribute does not parse is rejected, not
  // read as the default granule; a file without the attribute still loads.
  storage::MemFs fs("orion");
  write_labelled_file(fs, "aicca/good.ncl", 8,
                      {make_record(0, 0.0f, 0.5f, 5.0f)});
  auto file = preprocess::read_tile_file(fs, "aicca/good.ncl");
  file.attrs().erase("granule");
  fs.write_file("aicca/anonymous.ncl", file.serialize());
  EXPECT_EQ(AiccaArchive::load(fs, "aicca/*.ncl").tile_count(), 2u);
  file.attrs()["granule"] = "MOD03.A2022001.+100.061.hdf";
  fs.write_file("aicca/bad.ncl", file.serialize());
  EXPECT_THROW(AiccaArchive::load(fs, "aicca/*.ncl"), storage::FormatError);
}

TEST(AiccaArchive, EndToEndFromMaterializedPipeline) {
  util::Logger::instance().set_level(util::LogLevel::kError);
  pipeline::EomlConfig config;
  config.max_files = 4;
  config.daytime_only = true;
  config.preprocess_nodes = 2;
  config.workers_per_node = 4;
  config.materialize = true;
  config.geometry = modis::GranuleGeometry{64, 48, 6};
  config.tiler.tile_size = 16;
  config.tiler.channels = 6;
  pipeline::EomlWorkflow workflow(config);
  const auto report = workflow.run();

  const auto archive = AiccaArchive::load(workflow.orion_fs(), "aicca/*.ncl");
  EXPECT_EQ(archive.tile_count(), report.total_tiles);
  // Pseudo-labels land in [0, 42). Physical aggregates are plausible: cloud
  // fraction respects the tiler's selection threshold.
  for (const auto& record : archive.records()) {
    EXPECT_GE(record.label, 0);
    EXPECT_LT(record.label, 42);
    EXPECT_GE(record.cloud_fraction, 0.3f);
    EXPECT_LE(record.cloud_fraction, 1.0f);
    EXPECT_GE(record.latitude, -90.0f);
    EXPECT_LE(record.latitude, 90.0f);
  }
  util::Logger::instance().set_level(util::LogLevel::kInfo);
}

TEST(AiccaArchive, ZonalBandsClampPolesIntoOutermostBands) {
  storage::MemFs fs("orion");
  TileRecord north = make_record(0, 90.0f, 0.5f, 5.0f);
  TileRecord south = make_record(1, -90.0f, 0.5f, 5.0f);
  write_labelled_file(fs, "aicca/poles.ncl", 0, {north, south});
  const auto archive = AiccaArchive::load(fs, "aicca/*.ncl");
  const auto zonal = archive.zonal_class_counts(2, 15.0);
  ASSERT_EQ(zonal.size(), 12u);
  // Latitude exactly +90 computes band 12 and must clamp into band 11;
  // exactly -90 is band 0.
  EXPECT_EQ(zonal[11][0], 1u);
  EXPECT_EQ(zonal[0][1], 1u);
  std::size_t total = 0;
  for (const auto& band : zonal)
    for (auto count : band) total += count;
  EXPECT_EQ(total, 2u);
}

TEST(AiccaArchive, ZonalCountsRejectBadBandWidthAndSkipForeignLabels) {
  storage::MemFs fs("orion");
  write_labelled_file(fs, "aicca/a.ncl", 0,
                      {make_record(7, 10.0f, 0.5f, 5.0f),
                       make_record(1, 20.0f, 0.5f, 5.0f)});
  const auto archive = AiccaArchive::load(fs, "aicca/*.ncl");
  EXPECT_THROW(archive.zonal_class_counts(2, 0.0), std::invalid_argument);
  EXPECT_THROW(archive.zonal_class_counts(2, -15.0), std::invalid_argument);
  // Labels outside [0, num_classes) are skipped, not counted elsewhere.
  const auto zonal = archive.zonal_class_counts(2, 15.0);
  std::size_t total = 0;
  for (const auto& band : zonal)
    for (auto count : band) total += count;
  EXPECT_EQ(total, 1u);
}

TEST(AiccaArchive, EmptyArchiveStatsAndReport) {
  storage::MemFs fs("orion");
  const auto archive = AiccaArchive::load(fs, "aicca/*.ncl");
  EXPECT_EQ(archive.tile_count(), 0u);
  EXPECT_EQ(archive.file_count(), 0u);
  EXPECT_TRUE(archive.class_stats().empty());
  const auto report = archive.report(42);
  EXPECT_NE(report.find("0 labelled tiles"), std::string::npos);
  const auto zonal = archive.zonal_class_counts(42);
  for (const auto& band : zonal)
    for (auto count : band) EXPECT_EQ(count, 0u);
}

}  // namespace
}  // namespace mfw::analysis
