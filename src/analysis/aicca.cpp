#include "analysis/aicca.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "preprocess/tile_io.hpp"
#include "storage/ncl.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace mfw::analysis {

namespace {

struct ParsedFile {
  std::vector<TileRecord> records;
  bool skipped = false;
};

ParsedFile parse_tile_file(const storage::Bytes& bytes) {
  const auto file = storage::NclFile::deserialize(bytes);
  ParsedFile parsed;
  if (!file.has_var("tiles") || !file.has_var("label")) {
    parsed.skipped = true;
    return parsed;
  }
  const auto granule_attr = file.attrs().find("granule");
  modis::GranuleId granule;
  if (granule_attr != file.attrs().end()) {
    const auto id = modis::parse_granule_filename(granule_attr->second);
    if (!id)
      throw storage::FormatError("bad granule attribute: " +
                                 granule_attr->second);
    granule = *id;
  }
  const auto labels = file.var("label").as_i32();
  const auto lat = file.var("latitude").as_f32();
  const auto lon = file.var("longitude").as_f32();
  const auto cf = file.var("cloud_fraction").as_f32();
  const auto cot = file.var("cloud_optical_thickness").as_f32();
  const auto ctp = file.var("cloud_top_pressure").as_f32();
  const auto cwp = file.var("cloud_water_path").as_f32();
  parsed.records.reserve(labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    TileRecord record;
    record.granule = granule;
    record.label = labels[i];
    record.latitude = lat[i];
    record.longitude = lon[i];
    record.cloud_fraction = cf[i];
    record.optical_thickness = cot[i];
    record.cloud_top_pressure = ctp[i];
    record.water_path = cwp[i];
    parsed.records.push_back(record);
  }
  return parsed;
}

}  // namespace

AiccaArchive AiccaArchive::load(storage::FileSystem& fs,
                                const std::string& pattern,
                                util::ThreadPool* pool) {
  AiccaArchive archive;
  const auto infos = fs.list(pattern);
  // Byte reads stay sequential — FileSystem implementations need not be
  // thread-safe — but deserialization and record extraction are pure CPU
  // work on immutable buffers, so those fan out per file.
  std::vector<storage::Bytes> bytes;
  bytes.reserve(infos.size());
  for (const auto& info : infos) bytes.push_back(fs.read_file(info.path));
  std::vector<ParsedFile> parsed(bytes.size());
  if (pool != nullptr && bytes.size() > 1) {
    util::parallel_for(*pool, bytes.size(),
                       [&](std::size_t i) { parsed[i] = parse_tile_file(bytes[i]); });
  } else {
    for (std::size_t i = 0; i < bytes.size(); ++i)
      parsed[i] = parse_tile_file(bytes[i]);
  }
  // Concatenate in file order so the archive is independent of scheduling.
  archive.files_ = parsed.size();
  for (auto& p : parsed) {
    if (p.skipped) {
      ++archive.skipped_;
      continue;
    }
    archive.records_.insert(archive.records_.end(), p.records.begin(),
                            p.records.end());
  }
  return archive;
}

std::map<int, ClassStats> AiccaArchive::class_stats() const {
  std::map<int, ClassStats> stats;
  for (const auto& record : records_) {
    auto& entry = stats[record.label];
    ++entry.count;
    entry.mean_cloud_fraction += record.cloud_fraction;
    entry.mean_optical_thickness += record.optical_thickness;
    entry.mean_cloud_top_pressure += record.cloud_top_pressure;
    entry.mean_water_path += record.water_path;
    entry.mean_abs_latitude += std::abs(record.latitude);
  }
  for (auto& [label, entry] : stats) {
    const auto n = static_cast<double>(entry.count);
    entry.mean_cloud_fraction /= n;
    entry.mean_optical_thickness /= n;
    entry.mean_cloud_top_pressure /= n;
    entry.mean_water_path /= n;
    entry.mean_abs_latitude /= n;
  }
  return stats;
}

std::vector<std::vector<std::size_t>> AiccaArchive::zonal_class_counts(
    int num_classes, double band_degrees) const {
  if (!(band_degrees > 0))
    throw std::invalid_argument("zonal_class_counts: band_degrees must be > 0");
  const auto bands = static_cast<std::size_t>(std::ceil(180.0 / band_degrees));
  std::vector<std::vector<std::size_t>> counts(
      bands, std::vector<std::size_t>(static_cast<std::size_t>(num_classes), 0));
  for (const auto& record : records_) {
    if (record.label < 0 || record.label >= num_classes) continue;
    auto band = static_cast<std::size_t>(
        (static_cast<double>(record.latitude) + 90.0) / band_degrees);
    band = std::min(band, bands - 1);
    ++counts[band][static_cast<std::size_t>(record.label)];
  }
  return counts;
}

std::string AiccaArchive::report(int num_classes) const {
  std::ostringstream os;
  os << "AICCA archive: " << tile_count() << " labelled tiles from "
     << file_count() - skipped_manifests() << " files";
  if (skipped_) os << " (" << skipped_ << " manifest-only files skipped)";
  os << "\n\n";

  util::Table classes({"class", "tiles", "mean CF", "mean COT", "mean CTP",
                       "mean CWP", "mean |lat|"});
  for (const auto& [label, stats] : class_stats()) {
    classes.add_row({std::to_string(label), std::to_string(stats.count),
                     util::Table::num(stats.mean_cloud_fraction, 3),
                     util::Table::num(stats.mean_optical_thickness, 2),
                     util::Table::num(stats.mean_cloud_top_pressure, 1),
                     util::Table::num(stats.mean_water_path, 1),
                     util::Table::num(stats.mean_abs_latitude, 1)});
  }
  os << classes.render() << "\n";

  os << "Zonal distribution (tiles per 15-degree latitude band):\n";
  const auto zonal = zonal_class_counts(num_classes, 15.0);
  for (std::size_t band = 0; band < zonal.size(); ++band) {
    std::size_t total = 0;
    for (auto c : zonal[band]) total += c;
    if (total == 0) continue;
    const double lat_lo = -90.0 + 15.0 * static_cast<double>(band);
    os << "  [" << lat_lo << ", " << lat_lo + 15.0 << "): " << total
       << " tiles\n";
  }
  return os.str();
}

}  // namespace mfw::analysis
