// Downstream AICCA analytics: what the shipment stage exists for.
//
// "Once in place, these files are readily accessible for research
// scientists and downstream workflows for further analysis" — this module
// is that downstream consumer: it loads the labelled tile archive from a
// facility filesystem (Frontier's Orion in the pipeline) and computes the
// climate quantities the AICCA paper derives from its atlas — class
// occurrence, per-class physical properties (cloud fraction, optical
// thickness, top pressure, water path), and zonal (latitude-band)
// distributions used to monitor cloud-regime changes over time.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "modis/catalog.hpp"
#include "storage/filesystem.hpp"

namespace mfw::util {
class ThreadPool;
}

namespace mfw::analysis {

/// One labelled ocean-cloud tile flattened out of a tile file.
struct TileRecord {
  modis::GranuleId granule;
  int label = -1;
  float latitude = 0.0f;
  float longitude = 0.0f;
  float cloud_fraction = 0.0f;
  float optical_thickness = 0.0f;
  float cloud_top_pressure = 0.0f;
  float water_path = 0.0f;
};

/// Per-class aggregate statistics.
struct ClassStats {
  std::size_t count = 0;
  double mean_cloud_fraction = 0.0;
  double mean_optical_thickness = 0.0;
  double mean_cloud_top_pressure = 0.0;
  double mean_water_path = 0.0;
  double mean_abs_latitude = 0.0;
};

/// The labelled tile archive (e.g. everything under Orion's aicca/).
class AiccaArchive {
 public:
  /// Loads every *labelled, pixel-bearing* tile file matching `pattern`
  /// from `fs`. Manifest-only files (timing-mode output) carry no per-tile
  /// variables and are counted in `skipped_manifests` instead. With a pool,
  /// byte reads stay sequential (FileSystem implementations need not be
  /// thread-safe) but container parsing fans out per file; records keep
  /// file order either way. Throws storage::FormatError for a labelled file
  /// whose `granule` attribute is not a granule filename; a file without
  /// the attribute keeps a default GranuleId.
  static AiccaArchive load(storage::FileSystem& fs, const std::string& pattern,
                           util::ThreadPool* pool = nullptr);

  std::size_t tile_count() const { return records_.size(); }
  std::size_t file_count() const { return files_; }
  std::size_t skipped_manifests() const { return skipped_; }
  const std::vector<TileRecord>& records() const { return records_; }

  /// Aggregates per class (classes with zero tiles are absent).
  std::map<int, ClassStats> class_stats() const;

  /// counts[band][class]: tile counts per latitude band (from -90, width
  /// `band_degrees`) per class.
  std::vector<std::vector<std::size_t>> zonal_class_counts(
      int num_classes, double band_degrees = 15.0) const;

  /// Text report: class table + zonal distribution (for examples/benches).
  std::string report(int num_classes) const;

 private:
  std::vector<TileRecord> records_;
  std::size_t files_ = 0;
  std::size_t skipped_ = 0;
};

}  // namespace mfw::analysis
