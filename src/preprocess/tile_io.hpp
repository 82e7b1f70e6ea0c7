// Tile file I/O: one ncl container per granule, holding the selected tiles,
// their geolocation/physical metadata, and — after inference — the appended
// `label` variable, matching the paper's NetCDF outputs.
//
// Two flavours exist:
//   - full files (write_tile_file): tile pixel data included; what the real
//     preprocessing stage emits when content is materialized.
//   - manifest files (write_tile_manifest): metadata + tile count only; what
//     the pure-timing simulation emits so downstream stages (monitor,
//     inference accounting, shipment) exercise identical code paths without
//     materializing pixels.
#pragma once

#include <optional>
#include <string>

#include "modis/catalog.hpp"
#include "preprocess/tiler.hpp"
#include "storage/filesystem.hpp"
#include "storage/ncl.hpp"

namespace mfw::preprocess {

struct TileFileSummary {
  modis::GranuleId granule;
  std::size_t tile_count = 0;
  bool has_pixel_data = false;
  bool has_labels = false;
};

/// Serializes a TilerResult (with pixel data) to `path` on `fs`.
void write_tile_file(storage::FileSystem& fs, const std::string& path,
                     const modis::GranuleId& granule, const TilerResult& result);

/// Serializes a metadata-only manifest recording `tile_count` tiles.
void write_tile_manifest(storage::FileSystem& fs, const std::string& path,
                         const modis::GranuleId& granule,
                         std::size_t tile_count);

/// Parses either flavour's header.
TileFileSummary read_tile_summary(storage::FileSystem& fs,
                                  const std::string& path);

/// Loads the full ncl container (throws storage::FormatError on stubs when
/// pixel data is required by the caller).
storage::NclFile read_tile_file(storage::FileSystem& fs,
                                const std::string& path);

/// Number of tiles whose pixel data `file` actually carries (0 for
/// manifests, which record a tile_count attribute but no `tiles` variable).
std::size_t pixel_tile_count(const storage::NclFile& file);

/// Extracts tile `index` (with pixel data) from a full tile file. The ncl
/// variable accessors are zero-copy spans, so this materializes exactly one
/// Tile — the primitive the bounded-memory streaming reader builds on.
/// Throws std::out_of_range past the last tile, and storage::FormatError
/// unless `tiles` is f32 over (tile, channel, y, x) with x == y and every
/// per-tile variable holds one element per tile.
Tile tile_from_ncl(const storage::NclFile& file, std::size_t index);

/// Extracts all tiles (with pixel data) from a full tile file; the layout is
/// checked as for tile_from_ncl.
std::vector<Tile> tiles_from_ncl(const storage::NclFile& file);

/// Appends an i32 `label` variable (one per tile) and rewrites the file.
/// For manifests, records the labels' presence in attributes only.
void append_labels(storage::FileSystem& fs, const std::string& path,
                   std::span<const std::int32_t> labels);

}  // namespace mfw::preprocess
