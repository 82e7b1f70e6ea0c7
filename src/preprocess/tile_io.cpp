#include "preprocess/tile_io.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>
#include <string_view>

namespace mfw::preprocess {

namespace {

void put_granule_attrs(storage::NclFile& file, const modis::GranuleId& granule) {
  auto& attrs = file.attrs();
  attrs["granule"] = granule.filename();
  attrs["satellite"] = modis::satellite_name(granule.satellite);
  attrs["year"] = std::to_string(granule.year);
  attrs["day_of_year"] = std::to_string(granule.day_of_year);
  attrs["slot"] = std::to_string(granule.slot);
}

modis::GranuleId granule_from_attrs(const storage::NclFile& file) {
  const auto it = file.attrs().find("granule");
  if (it == file.attrs().end())
    throw storage::FormatError("tile file missing 'granule' attribute");
  // The MOD02 filename encodes satellite/date/slot; parse it back.
  const auto id = modis::parse_granule_filename(it->second);
  if (!id) throw storage::FormatError("bad granule attribute: " + it->second);
  return *id;
}

}  // namespace

void write_tile_file(storage::FileSystem& fs, const std::string& path,
                     const modis::GranuleId& granule,
                     const TilerResult& result) {
  storage::NclFile file;
  put_granule_attrs(file, granule);
  file.attrs()["kind"] = "tiles";
  const std::size_t n = result.tiles.size();
  file.attrs()["tile_count"] = std::to_string(n);
  if (n > 0) {
    const auto& first = result.tiles.front();
    file.add_dim("tile", n);
    file.add_dim("channel", static_cast<std::uint64_t>(first.channels));
    file.add_dim("y", static_cast<std::uint64_t>(first.tile_size));
    file.add_dim("x", static_cast<std::uint64_t>(first.tile_size));

    const std::size_t per_tile = first.data.size();
    std::vector<float> pixels;
    pixels.reserve(n * per_tile);
    std::vector<float> lat, lon, cf, cot, ctp, cwp;
    std::vector<std::int32_t> orow, ocol;
    for (const auto& tile : result.tiles) {
      if (tile.data.size() != per_tile)
        throw std::invalid_argument("write_tile_file: ragged tile sizes");
      pixels.insert(pixels.end(), tile.data.begin(), tile.data.end());
      lat.push_back(tile.center_lat);
      lon.push_back(tile.center_lon);
      cf.push_back(tile.cloud_fraction);
      cot.push_back(tile.mean_optical_thickness);
      ctp.push_back(tile.mean_cloud_top_pressure);
      cwp.push_back(tile.mean_water_path);
      orow.push_back(tile.origin_row);
      ocol.push_back(tile.origin_col);
    }
    file.add_f32("tiles", {"tile", "channel", "y", "x"}, pixels);
    file.add_f32("latitude", {"tile"}, lat);
    file.add_f32("longitude", {"tile"}, lon);
    file.add_f32("cloud_fraction", {"tile"}, cf);
    file.add_f32("cloud_optical_thickness", {"tile"}, cot);
    file.add_f32("cloud_top_pressure", {"tile"}, ctp);
    file.add_f32("cloud_water_path", {"tile"}, cwp);
    file.add_i32("origin_row", {"tile"}, orow);
    file.add_i32("origin_col", {"tile"}, ocol);
  }
  fs.write_file(path, file.serialize());
}

void write_tile_manifest(storage::FileSystem& fs, const std::string& path,
                         const modis::GranuleId& granule,
                         std::size_t tile_count) {
  storage::NclFile file;
  put_granule_attrs(file, granule);
  file.attrs()["kind"] = "tile-manifest";
  file.attrs()["tile_count"] = std::to_string(tile_count);
  fs.write_file(path, file.serialize());
}

TileFileSummary read_tile_summary(storage::FileSystem& fs,
                                  const std::string& path) {
  const auto file = read_tile_file(fs, path);
  TileFileSummary summary;
  // The granule attr stores a MOD02 filename; keep the id it parses to.
  summary.granule = granule_from_attrs(file);
  const auto it = file.attrs().find("tile_count");
  if (it == file.attrs().end())
    throw storage::FormatError("tile file missing 'tile_count'");
  summary.tile_count = static_cast<std::size_t>(std::stoull(it->second));
  summary.has_pixel_data = file.has_var("tiles");
  summary.has_labels = file.has_var("label") ||
                       file.attrs().find("labeled") != file.attrs().end();
  return summary;
}

storage::NclFile read_tile_file(storage::FileSystem& fs,
                                const std::string& path) {
  return storage::NclFile::deserialize(fs.read_file(path));
}

std::size_t pixel_tile_count(const storage::NclFile& file) {
  if (!file.has_var("tiles")) return 0;
  return static_cast<std::size_t>(file.dim("tile"));
}

namespace {

// Checks the layout tile_from_ncl indexes: `tiles` over (tile, channel, y, x)
// with x == y, and `count` elements in every per-tile variable. The dtypes
// are checked where the variables are read.
void check_tile_layout(const storage::NclFile& file, std::size_t count) {
  constexpr std::array<std::string_view, 4> kDims{"tile", "channel", "y", "x"};
  if (!std::ranges::equal(file.var("tiles").dims, kDims))
    throw storage::FormatError(
        "tile file: 'tiles' must span (tile, channel, y, x)");
  const std::uint64_t ts = file.dim("y");
  if (file.dim("x") != ts)
    throw storage::FormatError("tile file: tiles are " + std::to_string(ts) +
                               " rows by " + std::to_string(file.dim("x")) +
                               " columns, not square");
  if (file.dim("channel") > std::numeric_limits<int>::max() ||
      ts > std::numeric_limits<int>::max())
    throw storage::FormatError("tile file: tile geometry exceeds int range");
  for (const char* name :
       {"origin_row", "origin_col", "latitude", "longitude", "cloud_fraction",
        "cloud_optical_thickness", "cloud_top_pressure", "cloud_water_path"}) {
    const std::size_t n = file.element_count(file.var(name).dims);
    if (n != count)
      throw storage::FormatError("tile file: '" + std::string(name) +
                                 "' has " + std::to_string(n) +
                                 " elements for " + std::to_string(count) +
                                 " tiles");
  }
}

}  // namespace

Tile tile_from_ncl(const storage::NclFile& file, std::size_t index) {
  const std::size_t n = pixel_tile_count(file);
  if (index >= n)
    throw std::out_of_range("tile_from_ncl: tile " + std::to_string(index) +
                            " of " + std::to_string(n));
  check_tile_layout(file, n);
  const int channels = static_cast<int>(file.dim("channel"));
  const int ts = static_cast<int>(file.dim("y"));
  const auto pixels = file.var("tiles").as_f32();
  const std::size_t per_tile = static_cast<std::size_t>(channels) * ts * ts;
  Tile tile;
  tile.tile_size = ts;
  tile.channels = channels;
  tile.origin_row = file.var("origin_row").as_i32()[index];
  tile.origin_col = file.var("origin_col").as_i32()[index];
  tile.center_lat = file.var("latitude").as_f32()[index];
  tile.center_lon = file.var("longitude").as_f32()[index];
  tile.cloud_fraction = file.var("cloud_fraction").as_f32()[index];
  tile.mean_optical_thickness =
      file.var("cloud_optical_thickness").as_f32()[index];
  tile.mean_cloud_top_pressure =
      file.var("cloud_top_pressure").as_f32()[index];
  tile.mean_water_path = file.var("cloud_water_path").as_f32()[index];
  tile.data.assign(
      pixels.begin() + static_cast<std::ptrdiff_t>(index * per_tile),
      pixels.begin() + static_cast<std::ptrdiff_t>((index + 1) * per_tile));
  return tile;
}

std::vector<Tile> tiles_from_ncl(const storage::NclFile& file) {
  std::vector<Tile> out;
  const std::size_t n = pixel_tile_count(file);
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(tile_from_ncl(file, i));
  return out;
}

void append_labels(storage::FileSystem& fs, const std::string& path,
                   std::span<const std::int32_t> labels) {
  auto file = read_tile_file(fs, path);
  const auto it = file.attrs().find("tile_count");
  if (it == file.attrs().end())
    throw storage::FormatError("append_labels: not a tile file");
  const auto count = static_cast<std::size_t>(std::stoull(it->second));
  if (labels.size() != count)
    throw std::invalid_argument("append_labels: got " +
                                std::to_string(labels.size()) +
                                " labels for " + std::to_string(count) +
                                " tiles");
  if (file.has_dim("tile")) {
    file.add_i32("label", {"tile"},
                 std::vector<std::int32_t>(labels.begin(), labels.end()));
  }
  file.attrs()["labeled"] = "1";
  fs.write_file(path, file.serialize());
}

}  // namespace mfw::preprocess
