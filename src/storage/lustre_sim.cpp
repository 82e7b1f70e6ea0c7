#include "storage/lustre_sim.hpp"

#include <stdexcept>

namespace mfw::storage {

LustreSimFs::LustreSimFs(FileSystem& inner, double aggregate_bandwidth_bps)
    : inner_(inner), aggregate_bandwidth_(aggregate_bandwidth_bps) {
  if (!(aggregate_bandwidth_bps > 0))
    throw std::invalid_argument("LustreSimFs bandwidth must be > 0");
}

void LustreSimFs::write_file(std::string_view path, Bytes data) {
  const std::uint64_t size = data.size();
  inner_.write_file(path, std::move(data));
  bytes_written_ += size;
  ++write_ops_;
}

Bytes LustreSimFs::read_file(std::string_view path) const {
  auto data = inner_.read_file(path);
  bytes_read_ += data.size();
  ++read_ops_;
  return data;
}

bool LustreSimFs::exists(std::string_view path) const {
  return inner_.exists(path);
}

std::uint64_t LustreSimFs::file_size(std::string_view path) const {
  return inner_.file_size(path);
}

std::vector<FileInfo> LustreSimFs::list(std::string_view pattern) const {
  return inner_.list(pattern);
}

bool LustreSimFs::remove(std::string_view path) { return inner_.remove(path); }

void LustreSimFs::rename(std::string_view from, std::string_view to) {
  inner_.rename(from, to);
}

std::string LustreSimFs::name() const { return inner_.name() + "+lustre"; }

}  // namespace mfw::storage
