#include "storage/faulty_fs.hpp"

#include <stdexcept>

namespace mfw::storage {

FaultyFs::FaultyFs(FileSystem& inner, FaultConfig config)
    : inner_(inner), config_(config), rng_(config.seed) {}

void FaultyFs::write_file(std::string_view path, Bytes data) {
  if (rng_.bernoulli(config_.write_failure_probability)) {
    ++failed_writes_;
    throw std::runtime_error(name() + ": transient write failure on " +
                             std::string(path));
  }
  inner_.write_file(path, std::move(data));
}

Bytes FaultyFs::read_file(std::string_view path) const {
  Bytes data = inner_.read_file(path);
  if (data.empty() || !rng_.bernoulli(config_.corrupt_read_probability))
    return data;
  ++corrupted_reads_;
  const auto index = static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(data.size()) - 1));
  // The stored buffer is shared and never written: corrupt a copy of it.
  std::vector<std::byte> corrupted(data.begin(), data.end());
  corrupted[index] ^= std::byte{0x10};
  return corrupted;
}

bool FaultyFs::exists(std::string_view path) const {
  return inner_.exists(path);
}

std::uint64_t FaultyFs::file_size(std::string_view path) const {
  return inner_.file_size(path);
}

std::vector<FileInfo> FaultyFs::list(std::string_view pattern) const {
  return inner_.list(pattern);
}

bool FaultyFs::remove(std::string_view path) { return inner_.remove(path); }

void FaultyFs::rename(std::string_view from, std::string_view to) {
  inner_.rename(from, to);
}

std::string FaultyFs::name() const { return inner_.name() + "+faulty"; }

}  // namespace mfw::storage
