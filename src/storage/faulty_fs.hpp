// Fault-injecting FileSystem decorator for resilience testing.
//
// Wraps a backing filesystem and corrupts read payloads (single bit flip)
// with a configured probability, and/or fails operations with transient
// errors. Used by tests to prove that the transfer layer's end-to-end CRC
// verification catches silent corruption and that retry paths engage.
#pragma once

#include "storage/filesystem.hpp"
#include "util/rng.hpp"

namespace mfw::storage {

struct FaultConfig {
  /// Probability that a read_file() payload is returned corrupted.
  double corrupt_read_probability = 0.0;
  /// Probability that a write_file() throws a transient error.
  double write_failure_probability = 0.0;
  std::uint64_t seed = 1;
};

class FaultyFs final : public FileSystem {
 public:
  /// `inner` is not owned and must outlive the decorator.
  FaultyFs(FileSystem& inner, FaultConfig config);

  void write_file(std::string_view path, Bytes data) override;
  Bytes read_file(std::string_view path) const override;
  bool exists(std::string_view path) const override;
  std::uint64_t file_size(std::string_view path) const override;
  std::vector<FileInfo> list(std::string_view pattern) const override;
  bool remove(std::string_view path) override;
  void rename(std::string_view from, std::string_view to) override;
  std::string name() const override;

  std::size_t corrupted_reads() const { return corrupted_reads_; }
  std::size_t failed_writes() const { return failed_writes_; }

 private:
  FileSystem& inner_;
  FaultConfig config_;
  mutable util::Rng rng_;
  mutable std::size_t corrupted_reads_ = 0;
  std::size_t failed_writes_ = 0;
};

}  // namespace mfw::storage
