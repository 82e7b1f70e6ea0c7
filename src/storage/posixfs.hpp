// POSIX-backed FileSystem: persists facility data under a root directory on
// the real disk. Used when a deployment wants artifacts (granules, tile
// files, models) to outlive the process; everything that runs against MemFs
// runs against PosixFs unchanged.
//
// Paths are the same '/'-separated keys as elsewhere; they are sandboxed
// under the root (".." segments are rejected, as are segments starting with
// the prefix write_file stages files under). mtimes are a monotone
// per-instance counter (like MemFs without a clock) so that FsMonitor
// semantics — strictly increasing stamps on rewrite — hold regardless of
// filesystem timestamp granularity.
#pragma once

#include <filesystem>
#include <map>
#include <mutex>

#include "storage/filesystem.hpp"

namespace mfw::storage {

class PosixFs final : public FileSystem {
 public:
  /// Creates `root` (and parents) if missing.
  explicit PosixFs(std::filesystem::path root, std::string name = "posix");

  void write_file(std::string_view path, Bytes data) override;
  Bytes read_file(std::string_view path) const override;
  bool exists(std::string_view path) const override;
  std::uint64_t file_size(std::string_view path) const override;
  std::vector<FileInfo> list(std::string_view pattern) const override;
  bool remove(std::string_view path) override;
  void rename(std::string_view from, std::string_view to) override;
  std::string name() const override { return name_; }

  const std::filesystem::path& root() const { return root_; }

 private:
  std::filesystem::path resolve(std::string_view path) const;

  std::filesystem::path root_;
  std::string name_;
  mutable std::mutex mu_;
  // Monotone write stamps per key (rewrite must bump the stamp even when
  // the OS mtime granularity would not).
  std::map<std::string, double, std::less<>> stamps_;
  double counter_ = 0.0;
};

}  // namespace mfw::storage
