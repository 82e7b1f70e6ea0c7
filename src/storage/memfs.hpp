// Thread-safe in-memory FileSystem, the default backing store for facility
// filesystems in tests, examples, and simulation runs.
#pragma once

#include <functional>
#include <map>
#include <mutex>

#include "sim/clock.hpp"
#include "storage/filesystem.hpp"

namespace mfw::storage {

class MemFs final : public FileSystem {
 public:
  /// `clock` stamps mtimes when non-null (not owned; must outlive the fs);
  /// otherwise a per-fs monotone counter is used.
  explicit MemFs(std::string name, const sim::Clock* clock = nullptr);

  void write_file(std::string_view path, Bytes data) override;
  Bytes read_file(std::string_view path) const override;
  bool exists(std::string_view path) const override;
  std::uint64_t file_size(std::string_view path) const override;
  std::vector<FileInfo> list(std::string_view pattern) const override;
  bool remove(std::string_view path) override;
  void rename(std::string_view from, std::string_view to) override;
  std::string name() const override { return name_; }

  bool supports_journal() const override { return true; }
  JournalCursor journal_since(JournalCursor cursor,
                              std::vector<FileInfo>& out) const override;

 private:
  struct Entry {
    Bytes data;
    double mtime = 0.0;
  };

  double stamp();

  std::string name_;
  const sim::Clock* clock_;
  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> files_;
  double counter_ = 0.0;
  std::vector<FileInfo> journal_;  // every create/replace/rename-target
};

}  // namespace mfw::storage
