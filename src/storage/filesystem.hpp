// Facility filesystem abstraction.
//
// Each facility in the topology (LAADS archive staging, ACE Defiant scratch,
// Frontier's Orion) exposes a FileSystem. Paths are '/'-separated keys; there
// is no directory object — directories exist implicitly, as on object
// stores. The flow monitor, preprocessing, inference, and shipment stages all
// operate through this interface, so tests can run everything against MemFs.
//
// A file's contents are one immutable Bytes buffer (storage/bytes.hpp):
// write_file takes the producer's buffer and read_file returns it, shared,
// so no hand-off copies a file. Implementations never write to a buffer
// they were given or have returned.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "storage/bytes.hpp"

namespace mfw::storage {

struct FileInfo {
  std::string path;
  std::uint64_t size = 0;
  /// Modification stamp in the owning clock's seconds (monotone per fs).
  double mtime = 0.0;
};

class FileSystem {
 public:
  virtual ~FileSystem() = default;

  /// Creates or replaces the file at `path` with `data`.
  virtual void write_file(std::string_view path, Bytes data) = 0;

  /// Reads the whole file; throws std::runtime_error when missing.
  virtual Bytes read_file(std::string_view path) const = 0;

  virtual bool exists(std::string_view path) const = 0;

  /// Size in bytes; throws when missing.
  virtual std::uint64_t file_size(std::string_view path) const = 0;

  /// Lists files whose path matches `pattern` (glob with '*'/'?'), sorted by
  /// path. Empty pattern lists everything.
  virtual std::vector<FileInfo> list(std::string_view pattern) const = 0;

  /// Removes a file; returns whether it existed.
  virtual bool remove(std::string_view path) = 0;

  /// Atomic rename; throws when `from` is missing.
  virtual void rename(std::string_view from, std::string_view to) = 0;

  virtual std::string name() const = 0;

  // -- Write journal ---------------------------------------------------------
  // Backends that record every create/replace/rename-target can hand pollers
  // an O(new entries) delta instead of an O(all files) list() scan — the
  // difference between a feasible and an infeasible year-long campaign for
  // the flow monitor. Entries are ordered, never reordered, and survive until
  // the filesystem dies; a cursor of 0 replays the filesystem's whole life.

  /// Opaque monotone position in the write journal.
  using JournalCursor = std::uint64_t;

  /// True when this filesystem records a write journal.
  virtual bool supports_journal() const { return false; }

  /// Appends every entry recorded after `cursor` to `out` (in write order;
  /// a path may appear multiple times, latest entry last) and returns the
  /// cursor at the journal's end. No-op on backends without a journal.
  virtual JournalCursor journal_since(JournalCursor cursor,
                                      std::vector<FileInfo>& out) const {
    (void)out;
    return cursor;
  }

  // -- Convenience helpers ---------------------------------------------------
  void write_text(std::string_view path, std::string_view text);
  std::string read_text(std::string_view path) const;
  std::uint64_t total_bytes() const;
};

}  // namespace mfw::storage
