// Shared-parallel-filesystem decorator.
//
// Wraps a backing FileSystem (normally MemFs) and accounts every byte moved
// through it, mimicking a Lustre scratch system shared by all nodes of a
// facility. Two things are modelled:
//   1. byte counters (reads/writes, per-op counts) for telemetry and the
//      EXPERIMENTS.md I/O sanity checks, and
//   2. an *aggregate bandwidth ceiling* that the compute layer consults: the
//      ClusterExecutor charges each task's filesystem demand against the
//      facility-wide ceiling, which produces the mild super-node droop seen
//      in the paper's 9-10-node points (Table I, right columns).
//
// The decorator itself stays synchronous — actual byte movement in tests and
// examples is instantaneous — because in the discrete-event benchmarks, time
// is charged by the compute/transfer layers, not by file API calls.
#pragma once

#include <atomic>

#include "storage/filesystem.hpp"

namespace mfw::storage {

class LustreSimFs final : public FileSystem {
 public:
  /// `inner` is not owned and must outlive this decorator.
  /// `aggregate_bandwidth_bps` is the facility-wide ceiling exposed to the
  /// compute layer (e.g. ~40 GB/s-class for the Defiant 1.6 PB scratch).
  LustreSimFs(FileSystem& inner, double aggregate_bandwidth_bps);

  void write_file(std::string_view path, Bytes data) override;
  Bytes read_file(std::string_view path) const override;
  bool exists(std::string_view path) const override;
  std::uint64_t file_size(std::string_view path) const override;
  std::vector<FileInfo> list(std::string_view pattern) const override;
  bool remove(std::string_view path) override;
  void rename(std::string_view from, std::string_view to) override;
  std::string name() const override;

  bool supports_journal() const override { return inner_.supports_journal(); }
  JournalCursor journal_since(JournalCursor cursor,
                              std::vector<FileInfo>& out) const override {
    return inner_.journal_since(cursor, out);
  }

  double aggregate_bandwidth() const { return aggregate_bandwidth_; }

  std::uint64_t bytes_written() const { return bytes_written_; }
  std::uint64_t bytes_read() const { return bytes_read_; }
  std::uint64_t write_ops() const { return write_ops_; }
  std::uint64_t read_ops() const { return read_ops_; }

 private:
  FileSystem& inner_;
  double aggregate_bandwidth_;
  mutable std::atomic<std::uint64_t> bytes_written_{0};
  mutable std::atomic<std::uint64_t> bytes_read_{0};
  mutable std::atomic<std::uint64_t> write_ops_{0};
  mutable std::atomic<std::uint64_t> read_ops_{0};
};

}  // namespace mfw::storage
