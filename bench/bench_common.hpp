// Shared helpers for the figure/table reproduction benchmarks: workload
// construction (daytime MOD02 file lists with per-file tile counts) and the
// preprocessing task-farm experiment harness used by Figs. 4/5 and Table I.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "compute/cluster.hpp"
#include "modis/catalog.hpp"

namespace mfw::benchx {

/// Per-file workload descriptor for a MOD02 granule.
struct FileWorkload {
  modis::GranuleId id;
  int tiles = 0;
};

/// First `count` daytime MOD02 granules with tiles, starting at `start_day`
/// of 2022 (wraps across days as needed). Deterministic per seed.
std::vector<FileWorkload> daytime_files(std::size_t count, int start_day = 1,
                                        std::uint64_t seed = 2022);

/// Incremental variant of daytime_files: take(n) returns the same list
/// daytime_files(n, start_day, seed) would, but repeated calls with growing
/// n resume the day/slot scan where the previous call stopped instead of
/// re-estimating the whole prefix (the granule statistics are pure functions
/// of (seed, day, slot), so resuming is exact). Grow-until-N loops go from
/// quadratic to linear in the final list length.
class DaytimeFileSource {
 public:
  explicit DaytimeFileSource(int start_day = 1, std::uint64_t seed = 2022);

  /// Extends the list to (up to) `count` files and returns it; the reference
  /// stays valid until the next call. Never shrinks.
  const std::vector<FileWorkload>& take(std::size_t count);

  /// The first `count` files alone, equal to daytime_files(count, start_day,
  /// seed): the scan grows only past the longest prefix taken so far.
  std::vector<FileWorkload> prefix(std::size_t count);

 private:
  modis::GranuleGenerator generator_;
  std::uint64_t seed_;
  int day_;
  int slot_ = 0;
  std::vector<FileWorkload> files_;
};

/// File sources for the scaling benches' iterations: entry i starts at day
/// 1 + i. Each (point, iteration) list is a prefix of its iteration's
/// source, so each source scans its days once however many points it feeds.
std::vector<DaytimeFileSource> iteration_sources(int iterations);

struct FarmResult {
  double makespan = 0.0;     // seconds (virtual) to process all files
  double tiles = 0.0;        // total tiles produced
  double throughput = 0.0;   // tiles/second
};

/// Runs the preprocessing task farm (the Figs. 4/5 experiment): `files` are
/// dispatched to `nodes` x `workers_per_node` workers under the calibrated
/// Defiant contention law.
FarmResult run_preprocess_farm(int nodes, int workers_per_node,
                               const std::vector<FileWorkload>& files);

/// Mean/stddev over per-iteration values.
struct MeanStd {
  double mean = 0.0;
  double stddev = 0.0;
};
MeanStd mean_std(const std::vector<double>& values);

/// Prints the standard bench header (paper reference + reproduction note).
void print_header(const std::string& experiment, const std::string& paper_ref);

/// Parses a decimal count of at least `min` into `out`; false, leaving `out`
/// alone, on anything else: a sign, blanks, trailing characters, overflow.
bool parse_count(const char* text, std::size_t min, std::size_t& out);

/// For benches that take no arguments: given any, prints the offending
/// argument and a usage line to stderr and exits with status 2.
void require_no_args(int argc, char** argv);

}  // namespace mfw::benchx
