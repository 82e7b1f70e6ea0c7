#include "bench_common.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "preprocess/tasks.hpp"
#include "util/stats.hpp"

namespace mfw::benchx {

DaytimeFileSource::DaytimeFileSource(int start_day, std::uint64_t seed)
    : generator_(seed), seed_(seed), day_(start_day) {}

const std::vector<FileWorkload>& DaytimeFileSource::take(std::size_t count) {
  while (files_.size() < count && day_ <= 366) {
    modis::GranuleSpec spec;
    spec.day_of_year = day_;
    spec.slot = slot_;
    spec.geometry = modis::kFullGeometry;
    spec.world_seed = seed_;
    const auto stats = modis::estimate_granule_stats(generator_, spec);
    if (stats.daytime && stats.selected_tiles > 0) {
      FileWorkload file;
      file.id = modis::GranuleId{modis::ProductKind::kMod02,
                                 modis::Satellite::kTerra, 2022, day_, slot_};
      file.tiles = stats.selected_tiles;
      files_.push_back(file);
    }
    if (++slot_ >= modis::kSlotsPerDay) {
      slot_ = 0;
      ++day_;
    }
  }
  return files_;
}

std::vector<FileWorkload> DaytimeFileSource::prefix(std::size_t count) {
  const auto& files = take(count);
  return {files.begin(),
          files.begin() + static_cast<std::ptrdiff_t>(
                              std::min(count, files.size()))};
}

std::vector<FileWorkload> daytime_files(std::size_t count, int start_day,
                                        std::uint64_t seed) {
  DaytimeFileSource source(start_day, seed);
  return source.take(count);
}

std::vector<DaytimeFileSource> iteration_sources(int iterations) {
  std::vector<DaytimeFileSource> sources;
  for (int iteration = 0; iteration < iterations; ++iteration)
    sources.emplace_back(1 + iteration);
  return sources;
}

FarmResult run_preprocess_farm(int nodes, int workers_per_node,
                               const std::vector<FileWorkload>& files) {
  sim::SimEngine engine;
  compute::ClusterExecutor exec(engine, compute::defiant_law_factory());
  for (int i = 0; i < nodes; ++i) exec.add_node(workers_per_node);
  const preprocess::PreprocessCostModel cost;
  for (const auto& file : files) {
    compute::SimTaskDesc desc;
    desc.cpu_seconds = cost.cpu_seconds;
    desc.shared_demand =
        std::max(cost.min_demand, cost.demand_per_tile * file.tiles);
    desc.payload = file.tiles;
    exec.submit(desc);
  }
  engine.run();
  FarmResult result;
  for (const auto& r : exec.results())
    result.makespan = std::max(result.makespan, r.finished_at);
  result.tiles = exec.completed_payload();
  result.throughput = result.makespan > 0 ? result.tiles / result.makespan : 0;
  return result;
}

MeanStd mean_std(const std::vector<double>& values) {
  util::StreamingStats stats;
  for (double v : values) stats.add(v);
  return MeanStd{stats.mean(), stats.stddev()};
}

void print_header(const std::string& experiment, const std::string& paper_ref) {
  std::printf("================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("(Simulated ACE Defiant substrate; see DESIGN.md for the\n");
  std::printf(" calibration of the node contention model and WAN parameters.)\n");
  std::printf("================================================================\n\n");
}

bool parse_count(const char* text, std::size_t min, std::size_t& out) {
  if (*text < '0' || *text > '9') return false;  // no sign, no blanks
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno != 0 || value < min) return false;
  out = static_cast<std::size_t>(value);
  return true;
}

void require_no_args(int argc, char** argv) {
  if (argc <= 1) return;
  std::fprintf(stderr, "%s: unexpected argument '%s'\nusage: %s\n", argv[0],
               argv[1], argv[0]);
  std::exit(2);
}

}  // namespace mfw::benchx
