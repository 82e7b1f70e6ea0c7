#include "bench_common.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/analyze.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "preprocess/tasks.hpp"
#include "util/stats.hpp"

namespace mfw::benchx {

DaytimeFileSource::DaytimeFileSource(int start_day, std::uint64_t seed)
    : generator_(seed), day_(start_day) {}

const std::vector<FileWorkload>& DaytimeFileSource::take(std::size_t count) {
  while (files_.size() < count && day_ <= 366) {
    modis::GranuleSpec spec;
    spec.day_of_year = day_;
    spec.slot = slot_;
    spec.geometry = modis::kFullGeometry;
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

int cpus_allowed() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

void write_trace_outputs(const util::cli::Args& args) {
  auto& rec = obs::TraceRecorder::instance();
  if (const auto path = args.text("--trace-out"); !path.empty()) {
    obs::write_file_or_exit(path, obs::to_chrome_trace_json(rec));
    std::printf("\nTrace written to %s (%zu spans, %zu instants) — load in "
                "https://ui.perfetto.dev or chrome://tracing\n",
                path.c_str(), rec.span_count(), rec.instant_count());
  }
  if (const auto path = args.text("--report-out"); !path.empty()) {
    const auto analysis = obs::analyze_trace(rec);
    obs::write_file_or_exit(path, analysis.to_json());
    std::printf("\nTrace-analysis report written to %s\n", path.c_str());
    for (const auto& process : analysis.processes)
      std::printf("  %s: dominant stage %s, critical path %.1f s "
                  "(%.1f%% coverage)\n",
                  process.process.c_str(), process.dominant_stage.c_str(),
                  process.critical_path.length,
                  100.0 * process.critical_path.coverage);
  }
}

}  // namespace mfw::benchx
