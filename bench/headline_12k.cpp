// Headline reproduction: "our workflow processes 12,000 high-resolution
// satellite images in just 44 seconds using 80 workers distributed across
// 10 nodes" (abstract). We assemble daytime MOD02 granules until their tile
// yield reaches ~12,000 tiles and run the preprocessing farm at 10 nodes x 8
// workers. Expected: completion in the mid-40-second range (~270 tiles/s).
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "obs/export.hpp"
#include "pipeline/eoml_workflow.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

using namespace mfw;

int main(int argc, char** argv) {
  // --trace-out <path>: record the end-to-end barrier/streaming comparison
  // runs (not the isolated-farm iterations) as a Chrome trace-event JSON.
  // --report-out <path>: write the trace-analysis report for those runs.
  const auto args =
      util::cli::Command("headline_12k",
                         {util::cli::text("--trace-out", "path"),
                          util::cli::text("--report-out", "path")})
          .parse(argc, argv);

  benchx::print_header(
      "Headline — 12,000 tiles on 80 workers across 10 nodes",
      "Kurihana et al., SC24, abstract ('12,000 images in 44 seconds')");

  util::Table table({"iteration", "files", "tiles", "time (s)", "tiles/s"});
  std::vector<double> times;
  for (int iteration = 0; iteration < 5; ++iteration) {
    // Grow the file list until the tile total reaches 12,000; the source
    // extends the existing prefix in place, so each +8 step only estimates
    // the newly scanned granules.
    benchx::DaytimeFileSource source(1 + iteration);
    std::size_t request = 96;
    long tiles = 0;
    std::size_t counted = 0;
    while (true) {
      const auto& grown = source.take(request);
      for (; counted < grown.size(); ++counted) tiles += grown[counted].tiles;
      if (tiles >= 12000 || grown.size() < request) break;
      request += 8;
    }
    std::vector<benchx::FileWorkload> files = source.take(request);
    // Trim overshoot from the tail.
    while (!files.empty() && tiles - files.back().tiles >= 12000) {
      tiles -= files.back().tiles;
      files.pop_back();
    }
    const auto result = benchx::run_preprocess_farm(10, 8, files);
    times.push_back(result.makespan);
    table.add_row({std::to_string(iteration + 1), std::to_string(files.size()),
                   util::Table::num(result.tiles, 0),
                   util::Table::num(result.makespan, 2),
                   util::Table::num(result.throughput, 2)});
  }
  std::printf("%s\n", table.render().c_str());
  const auto m = benchx::mean_std(times);
  std::printf("Mean completion: %.2fs +- %.2fs   (paper: 44s)\n", m.mean,
              m.stddev);
  std::printf("Within 25%% of the paper's 44s: %s\n",
              (m.mean > 33.0 && m.mean < 55.0) ? "yes" : "no");

  // -- streaming variant -----------------------------------------------------
  // The 44s headline measures the farm in isolation (inputs already on
  // Lustre). End to end the barrier makes every granule wait for the slowest
  // download; streaming hides the farm inside the download window, so the
  // same 10x8 allocation adds almost nothing past the last download.
  std::printf(
      "\n=== Streaming variant (end-to-end, 10 nodes x 8 workers) ===\n");
  util::Logger::instance().set_level(util::LogLevel::kWarn);
  if (args.has("--trace-out") || args.has("--report-out"))
    obs::set_globally_enabled(true);
  util::Table cmp({"scheduling", "makespan (s)", "post-download (s)",
                   "dl/pp overlap (s)", "tiles"});
  double barrier_makespan = 0.0;
  double streaming_makespan = 0.0;
  for (const auto mode : {pipeline::SchedulingMode::kBarrier,
                          pipeline::SchedulingMode::kStreaming}) {
    pipeline::EomlConfig config;
    config.max_files = 40;
    config.daytime_only = true;
    config.download_workers = 3;
    config.preprocess_nodes = 10;
    config.workers_per_node = 8;
    config.inference_workers = 1;
    config.scheduling = mode;
    pipeline::EomlWorkflow workflow(config);
    const auto report = workflow.run();
    (mode == pipeline::SchedulingMode::kBarrier ? barrier_makespan
                                                : streaming_makespan) =
        report.makespan;
    cmp.add_row({pipeline::to_string(mode),
                 util::Table::num(report.makespan, 2),
                 util::Table::num(report.makespan - report.download_span.end, 2),
                 util::Table::num(report.download_preprocess_overlap(), 2),
                 util::Table::num(static_cast<double>(report.total_tiles), 0)});
  }
  std::printf("%s\n", cmp.render().c_str());
  std::printf("Streaming saves %.2fs end-to-end (%.1f%%)\n",
              barrier_makespan - streaming_makespan,
              barrier_makespan > 0
                  ? 100.0 * (barrier_makespan - streaming_makespan) /
                        barrier_makespan
                  : 0.0);

  benchx::write_trace_outputs(args);
  return 0;
}
