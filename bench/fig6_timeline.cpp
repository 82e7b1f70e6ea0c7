// Fig. 6 reproduction: the automation timeline — active worker counts per
// workflow stage over time for a full end-to-end run with the paper's
// allocation (3 download workers, 32 preprocessing workers, 1 inference
// worker). Expected shape: download plateau first; preprocessing ramps to 32
// after downloads complete and drains as tasks finish; short inference
// bursts overlap preprocessing and continue briefly after it ends.
//
// A second run flips config.scheduling to streaming: per-granule
// granule.ready events feed the farm while downloads are still in flight,
// so the preprocess band slides left under the download plateau and the
// makespan shrinks by roughly the barrier-mode compute tail.
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "obs/analyze.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/eoml_workflow.hpp"
#include "util/log.hpp"

using namespace mfw;

namespace {

pipeline::EomlConfig fig6_config(pipeline::SchedulingMode mode,
                                 std::size_t max_files) {
  pipeline::EomlConfig config;
  config.max_files = max_files;
  config.daytime_only = true;
  config.download_workers = 3;
  config.preprocess_nodes = 4;   // 4 nodes x 8 workers = 32 preprocess workers
  config.workers_per_node = 8;
  config.inference_workers = 1;
  config.scheduling = mode;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  util::Logger::instance().set_level(util::LogLevel::kWarn);

  // Optional flags: --trace-out <path> enables the obs layer and writes a
  // Chrome trace-event JSON covering BOTH runs (each run is its own trace
  // process, so barrier and streaming land side by side in Perfetto);
  // --report-out <path> also enables tracing and writes the trace-analysis
  // report (critical path, stragglers, utilization) as JSON;
  // --max-files <n> shrinks the catalog slice for quick smoke runs.
  std::string trace_out;
  std::string report_out;
  std::size_t max_files = 40;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace-out" && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (arg == "--report-out" && i + 1 < argc) {
      report_out = argv[++i];
    } else if (arg == "--max-files" && i + 1 < argc &&
               benchx::parse_count(argv[i + 1], 1, max_files)) {
      ++i;
    } else {
      std::fprintf(stderr,
                   "usage: fig6_timeline [--trace-out <path>] "
                   "[--report-out <path>] [--max-files <n>]\n");
      return 2;
    }
  }
  if (!trace_out.empty() || !report_out.empty())
    obs::set_globally_enabled(true);
  benchx::print_header(
      "Fig. 6 — Automation timeline: active workers per stage",
      "Kurihana et al., SC24, Fig. 6 (blue=download, orange=preprocess, "
      "green=inference)");

  pipeline::EomlWorkflow workflow(
      fig6_config(pipeline::SchedulingMode::kBarrier, max_files));
  const auto report = workflow.run();

  std::printf("Full run:\n%s\n", report.timeline.render(140, 96, 18).c_str());
  // The download phase moves ~7 GB over the WAN and dwarfs the compute
  // phases on the time axis; zoom into the preprocess/inference window the
  // paper's Fig. 6 focuses on.
  const double zoom_from = report.preprocess_span.start - 10.0;
  const double zoom_to = report.timeline.end_time();
  std::printf("Zoom (preprocess + inference window):\n%s\n",
              report.timeline.render_window(zoom_from, zoom_to, 140, 96, 18)
                  .c_str());
  std::printf("Stage peaks: download=%d preprocess=%d inference=%d\n\n",
              report.timeline.stage("download").peak(),
              report.timeline.stage("preprocess").peak(),
              report.timeline.stage("inference").peak());
  std::printf("%s\n", report.summary().c_str());
  std::printf("Timeline CSV (30 samples):\n%s\n",
              report.timeline.to_csv(30).c_str());
  std::printf(
      "Expected shape (paper): (1) resources ramp up after the network-\n"
      "intensive download completes; (2) workers scale down as tasks\n"
      "complete; (3) inference starts before preprocessing fully ends.\n");
  const bool overlap = report.inference_span.start < report.preprocess_span.end;
  std::printf("Inference overlaps preprocessing: %s\n",
              overlap ? "yes (matches paper)" : "NO (mismatch)");

  // -- streaming variant -----------------------------------------------------
  std::printf(
      "\n=== Streaming variant (per-granule readiness, same config) ===\n");
  pipeline::EomlWorkflow streaming_wf(
      fig6_config(pipeline::SchedulingMode::kStreaming, max_files));
  const auto streaming = streaming_wf.run();
  std::printf("Full run:\n%s\n",
              streaming.timeline.render(140, 96, 18).c_str());
  std::printf("%s\n", streaming.summary().c_str());

  const double saved = report.makespan - streaming.makespan;
  std::printf(
      "Makespan: barrier %.2fs -> streaming %.2fs (%.2fs saved, %.1f%%)\n",
      report.makespan, streaming.makespan, saved,
      report.makespan > 0 ? 100.0 * saved / report.makespan : 0.0);
  std::printf("Download/preprocess overlap: barrier %.2fs, streaming %.2fs\n",
              report.download_preprocess_overlap(),
              streaming.download_preprocess_overlap());
  std::printf("Granule dwell p50/p95: barrier %.2fs/%.2fs, "
              "streaming %.2fs/%.2fs\n",
              report.dwell_p50(), report.dwell_p95(), streaming.dwell_p50(),
              streaming.dwell_p95());
  std::printf("Same tiles both modes: %s (%zu vs %zu)\n",
              report.total_tiles == streaming.total_tiles ? "yes" : "NO",
              report.total_tiles, streaming.total_tiles);

  if (!trace_out.empty()) {
    auto& rec = obs::TraceRecorder::instance();
    obs::write_file(trace_out, obs::to_chrome_trace_json(rec));
    std::printf("\nTrace written to %s (%zu spans, %zu instants) — load in "
                "https://ui.perfetto.dev or chrome://tracing\n",
                trace_out.c_str(), rec.span_count(), rec.instant_count());
  }
  if (!report_out.empty()) {
    const auto analysis = obs::analyze_trace(obs::TraceRecorder::instance());
    obs::write_file(report_out, analysis.to_json());
    std::printf("\nTrace-analysis report written to %s\n", report_out.c_str());
    for (const auto& process : analysis.processes)
      std::printf("  %s: dominant stage %s, critical path %.1f s "
                  "(%.1f%% coverage)\n",
                  process.process.c_str(), process.dominant_stage.c_str(),
                  process.critical_path.length,
                  100.0 * process.critical_path.coverage);
  }
  return 0;
}
