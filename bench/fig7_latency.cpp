// Fig. 7 reproduction: the end-to-end workflow latency breakdown.
// Paper measurements: download launch (Globus Compute workers + LAADS
// connection + file listing) 5.63 s; preprocessing (Parsl start + Slurm
// allocation + tile creation) 32.80 s; Globus Flow action overhead ~50 ms;
// the monitor's asynchronous hop is "inconsequential".
#include <cstdio>

#include "bench_common.hpp"
#include "pipeline/eoml_workflow.hpp"
#include "util/ascii_plot.hpp"
#include "util/bytes.hpp"
#include "util/log.hpp"

using namespace mfw;

int main(int argc, char** argv) {
  util::cli::Command("fig7_latency").parse(argc, argv);
  util::Logger::instance().set_level(util::LogLevel::kWarn);
  benchx::print_header(
      "Fig. 7 — EO-ML workflow latency breakdown",
      "Kurihana et al., SC24, Fig. 7");

  pipeline::EomlConfig config;
  config.max_files = 30;
  config.daytime_only = true;
  config.preprocess_nodes = 4;
  config.workers_per_node = 8;
  pipeline::EomlWorkflow workflow(config);
  const auto report = workflow.run();

  std::printf(
      "[download]--(launch %s)-->[transfer %s]   (paper launch: 5.63s)\n",
      util::format_seconds(report.download_launch_latency).c_str(),
      util::format_seconds(report.download_span.duration() -
                           report.download_launch_latency)
          .c_str());
  std::printf(
      "[preprocess]--(slurm alloc %s)-->[tile creation %s]  (paper total: "
      "32.80s)\n",
      util::format_seconds(report.slurm_allocation_latency).c_str(),
      util::format_seconds(report.preprocess_span.duration() -
                           report.slurm_allocation_latency)
          .c_str());
  std::printf(
      "[monitor]~~(async trigger gap %s)~~>[inference flow]   (paper: "
      "inconsequential)\n",
      util::format_seconds(report.monitor_trigger_gap).c_str());
  std::printf(
      "[flow]--(action overhead %s per action)-->[...]      (paper: ~50ms)\n",
      util::format_seconds(report.mean_flow_action_overhead).c_str());
  std::printf("[shipment]--(%s for %zu files to Orion)\n\n",
              util::format_seconds(report.shipment_span.duration()).c_str(),
              report.shipped_files);

  std::printf("%s\n",
              util::ascii_bars(
                  {{"download launch", report.download_launch_latency},
                   {"download xfer",
                    report.download_span.duration() -
                        report.download_launch_latency},
                   {"slurm alloc", report.slurm_allocation_latency},
                   {"tile creation",
                    report.preprocess_span.duration() -
                        report.slurm_allocation_latency},
                   {"monitor gap", report.monitor_trigger_gap},
                   {"flow action ovh", report.mean_flow_action_overhead},
                   {"shipment", report.shipment_span.duration()}},
                  50)
                  .c_str());

  std::printf("%s\n", report.summary().c_str());
  std::printf(
      "Expected shape (paper): launch latency ~5-6s; preprocessing tens of\n"
      "seconds and dominated by tile creation; flow action overhead 2-3\n"
      "orders of magnitude smaller (~50ms); monitor gap sub-second.\n");
  return 0;
}
