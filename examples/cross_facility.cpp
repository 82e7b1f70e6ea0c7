// Cross-facility campaign: the paper's §V-A vision in action — built-in
// shareable pipeline templates, the three DOE IRI compute facilities, and a
// least-loaded broker that places day-jobs across them.
//
// Each facility runs its assigned jobs one after another (its partition is
// busy while a job runs); different facilities run in parallel. The
// campaign makespan is therefore the slowest facility's queue — exactly the
// quantity the broker minimizes.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "pipeline/eoml_workflow.hpp"
#include "util/bytes.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

int main() {
  using namespace mfw;
  util::Logger::instance().set_level(util::LogLevel::kWarn);

  // 1. The community pipeline templates (pipeline-as-a-service).
  std::printf("Published pipelines:\n");
  for (const auto& tpl : pipeline::kPipelineTemplates)
    std::printf("  %-16s %s\n", tpl.name, tpl.description);

  // 2. The federated facilities.
  const std::vector<spec::Facility> facilities = {
      spec::olcf_defiant(),
      spec::nersc_perlmutter_like(),
      spec::alcf_polaris_like(),
  };
  std::printf("\nFederated facilities:\n");
  for (const auto& f : facilities)
    std::printf("  %-24s %3d nodes, sched %.1fs, WAN %s\n", f.name.c_str(),
                f.total_nodes, f.scheduler_latency,
                util::format_rate(f.wan_bps).c_str());

  // 3. A week-long campaign: one day-job per day, each placed on the
  //    facility with the least accumulated busy time.
  std::vector<double> busy(facilities.size(), 0.0);
  std::size_t total_files = 0, total_tiles = 0;
  util::Table table({"day", "facility", "granules", "tiles", "job makespan",
                     "queue finish"});
  for (int day = 1; day <= 7; ++day) {
    const auto f = static_cast<std::size_t>(
        std::min_element(busy.begin(), busy.end()) - busy.begin());
    auto config = pipeline::instantiate(
        "aicca-daily", "workflow: {max_files: 8, span: {first_day: " +
                           std::to_string(day) +
                           "}}\npreprocess: {nodes: 4}\n");
    pipeline::apply(facilities[f], config);
    const auto report = pipeline::EomlWorkflow(config).run();
    busy[f] += report.makespan;
    total_files += report.shipped_files;
    total_tiles += report.total_tiles;
    table.add_row({std::to_string(day), facilities[f].name,
                   std::to_string(report.granules),
                   std::to_string(report.total_tiles),
                   util::format_seconds(report.makespan),
                   util::format_seconds(busy[f])});
  }
  std::printf("\n%s\n", table.render().c_str());
  std::printf("Facility queues:\n");
  for (std::size_t f = 0; f < facilities.size(); ++f)
    std::printf("  %-24s busy %s\n", facilities[f].name.c_str(),
                util::format_seconds(busy[f]).c_str());
  std::printf("\nCampaign: %zu files, %zu tiles, makespan %s across %zu "
              "facilities\n",
              total_files, total_tiles,
              util::format_seconds(*std::max_element(busy.begin(), busy.end()))
                  .c_str(),
              facilities.size());
  return 0;
}
