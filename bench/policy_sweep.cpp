// Policy-sweep laboratory bench (ROADMAP item 4): the scheduling-discipline
// Pareto study the declarative-workflow refactor enables. A three-stage
// campaign spec (WAN ingest -> contended tiling -> labeling, streaming
// edges) is compiled through mfw::spec and run under every SchedulerPolicy
// across facility-count x load (spec::run_sweep, the grid `mfwctl sweep`
// runs too). Each point reports makespan, facility utilization,
// p99 queue wait, deadline misses, and the spec's declared deadline SLO
// (which policies keep the miss-rate budget?); the grid lands in
// BENCH_policies.json (schema mfw.policies/v1) for the sweep_quick_grid
// smoke check and EXPERIMENTS.md.
//
// --quick runs 2 policies x 1 facility-count x 1 load (the CI smoke grid);
// --out <path> names the JSON output (default BENCH_policies.json).
#include <cstdio>

#include "obs/export.hpp"
#include "spec/lab.hpp"
#include "spec/spec.hpp"
#include "util/cli.hpp"

namespace {

using namespace mfw;

// The swept workload: four staggered campaigns pushing 48 granules each
// through ingest (fast WAN) -> tile (node-contended) -> label. The tile
// stage on a narrow facility (4 nodes x 2 workers) needs ~52s of wall time
// per campaign against a 30s arrival spacing, so campaigns overlap, queues
// build, and admission order decides who waits; the 150s deadline produces
// misses once load pushes the backlog past a few campaigns.
constexpr const char* kCampaignSpec = R"(name: campaign_lab
stages:
  - name: ingest
    kind: transfer
    claim:
      workers_per_node: 8
      wan: 50MB
      bytes_per_item: 12MB
  - name: tile
    inputs: [ingest]
    claim:
      nodes: 4
      workers_per_node: 2
      cpu_per_item: 2.0
      demand_per_item: 60.0
  - name: label
    inputs: [tile]
    claim:
      nodes: 1
      workers_per_node: 2
      cpu_per_item: 0.05
      demand_per_item: 0.5
dataflow:
  - {from: ingest, to: tile, mode: streaming}
  - {from: tile, to: label, mode: streaming}
campaign:
  count: 4
  spacing: 30
  items: 48
  deadline: 150
slo:
  - name: deadline-budget
    metric: deadline_miss_rate
    threshold: 0.25
    window: 120
)";

}  // namespace

int main(int argc, char** argv) {
  const auto args = util::cli::Command("policy_sweep",
                                       {util::cli::flag("--quick"),
                                        util::cli::text("--out", "path")})
                        .parse(argc, argv);
  const bool quick = args.has("--quick");

  spec::Facility facility;
  facility.name = "lab_facility";
  facility.total_nodes = 4;
  facility.max_workers_per_node = 8;
  facility.wan_bps = 200.0 * 1024 * 1024;
  const auto graph = spec::StageGraph::compile(
      spec::WorkflowSpec::from_yaml_text(kCampaignSpec), facility);

  const spec::SweepGrid grid =
      quick ? spec::SweepGrid{{"fifo", "fair_share"}, {1}, {1.0}}
            : spec::SweepGrid{{"fifo", "fair_share", "deadline", "wan_aware"},
                              {1, 2},
                              {0.5, 1.0, 2.0}};

  std::printf("%-10s %10s %6s %10s %6s %10s %8s %9s\n", "policy", "facilities",
              "load", "makespan", "util", "p99_wait", "misses", "slo_fire");
  const auto results = spec::run_sweep(graph, grid);
  for (const auto& result : results)
    std::printf("%-10s %10d %6.2f %9.2fs %6.3f %9.2fs %8d %9d\n",
                result.policy.c_str(), result.facilities, result.load,
                result.makespan, result.utilization, result.p99_queue_wait,
                result.deadline_misses, result.slo_firing);

  const auto out_path = args.text("--out", "BENCH_policies.json");
  obs::write_file_or_exit(out_path, spec::results_to_json(results));
  std::printf("\n%zu sweep points written to %s\n", results.size(),
              out_path.c_str());
  return 0;
}
