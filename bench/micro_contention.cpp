// Ablation bench: how the choice of on-node contention law (DESIGN.md
// "Calibration note") shapes the strong-scaling worker curve. The
// saturating-exponential law is the one calibrated to the paper's Table I;
// linear-cap and step-cap are the idealized alternatives.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "util/table.hpp"

using namespace mfw;

namespace {

double throughput_with(compute::LawFactory factory, int workers) {
  sim::SimEngine engine;
  compute::ClusterExecutor exec(engine, std::move(factory));
  const int nodes = workers > 64 ? 2 : 1;
  const int per_node = workers > 64 ? workers / 2 : workers;
  for (int i = 0; i < nodes; ++i) exec.add_node(per_node);
  const auto files = benchx::daytime_files(128, 1);
  for (const auto& file : files) {
    compute::SimTaskDesc desc;
    desc.cpu_seconds = 0.3;
    desc.shared_demand = std::max(0.5, static_cast<double>(file.tiles));
    desc.payload = file.tiles;
    exec.submit(desc);
  }
  engine.run();
  double makespan = 0;
  for (const auto& r : exec.results())
    makespan = std::max(makespan, r.finished_at);
  return exec.completed_payload() / makespan;
}

}  // namespace

int main(int argc, char** argv) {
  benchx::require_no_args(argc, argv);
  benchx::print_header(
      "Ablation — contention-law choice vs the Table I worker curve",
      "DESIGN.md calibration note (supports Table I / Fig. 4a)");

  const auto saturating = [] {
    return std::unique_ptr<sim::ContentionLaw>(
        std::make_unique<sim::SaturatingExpLaw>(38.5, 3.1));
  };
  const auto linear = [] {
    return std::unique_ptr<sim::ContentionLaw>(
        std::make_unique<sim::LinearCapLaw>(10.5, 38.5));
  };
  const auto step = [] {
    return std::unique_ptr<sim::ContentionLaw>(
        std::make_unique<sim::StepCapLaw>(10.5, 4));
  };

  const double paper[] = {10.52, 18.10, 25.01, 36.59, 38.74, 37.95, 37.34, 71.01};
  util::Table table({"# workers", "paper t/s", "saturating-exp", "linear-cap",
                     "step-cap"});
  const int workers[] = {1, 2, 4, 8, 16, 32, 64, 128};
  double err_sat = 0, err_lin = 0, err_step = 0;
  for (int i = 0; i < 8; ++i) {
    const double sat = throughput_with(saturating, workers[i]);
    const double lin = throughput_with(linear, workers[i]);
    const double stp = throughput_with(step, workers[i]);
    err_sat += std::abs(sat - paper[i]) / paper[i];
    err_lin += std::abs(lin - paper[i]) / paper[i];
    err_step += std::abs(stp - paper[i]) / paper[i];
    table.add_row({std::to_string(workers[i]), util::Table::num(paper[i], 2),
                   util::Table::num(sat, 2), util::Table::num(lin, 2),
                   util::Table::num(stp, 2)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Mean relative error vs paper: saturating-exp=%.1f%%  "
              "linear-cap=%.1f%%  step-cap=%.1f%%\n",
              err_sat / 8 * 100, err_lin / 8 * 100, err_step / 8 * 100);
  std::printf("The calibrated saturating-exponential law should fit best.\n");
  return 0;
}
