// Fig. 4 reproduction: strong scaling of the preprocessing stage.
//   (a) fixed 128 MOD02 files, workers doubling 1 -> 128 (the 128-worker
//       point spans a second node, as on Defiant's 64-core nodes);
//   (b) fixed 80 MOD02 files, 8 workers/node, nodes 1 -> 10.
// Five iterations per point (different day's granule mix per iteration, the
// workload-level analogue of the paper's run-to-run variance).
// Expected shape: sub-linear on-node scaling saturating beyond ~8 workers
// (resource contention), near-linear node scaling.
#include <cstdio>

#include "bench_common.hpp"
#include "util/ascii_plot.hpp"
#include "util/table.hpp"

using namespace mfw;

int main(int argc, char** argv) {
  util::cli::Command("fig4_strong_scaling").parse(argc, argv);
  benchx::print_header(
      "Fig. 4 — Strong scaling: completion time vs workers and vs nodes",
      "Kurihana et al., SC24, Fig. 4(a)/(b)");

  auto days = benchx::iteration_sources(5);

  // ---- (a) workers on one node, 128 files --------------------------------
  std::printf("(a) 128 MOD02 files, workers 1 -> 128 (128 uses 2 nodes)\n\n");
  util::Table ta({"# workers", "mean time (s)", "std", "speedup vs 1w"});
  util::Series sa{"completion time", {}, {}, '*'};
  double t1 = 0.0;
  for (int workers : {1, 2, 4, 8, 16, 32, 64, 128}) {
    std::vector<double> times;
    for (int iteration = 0; iteration < 5; ++iteration) {
      const auto files = days[iteration].prefix(128);
      const int nodes = workers > 64 ? 2 : 1;
      const int per_node = workers > 64 ? workers / 2 : workers;
      times.push_back(
          benchx::run_preprocess_farm(nodes, per_node, files).makespan);
    }
    const auto m = benchx::mean_std(times);
    if (workers == 1) t1 = m.mean;
    ta.add_row({std::to_string(workers), util::Table::num(m.mean, 2),
                util::Table::num(m.stddev, 2),
                util::Table::num(t1 / m.mean, 2)});
    sa.xs.push_back(workers);
    sa.ys.push_back(m.mean);
  }
  std::printf("%s\n", ta.render().c_str());
  std::printf("%s\n", util::ascii_plot({sa}, 64, 12, "# workers",
                                       "completion time (s)")
                          .c_str());

  // ---- (b) nodes, 80 files, 8 workers/node --------------------------------
  std::printf("(b) 80 MOD02 files, 8 workers/node, nodes 1 -> 10\n\n");
  util::Table tb({"# nodes", "mean time (s)", "std", "speedup vs 1 node"});
  util::Series sb{"completion time", {}, {}, '*'};
  double n1 = 0.0;
  for (int nodes = 1; nodes <= 10; ++nodes) {
    std::vector<double> times;
    for (int iteration = 0; iteration < 5; ++iteration) {
      const auto files = days[iteration].prefix(80);
      times.push_back(benchx::run_preprocess_farm(nodes, 8, files).makespan);
    }
    const auto m = benchx::mean_std(times);
    if (nodes == 1) n1 = m.mean;
    tb.add_row({std::to_string(nodes), util::Table::num(m.mean, 2),
                util::Table::num(m.stddev, 2),
                util::Table::num(n1 / m.mean, 2)});
    sb.xs.push_back(nodes);
    sb.ys.push_back(m.mean);
  }
  std::printf("%s\n", tb.render().c_str());
  std::printf("%s\n", util::ascii_plot({sb}, 64, 12, "# nodes",
                                       "completion time (s)")
                          .c_str());
  std::printf(
      "Expected shape (paper): (a) sub-linear with saturation beyond ~8-16\n"
      "workers on one node, improvement again at 128 workers (2nd node);\n"
      "(b) near-linear scaling to 10 nodes.\n");
  return 0;
}
