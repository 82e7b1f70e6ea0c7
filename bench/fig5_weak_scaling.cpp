// Fig. 5 reproduction: weak scaling of the preprocessing stage — every
// worker receives n=2 files, so total work grows with resources.
//   (a) workers 1 -> 128 on one node (128 spans two nodes);
//   (b) nodes 1 -> 10 at 8 workers/node (16 files per node).
// Expected shape: completion time grows with workers on one node (the
// shared substrate saturates while work keeps growing), stays roughly flat
// across nodes (each node brings its own substrate).
#include <cstdio>

#include "bench_common.hpp"
#include "util/ascii_plot.hpp"
#include "util/table.hpp"

using namespace mfw;

int main(int argc, char** argv) {
  util::cli::Command("fig5_weak_scaling").parse(argc, argv);
  benchx::print_header(
      "Fig. 5 — Weak scaling (2 files per worker): time vs workers and nodes",
      "Kurihana et al., SC24, Fig. 5(a)/(b)");

  auto days = benchx::iteration_sources(5);

  std::printf("(a) 2 files/worker, workers 1 -> 128 on one node\n\n");
  util::Table ta({"# workers", "# files", "mean time (s)", "std"});
  util::Series sa{"completion time", {}, {}, '*'};
  for (int workers : {1, 2, 4, 8, 16, 32, 64, 128}) {
    std::vector<double> times;
    const std::size_t file_count = static_cast<std::size_t>(2 * workers);
    for (int iteration = 0; iteration < 5; ++iteration) {
      const auto files = days[iteration].prefix(file_count);
      const int nodes = workers > 64 ? 2 : 1;
      const int per_node = workers > 64 ? workers / 2 : workers;
      times.push_back(
          benchx::run_preprocess_farm(nodes, per_node, files).makespan);
    }
    const auto m = benchx::mean_std(times);
    ta.add_row({std::to_string(workers), std::to_string(file_count),
                util::Table::num(m.mean, 2), util::Table::num(m.stddev, 2)});
    sa.xs.push_back(workers);
    sa.ys.push_back(m.mean);
  }
  std::printf("%s\n", ta.render().c_str());
  std::printf("%s\n", util::ascii_plot({sa}, 64, 12, "# workers",
                                       "completion time (s)")
                          .c_str());

  std::printf("(b) 16 files/node (8 workers x 2 files), nodes 1 -> 10\n\n");
  util::Table tb({"# nodes", "# files", "mean time (s)", "std"});
  util::Series sb{"completion time", {}, {}, '*'};
  for (int nodes = 1; nodes <= 10; ++nodes) {
    std::vector<double> times;
    const std::size_t file_count = static_cast<std::size_t>(16 * nodes);
    for (int iteration = 0; iteration < 5; ++iteration) {
      const auto files = days[iteration].prefix(file_count);
      times.push_back(benchx::run_preprocess_farm(nodes, 8, files).makespan);
    }
    const auto m = benchx::mean_std(times);
    tb.add_row({std::to_string(nodes), std::to_string(file_count),
                util::Table::num(m.mean, 2), util::Table::num(m.stddev, 2)});
    sb.xs.push_back(nodes);
    sb.ys.push_back(m.mean);
  }
  std::printf("%s\n", tb.render().c_str());
  std::printf("%s\n", util::ascii_plot({sb}, 64, 12, "# nodes",
                                       "completion time (s)")
                          .c_str());
  std::printf(
      "Expected shape (paper): (a) time grows with on-node workers (shared\n"
      "substrate saturates while work grows); (b) roughly flat across nodes\n"
      "(excellent weak scaling).\n");
  return 0;
}
