// Table I reproduction: preprocessing throughput (128x128 tiles/second)
// under all four scaling experiments — strong/weak x workers/nodes — in the
// paper's exact table layout. Paper peaks: 267.44 tiles/s (strong, 10
// nodes) and 271.68 tiles/s (weak, 10 nodes), with on-node saturation near
// 37-39 tiles/s from 8 workers.
#include <cstdio>

#include "bench_common.hpp"
#include "util/table.hpp"

using namespace mfw;

namespace {

using Days = std::vector<benchx::DaytimeFileSource>;

double strong_workers(Days& days, int workers) {
  std::vector<double> rates;
  for (int iteration = 0; iteration < 5; ++iteration) {
    const auto files = days[iteration].prefix(128);
    const int nodes = workers > 64 ? 2 : 1;
    const int per_node = workers > 64 ? workers / 2 : workers;
    rates.push_back(
        benchx::run_preprocess_farm(nodes, per_node, files).throughput);
  }
  return benchx::mean_std(rates).mean;
}

double strong_nodes(Days& days, int nodes) {
  std::vector<double> rates;
  for (int iteration = 0; iteration < 5; ++iteration) {
    const auto files = days[iteration].prefix(80);
    rates.push_back(benchx::run_preprocess_farm(nodes, 8, files).throughput);
  }
  return benchx::mean_std(rates).mean;
}

double weak_workers(Days& days, int workers) {
  std::vector<double> rates;
  for (int iteration = 0; iteration < 5; ++iteration) {
    const auto files =
        days[iteration].prefix(static_cast<std::size_t>(2 * workers));
    const int nodes = workers > 64 ? 2 : 1;
    const int per_node = workers > 64 ? workers / 2 : workers;
    rates.push_back(
        benchx::run_preprocess_farm(nodes, per_node, files).throughput);
  }
  return benchx::mean_std(rates).mean;
}

double weak_nodes(Days& days, int nodes) {
  std::vector<double> rates;
  for (int iteration = 0; iteration < 5; ++iteration) {
    const auto files =
        days[iteration].prefix(static_cast<std::size_t>(16 * nodes));
    rates.push_back(benchx::run_preprocess_farm(nodes, 8, files).throughput);
  }
  return benchx::mean_std(rates).mean;
}

}  // namespace

int main(int argc, char** argv) {
  util::cli::Command("table1_throughput").parse(argc, argv);
  benchx::print_header(
      "Table I — Throughput of MODIS 128x128 tiles under four scaling "
      "experiments",
      "Kurihana et al., SC24, Table I");
  auto days = benchx::iteration_sources(5);

  const int worker_points[] = {1, 2, 4, 8, 16, 32, 64, 128};
  const double paper_strong_w[] = {10.52, 18.10, 25.01, 36.59,
                                   38.74, 37.95, 37.34, 71.01};
  const double paper_strong_n[] = {36.05, 73.25, 98.73, 135.42, 177.69,
                                   192.32, 196.70, 216.80, 264.13, 267.44};
  const double paper_weak_w[] = {21.32, 25.87, 27.23, 27.48,
                                 32.73, 31.09, 35.36, 67.69};
  const double paper_weak_n[] = {32.82, 69.34, 100.36, 126.62, 165.12,
                                 175.61, 196.81, 188.88, 197.26, 271.68};

  std::printf("Strong scaling\n");
  util::Table strong({"# workers", "tiles/s (ours)", "tiles/s (paper)",
                      "# nodes", "tiles/s (ours)", "tiles/s (paper)"});
  for (int i = 0; i < 10; ++i) {
    std::vector<std::string> row;
    if (i < 8) {
      row.push_back(std::to_string(worker_points[i]));
      row.push_back(
          util::Table::num(strong_workers(days, worker_points[i]), 2));
      row.push_back(util::Table::num(paper_strong_w[i], 2));
    } else {
      row.insert(row.end(), {"-", "-", "-"});
    }
    row.push_back(std::to_string(i + 1));
    row.push_back(util::Table::num(strong_nodes(days, i + 1), 2));
    row.push_back(util::Table::num(paper_strong_n[i], 2));
    strong.add_row(std::move(row));
  }
  std::printf("%s\n", strong.render().c_str());

  std::printf("Weak scaling\n");
  util::Table weak({"# workers", "tiles/s (ours)", "tiles/s (paper)",
                    "# nodes", "tiles/s (ours)", "tiles/s (paper)"});
  for (int i = 0; i < 10; ++i) {
    std::vector<std::string> row;
    if (i < 8) {
      row.push_back(std::to_string(worker_points[i]));
      row.push_back(util::Table::num(weak_workers(days, worker_points[i]), 2));
      row.push_back(util::Table::num(paper_weak_w[i], 2));
    } else {
      row.insert(row.end(), {"-", "-", "-"});
    }
    row.push_back(std::to_string(i + 1));
    row.push_back(util::Table::num(weak_nodes(days, i + 1), 2));
    row.push_back(util::Table::num(paper_weak_n[i], 2));
    weak.add_row(std::move(row));
  }
  std::printf("%s\n", weak.render().c_str());

  std::printf(
      "Expected shape (paper): on-node saturation at ~37-39 tiles/s from 8\n"
      "workers; ~2x jump at 128 workers (2nd node); node columns near-linear\n"
      "to ~267 (strong) / ~272 (weak) tiles/s at 10 nodes. Known deviation:\n"
      "the paper's weak-scaling 1-4 worker rates (21-27 t/s) exceed its own\n"
      "strong-scaling 1-4 worker rates; see EXPERIMENTS.md.\n");
  return 0;
}
