// Fig. 3 reproduction: download speed statistics with 3 vs 6 workers across
// MODIS product sizes from 100 MB (1 file/product) to 30 GB (~128
// files/product). Three iterations per point, mean +- stddev, as in the
// paper. Expected shape: 6 workers beat 3 workers by a few MB/s on all
// multi-file sizes; the single-file point shows no benefit (per-connection
// overhead dominates and extra workers idle).
#include <cmath>
#include <cstdio>

#include "bench_common.hpp"
#include "storage/memfs.hpp"
#include "transfer/download.hpp"
#include "util/ascii_plot.hpp"
#include "util/bytes.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

using namespace mfw;

namespace {

struct Point {
  double size_gb;
  std::size_t files_per_product;
};

// Per-product target sizes; file counts derived from the MOD02 mean size
// (~114 MB), matching the paper's "1 file" to "~128 files" range.
const Point kPoints[] = {{0.1, 1}, {0.5, 4}, {1.0, 9},
                         {5.0, 45}, {10.0, 90}, {30.0, 128}};

double run_download(int workers, std::size_t files_per_product,
                    std::uint64_t seed) {
  sim::SimEngine engine;
  modis::ArchiveService archive(2022);
  // The effective LAADS-to-facility path: per-connection throughput ~7.5
  // MB/s and a per-user ceiling near 23.5 MB/s (server-side fairness), which
  // is what limits the 3 -> 6 worker gain to a few MB/s in the paper.
  sim::FlowLink wan(engine, "laads-wan", 23.5 * 1024 * 1024);
  storage::MemFs fs("defiant", &engine);
  transfer::DownloadConfig config;
  config.workers = workers;
  config.span = modis::DaySpan{2022, 1, 1};
  config.max_files_per_product = files_per_product;
  config.seed = seed;
  transfer::DownloadService service(engine, archive, wan, fs, config);
  double mbps = 0.0;
  service.start([&](const transfer::DownloadReport& report) {
    mbps = report.aggregate_bps() / (1024.0 * 1024.0);
  });
  engine.run();
  return mbps;
}

}  // namespace

int main(int argc, char** argv) {
  benchx::require_no_args(argc, argv);
  util::Logger::instance().set_level(util::LogLevel::kWarn);
  benchx::print_header(
      "Fig. 3 — Download speed vs product size, 3 vs 6 workers",
      "Kurihana et al., SC24, Fig. 3 (mean speed dots +- stddev shading)");

  util::Table table({"size/product", "files/product", "3w mean MB/s",
                     "3w std", "6w mean MB/s", "6w std", "speedup"});
  util::Series s3{"3 workers", {}, {}, '3'};
  util::Series s6{"6 workers", {}, {}, '6'};

  for (const auto& point : kPoints) {
    std::vector<double> w3, w6;
    for (std::uint64_t iteration = 0; iteration < 3; ++iteration) {
      w3.push_back(run_download(3, point.files_per_product, 10 + iteration));
      w6.push_back(run_download(6, point.files_per_product, 20 + iteration));
    }
    const auto m3 = benchx::mean_std(w3);
    const auto m6 = benchx::mean_std(w6);
    table.add_row({util::format_bytes(static_cast<std::uint64_t>(
                       point.size_gb * 1024 * 1024 * 1024)),
                   std::to_string(point.files_per_product),
                   util::Table::num(m3.mean, 2), util::Table::num(m3.stddev, 2),
                   util::Table::num(m6.mean, 2), util::Table::num(m6.stddev, 2),
                   util::Table::num(m6.mean - m3.mean, 2)});
    s3.xs.push_back(std::log10(point.size_gb));
    s3.ys.push_back(m3.mean);
    s6.xs.push_back(std::log10(point.size_gb));
    s6.ys.push_back(m6.mean);
  }

  std::printf("%s\n", table.render().c_str());
  std::printf("%s\n",
              util::ascii_plot({s3, s6}, 64, 14, "log10(GB per product)",
                               "aggregate MB/s")
                  .c_str());
  std::printf(
      "Expected shape (paper): ~+3 MB/s mean gain from 3 -> 6 workers on\n"
      "multi-file downloads; no gain for the single-file point.\n");
  return 0;
}
