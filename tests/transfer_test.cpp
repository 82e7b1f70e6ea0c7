// Tests for the transfer substrate: DownloadService behaviour (worker
// scaling, launch latency, file landing, daytime filter) and the
// Globus-Transfer-like TransferService (parallel streams, checksum verify,
// events, failure paths).
#include <gtest/gtest.h>

#include "flow/event_bus.hpp"
#include "flow/events.hpp"
#include "storage/memfs.hpp"
#include "transfer/download.hpp"
#include "transfer/transfer_service.hpp"

namespace mfw::transfer {
namespace {

DownloadConfig small_config() {
  DownloadConfig config;
  config.workers = 3;
  config.products = {modis::ProductKind::kMod02};
  config.span = modis::DaySpan{2022, 1, 1};
  config.max_files_per_product = 6;
  config.seed = 5;
  return config;
}

struct DownloadFixture {
  sim::SimEngine engine;
  modis::ArchiveService archive{2022};
  sim::FlowLink wan{engine, "wan", 120.0 * 1024 * 1024};
  storage::MemFs fs{"defiant"};
};

TEST(Download, LandsAllRequestedFiles) {
  DownloadFixture fx;
  DownloadService service(fx.engine, fx.archive, fx.wan, fx.fs, small_config());
  bool done = false;
  service.start([&](const DownloadReport& report) {
    done = true;
    EXPECT_EQ(report.files.size(), 6u);
    EXPECT_GT(report.total_bytes, 0u);
    EXPECT_GT(report.launch_latency(), 0.0);
    EXPECT_GT(report.finished_at, report.transfers_started_at);
  });
  fx.engine.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(fx.fs.list("staging/*.hdf").size(), 6u);
}

TEST(Download, LaunchLatencyMatchesConfiguredComponents) {
  DownloadFixture fx;
  auto config = small_config();
  config.endpoint_launch = 3.4;
  config.listing_latency = 2.2;
  DownloadService service(fx.engine, fx.archive, fx.wan, fx.fs, config);
  double launch = -1;
  service.start([&](const DownloadReport& r) { launch = r.launch_latency(); });
  fx.engine.run();
  EXPECT_NEAR(launch, 5.6, 1e-9);
}

TEST(Download, MoreWorkersFinishFaster) {
  auto run_with = [](int workers) {
    DownloadFixture fx;
    auto config = small_config();
    config.workers = workers;
    config.max_files_per_product = 12;
    DownloadService service(fx.engine, fx.archive, fx.wan, fx.fs, config);
    double elapsed = 0;
    service.start([&](const DownloadReport& r) { elapsed = r.elapsed(); });
    fx.engine.run();
    return elapsed;
  };
  EXPECT_LT(run_with(6), run_with(3) * 0.8);
}

TEST(Download, DaytimeFilterReducesFiles) {
  DownloadFixture fx;
  auto config = small_config();
  config.max_files_per_product.reset();
  config.daytime_only = true;
  DownloadService service(fx.engine, fx.archive, fx.wan, fx.fs, config);
  std::size_t files = 0;
  service.start([&](const DownloadReport& r) { files = r.files.size(); });
  fx.engine.run();
  EXPECT_GT(files, 50u);
  EXPECT_LT(files, 288u);
}

TEST(Download, MaterializeWritesRealGranules) {
  DownloadFixture fx;
  auto config = small_config();
  config.max_files_per_product = 2;
  config.materialize = true;
  config.geometry = modis::GranuleGeometry{64, 48, 4};
  DownloadService service(fx.engine, fx.archive, fx.wan, fx.fs, config);
  service.start(nullptr);
  fx.engine.run();
  const auto files = fx.fs.list("staging/*.hdf");
  ASSERT_EQ(files.size(), 2u);
  // Parse one file back to prove real content landed.
  const auto granule = modis::Mod02Granule::from_hdfl(
      storage::HdflFile::deserialize(fx.fs.read_file(files[0].path)));
  EXPECT_EQ(granule.spec.geometry.rows, 64);
}

TEST(Download, StartTwiceThrows) {
  DownloadFixture fx;
  DownloadService service(fx.engine, fx.archive, fx.wan, fx.fs, small_config());
  service.start(nullptr);
  EXPECT_THROW(service.start(nullptr), std::logic_error);
}

TEST(Download, ActivityPeaksAtWorkerCount) {
  DownloadFixture fx;
  DownloadService service(fx.engine, fx.archive, fx.wan, fx.fs, small_config());
  service.start(nullptr);
  fx.engine.run();
  int peak = 0;
  for (const auto& [t, n] : service.activity()) peak = std::max(peak, n);
  EXPECT_EQ(peak, 3);
  EXPECT_EQ(service.activity().back().second, 0);
}

TEST(Download, PublishesTypedPerFileEventsOnBus) {
  DownloadFixture fx;
  flow::EventBus bus(fx.engine);
  std::vector<flow::FileEvent> events;
  bus.subscribe(flow::Topic::kDownloadFile, [&](const flow::Event& event) {
    const auto& file = std::get<flow::FileEvent>(event);
    // Events arrive in completion order, after the file is on disk.
    if (!events.empty()) {
      EXPECT_GE(file.finished_at, events.back().finished_at);
    }
    EXPECT_TRUE(fx.fs.exists(file.path)) << file.path;
    events.push_back(file);
  });
  DownloadService service(fx.engine, fx.archive, fx.wan, fx.fs, small_config());
  service.set_event_bus(&bus);
  DownloadReport report;
  service.start([&](const DownloadReport& r) { report = r; });
  fx.engine.run();
  ASSERT_EQ(events.size(), report.files.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].id, report.files[i].id);
    EXPECT_EQ(events[i].path, report.files[i].path);
    EXPECT_EQ(events[i].bytes, report.files[i].bytes);
    EXPECT_EQ(events[i].started_at, report.files[i].started_at);
    EXPECT_EQ(events[i].finished_at, report.files[i].finished_at);
    EXPECT_EQ(events[i].mean_bps, report.files[i].mean_bps);
    EXPECT_EQ(events[i].attempts, report.files[i].attempts);
  }
}

TEST(Download, RejectsBadConfig) {
  DownloadFixture fx;
  auto config = small_config();
  config.workers = 0;
  EXPECT_THROW(
      DownloadService(fx.engine, fx.archive, fx.wan, fx.fs, config),
      std::invalid_argument);
  config = small_config();
  config.products.clear();
  EXPECT_THROW(
      DownloadService(fx.engine, fx.archive, fx.wan, fx.fs, config),
      std::invalid_argument);
}

struct TransferFixture {
  sim::SimEngine engine;
  sim::FlowLink link{engine, "hpc", 1.2e9};
  storage::MemFs src{"defiant"};
  storage::MemFs dst{"orion"};
  TransferService service{engine, link};
};

TEST(Download, ReportStatistics) {
  DownloadFixture fx;
  DownloadService service(fx.engine, fx.archive, fx.wan, fx.fs, small_config());
  DownloadReport report;
  service.start([&](const DownloadReport& r) { report = r; });
  fx.engine.run();
  EXPECT_GT(report.aggregate_bps(), 0.0);
  ASSERT_FALSE(report.files.empty());
  double file_bps = 0.0;
  for (const auto& f : report.files) {
    EXPECT_EQ(f.attempts, 1);
    EXPECT_GT(f.mean_bps, 0.0);
    file_bps += f.mean_bps;
  }
  // Aggregate over 3 workers exceeds the mean single-file rate.
  EXPECT_GT(report.aggregate_bps(),
            file_bps / static_cast<double>(report.files.size()));
}

TEST(Transfer, MovesFilesWithChecksums) {
  TransferFixture fx;
  for (int i = 0; i < 5; ++i)
    fx.src.write_text("outbox/f" + std::to_string(i) + ".ncl",
                      std::string(1000 + i, 'x'));
  TransferRequest request;
  request.source = &fx.src;
  request.destination = &fx.dst;
  request.pattern = "outbox/*.ncl";
  request.dest_prefix = "aicca";
  request.parallel_streams = 2;
  std::vector<TransferEventKind> events;
  const auto id = fx.service.submit(
      request, [&](const TransferEvent& e) { events.push_back(e.kind); });
  fx.engine.run();
  const auto& status = fx.service.status(id);
  EXPECT_EQ(status.done_files, 5u);
  EXPECT_FALSE(status.failed);
  EXPECT_EQ(fx.dst.list("aicca/*.ncl").size(), 5u);
  EXPECT_EQ(fx.dst.read_text("aicca/f0.ncl"), std::string(1000, 'x'));
  // The destination shares the source's buffer rather than a copy of it.
  EXPECT_EQ(fx.dst.read_file("aicca/f3.ncl").data(),
            fx.src.read_file("outbox/f3.ncl").data());
  ASSERT_GE(events.size(), 7u);  // started + 5 files + succeeded
  EXPECT_EQ(events.front(), TransferEventKind::kStarted);
  EXPECT_EQ(events.back(), TransferEventKind::kSucceeded);
}

TEST(Transfer, ExplicitPathList) {
  TransferFixture fx;
  fx.src.write_text("a.ncl", "data-a");
  fx.src.write_text("b.ncl", "data-b");
  TransferRequest request;
  request.source = &fx.src;
  request.destination = &fx.dst;
  request.paths = {"a.ncl"};
  request.dest_prefix = "landing";
  fx.service.submit(request, nullptr);
  fx.engine.run();
  EXPECT_TRUE(fx.dst.exists("landing/a.ncl"));
  EXPECT_FALSE(fx.dst.exists("landing/b.ncl"));
}

TEST(Transfer, LargerTransfersTakeLonger) {
  TransferFixture fx;
  fx.src.write_text("small.bin", std::string(1000, 'a'));
  fx.src.write_text("big.bin", std::string(1000000, 'b'));
  double small_done = -1, big_done = -1;
  TransferRequest request;
  request.source = &fx.src;
  request.destination = &fx.dst;
  request.paths = {"small.bin"};
  request.dest_prefix = "d";
  fx.service.submit(request, [&](const TransferEvent& e) {
    if (e.kind == TransferEventKind::kSucceeded) small_done = e.time;
  });
  fx.engine.run();
  TransferRequest big;
  big.source = &fx.src;
  big.destination = &fx.dst;
  big.paths = {"big.bin"};
  big.dest_prefix = "d";
  const double t0 = fx.engine.now();
  fx.service.submit(big, [&](const TransferEvent& e) {
    if (e.kind == TransferEventKind::kSucceeded) big_done = e.time - t0;
  });
  fx.engine.run();
  EXPECT_GT(big_done, small_done);
}

TEST(Transfer, MissingSourceFileFailsTask) {
  TransferFixture fx;
  fx.src.write_text("f.ncl", "x");
  TransferRequest request;
  request.source = &fx.src;
  request.destination = &fx.dst;
  request.paths = {"f.ncl"};
  request.dest_prefix = "d";
  bool failed = false;
  // Remove the file between submit and flow completion.
  const auto id = fx.service.submit(request, [&](const TransferEvent& e) {
    if (e.kind == TransferEventKind::kFailed) failed = true;
  });
  fx.src.remove("f.ncl");
  fx.engine.run();
  EXPECT_TRUE(failed);
  EXPECT_TRUE(fx.service.status(id).failed);
}

TEST(Transfer, RejectsMalformedRequests) {
  TransferFixture fx;
  TransferRequest request;  // no endpoints
  EXPECT_THROW(fx.service.submit(request, nullptr), std::invalid_argument);
  request.source = &fx.src;
  request.destination = &fx.dst;
  EXPECT_THROW(fx.service.submit(request, nullptr), std::invalid_argument);
  request.pattern = "*.none";
  EXPECT_THROW(fx.service.submit(request, nullptr), std::invalid_argument);
  EXPECT_THROW(fx.service.status(TransferTaskId{999}), std::invalid_argument);
}

}  // namespace
}  // namespace mfw::transfer
