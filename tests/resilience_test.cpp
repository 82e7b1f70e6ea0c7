// Failure-injection tests: transient download failures with retry/backoff,
// node crashes with task requeue, and silent corruption caught by transfer
// checksums.
#include <gtest/gtest.h>

#include "compute/cluster.hpp"
#include "flow/event_bus.hpp"
#include "flow/events.hpp"
#include "storage/faulty_fs.hpp"
#include "storage/memfs.hpp"
#include "transfer/download.hpp"
#include "transfer/transfer_service.hpp"
#include "util/log.hpp"

namespace mfw {
namespace {

class ResilienceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Logger::instance().set_level(util::LogLevel::kOff);
  }
  void TearDown() override {
    util::Logger::instance().set_level(util::LogLevel::kInfo);
  }
};

// ---------------------------------------------------------------- download

struct DownloadRig {
  sim::SimEngine engine;
  modis::ArchiveService archive{2022};
  sim::FlowLink wan{engine, "wan", 23.5 * 1024 * 1024};
  storage::MemFs fs{"defiant"};
};

transfer::DownloadConfig flaky_config(double failure_rate) {
  transfer::DownloadConfig config;
  config.workers = 3;
  config.products = {modis::ProductKind::kMod02};
  config.span = modis::DaySpan{2022, 1, 1};
  config.max_files_per_product = 10;
  config.transient_failure_rate = failure_rate;
  config.max_attempts = 5;
  config.seed = 77;
  return config;
}

TEST_F(ResilienceTest, DownloadRetriesTransientFailures) {
  DownloadRig rig;
  transfer::DownloadService service(rig.engine, rig.archive, rig.wan, rig.fs,
                                    flaky_config(0.35));
  transfer::DownloadReport report;
  service.start([&](const transfer::DownloadReport& r) { report = r; });
  rig.engine.run();
  EXPECT_EQ(report.files.size(), 10u);  // everything eventually lands
  EXPECT_GT(report.retries, 0u);        // and retries happened
  EXPECT_TRUE(report.failed.empty());
  // Retried files record their attempt counts.
  int max_attempts = 0;
  for (const auto& f : report.files) max_attempts = std::max(max_attempts, f.attempts);
  EXPECT_GT(max_attempts, 1);
  EXPECT_EQ(rig.fs.list("staging/*.hdf").size(), 10u);
}

TEST_F(ResilienceTest, DownloadRetriesCostTime) {
  auto elapsed_with = [](double rate) {
    DownloadRig rig;
    transfer::DownloadService service(rig.engine, rig.archive, rig.wan, rig.fs,
                                      flaky_config(rate));
    double elapsed = 0;
    service.start(
        [&](const transfer::DownloadReport& r) { elapsed = r.elapsed(); });
    rig.engine.run();
    return elapsed;
  };
  EXPECT_GT(elapsed_with(0.4), elapsed_with(0.0));
}

TEST_F(ResilienceTest, DownloadGivesUpAfterMaxAttempts) {
  DownloadRig rig;
  auto config = flaky_config(1.0);  // every attempt fails
  config.max_attempts = 3;
  transfer::DownloadService service(rig.engine, rig.archive, rig.wan, rig.fs,
                                    config);
  transfer::DownloadReport report;
  service.start([&](const transfer::DownloadReport& r) { report = r; });
  rig.engine.run();
  EXPECT_TRUE(report.files.empty());
  EXPECT_EQ(report.failed.size(), 10u);
  EXPECT_EQ(report.retries, 10u * 2u);  // 2 retries per file before giving up
}

TEST_F(ResilienceTest, DownloadGiveUpsPublishFailedEvents) {
  DownloadRig rig;
  flow::EventBus bus(rig.engine);
  std::size_t stored = 0;
  std::vector<flow::FileEvent> abandoned;
  bus.subscribe(flow::Topic::kDownloadFile,
                [&](const flow::Event&) { ++stored; });
  bus.subscribe(flow::Topic::kDownloadFailed, [&](const flow::Event& event) {
    abandoned.push_back(std::get<flow::FileEvent>(event));
  });
  auto config = flaky_config(1.0);
  config.max_attempts = 3;
  transfer::DownloadService service(rig.engine, rig.archive, rig.wan, rig.fs,
                                    config);
  service.set_event_bus(&bus);
  service.start(nullptr);
  rig.engine.run();
  EXPECT_EQ(stored, 0u);
  ASSERT_EQ(abandoned.size(), 10u);
  for (const auto& event : abandoned) {
    EXPECT_TRUE(event.path.empty());  // never landed
    EXPECT_EQ(event.attempts, 3);
    EXPECT_LT(event.started_at, event.finished_at);
  }
}

// ------------------------------------------------------------- node crash

TEST_F(ResilienceTest, NodeFailureRequeuesOntoSurvivors) {
  sim::SimEngine engine;
  compute::ClusterExecutor exec(engine, compute::defiant_law_factory());
  const int doomed = exec.add_node(8);
  const int survivor = exec.add_node(8);
  int completed = 0;
  for (int i = 0; i < 40; ++i) {
    compute::SimTaskDesc desc;
    desc.cpu_seconds = 0.2;
    desc.shared_demand = 40.0;
    desc.payload = 40.0;
    exec.submit(desc, [&](const compute::SimTaskResult&) { ++completed; });
  }
  // Crash the first node mid-run.
  engine.schedule_at(10.0, [&] { EXPECT_TRUE(exec.fail_node(doomed)); });
  engine.run();
  EXPECT_EQ(completed, 40);
  EXPECT_GT(exec.requeued(), 0u);
  EXPECT_NEAR(exec.completed_payload(), 40 * 40.0, 1e-6);
  // Every task finishing after the crash ran on the survivor.
  for (const auto& r : exec.results()) {
    if (r.finished_at > 10.0) {
      EXPECT_EQ(r.node, survivor);
    }
  }
}

TEST_F(ResilienceTest, AllNodesFailedTasksWaitForNewNode) {
  sim::SimEngine engine;
  compute::ClusterExecutor exec(engine, compute::defiant_law_factory());
  const int only = exec.add_node(4);
  int completed = 0;
  for (int i = 0; i < 8; ++i) {
    compute::SimTaskDesc desc;
    desc.shared_demand = 50.0;
    exec.submit(desc, [&](const compute::SimTaskResult&) { ++completed; });
  }
  engine.schedule_at(1.0, [&] { exec.fail_node(only); });
  engine.run();
  EXPECT_EQ(completed, 0);
  EXPECT_EQ(exec.node_count(), 0u);
  EXPECT_EQ(exec.queued(), 8u);  // everything requeued, waiting
  // Recovery: a replacement node drains the queue.
  exec.add_node(4);
  engine.run();
  EXPECT_EQ(completed, 8);
}

TEST_F(ResilienceTest, FailUnknownNodeIsNoop) {
  sim::SimEngine engine;
  compute::ClusterExecutor exec(engine, compute::defiant_law_factory());
  EXPECT_FALSE(exec.fail_node(123));
}

// ------------------------------------------------------ corruption + CRC

TEST_F(ResilienceTest, FaultyFsCorruptsAndCounts) {
  storage::MemFs inner("x");
  storage::FaultyFs faulty(inner, storage::FaultConfig{1.0, 0.0, 3});
  inner.write_text("f", "hello world");
  const auto data = faulty.read_file("f");
  EXPECT_NE(std::string(reinterpret_cast<const char*>(data.data()), data.size()),
            "hello world");
  EXPECT_EQ(faulty.corrupted_reads(), 1u);
  // The flip lands in a copy: the stored file is shared and never written.
  EXPECT_EQ(inner.read_text("f"), "hello world");
}

TEST_F(ResilienceTest, FaultyFsWriteFailures) {
  storage::MemFs inner("x");
  storage::FaultyFs faulty(inner, storage::FaultConfig{0.0, 1.0, 3});
  EXPECT_THROW(faulty.write_text("f", "x"), std::runtime_error);
  EXPECT_EQ(faulty.failed_writes(), 1u);
  EXPECT_FALSE(inner.exists("f"));
}

TEST_F(ResilienceTest, ChecksumCatchesCorruptionAndRetrySucceeds) {
  sim::SimEngine engine;
  sim::FlowLink link(engine, "hpc", 1e9);
  storage::MemFs src("defiant");
  storage::MemFs dst_inner("orion");
  // Half the verification reads come back corrupted; retries must win.
  storage::FaultyFs dst(dst_inner, storage::FaultConfig{0.5, 0.0, 9});
  transfer::TransferService service(engine, link);
  for (int i = 0; i < 6; ++i)
    src.write_text("out/f" + std::to_string(i), std::string(5000, 'd'));
  transfer::TransferRequest request;
  request.source = &src;
  request.destination = &dst;
  request.pattern = "out/*";
  request.dest_prefix = "aicca";
  request.max_retries = 10;
  const auto id = service.submit(request, nullptr);
  engine.run();
  const auto& status = service.status(id);
  EXPECT_FALSE(status.failed);
  EXPECT_EQ(status.done_files, 6u);
  EXPECT_GT(status.retries, 0u);
  // The *landed* bytes (inner store) are intact — corruption was read-side.
  for (const auto& info : dst_inner.list("aicca/*"))
    EXPECT_EQ(dst_inner.read_text(info.path), std::string(5000, 'd'));
}

TEST_F(ResilienceTest, ChecksumFailureExhaustsRetriesAndFails) {
  sim::SimEngine engine;
  sim::FlowLink link(engine, "hpc", 1e9);
  storage::MemFs src("defiant");
  storage::MemFs dst_inner("orion");
  storage::FaultyFs dst(dst_inner, storage::FaultConfig{1.0, 0.0, 9});
  transfer::TransferService service(engine, link);
  src.write_text("out/f", "data");
  transfer::TransferRequest request;
  request.source = &src;
  request.destination = &dst;
  request.paths = {"out/f"};
  request.dest_prefix = "aicca";
  request.max_retries = 2;
  bool failed = false;
  const auto id = service.submit(request, [&](const transfer::TransferEvent& e) {
    if (e.kind == transfer::TransferEventKind::kFailed) failed = true;
  });
  engine.run();
  EXPECT_TRUE(failed);
  EXPECT_EQ(service.status(id).retries, 2u);
}

}  // namespace
}  // namespace mfw
