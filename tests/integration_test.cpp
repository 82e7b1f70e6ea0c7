// End-to-end integration tests of the five-stage EO-ML workflow: ordering
// invariants, overlap of inference with preprocessing, shipment integrity,
// elastic mode, materialized-content mode with a real RICC model, failure
// handling, and the streaming (per-granule readiness) scheduling mode.
#include <gtest/gtest.h>

#include <algorithm>

#include "flow/events.hpp"
#include "pipeline/eoml_workflow.hpp"
#include "preprocess/tile_io.hpp"
#include "util/log.hpp"

namespace mfw::pipeline {
namespace {

EomlConfig small_config() {
  EomlConfig config;
  config.max_files = 12;
  config.daytime_only = true;
  config.preprocess_nodes = 2;
  config.workers_per_node = 4;
  return config;
}

class QuietLogs : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Logger::instance().set_level(util::LogLevel::kError);
  }
  void TearDown() override {
    util::Logger::instance().set_level(util::LogLevel::kInfo);
  }
};

using EomlIntegration = QuietLogs;

TEST_F(EomlIntegration, FiveStagesRunInOrder) {
  EomlWorkflow workflow(small_config());
  const auto report = workflow.run();

  // Stage ordering: download strictly precedes preprocessing (the paper
  // delays tiling until all downloads land); shipment ends the run.
  EXPECT_GE(report.preprocess_span.start, report.download_span.end);
  EXPECT_GE(report.shipment_span.start, report.preprocess_span.end);
  EXPECT_GE(report.makespan, report.shipment_span.end - 1e-9);

  EXPECT_EQ(report.granules, 12u);
  EXPECT_GT(report.total_tiles, 0u);
  EXPECT_EQ(report.labeled_files, 12u);
  EXPECT_EQ(report.labeled_tiles, report.total_tiles);
  EXPECT_EQ(report.shipped_files, 12u);

  // Every download file landed on the Defiant filesystem during staging and
  // every labelled file reached Orion.
  EXPECT_EQ(workflow.orion_fs().list("aicca/*.ncl").size(), 12u);
  // tiles/ is fully drained (every file moved to outbox/); shipment is a
  // copy (as with Globus Transfer), so outbox/ retains the labelled files.
  EXPECT_TRUE(workflow.defiant_fs().list("tiles/*.ncl").empty());
  EXPECT_EQ(workflow.defiant_fs().list("outbox/*.ncl").size(), 12u);
}

TEST_F(EomlIntegration, InferenceOverlapsPreprocessing) {
  // The paper's Fig. 6 shows inference starting before preprocessing ends.
  auto config = small_config();
  config.max_files = 16;
  EomlWorkflow workflow(config);
  const auto report = workflow.run();
  EXPECT_LT(report.inference_span.start, report.preprocess_span.end);
  EXPECT_GT(report.inference_span.end, report.preprocess_span.end);
}

TEST_F(EomlIntegration, LatencyBreakdownPopulated) {
  EomlWorkflow workflow(small_config());
  const auto report = workflow.run();
  // Fig. 7 quantities: launch ~5.6 s, slurm ~config latency, flow action
  // overhead ~50 ms, trigger gap bounded by the poll interval.
  EXPECT_NEAR(report.download_launch_latency, 5.6, 0.5);
  EXPECT_NEAR(report.slurm_allocation_latency, 1.5, 0.5);
  EXPECT_NEAR(report.mean_flow_action_overhead, 0.05, 0.01);
  EXPECT_GT(report.monitor_trigger_gap, 0.0);
  EXPECT_LE(report.monitor_trigger_gap, 1.0 + 0.2);
}

TEST_F(EomlIntegration, ActionOverheadDoesNotNeedRetainedProvenance) {
  // Archive-scale runs drop the per-run provenance records; the report's
  // mean flow action overhead must not drop with them.
  auto config = small_config();
  const auto retained = EomlWorkflow(config).run();
  config.retain_provenance = false;
  const auto dropped = EomlWorkflow(config).run();
  EXPECT_GT(retained.provenance.size(), 0u);
  EXPECT_EQ(dropped.provenance.size(), 0u);
  EXPECT_GT(retained.mean_flow_action_overhead, 0.0);
  EXPECT_EQ(dropped.mean_flow_action_overhead,
            retained.mean_flow_action_overhead);
}

TEST_F(EomlIntegration, TimelineShowsStagedWorkers) {
  auto config = small_config();
  config.download_workers = 3;
  config.preprocess_nodes = 4;
  config.workers_per_node = 8;
  config.inference_workers = 1;
  config.max_files = 20;
  EomlWorkflow workflow(config);
  const auto report = workflow.run();
  EXPECT_EQ(report.timeline.stage("download").peak(), 3);
  EXPECT_GT(report.timeline.stage("preprocess").peak(), 8);
  EXPECT_EQ(report.timeline.stage("inference").peak(), 1);
  // All stages drain to zero.
  for (const auto& stage : report.timeline.stages())
    EXPECT_EQ(stage.transitions.back().second, 0) << stage.stage;
}

TEST_F(EomlIntegration, ShipmentPreservesContentIntegrity) {
  EomlWorkflow workflow(small_config());
  workflow.run();
  // Every file on Orion parses as a labelled tile container.
  for (const auto& info : workflow.orion_fs().list("aicca/*.ncl")) {
    const auto summary =
        preprocess::read_tile_summary(workflow.orion_fs(), info.path);
    EXPECT_TRUE(summary.has_labels) << info.path;
  }
}

TEST_F(EomlIntegration, ProvenanceRecordsOneRunPerFile) {
  EomlWorkflow workflow(small_config());
  const auto report = workflow.run();
  EXPECT_EQ(report.provenance.size(), report.labeled_files);
  for (const auto& run : report.provenance.runs()) {
    EXPECT_TRUE(run.succeeded);
    EXPECT_EQ(run.flow_name, "aicca-inference");
    ASSERT_EQ(run.states.size(), 4u);  // infer, append, move, done
  }
}

TEST_F(EomlIntegration, ElasticBlocksAlsoComplete) {
  auto config = small_config();
  config.elastic = true;
  config.block.nodes_per_block = 1;
  config.block.init_blocks = 1;
  config.block.max_blocks = 4;
  config.block.idle_timeout = 5.0;
  EomlWorkflow workflow(config);
  const auto report = workflow.run();
  EXPECT_EQ(report.shipped_files, report.granules);
  EXPECT_GT(report.total_tiles, 0u);
}

TEST_F(EomlIntegration, MaterializedContentRunsRealTilerAndModel) {
  auto config = small_config();
  config.max_files = 4;
  config.materialize = true;
  config.geometry = modis::GranuleGeometry{64, 48, 6};
  config.tiler.tile_size = 16;
  config.tiler.channels = 6;
  config.model_path = "models/ricc.hdfl";

  EomlWorkflow workflow(config);

  // Stage a RICC model with centroids onto the Defiant filesystem; the
  // workflow loads it lazily at the first inference.
  ml::RiccConfig mc;
  mc.tile_size = 16;
  mc.channels = 6;
  mc.base_channels = 4;
  mc.conv_blocks = 2;
  mc.latent_dim = 8;
  mc.num_classes = 42;
  ml::RiccModel model(mc);
  util::Rng rng(1);
  model.set_centroids(ml::Tensor::he_normal({42, 8}, rng));
  workflow.defiant_fs().write_file("models/ricc.hdfl",
                                   model.save().serialize());

  const auto report = workflow.run();
  EXPECT_EQ(report.granules, 4u);
  EXPECT_EQ(report.shipped_files, 4u);
  // Labels on Orion must match what the staged model predicts.
  ml::RiccModel reference(mc);
  util::Rng rng2(1);
  reference.set_centroids(ml::Tensor::he_normal({42, 8}, rng2));
  for (const auto& info : workflow.orion_fs().list("aicca/*.ncl")) {
    const auto file =
        preprocess::read_tile_file(workflow.orion_fs(), info.path);
    if (!file.has_var("tiles")) continue;
    const auto tiles = preprocess::tiles_from_ncl(file);
    const auto labels = file.var("label").as_i32();
    ASSERT_EQ(labels.size(), tiles.size());
    for (std::size_t i = 0; i < tiles.size(); ++i) {
      ml::Tensor input({tiles[i].channels, tiles[i].tile_size,
                        tiles[i].tile_size},
                       tiles[i].data);
      ASSERT_EQ(labels[i], reference.predict(input)) << info.path << " #" << i;
    }
  }
}

TEST_F(EomlIntegration, StagedGranuleFilesEqualFreshSynthesis) {
  // The archive hands out each granule's products from one synthesis, in
  // the order the downloads finish; every file staged on Defiant must still
  // be its own granule's product, at three and at six download workers.
  for (const int workers : {3, 6}) {
    auto config = small_config();
    config.max_files = 4;
    config.download_workers = workers;
    config.materialize = true;
    config.geometry = modis::kSmallGeometry;
    EomlWorkflow workflow(config);
    const auto report = workflow.run();
    EXPECT_EQ(report.granules, 4u);
    const auto staged = workflow.defiant_fs().list("staging/*.hdf");
    EXPECT_EQ(staged.size(), 12u) << workers << " workers";
    const modis::GranuleGenerator generator(config.seed);
    for (const auto& info : staged) {
      const auto id = modis::parse_granule_filename(
          info.path.substr(info.path.rfind('/') + 1));
      ASSERT_TRUE(id.has_value()) << info.path;
      modis::GranuleSpec spec;
      spec.satellite = id->satellite;
      spec.year = id->year;
      spec.day_of_year = id->day_of_year;
      spec.slot = id->slot;
      spec.geometry = config.geometry;
      const auto granule = generator.generate(spec);
      const auto want =
          id->product == modis::ProductKind::kMod02
              ? modis::Mod02Granule(granule.mod02).to_hdfl().serialize()
          : id->product == modis::ProductKind::kMod03
              ? modis::Mod03Granule(granule.mod03).to_hdfl().serialize()
              : modis::Mod06Granule(granule.mod06).to_hdfl().serialize();
      EXPECT_TRUE(std::ranges::equal(workflow.defiant_fs().read_file(info.path), want))
          << info.path << " with " << workers << " workers";
    }
  }
}

TEST_F(EomlIntegration, MaterializedPseudoLabelPath) {
  auto config = small_config();
  config.max_files = 3;
  config.materialize = true;
  config.geometry = modis::GranuleGeometry{64, 48, 6};
  config.tiler.tile_size = 16;
  config.tiler.channels = 6;
  EomlWorkflow workflow(config);
  const auto report = workflow.run();
  EXPECT_EQ(report.granules, 3u);
  EXPECT_EQ(report.shipped_files, 3u);
  // Materialized output carries real pixel data + labels end-to-end.
  bool any_tiles = false;
  for (const auto& info : workflow.orion_fs().list("aicca/*.ncl")) {
    const auto file =
        preprocess::read_tile_file(workflow.orion_fs(), info.path);
    if (file.has_var("tiles")) {
      any_tiles = true;
      ASSERT_TRUE(file.has_var("label"));
      const auto labels = file.var("label").as_i32();
      for (const auto label : labels) {
        ASSERT_GE(label, 0);
        ASSERT_LT(label, 42);
      }
    }
  }
  EXPECT_TRUE(any_tiles);
}

TEST_F(EomlIntegration, EventBusPublishesStageLifecycle) {
  EomlWorkflow workflow(small_config());
  std::vector<std::string> events;  // "stage/event"
  workflow.events().subscribe(flow::Topic::kStage, [&](const flow::Event& e) {
    const auto& stage = std::get<flow::StageEvent>(e);
    events.push_back(stage.stage + "/" + stage.event);
  });
  workflow.run();
  // Ordering: download brackets first, shipment completion last.
  ASSERT_GE(events.size(), 8u);
  EXPECT_EQ(events.front(), "download/started");
  EXPECT_EQ(events[1], "download/completed");
  EXPECT_EQ(events[2], "preprocess/started");
  EXPECT_EQ(events.back(), "shipment/completed");
  // Every stage appears with both lifecycle events.
  for (const char* expected :
       {"preprocess/completed", "inference/started", "inference/completed",
        "shipment/started"}) {
    EXPECT_NE(std::find(events.begin(), events.end(), expected), events.end())
        << expected;
  }
}

TEST_F(EomlIntegration, NightGranulesIncludedStillComplete) {
  // With daytime_only off the workload includes night granules that yield
  // zero tiles: inference flows still run over their empty manifests and
  // shipment moves the labelled (possibly empty) files — no deadlock.
  auto config = small_config();
  config.daytime_only = false;
  config.max_files = 8;
  EomlWorkflow workflow(config);
  const auto report = workflow.run();
  EXPECT_EQ(report.granules, 8u);
  EXPECT_EQ(report.shipped_files, 8u);
  EXPECT_EQ(report.labeled_tiles, report.total_tiles);
}

TEST_F(EomlIntegration, AquaSatelliteWorks) {
  auto config = small_config();
  config.satellite = modis::Satellite::kAqua;
  config.max_files = 6;
  EomlWorkflow workflow(config);
  const auto report = workflow.run();
  EXPECT_EQ(report.granules, 6u);
  EXPECT_EQ(report.shipped_files, 6u);
  // Aqua filenames use the MYD prefix.
  for (const auto& info : workflow.orion_fs().list("aicca/*.ncl"))
    EXPECT_NE(info.path.find("MYD021KM"), std::string::npos) << info.path;
}

TEST_F(EomlIntegration, MultiDaySpan) {
  auto config = small_config();
  config.span = modis::DaySpan{2022, 1, 2};
  config.max_files = 10;
  EomlWorkflow workflow(config);
  const auto report = workflow.run();
  EXPECT_EQ(report.granules, 10u);
  EXPECT_EQ(report.shipped_files, 10u);
}

TEST_F(EomlIntegration, SingleFileSingleWorkerMinimalPath) {
  auto config = small_config();
  config.max_files = 1;
  config.download_workers = 1;
  config.preprocess_nodes = 1;
  config.workers_per_node = 1;
  config.shipment_streams = 1;
  EomlWorkflow workflow(config);
  const auto report = workflow.run();
  EXPECT_EQ(report.granules, 1u);
  EXPECT_EQ(report.shipped_files, 1u);
  EXPECT_GT(report.total_tiles, 0u);
}

TEST_F(EomlIntegration, RunTwiceThrows) {
  EomlWorkflow workflow(small_config());
  workflow.run();
  EXPECT_THROW(workflow.run(), std::logic_error);
}

TEST_F(EomlIntegration, DeterministicAcrossRuns) {
  auto run_once = [] {
    EomlWorkflow workflow(small_config());
    return workflow.run();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.total_tiles, b.total_tiles);
  EXPECT_EQ(a.download.total_bytes, b.download.total_bytes);
}

TEST_F(EomlIntegration, StreamingOverlapsDownloadAndMatchesBarrierOutput) {
  auto config = small_config();
  config.max_files = 16;
  EomlWorkflow barrier_wf(config);
  const auto barrier = barrier_wf.run();
  config.scheduling = SchedulingMode::kStreaming;
  EomlWorkflow streaming_wf(config);
  const auto streaming = streaming_wf.run();

  EXPECT_EQ(streaming.scheduling, SchedulingMode::kStreaming);
  // Identical work product in both modes...
  EXPECT_EQ(streaming.granules, barrier.granules);
  EXPECT_EQ(streaming.total_tiles, barrier.total_tiles);
  EXPECT_EQ(streaming.labeled_tiles, barrier.labeled_tiles);
  EXPECT_EQ(streaming.shipped_files, barrier.shipped_files);
  EXPECT_EQ(streaming.incomplete_granules, 0u);
  // ...but preprocessing starts while downloads are still in flight, the
  // stages genuinely overlap, and the makespan shrinks.
  EXPECT_LT(streaming.preprocess_span.start, streaming.download_span.end);
  EXPECT_GT(streaming.download_preprocess_overlap(), 0.0);
  EXPECT_DOUBLE_EQ(barrier.download_preprocess_overlap(), 0.0);
  EXPECT_LT(streaming.makespan, barrier.makespan);
  // Per-granule dwell collapses from "wait for the whole stage" to
  // "queue + tile".
  EXPECT_LT(streaming.dwell_p50(), barrier.dwell_p50());
}

TEST_F(EomlIntegration, GranuleReadyObservableInBothModes) {
  for (const auto mode :
       {SchedulingMode::kBarrier, SchedulingMode::kStreaming}) {
    auto config = small_config();
    config.scheduling = mode;
    EomlWorkflow workflow(config);
    std::vector<flow::ReadyGranule> ready;
    workflow.events().subscribe(
        flow::Topic::kGranuleReady, [&](const flow::Event& event) {
          ready.push_back(std::get<flow::ReadyGranule>(event));
        });
    const auto report = workflow.run();
    // One granule.ready per whole triplet, readable by any subscriber.
    EXPECT_EQ(ready.size(), report.granules) << to_string(mode);
    for (const auto& granule : ready) {
      EXPECT_GE(granule.ready_at, granule.first_file_at);
      EXPECT_FALSE(granule.mod02_path.empty());
      EXPECT_FALSE(granule.mod06_path.empty());
    }
    // The dwell metric (ready -> tiles written) is recorded in both modes.
    EXPECT_EQ(report.granule_dwell.size(), report.granules) << to_string(mode);
    EXPECT_GE(report.dwell_p95(), report.dwell_p50());
  }
}

TEST_F(EomlIntegration, StreamingLifecycleStartsPreprocessBeforeDownloadEnds) {
  auto config = small_config();
  config.scheduling = SchedulingMode::kStreaming;
  EomlWorkflow workflow(config);
  std::vector<std::string> events;
  workflow.events().subscribe(flow::Topic::kStage, [&](const flow::Event& e) {
    const auto& stage = std::get<flow::StageEvent>(e);
    events.push_back(stage.stage + "/" + stage.event);
  });
  workflow.run();
  const auto pos = [&](const std::string& name) {
    return std::find(events.begin(), events.end(), name) - events.begin();
  };
  EXPECT_LT(pos("preprocess/started"), pos("download/completed"));
  EXPECT_LT(pos("preprocess/completed"), pos("shipment/completed"));
  EXPECT_EQ(events.back(), "shipment/completed");
}

TEST_F(EomlIntegration, StreamingElasticBlocksAlsoComplete) {
  auto config = small_config();
  config.scheduling = SchedulingMode::kStreaming;
  config.elastic = true;
  config.block.nodes_per_block = 1;
  config.block.init_blocks = 1;
  config.block.max_blocks = 4;
  config.block.idle_timeout = 5.0;
  EomlWorkflow workflow(config);
  const auto report = workflow.run();
  EXPECT_EQ(report.shipped_files, report.granules);
  EXPECT_GT(report.total_tiles, 0u);
}

TEST_F(EomlIntegration, StreamingDeterministicAcrossRuns) {
  auto run_once = [] {
    auto config = small_config();
    config.scheduling = SchedulingMode::kStreaming;
    EomlWorkflow workflow(config);
    return workflow.run();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.total_tiles, b.total_tiles);
}

TEST_F(EomlIntegration, Fig6DispatchOrderIsPinned) {
  // The fig6 configuration (tools/baselines/fig6*.yaml) in both scheduling
  // modes, with and without a live HealthMonitor polling at bus beats. The
  // exact makespan and engine event count pin the dataflow layer's event
  // order: one zero-delay dispatch per publish to a subscribed topic. The
  // monitor adds the 8 stage-topic dispatches and must not move the run.
  struct Pin {
    const char* mode;
    bool watched;
    double makespan;
    std::size_t engine_events;
  };
  const Pin pins[] = {
      {"barrier", false, 519.52910808263607, 751},
      {"barrier", true, 519.52910808263607, 759},
      {"streaming", false, 493.00870996371191, 1207},
      {"streaming", true, 493.00870996371191, 1215},
  };
  for (const auto& pin : pins) {
    SCOPED_TRACE(std::string(pin.mode) + (pin.watched ? " watched" : ""));
    obs::HealthMonitor monitor({}, {});
    EomlWorkflow workflow(EomlConfig::from_yaml_text(
        std::string("workflow:\n  max_files: 40\n  scheduling: ") + pin.mode +
        "\n"));
    if (pin.watched) workflow.attach_health(monitor);
    const auto report = workflow.run();
    EXPECT_EQ(report.makespan, pin.makespan);
    EXPECT_EQ(workflow.engine().processed(), pin.engine_events);
    // 120 download.file + 40 granule.ready + 8 stage events.
    EXPECT_EQ(workflow.events().published_count(), 168u);
    EXPECT_EQ(report.total_tiles, 4129u);
  }
}

TEST_F(EomlIntegration, StreamingSingleWorkerMinimalPath) {
  auto config = small_config();
  config.scheduling = SchedulingMode::kStreaming;
  config.max_files = 1;
  config.download_workers = 1;
  config.preprocess_nodes = 1;
  config.workers_per_node = 1;
  config.shipment_streams = 1;
  EomlWorkflow workflow(config);
  const auto report = workflow.run();
  EXPECT_EQ(report.granules, 1u);
  EXPECT_EQ(report.shipped_files, 1u);
}

}  // namespace
}  // namespace mfw::pipeline
