#include "pipeline/eoml_workflow.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "flow/events.hpp"
#include "preprocess/tile_io.hpp"
#include "preprocess/tile_stream.hpp"
#include "util/bytes.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace mfw::pipeline {

namespace {
constexpr const char* kComponent = "eoml";
constexpr const char* kTilesDir = "tiles";
constexpr const char* kOutboxDir = "outbox";
constexpr const char* kAiccaDir = "aicca";
// Nominal Defiant Lustre aggregate bandwidth exposed to telemetry.
constexpr double kDefiantLustreBps = 40.0 * 1024 * 1024 * 1024;

flow::FlowDefinition build_inference_flow() {
  // The paper's Globus Flow: inference -> append labels -> move to
  // transfer-out. (The crawl step is the FsMonitor that starts the run.)
  flow::FlowDefinition def;
  def.set_name("aicca-inference");
  def.set_start("infer");

  flow::FlowState infer;
  infer.name = "infer";
  infer.kind = flow::StateKind::kAction;
  infer.action = "inference.run";
  auto params = util::YamlNode::map();
  params.set("path", util::YamlNode::scalar("$.file.path"));
  infer.parameters = params;
  infer.result_path = "inference";
  infer.next = "append";
  def.add_state(std::move(infer));

  flow::FlowState append;
  append.name = "append";
  append.kind = flow::StateKind::kAction;
  append.action = "labels.append";
  params = util::YamlNode::map();
  params.set("path", util::YamlNode::scalar("$.file.path"));
  params.set("labels", util::YamlNode::scalar("$.inference.labels"));
  append.parameters = params;
  append.result_path = "append";
  append.next = "move";
  def.add_state(std::move(append));

  flow::FlowState move;
  move.name = "move";
  move.kind = flow::StateKind::kAction;
  move.action = "files.move";
  params = util::YamlNode::map();
  params.set("path", util::YamlNode::scalar("$.file.path"));
  move.parameters = params;
  move.result_path = "move";
  move.next = "done";
  def.add_state(std::move(move));

  flow::FlowState done;
  done.name = "done";
  done.kind = flow::StateKind::kSucceed;
  def.add_state(std::move(done));

  def.validate();
  return def;
}

/// Canonical granule identity of a tile path ("tiles/MOD021KM.A2022001.
/// 0050.061.hdf.ncl" -> "terra.A2022001.s0010"); empty when unparseable.
std::string granule_key_of_path(std::string_view path) {
  std::string_view base = util::path_basename(path);
  if (base.size() > 4 && base.substr(base.size() - 4) == ".ncl")
    base = base.substr(0, base.size() - 4);
  if (const auto id = modis::parse_granule_filename(base))
    return flow::GranuleKey::of(*id).to_string();
  return {};
}

}  // namespace

double EomlReport::preprocess_throughput() const {
  const double d = preprocess_span.duration();
  return d > 0 ? static_cast<double>(total_tiles) / d : 0.0;
}

double EomlReport::dwell_p50() const { return util::percentile(granule_dwell, 50.0); }

double EomlReport::dwell_p95() const { return util::percentile(granule_dwell, 95.0); }

double EomlReport::download_preprocess_overlap() const {
  if (!download_span.ran() || !preprocess_span.ran()) return 0.0;
  const double lo = std::max(download_span.start, preprocess_span.start);
  const double hi = std::min(download_span.end, preprocess_span.end);
  return std::max(0.0, hi - lo);
}

std::string EomlReport::summary() const {
  std::ostringstream os;
  os << "EO-ML workflow report\n"
     << "  makespan:            " << util::format_seconds(makespan) << "\n"
     << "  download:            " << util::format_seconds(download_span.duration())
     << "  (" << download.files.size() << " files, "
     << util::format_bytes(download.total_bytes)
     << ", launch " << util::format_seconds(download_launch_latency) << ")\n"
     << "  preprocess:          "
     << util::format_seconds(preprocess_span.duration()) << "  (" << granules
     << " granules -> " << total_tiles << " tiles, "
     << util::Table::num(preprocess_throughput(), 2) << " tiles/s, slurm alloc "
     << util::format_seconds(slurm_allocation_latency) << ")\n"
     << "  inference:           "
     << util::format_seconds(inference_span.duration()) << "  ("
     << labeled_files << " files, " << labeled_tiles
     << " tiles labeled; action overhead "
     << util::format_seconds(mean_flow_action_overhead)
     << ", trigger gap " << util::format_seconds(monitor_trigger_gap) << ")\n"
     << "  shipment:            "
     << util::format_seconds(shipment_span.duration()) << "  (" << shipped_files
     << " files, " << util::format_bytes(shipped_bytes) << " to Orion)\n"
     << "  scheduling:          " << to_string(scheduling) << "  (dl/pp overlap "
     << util::format_seconds(download_preprocess_overlap()) << ", dwell p50 "
     << util::format_seconds(dwell_p50()) << ", p95 "
     << util::format_seconds(dwell_p95());
  if (incomplete_granules > 0)
    os << ", " << incomplete_granules << " incomplete triplets skipped";
  os << ")\n";
  return os.str();
}

EomlWorkflow::EomlWorkflow(EomlConfig config)
    : config_(std::move(config)),
      graph_(compile_config(config_)),
      laads_(config_.seed),
      defiant_raw_("defiant", &engine_),
      defiant_fs_(defiant_raw_, kDefiantLustreBps),
      orion_raw_("orion", &engine_),
      orion_fs_(orion_raw_, kDefiantLustreBps),
      wan_(engine_, "laads-wan", config_.wan_capacity_bps),
      facility_link_(engine_, "defiant-orion", config_.facility_link_bps),
      slurm_(engine_, compute::SlurmSimConfig{config_.facility_total_nodes,
                                              config_.slurm_latency}),
      preprocess_exec_(engine_,
                       [r = config_.node_r_max, tau = config_.node_tau] {
                         return std::unique_ptr<sim::ContentionLaw>(
                             std::make_unique<sim::SaturatingExpLaw>(r, tau));
                       }),
      inference_exec_(engine_,
                      [r = config_.node_r_max, tau = config_.node_tau] {
                        return std::unique_ptr<sim::ContentionLaw>(
                            std::make_unique<sim::SaturatingExpLaw>(r, tau));
                      }),
      shipper_(engine_, facility_link_),
      runner_(engine_, config_.retain_provenance ? &provenance_ : nullptr,
              flow::FlowRunnerConfig{config_.flow_action_overhead, 1'000'000}),
      inference_flow_(build_inference_flow()) {
  config_.validate();
  register_actions();
  preprocess_exec_.set_label("preprocess");
  inference_exec_.set_label("inference");
  // Inference resources are static: the paper pins one (GPU) worker.
  inference_exec_.add_node(config_.inference_workers);
}

EomlWorkflow::~EomlWorkflow() {
  // The recorder must never outlive this engine as its time source.
  auto& rec = obs::TraceRecorder::instance();
  if (rec.clock() == &engine_) rec.set_clock(nullptr);
}

EomlReport EomlWorkflow::run() {
  if (started_) throw std::logic_error("EomlWorkflow::run called twice");
  started_ = true;
  report_.scheduling = config_.scheduling;
  if (auto& rec = obs::TraceRecorder::instance(); rec.enabled()) {
    // One trace process per run: barrier and streaming variants of the same
    // bench land side by side in Perfetto instead of overlapping.
    rec.set_clock(&engine_);
    rec.begin_process(std::string("eoml-") + to_string(config_.scheduling));
  }
  tracker_.on_ready(
      [this](const flow::ReadyGranule& granule) { on_granule_ready(granule); });
  if (streaming()) {
    // The dataflow graph has no download->preprocess barrier: the allocation
    // and the tile monitor come up with the stream, so nodes are ready when
    // the first whole triplet arrives.
    request_preprocess_nodes({});
    start_monitor();
  }
  start_download();
  engine_.run();
  if (!finished_)
    throw std::logic_error(
        "EO-ML workflow deadlocked: engine drained before shipment finished");

  report_.makespan = report_.shipment_span.end;
  report_.mean_flow_action_overhead = provenance_.mean_action_overhead();
  if (first_tile_time_ >= 0 && first_flow_time_ >= first_tile_time_)
    report_.monitor_trigger_gap = first_flow_time_ - first_tile_time_;
  report_.provenance = provenance_;

  report_.timeline.add_stage("download", downloader_->activity());
  report_.timeline.add_stage("preprocess", [this] {
    std::vector<std::pair<double, int>> series;
    for (const auto& [t, n] : preprocess_exec_.activity()) series.emplace_back(t, n);
    return series;
  }());
  report_.timeline.add_stage("inference", [this] {
    std::vector<std::pair<double, int>> series;
    for (const auto& [t, n] : inference_exec_.activity()) series.emplace_back(t, n);
    return series;
  }());
  if (auto& rec = obs::TraceRecorder::instance(); rec.enabled()) {
    // Runner-level provenance joins the obs spans on the same timeline.
    flow::export_to_trace(provenance_, rec);
    rec.set_clock(nullptr);
  }
  return report_;
}

void EomlWorkflow::attach_health(obs::HealthMonitor& monitor,
                                 double snapshot_interval,
                                 std::function<void(double)> on_snapshot) {
  if (started_)
    throw std::logic_error("EomlWorkflow::attach_health must precede run()");
  health_ = &monitor;
  // Builtin stage worker capacities for utilization-floor rules and the
  // dashboard's busy column.
  monitor.set_stage_capacity("download", config_.download_workers);
  monitor.set_stage_capacity(
      "preprocess", static_cast<double>(config_.preprocess_nodes) *
                        config_.workers_per_node);
  monitor.set_stage_capacity("inference", config_.inference_workers);
  monitor.set_stage_capacity("shipment", config_.shipment_streams);
  // Read-only polls at the workflow's natural beats. The bus delivers these
  // as zero-delay dispatch events, and the handlers only observe, so the
  // rest of the event order — and every outcome — is unchanged.
  const auto poll = [this, &monitor](const flow::Event&) {
    monitor.poll(engine_.now());
  };
  bus_.subscribe(flow::Topic::kStage, poll);
  bus_.subscribe(flow::Topic::kDownloadFile, poll);
  bus_.subscribe(flow::Topic::kGranuleReady, poll);
  if (snapshot_interval > 0.0) {
    health_snapshot_interval_ = snapshot_interval;
    health_snapshot_ = std::move(on_snapshot);
    schedule_health_tick();
  }
}

void EomlWorkflow::schedule_health_tick() {
  engine_.schedule_after(health_snapshot_interval_, [this] {
    if (health_ == nullptr) return;
    health_->poll(engine_.now());
    if (health_snapshot_) health_snapshot_(engine_.now());
    // Stop re-arming once the workflow finishes so the engine can drain.
    if (!finished_) schedule_health_tick();
  });
}

void EomlWorkflow::publish_stage_event(
    const char* stage, const char* event,
    std::initializer_list<std::pair<const char*, std::string>> fields) {
  if (auto& rec = obs::TraceRecorder::instance(); rec.enabled()) {
    // Stage lifecycle -> top-level spans, one track per stage (stages
    // overlap freely in streaming mode, so they cannot share a lane).
    if (std::string_view(event) == "started") {
      stage_spans_[stage] =
          rec.begin_span(std::string("stages/") + stage, "stage", stage);
    } else if (std::string_view(event) == "completed") {
      obs::Args args;
      for (const auto& [key, value] : fields) args.emplace_back(key, value);
      rec.end_span(stage_spans_[stage], std::move(args));
      stage_spans_[stage] = {};
    }
  }
  bus_.publish(flow::Topic::kStage,
               flow::StageEvent{stage, event, engine_.now()});
}

void EomlWorkflow::start_download() {
  transfer::DownloadConfig dl;
  dl.workers = config_.download_workers;
  dl.products = config_.products;
  dl.satellite = config_.satellite;
  dl.span = config_.span;
  dl.dest_prefix = "staging";
  dl.max_files_per_product = config_.max_files;
  dl.daytime_only = config_.daytime_only;
  dl.per_connection_median_bps = config_.per_connection_median_bps;
  dl.per_connection_sigma = config_.per_connection_sigma;
  dl.materialize = config_.materialize;
  dl.geometry = config_.geometry;
  dl.seed = config_.seed;
  downloader_ = std::make_unique<transfer::DownloadService>(
      engine_, laads_, wan_, defiant_fs_, dl);
  downloader_->set_event_bus(&bus_);
  report_.download_span.start = engine_.now();
  publish_stage_event("download", "started");
  downloader_->start([this](const transfer::DownloadReport& dr) {
    on_downloads_complete(dr);
  });
}

void EomlWorkflow::on_downloads_complete(const transfer::DownloadReport& dr) {
  report_.download = dr;
  report_.download_span.end = engine_.now();
  report_.download_launch_latency = dr.launch_latency();
  downloads_done_ = true;
  publish_stage_event("download", "completed",
                      {{"files", std::to_string(dr.files.size())},
                       {"bytes", std::to_string(dr.total_bytes)}});
  if (!streaming()) {
    MFW_INFO(kComponent, "downloads complete; starting preprocessing");
    // "preprocessing is delayed until all downloads are complete"
    start_preprocess();
    start_monitor();
    return;
  }
  // Streaming: the farm has been running since t=0. The bus may still hold
  // in-flight granule.ready dispatches (this callback races ahead of the last
  // file event's delivery), so completion cannot be "tracker is idle" —
  // instead count the whole triplets the report guarantees and seal once that
  // many have been submitted.
  std::map<flow::GranuleKey, unsigned> have;
  for (const auto& file : dr.files)
    have[flow::GranuleKey::of(file.id)] |=
        1u << static_cast<unsigned>(file.id.product);
  std::set<flow::GranuleKey> all_keys;
  for (const auto& [key, bits] : have) all_keys.insert(key);
  for (const auto& id : dr.failed) all_keys.insert(flow::GranuleKey::of(id));
  constexpr unsigned kWhole =
      (1u << static_cast<unsigned>(modis::ProductKind::kMod02)) |
      (1u << static_cast<unsigned>(modis::ProductKind::kMod03)) |
      (1u << static_cast<unsigned>(modis::ProductKind::kMod06));
  expected_granules_ = 0;
  for (const auto& [key, bits] : have)
    if (bits == kWhole) ++expected_granules_;
  report_.incomplete_granules = all_keys.size() - expected_granules_;
  MFW_INFO(kComponent, "downloads complete; ", expected_granules_,
           " whole triplets in stream");
  maybe_seal_preprocess();
}

void EomlWorkflow::start_preprocess() {
  report_.preprocess_span.start = engine_.now();
  publish_stage_event("preprocess", "started");
  request_preprocess_nodes([this] { submit_preprocess_tasks(); });
}

void EomlWorkflow::request_preprocess_nodes(std::function<void()> on_nodes) {
  slurm_request_time_ = engine_.now();
  if (config_.elastic) {
    compute::BlockConfig block = config_.block;
    block.workers_per_node = config_.workers_per_node;
    blocks_.emplace(engine_, slurm_, preprocess_exec_, block);
    blocks_->start();
    report_.slurm_allocation_latency = config_.slurm_latency;  // per block
    if (on_nodes) on_nodes();
  } else {
    preprocess_job_ = slurm_.submit(
        config_.preprocess_nodes, config_.preprocess_walltime,
        [this, on_nodes = std::move(on_nodes)](
            const compute::SlurmAllocation& alloc) {
          report_.slurm_allocation_latency = engine_.now() - slurm_request_time_;
          for (std::size_t i = 0; i < alloc.node_ids.size(); ++i)
            preprocess_exec_.add_node(config_.workers_per_node);
          MFW_INFO(kComponent, "preprocess allocation: ", alloc.node_ids.size(),
                   " nodes x ", config_.workers_per_node, " workers");
          if (on_nodes) on_nodes();
        });
  }
}

void EomlWorkflow::on_granule_ready(const flow::ReadyGranule& granule) {
  // Both modes record readiness (powers the dwell metrics); only the
  // streaming scheduler turns the event into an immediate task.
  granule_ready_at_[granule.key] = granule.ready_at;
  if (!streaming()) return;
  if (report_.preprocess_span.start < 0) {
    report_.preprocess_span.start = engine_.now();
    publish_stage_event("preprocess", "started");
  }
  modis::GranuleId id;
  id.product = modis::ProductKind::kMod02;
  id.satellite = granule.key.satellite;
  id.year = granule.key.year;
  id.day_of_year = granule.key.day_of_year;
  id.slot = granule.key.slot;
  ++report_.granules;
  ++granules_submitted_;
  auto desc = preprocess::make_preprocess_task(laads_.generator(), id,
                                               config_.preprocess_cost);
  if (obs::TraceRecorder::instance().enabled())
    desc.trace_args.emplace_back("granule", granule.key.to_string());
  preprocess_exec_.submit(desc,
                          [this, id](const compute::SimTaskResult& result) {
                            on_preprocess_task_done(result, id);
                          });
  maybe_seal_preprocess();
}

void EomlWorkflow::maybe_seal_preprocess() {
  if (!streaming() || preprocess_sealed_ || !downloads_done_) return;
  if (granules_submitted_ < expected_granules_) return;
  preprocess_sealed_ = true;
  if (report_.incomplete_granules > 0)
    MFW_WARN(kComponent, report_.incomplete_granules,
             " granules never completed their triplet; skipped");
  if (report_.preprocess_span.start < 0) {
    // Degenerate stream: no whole triplet ever formed.
    report_.preprocess_span.start = engine_.now();
    publish_stage_event("preprocess", "started");
  }
  preprocess_exec_.seal();
  preprocess_exec_.notify_all_complete([this] { finish_preprocess(); });
}

void EomlWorkflow::submit_preprocess_tasks() {
  // One task per MOD02 granule, matching the paper's file-level parallelism.
  auto entries =
      laads_.list(modis::ProductKind::kMod02, config_.satellite, config_.span);
  if (config_.daytime_only) {
    std::erase_if(entries, [](const modis::CatalogEntry& e) {
      return !modis::is_daytime(e.id.satellite, e.id.slot, e.id.day_of_year);
    });
  }
  if (config_.max_files && entries.size() > *config_.max_files)
    entries.resize(*config_.max_files);

  report_.granules = entries.size();
  preprocess_pending_ = entries.size();
  if (entries.empty()) {
    preprocess_done_ = true;
    report_.preprocess_span.end = engine_.now();
    check_shipment();
    return;
  }
  for (const auto& entry : entries) {
    auto desc = preprocess::make_preprocess_task(laads_.generator(), entry.id,
                                                 config_.preprocess_cost);
    if (obs::TraceRecorder::instance().enabled())
      desc.trace_args.emplace_back(
          "granule", flow::GranuleKey::of(entry.id).to_string());
    preprocess_exec_.submit(desc, [this, id = entry.id](
                                      const compute::SimTaskResult& result) {
      on_preprocess_task_done(result, id);
    });
  }
  MFW_INFO(kComponent, "submitted ", entries.size(), " preprocessing tasks");
}

void EomlWorkflow::on_preprocess_task_done(const compute::SimTaskResult& result,
                                           const modis::GranuleId& id) {
  const std::string out_path =
      util::path_join(kTilesDir, id.filename() + ".ncl");
  std::size_t tiles = 0;
  if (config_.materialize) {
    preprocess::GranulePaths paths;
    paths.mod02 = util::path_join("staging", id.filename());
    modis::GranuleId other = id;
    other.product = modis::ProductKind::kMod03;
    paths.mod03 = util::path_join("staging", other.filename());
    other.product = modis::ProductKind::kMod06;
    paths.mod06 = util::path_join("staging", other.filename());
    const auto tiled = preprocess::run_preprocess(defiant_fs_, paths,
                                                  defiant_fs_, out_path,
                                                  config_.tiler);
    tiles = tiled.tiles.size();
  } else {
    tiles = static_cast<std::size_t>(result.payload);
    preprocess::write_tile_manifest(defiant_fs_, out_path, id, tiles);
  }
  report_.total_tiles += tiles;
  if (first_tile_time_ < 0) first_tile_time_ = engine_.now();
  const auto ready_it = granule_ready_at_.find(flow::GranuleKey::of(id));
  if (ready_it != granule_ready_at_.end())
    report_.granule_dwell.push_back(engine_.now() - ready_it->second);

  // Barrier mode counts down its fixed batch; streaming completion goes
  // through seal() + notify_all_complete instead (the batch size is not
  // known until the download report lands).
  if (!streaming() && --preprocess_pending_ == 0) finish_preprocess();
}

void EomlWorkflow::finish_preprocess() {
  preprocess_done_ = true;
  report_.preprocess_span.end = engine_.now();
  publish_stage_event("preprocess", "completed",
                      {{"granules", std::to_string(report_.granules)},
                       {"tiles", std::to_string(report_.total_tiles)}});
  MFW_INFO(kComponent, "preprocessing complete: ", report_.total_tiles,
           " tiles at ",
           util::Table::num(report_.preprocess_throughput(), 2), " tiles/s");
  if (blocks_) {
    blocks_->stop();
  } else {
    slurm_.release(preprocess_job_);
  }
  monitor_->stop();
  check_shipment();
}

void EomlWorkflow::start_monitor() {
  flow::FsMonitorConfig mc;
  mc.pattern = std::string(kTilesDir) + "/*.ncl";
  mc.poll_interval = config_.poll_interval;
  monitor_ = std::make_unique<flow::FsMonitor>(
      engine_, defiant_fs_, mc,
      [this](const std::vector<storage::FileInfo>& files) {
        trigger_flows(files);
      });
  monitor_->start();
}

void EomlWorkflow::trigger_flows(const std::vector<storage::FileInfo>& files) {
  for (const auto& info : files) {
    if (!triggered_paths_.insert(info.path).second) continue;
    auto context = util::YamlNode::map();
    auto file = util::YamlNode::map();
    file.set("path", util::YamlNode::scalar(info.path));
    context.set("file", std::move(file));
    if (first_flow_time_ < 0) {
      first_flow_time_ = engine_.now();
      report_.inference_span.start = engine_.now();
      publish_stage_event("inference", "started");
    }
    runner_.start(inference_flow_, std::move(context),
                  [this](const flow::RunRecord& record,
                         const util::YamlNode& /*context*/) {
                    if (!record.succeeded) {
                      MFW_ERROR(kComponent, "inference flow failed: ",
                                record.error);
                    }
                    report_.inference_span.end = engine_.now();
                    check_shipment();
                  },
                  {info.path, granule_key_of_path(info.path)});
  }
}

std::vector<std::int32_t> EomlWorkflow::label_tiles(const std::string& path,
                                                    std::size_t count) {
  if (!model_ && config_.materialize && !config_.model_path.empty()) {
    // Lazy load: the model artifact is staged onto the Defiant filesystem by
    // the caller (or an earlier training run) after workflow construction.
    model_.emplace(ml::RiccModel::load(storage::HdflFile::deserialize(
        defiant_fs_.read_file(config_.model_path))));
    // The fused plan compiles straight off the loaded weights; the int8
    // plan additionally needs activation calibration, which happens lazily
    // on the first pixel-bearing tile file below.
    if (config_.encode_path == "fused")
      model_->set_encode_path(ml::RiccModel::EncodePath::kFused);
  }
  std::vector<std::int32_t> labels;
  labels.reserve(count);
  if (model_) {
    const auto file = preprocess::read_tile_file(defiant_fs_, path);
    const std::size_t pixel_tiles = preprocess::pixel_tile_count(file);
    if (config_.encode_path == "int8" && !model_->int8_ready() &&
        pixel_tiles > 0) {
      // Calibrate on this campaign's own tiles (first pixel file, capped):
      // deterministic under the event engine, no side-channel sample set.
      const std::size_t sample_n = std::min<std::size_t>(pixel_tiles, 32);
      std::vector<ml::Tensor> sample;
      sample.reserve(sample_n);
      for (std::size_t i = 0; i < sample_n; ++i) {
        preprocess::Tile tile = preprocess::tile_from_ncl(file, i);
        sample.emplace_back(
            std::vector<int>{tile.channels, tile.tile_size, tile.tile_size},
            std::move(tile.data));
      }
      model_->calibrate_int8(sample);
      model_->set_encode_path(ml::RiccModel::EncodePath::kInt8);
      MFW_INFO(kComponent, "int8 encode path calibrated on ", sample_n,
               " tiles from ", path);
    }
    if (pixel_tiles == count && config_.inference_tile_budget > 0) {
      // Bounded-memory path: stream decode -> batched encode under the
      // configured tile budget instead of materializing the whole granule.
      if (!model_->has_centroids())
        throw std::logic_error("label_tiles: model has no fitted centroids");
      preprocess::TileStreamOptions opts;
      opts.tile_budget = config_.inference_tile_budget;
      opts.batch_size = config_.inference_batch;
      const std::string paths[] = {path};
      const auto stats = preprocess::stream_tiles(
          defiant_fs_, paths, opts,
          [&](std::size_t, std::size_t,
              std::span<const preprocess::Tile> batch) {
            std::vector<ml::Tensor> inputs;
            inputs.reserve(batch.size());
            for (const auto& tile : batch)
              inputs.emplace_back(
                  std::vector<int>{tile.channels, tile.tile_size,
                                   tile.tile_size},
                  tile.data);
            const auto latents = model_->encode_batch(inputs);
            for (const auto& z : latents)
              labels.push_back(
                  ml::nearest_centroid(model_->centroids(), z.span()));
          });
      report_.inference_peak_tiles_resident =
          std::max(report_.inference_peak_tiles_resident,
                   stats.peak_tiles_resident);
      report_.inference_streamed_batches += stats.batches;
    } else {
      const auto tiles = preprocess::tiles_from_ncl(file);
      for (const auto& tile : tiles) {
        ml::Tensor input({tile.channels, tile.tile_size, tile.tile_size},
                         tile.data);
        labels.push_back(model_->predict(input));
      }
    }
    // Manifest-only files (no pixels) fall through to pseudo-labels below.
    if (labels.size() == count) return labels;
    labels.clear();
  }
  // Pseudo-labels: deterministic per (path, index) — the timing-only mode's
  // stand-in for the 42 AICCA classes.
  for (std::size_t i = 0; i < count; ++i) {
    labels.push_back(static_cast<std::int32_t>(
        util::mix64(std::hash<std::string>{}(path), i) % 42));
  }
  return labels;
}

void EomlWorkflow::register_actions() {
  // Published input/output schemas (§V-A) make the built-in flow
  // self-validating: malformed wiring fails fast with a named field.
  flow::ActionSchema infer_schema;
  infer_schema.inputs = {{"path", util::YamlNode::Kind::kScalar, true}};
  infer_schema.outputs = {{"count", util::YamlNode::Kind::kScalar, true},
                          {"labels", util::YamlNode::Kind::kList, true}};
  flow::ActionSchema append_schema;
  append_schema.inputs = {{"path", util::YamlNode::Kind::kScalar, true},
                          {"labels", util::YamlNode::Kind::kList, true}};
  append_schema.outputs = {{"ok", util::YamlNode::Kind::kScalar, true}};
  flow::ActionSchema move_schema;
  move_schema.inputs = {{"path", util::YamlNode::Kind::kScalar, true}};
  move_schema.outputs = {{"path", util::YamlNode::Kind::kScalar, true}};

  runner_.register_action(
      "inference.run",
      [this](const util::YamlNode& params, const util::YamlNode&,
             flow::ActionHandle handle) {
        const std::string path = params.require("path").as_string();
        std::size_t tiles = 0;
        try {
          tiles = preprocess::read_tile_summary(defiant_fs_, path).tile_count;
        } catch (const std::exception& e) {
          handle.fail(std::string("inference.run: ") + e.what());
          return;
        }
        auto desc = preprocess::make_inference_task(
            tiles, util::strformat("infer:%s", path.c_str()),
            config_.inference_cost);
        if (obs::TraceRecorder::instance().enabled()) {
          if (auto key = granule_key_of_path(path); !key.empty())
            desc.trace_args.emplace_back("granule", std::move(key));
        }
        inference_exec_.submit(desc, [this, path, tiles,
                                      succeed = handle.succeed](
                                         const compute::SimTaskResult&) {
          const auto labels = label_tiles(path, tiles);
          auto result = util::YamlNode::map();
          result.set("count", util::YamlNode::scalar(std::to_string(tiles)));
          auto list = util::YamlNode::list();
          for (auto label : labels)
            list.push_back(util::YamlNode::scalar(std::to_string(label)));
          result.set("labels", std::move(list));
          succeed(std::move(result));
        });
      },
      infer_schema);

  runner_.register_action(
      "labels.append",
      [this](const util::YamlNode& params, const util::YamlNode&,
             flow::ActionHandle handle) {
        try {
          const std::string path = params.require("path").as_string();
          std::vector<std::int32_t> labels;
          for (const auto& item : params.require("labels").items())
            labels.push_back(static_cast<std::int32_t>(item.as_int()));
          preprocess::append_labels(defiant_fs_, path, labels);
          report_.labeled_tiles += labels.size();
          auto result = util::YamlNode::map();
          result.set("ok", util::YamlNode::scalar("true"));
          handle.succeed(std::move(result));
        } catch (const std::exception& e) {
          handle.fail(std::string("labels.append: ") + e.what());
        }
      },
      append_schema);

  runner_.register_action(
      "files.move",
      [this](const util::YamlNode& params, const util::YamlNode&,
             flow::ActionHandle handle) {
        try {
          const std::string path = params.require("path").as_string();
          const std::string out =
              util::path_join(kOutboxDir, util::path_basename(path));
          defiant_fs_.rename(path, out);
          ++report_.labeled_files;
          auto result = util::YamlNode::map();
          result.set("path", util::YamlNode::scalar(out));
          handle.succeed(std::move(result));
        } catch (const std::exception& e) {
          handle.fail(std::string("files.move: ") + e.what());
        }
      },
      move_schema);
}

void EomlWorkflow::check_shipment() {
  if (shipping_ || !preprocess_done_) return;
  if (monitor_ && monitor_->running()) {
    // The monitor performs its drain poll shortly; re-check afterwards.
    engine_.schedule_after(config_.poll_interval, [this] { check_shipment(); });
    return;
  }
  if (runner_.active_runs() > 0) return;  // flow completion re-invokes us
  start_shipment();
}

void EomlWorkflow::start_shipment() {
  shipping_ = true;
  report_.shipment_span.start = engine_.now();
  if (report_.inference_span.ran())
    publish_stage_event("inference", "completed",
                        {{"files", std::to_string(report_.labeled_files)},
                         {"tiles", std::to_string(report_.labeled_tiles)}});
  publish_stage_event("shipment", "started");
  const auto outbox = defiant_fs_.list(std::string(kOutboxDir) + "/*.ncl");
  if (outbox.empty()) {
    report_.shipment_span.end = engine_.now();
    finished_ = true;
    publish_stage_event("shipment", "completed", {{"files", "0"}});
    MFW_WARN(kComponent, "nothing to ship");
    return;
  }
  transfer::TransferRequest request;
  request.source = &defiant_fs_;
  request.destination = &orion_fs_;
  request.pattern = std::string(kOutboxDir) + "/*.ncl";
  request.dest_prefix = kAiccaDir;
  request.parallel_streams = config_.shipment_streams;
  shipper_.submit(request, [this](const transfer::TransferEvent& event) {
    if (event.kind == transfer::TransferEventKind::kFileDone) {
      ++report_.shipped_files;
    } else if (event.kind == transfer::TransferEventKind::kSucceeded) {
      report_.shipment_span.end = engine_.now();
      report_.shipped_bytes = orion_fs_.total_bytes();
      finished_ = true;
      publish_stage_event("shipment", "completed",
                          {{"files", std::to_string(report_.shipped_files)}});
      MFW_INFO(kComponent, "shipment complete: ", report_.shipped_files,
               " files on Orion");
    } else if (event.kind == transfer::TransferEventKind::kFailed) {
      throw std::runtime_error("shipment failed: " + event.message);
    }
  });
}

}  // namespace pipeline
