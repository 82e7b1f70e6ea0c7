// EomlWorkflow: the paper's primary contribution — the automated, five-stage
// multi-facility EO-ML workflow.
//
//   (1) Download   — DownloadService pulls MODIS products from the LAADS
//                    archive over the WAN onto ACE Defiant's filesystem.
//   (2) Preprocess — a Parsl-like task farm (SlurmSim allocation, optionally
//                    elastic blocks) tiles each MOD02 granule into
//                    ocean-cloud tiles written as ncl files. In barrier mode
//                    (the paper-faithful default) preprocessing is delayed
//                    until all downloads complete (HDF partial-read hazard,
//                    as in the paper); in streaming mode each granule is
//                    tiled the moment GranuleTracker reports its
//                    MOD02/03/06 triplet whole (granule.ready), overlapping
//                    the download stage.
//   (3) Monitor &  — an FsMonitor crawls the tile directory; each batch of
//       Trigger      new files triggers a Globus-Flows-style run.
//   (4) Inference  — the triggered flow runs RICC inference (42 AICCA
//                    classes), appends a `label` variable to the ncl file,
//                    and moves it to the transfer-out directory. Inference
//                    overlaps preprocessing.
//   (5) Shipment   — TransferService moves labelled files to Frontier's
//                    Orion filesystem with checksum verification.
//
// The workflow runs entirely on a discrete-event engine; with
// config.materialize it moves real granule bytes and runs the real tiler and
// a real (or pseudo-label) RICC model, while timing still follows the
// calibrated cost models.
#pragma once

#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "compute/block_provider.hpp"
#include "compute/cluster.hpp"
#include "compute/slurm_sim.hpp"
#include "flow/event_bus.hpp"
#include "flow/granule_tracker.hpp"
#include "flow/monitor.hpp"
#include "flow/provenance.hpp"
#include "flow/runner.hpp"
#include "ml/ricc.hpp"
#include "obs/trace.hpp"
#include "obs/watch.hpp"
#include "pipeline/config.hpp"
#include "pipeline/spec_compile.hpp"
#include "pipeline/timeline.hpp"
#include "spec/spec.hpp"
#include "storage/lustre_sim.hpp"
#include "storage/memfs.hpp"
#include "transfer/download.hpp"
#include "transfer/transfer_service.hpp"

namespace mfw::pipeline {

struct StageSpan {
  double start = -1.0;
  double end = -1.0;
  bool ran() const { return start >= 0.0 && end >= start; }
  double duration() const { return ran() ? end - start : 0.0; }
};

struct EomlReport {
  SchedulingMode scheduling = SchedulingMode::kBarrier;
  transfer::DownloadReport download;
  StageSpan download_span;
  StageSpan preprocess_span;
  StageSpan inference_span;  // first flow start .. last flow end
  StageSpan shipment_span;
  double makespan = 0.0;

  std::size_t granules = 0;       // MOD02 files preprocessed
  std::size_t total_tiles = 0;    // tiles produced by preprocessing
  std::size_t labeled_files = 0;
  std::size_t labeled_tiles = 0;
  // -- bounded-memory inference (config inference.tile_budget > 0) ----------
  /// High-water mark of decoded tiles resident during streamed labeling;
  /// stays <= the configured tile budget.
  std::size_t inference_peak_tiles_resident = 0;
  /// Encode batches delivered by the streaming reader (0 when the classic
  /// whole-granule path ran).
  std::size_t inference_streamed_batches = 0;
  std::size_t shipped_files = 0;
  std::uint64_t shipped_bytes = 0;
  /// Granules whose triplet never became whole (download failures);
  /// streaming mode skips them. Always 0 in barrier mode, which preprocesses
  /// from the catalog listing regardless.
  std::size_t incomplete_granules = 0;

  /// Tiles/second over the preprocessing span (Table I's metric).
  double preprocess_throughput() const;

  // -- dataflow overlap metrics ---------------------------------------------
  /// Per-granule dwell: triplet whole (granule.ready) -> tiles written. In
  /// barrier mode the dwell includes the whole-stage wait for the last
  /// download; streaming shrinks it to queueing + tiling time.
  std::vector<double> granule_dwell;
  double dwell_p50() const;
  double dwell_p95() const;
  /// Wall-clock overlap between the download and preprocess spans (0 in
  /// barrier mode, by construction).
  double download_preprocess_overlap() const;

  // -- Fig. 7 latency breakdown ---------------------------------------------
  double download_launch_latency = 0.0;  // workers + listing (paper: 5.63 s)
  double slurm_allocation_latency = 0.0; // request -> nodes granted
  double mean_flow_action_overhead = 0.0;  // paper: ~50 ms
  /// Gap between the first tile file landing and its flow starting (the
  /// asynchronous monitor hop; "inconsequential" per the paper).
  double monitor_trigger_gap = 0.0;

  TimelineRecorder timeline;
  flow::ProvenanceLog provenance;

  /// Human-readable multi-line summary.
  std::string summary() const;
};

class EomlWorkflow {
 public:
  explicit EomlWorkflow(EomlConfig config);
  ~EomlWorkflow();

  EomlWorkflow(const EomlWorkflow&) = delete;
  EomlWorkflow& operator=(const EomlWorkflow&) = delete;

  /// Runs the workflow to completion (drains the event engine) and returns
  /// the report. May be called once.
  EomlReport run();

  /// Wires a live obs::HealthMonitor to this run (DESIGN.md §12): declares
  /// the builtin stages' worker capacities, polls the monitor (read-only) at
  /// natural workflow beats — stage lifecycle events, per-file download
  /// completions, granule readiness — and, when `snapshot_interval` > 0,
  /// runs a self-rescheduling engine tick that polls and invokes
  /// `on_snapshot(now)` every interval until the workflow finishes. All
  /// hooks only observe; no simulation state is touched, so the run is
  /// bit-for-bit identical with or without a monitor attached. Call before
  /// run(); `monitor` must outlive it. Feeding the monitor telemetry is the
  /// caller's job (attach a TelemetryBus as the recorder's span sink).
  void attach_health(obs::HealthMonitor& monitor,
                     double snapshot_interval = 0.0,
                     std::function<void(double)> on_snapshot = {});

  // -- accessors for tests, examples, and benches ---------------------------
  /// The run's dataflow bus: flow::StageEvent lifecycle records
  /// (event=started|completed) on flow::Topic::kStage, plus the download
  /// and granule-readiness topics (flow/events.hpp). Stage counters go to
  /// the obs stage spans, not the bus. Subscribe before run().
  flow::EventBus& events() { return bus_; }
  sim::SimEngine& engine() { return engine_; }
  const EomlConfig& config() const { return config_; }
  /// The compiled built-in paper spec this run executes (DESIGN.md §11):
  /// every construction validates the stage DAG, and the dataflow decisions
  /// below consult its edge modes.
  const spec::StageGraph& plan() const { return graph_; }
  const modis::ArchiveService& archive() const { return laads_; }
  storage::FileSystem& defiant_fs() { return defiant_fs_; }
  storage::FileSystem& orion_fs() { return orion_fs_; }
  const storage::LustreSimFs& defiant_lustre() const { return defiant_fs_; }

 private:
  /// The scheduling switch is a property of the compiled DAG, not of the
  /// config: the download->preprocess edge mode decides whether granules
  /// stream into the farm or wait for the whole-stage barrier.
  bool streaming() const {
    return graph_.edge_mode("download", "preprocess") ==
           spec::EdgeMode::kStreaming;
  }

  void start_download();
  void on_downloads_complete(const transfer::DownloadReport& dr);
  void start_preprocess();
  /// Requests the preprocess allocation (static Slurm job or elastic
  /// blocks); `on_nodes` fires once nodes are granted (static) or the block
  /// provider is running (elastic).
  void request_preprocess_nodes(std::function<void()> on_nodes);
  void submit_preprocess_tasks();
  /// Streaming dataflow edge: one granule.ready -> one preprocess task.
  void on_granule_ready(const flow::ReadyGranule& granule);
  /// Streaming completion: seals the farm once downloads are done and every
  /// whole triplet has been submitted.
  void maybe_seal_preprocess();
  void finish_preprocess();
  void on_preprocess_task_done(const compute::SimTaskResult& result,
                               const modis::GranuleId& id);
  void start_monitor();
  void trigger_flows(const std::vector<storage::FileInfo>& files);
  void register_actions();
  void check_shipment();
  void start_shipment();
  std::vector<std::int32_t> label_tiles(const std::string& path,
                                        std::size_t count);
  void publish_stage_event(const char* stage, const char* event,
                           std::initializer_list<std::pair<const char*, std::string>>
                               fields = {});
  /// Re-arms the read-only health snapshot tick (attach_health).
  void schedule_health_tick();

  EomlConfig config_;
  /// Validated paper spec (built from config_ before any substrate spins
  /// up; construction fails fast on an invalid stage graph).
  spec::StageGraph graph_;
  sim::SimEngine engine_;
  modis::ArchiveService laads_;

  storage::MemFs defiant_raw_;
  storage::LustreSimFs defiant_fs_;
  storage::MemFs orion_raw_;
  storage::LustreSimFs orion_fs_;

  sim::FlowLink wan_;
  sim::FlowLink facility_link_;

  compute::SlurmSim slurm_;
  compute::ClusterExecutor preprocess_exec_;
  compute::ClusterExecutor inference_exec_;
  std::optional<compute::BlockProvider> blocks_;
  transfer::TransferService shipper_;

  flow::ProvenanceLog provenance_;
  flow::EventBus bus_{engine_};
  /// Assembles download.file events into granule.ready events in both
  /// scheduling modes (the event contract is always observable); only the
  /// streaming scheduler acts on them.
  flow::GranuleTracker tracker_{bus_};
  flow::FlowRunner runner_;
  flow::FlowDefinition inference_flow_;
  std::unique_ptr<flow::FsMonitor> monitor_;
  std::unique_ptr<transfer::DownloadService> downloader_;

  std::optional<ml::RiccModel> model_;

  EomlReport report_;
  bool started_ = false;
  bool downloads_done_ = false;
  bool preprocess_done_ = false;
  bool shipping_ = false;
  bool finished_ = false;
  std::size_t preprocess_pending_ = 0;
  /// Paths whose inference flow has already been launched: the append-labels
  /// rewrite bumps the tile file's mtime, and without this set the monitor
  /// would re-trigger a duplicate flow for the same granule.
  std::set<std::string> triggered_paths_;
  compute::SlurmJobId preprocess_job_{};
  double slurm_request_time_ = -1.0;
  double first_tile_time_ = -1.0;
  double first_flow_time_ = -1.0;
  /// Open obs stage spans keyed by stage name (all invalid while the global
  /// TraceRecorder is disabled).
  std::map<std::string, obs::SpanId> stage_spans_;

  // -- live health (attach_health) -------------------------------------------
  obs::HealthMonitor* health_ = nullptr;
  double health_snapshot_interval_ = 0.0;
  std::function<void(double)> health_snapshot_;

  // -- streaming dataflow state ----------------------------------------------
  /// ready_at per granule (fed by granule.ready in both modes; powers the
  /// dwell metrics).
  std::map<flow::GranuleKey, double> granule_ready_at_;
  /// Whole triplets expected from the download report; known once the
  /// terminal report lands.
  std::size_t expected_granules_ = 0;
  std::size_t granules_submitted_ = 0;
  bool preprocess_sealed_ = false;
};

}  // namespace mfw::pipeline
