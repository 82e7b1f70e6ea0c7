// EO-ML workflow configuration.
//
// "To initiate the workflow the user defines configuration in a YAML file" —
// EomlConfig mirrors that file: data selection (satellite, products, time
// span), per-stage resources (download workers, preprocessing nodes x
// workers, inference workers), network/facility parameters, and the
// execution mode (timing-only simulation vs materialized content with real
// tiling + RICC inference).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "compute/block_provider.hpp"
#include "modis/catalog.hpp"
#include "preprocess/tasks.hpp"
#include "spec/spec.hpp"
#include "util/yamlite.hpp"

namespace mfw::pipeline {

/// How stage boundaries are sequenced (see DESIGN.md "Dataflow
/// architecture").
enum class SchedulingMode {
  /// Paper-faithful: preprocessing is delayed until every download lands
  /// (the whole-stage HDF partial-read barrier). Reproduction default.
  kBarrier,
  /// Event-driven: each granule is preprocessed the moment its
  /// MOD02/MOD03/MOD06 triplet is whole (granule.ready), overlapping
  /// Download/Preprocess/Inference and shrinking makespan.
  kStreaming,
};

const char* to_string(SchedulingMode mode);

struct EomlConfig {
  // -- data selection --------------------------------------------------------
  modis::Satellite satellite = modis::Satellite::kTerra;
  std::vector<modis::ProductKind> products = {modis::ProductKind::kMod02,
                                              modis::ProductKind::kMod03,
                                              modis::ProductKind::kMod06};
  modis::DaySpan span{2022, 1, 1};
  /// Cap on MOD02 granules (chronological prefix after filtering).
  std::optional<std::size_t> max_files;
  bool daytime_only = true;
  std::uint64_t seed = 2022;

  // -- stage coupling --------------------------------------------------------
  SchedulingMode scheduling = SchedulingMode::kBarrier;

  // -- download stage --------------------------------------------------------
  int download_workers = 3;
  /// Effective LAADS->facility throughput ceiling (server-side per-user
  /// fairness dominates; see bench/fig3_download.cpp).
  double wan_capacity_bps = 23.5 * 1024 * 1024;
  double per_connection_median_bps = 7.5 * 1024 * 1024;
  double per_connection_sigma = 0.22;

  // -- preprocess stage ------------------------------------------------------
  int preprocess_nodes = 4;
  int workers_per_node = 8;
  /// When true, nodes are managed by the elastic BlockProvider instead of a
  /// single static Slurm allocation.
  bool elastic = false;
  compute::BlockConfig block{};
  preprocess::TilerOptions tiler{};
  preprocess::PreprocessCostModel preprocess_cost{};
  double slurm_latency = 1.5;
  /// Walltime requested for the static preprocess allocation. The default
  /// covers the paper's single-week runs; archive-scale campaigns must raise
  /// it or the allocation expires mid-run.
  double preprocess_walltime = 7 * 24 * 3600.0;

  // -- facility characteristics (defaults: OLCF ACE Defiant) ------------------
  /// Total nodes in the facility's batch partition.
  int facility_total_nodes = 36;
  /// Node contention-law calibration (see DESIGN.md): aggregate rate
  /// saturates at node_r_max tile-equivalents/s with time constant node_tau.
  double node_r_max = 38.5;
  double node_tau = 3.1;

  // -- monitor & trigger -----------------------------------------------------
  double poll_interval = 1.0;
  double flow_action_overhead = 0.05;
  /// Keep per-flow-run provenance records in the final report. Disable for
  /// archive-scale campaigns where the O(runs) record list dominates memory
  /// and only the aggregate report matters.
  bool retain_provenance = true;

  // -- inference stage -------------------------------------------------------
  int inference_workers = 1;
  preprocess::InferenceCostModel inference_cost{};
  /// Encoder implementation for materialized inference (DESIGN.md §13):
  /// "fused" (default; the fp32 plan, bitwise identical to the layer path
  /// with fewer allocations), "layers" (the layer-by-layer fp32 oracle that
  /// training runs), or "int8" (quantized fast path, accuracy-gated in CI).
  std::string encode_path = "fused";
  /// Bounded-memory tile streaming for materialized inference: 0 keeps the
  /// classic whole-granule materialization; > 0 streams encode batches with
  /// at most this many decoded tiles resident at once (must be >=
  /// inference_batch).
  std::size_t inference_tile_budget = 0;
  /// Tiles per streamed encode batch.
  std::size_t inference_batch = 32;

  // -- shipment stage --------------------------------------------------------
  int shipment_streams = 4;
  double facility_link_bps = 1.2 * 1024 * 1024 * 1024;

  // -- content mode ----------------------------------------------------------
  /// Materialize granule bytes and run the real tiler + RICC model (content
  /// geometry below); otherwise timing-only manifests flow through.
  bool materialize = false;
  modis::GranuleGeometry geometry = modis::kSmallGeometry;
  /// Path (on the Defiant filesystem, pre-loaded by the caller) of a saved
  /// RICC model for materialized inference; empty -> pseudo-labels.
  std::string model_path;

  // -- service-level objectives ----------------------------------------------
  /// Top-level `slo:` section, forwarded verbatim into the compiled builtin
  /// spec (pipeline::spec_for_config) and evaluated online by the watch
  /// layer when a HealthMonitor is attached (mfwctl watch, DESIGN.md §12).
  std::vector<spec::SloSpec> slos;

  static EomlConfig from_yaml(const util::YamlNode& root);
  static EomlConfig from_yaml_text(std::string_view text);

  void validate() const;
};

}  // namespace mfw::pipeline
