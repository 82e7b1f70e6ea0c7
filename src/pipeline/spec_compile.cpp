#include "pipeline/spec_compile.hpp"

namespace mfw::pipeline {

namespace {

// Mean MOD02 granule footprint used for the WAN walltime model; the actual
// run sizes granules from the catalog, this only parameterizes the spec's
// transfer claim.
constexpr double kMeanGranuleBytes = 178.0 * 1024 * 1024;

}  // namespace

spec::WorkflowSpec spec_for_config(const EomlConfig& config) {
  spec::WorkflowSpec spec;
  spec.name = "eoml_paper";

  spec::StageSpec download;
  download.name = "download";
  download.kind = "transfer";
  download.claim.nodes = 1;
  download.claim.workers_per_node = config.download_workers;
  download.claim.wan_bps = config.wan_capacity_bps;
  download.claim.bytes_per_item = kMeanGranuleBytes;
  spec.stages.push_back(std::move(download));

  spec::StageSpec preprocess;
  preprocess.name = "preprocess";
  preprocess.inputs = {"download"};
  preprocess.claim.nodes = config.preprocess_nodes;
  preprocess.claim.workers_per_node = config.workers_per_node;
  preprocess.claim.cpu_seconds_per_item = config.preprocess_cost.cpu_seconds;
  preprocess.claim.shared_demand_per_item =
      config.preprocess_cost.demand_per_tile;
  spec.stages.push_back(std::move(preprocess));

  spec::StageSpec monitor;
  monitor.name = "monitor";
  monitor.inputs = {"preprocess"};
  monitor.claim.nodes = 1;
  monitor.claim.workers_per_node = 1;
  spec.stages.push_back(std::move(monitor));

  spec::StageSpec inference;
  inference.name = "inference";
  inference.inputs = {"monitor"};
  inference.claim.nodes = 1;
  inference.claim.workers_per_node = config.inference_workers;
  inference.claim.cpu_seconds_per_item = config.inference_cost.cpu_seconds;
  inference.claim.shared_demand_per_item =
      config.inference_cost.demand_per_tile;
  spec.stages.push_back(std::move(inference));

  spec::StageSpec shipment;
  shipment.name = "shipment";
  shipment.kind = "transfer";
  shipment.inputs = {"inference"};
  shipment.claim.nodes = 1;
  shipment.claim.workers_per_node = config.shipment_streams;
  spec.stages.push_back(std::move(shipment));

  // Edge modes. The download->preprocess edge is the paper's scheduling
  // switch; the monitor/inference hops are event-driven in both modes (the
  // FsMonitor triggers per batch); shipment waits for the whole labeled set.
  spec.dataflow = {
      {"download", "preprocess",
       config.scheduling == SchedulingMode::kStreaming
           ? spec::EdgeMode::kStreaming
           : spec::EdgeMode::kBarrier,
       0},
      {"preprocess", "monitor", spec::EdgeMode::kStreaming, 0},
      {"monitor", "inference", spec::EdgeMode::kStreaming, 0},
      {"inference", "shipment", spec::EdgeMode::kBarrier, 0},
  };

  spec.campaign.count = 1;
  spec.campaign.items = config.max_files
                            ? static_cast<int>(*config.max_files)
                            : spec.campaign.items;

  // Config-declared SLOs ride along so StageGraph::compile validates their
  // stage references against the builtin stages with the config's own line
  // anchors, and the watch layer can pick them up from the compiled plan.
  spec.slo = config.slos;
  return spec;
}

spec::StageGraph compile_config(const EomlConfig& config) {
  return spec::StageGraph::compile(spec_for_config(config),
                                   facility_of(config));
}

}  // namespace mfw::pipeline
