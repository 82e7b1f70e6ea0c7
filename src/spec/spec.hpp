// Declarative workflow specifications (ROADMAP item 4).
//
// The paper hand-wires one EO-ML pipeline; the declarative-workflow line of
// related work (Dflow; "From Specification to Execution") argues the durable
// artifact is a *spec* compiled onto an execution engine, with scheduling as
// a swappable policy rather than baked-in control flow. mfw::spec is that
// layer: a YAML document (util::yamlite) describing
//
//   stages:    named units of work with per-stage resource claims (nodes x
//              workers, WAN bandwidth, a walltime model) and declared inputs
//   dataflow:  per-edge coupling — barrier (downstream waits for the whole
//              upstream stage) vs streaming (per-item handoff)
//   campaign:  how many concurrent instances of the workflow run, their
//              arrival spacing, items per instance, and a deadline
//
// validated into a typed DAG (StageGraph): duplicate-stage, unknown-input,
// cycle, undeclared-dataflow-edge, and claim-vs-facility-capacity checks,
// each anchored to the offending YAML line. The compiled graph then runs on
// the existing sim/compute/flow substrate (spec::CampaignLab, and the paper
// pipeline itself via pipeline::spec_for_config).
#pragma once

#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/watch.hpp"
#include "util/yamlite.hpp"

namespace mfw::spec {

/// Validation error anchored to the YAML source line of the offending
/// element ("spec:<line>: ..."); line 0 (programmatically built specs)
/// drops the anchor ("spec: ...").
class SpecError : public std::runtime_error {
 public:
  SpecError(std::size_t line, const std::string& what)
      : std::runtime_error(line > 0
                               ? "spec:" + std::to_string(line) + ": " + what
                               : "spec: " + what),
        line_(line) {}
  std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

/// Per-edge coupling, mirroring pipeline::SchedulingMode at spec level.
enum class EdgeMode { kBarrier, kStreaming };

const char* to_string(EdgeMode mode);

/// What a stage asks of the facility. The walltime model is linear:
/// processing one item costs cpu_seconds_per_item exclusive CPU plus
/// shared_demand_per_item on the node's contended substrate; transfer
/// stages move bytes_per_item over the WAN instead.
struct ResourceClaim {
  int nodes = 1;
  int workers_per_node = 1;
  /// WAN bandwidth this stage claims while active (bytes/s; 0 = no claim).
  double wan_bps = 0.0;
  double cpu_seconds_per_item = 0.0;
  double shared_demand_per_item = 0.0;
  double bytes_per_item = 0.0;
  std::size_t line = 0;  // YAML anchor for capacity errors
};

struct StageSpec {
  std::string name;
  /// "compute" (task farm) or "transfer" (WAN flow per item).
  std::string kind = "compute";
  /// Upstream stages whose output this stage consumes: the DAG edges.
  std::vector<std::string> inputs;
  ResourceClaim claim;
  std::size_t line = 0;
};

struct EdgeSpec {
  std::string from;
  std::string to;
  EdgeMode mode = EdgeMode::kBarrier;
  std::size_t line = 0;
};

/// One entry of the spec's `slo:` list — a declared service-level objective
/// the watch layer (obs::HealthMonitor, DESIGN.md §12) evaluates online.
/// Metric names use the obs::SloMetric vocabulary: p99_latency,
/// queue_wait_p99, deadline_miss_rate, utilization_floor, wan_retry_budget.
struct SloSpec {
  std::string name;
  /// Stage the objective watches; empty (and required so) for the
  /// workflow-wide deadline_miss_rate metric.
  std::string stage;
  std::string metric = "p99_latency";
  double threshold = 0.0;
  /// Evaluation window in seconds.
  double window_s = 60.0;
  std::size_t line = 0;
};

struct CampaignSpec {
  /// Concurrent workflow instances competing for the facility.
  int count = 1;
  /// Inter-arrival spacing between instance starts (seconds).
  double arrival_spacing = 0.0;
  /// Work items (granules) per instance.
  int items = 40;
  /// Per-instance completion deadline relative to its arrival (seconds);
  /// infinity = none. Feeds deadline-aware scheduling.
  double deadline = std::numeric_limits<double>::infinity();
  std::size_t line = 0;
};

struct WorkflowSpec {
  std::string name = "workflow";
  std::vector<StageSpec> stages;
  /// Per-edge mode overrides; edges not listed default to barrier.
  std::vector<EdgeSpec> dataflow;
  CampaignSpec campaign;
  /// Declared service-level objectives (may be empty).
  std::vector<SloSpec> slo;

  /// Parses the YAML shape documented in DESIGN.md §11. Structural errors
  /// throw SpecError anchored at the offending line; semantic validation
  /// happens in StageGraph::compile.
  static WorkflowSpec from_yaml(const util::YamlNode& root);
  static WorkflowSpec from_yaml_text(std::string_view text);
};

/// Parses a `slo:` list node (shared by WorkflowSpec::from_yaml and the
/// pipeline config's top-level `slo:` section). Metric names and windows are
/// checked here, anchored at the offending line; stage references are
/// resolved later by StageGraph::compile.
std::vector<SloSpec> parse_slo_list(const util::YamlNode& node);

/// Converts validated SLO specs into the watch layer's rule type.
std::vector<obs::SloRule> health_rules(const WorkflowSpec& spec);

/// One facility, described once (paper §V-A): StageGraph::compile checks
/// claims against it, the lab runs its executors under its contention law,
/// and pipeline::apply writes it onto a workflow configuration. A default
/// Facility is the OLCF ACE Defiant partition the paper measured.
struct Facility {
  std::string name = "olcf_defiant";
  /// Batch-partition size available to the workflow.
  int total_nodes = 36;
  /// Widest per-node worker claim the partition admits.
  int max_workers_per_node = 64;
  /// Scheduler grant latency in seconds (Slurm, PBS, ...).
  double scheduler_latency = 1.5;
  /// Node contention law: aggregate rate saturates at node_r_max
  /// tile-equivalents/s with time constant node_tau.
  double node_r_max = 38.5;
  double node_tau = 3.1;
  /// Archive -> facility WAN throughput (bytes/s).
  double wan_bps = 23.5 * 1024 * 1024;
  /// Facility -> analysis-site (Frontier/Orion) link (bytes/s).
  double analysis_link_bps = 1.2 * 1024 * 1024 * 1024;

  bool operator==(const Facility&) const = default;
};

/// The built-in facilities for the three DOE IRI sites the paper names.
/// Defiant is the measured system: a default Facility named "OLCF-Defiant".
const Facility& olcf_defiant();
/// Bigger partition, slower per-node saturation, faster WAN (ESnet-adjacent).
const Facility& nersc_perlmutter_like();
/// PBS-like slower scheduling, fewer nodes, higher per-node ceiling.
const Facility& alcf_polaris_like();

/// A validated, topologically ordered workflow DAG.
class StageGraph {
 public:
  /// Validates `spec` against `facility` and builds the DAG. Throws SpecError
  /// (line-anchored) on: duplicate stage name, unknown input stage, cycle,
  /// dataflow edge not matching a declared input, claim exceeding facility
  /// capacity.
  static StageGraph compile(const WorkflowSpec& spec,
                            const Facility& facility);

  const WorkflowSpec& spec() const { return spec_; }
  const Facility& facility() const { return facility_; }

  /// Stage names in topological (dependency-respecting) order; stable with
  /// respect to declaration order among independent stages.
  const std::vector<std::string>& topo_order() const { return topo_; }

  const StageSpec& stage(std::string_view name) const;

  /// Mode of the edge from -> to (declared input). Defaults to barrier when
  /// no dataflow override names the edge; throws SpecError if the edge does
  /// not exist.
  EdgeMode edge_mode(std::string_view from, std::string_view to) const;

  /// Stages that consume `name`'s output, in declaration order.
  std::vector<std::string> downstream(std::string_view name) const;

  /// Human-readable compiled plan (stages in topo order, edges with modes,
  /// claims, campaign) for `mfwctl plan`.
  std::string describe() const;

 private:
  WorkflowSpec spec_;
  Facility facility_;
  std::vector<std::string> topo_;
};

}  // namespace mfw::spec
