#include "spec/spec.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

namespace mfw::spec {

namespace {

/// Rejects keys outside `allowed`, anchored at the stray key's value line.
void check_keys(const util::YamlNode& node,
                const std::vector<std::string_view>& allowed,
                const std::string& context) {
  if (!node.is_map()) return;
  for (const auto& key : node.keys()) {
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end()) {
      throw SpecError(node[key].line(),
                      context + ": unknown key '" + key + "'");
    }
  }
}

EdgeMode parse_edge_mode(const util::YamlNode& node) {
  const auto& name = node.as_string();
  if (name == "barrier") return EdgeMode::kBarrier;
  if (name == "streaming") return EdgeMode::kStreaming;
  throw SpecError(node.line(), "unknown dataflow mode '" + name +
                                   "' (expected barrier or streaming)");
}

ResourceClaim parse_claim(const util::YamlNode& node,
                          const std::string& stage_name,
                          std::size_t stage_line) {
  ResourceClaim claim;
  claim.line = node.is_null() ? stage_line : node.line();
  if (node.is_null()) return claim;
  check_keys(node,
             {"nodes", "workers_per_node", "wan", "cpu_per_item",
              "demand_per_item", "bytes_per_item"},
             "stage '" + stage_name + "' claim");
  claim.nodes = static_cast<int>(node["nodes"].as_int_or(claim.nodes));
  claim.workers_per_node = static_cast<int>(
      node["workers_per_node"].as_int_or(claim.workers_per_node));
  if (node.has("wan"))
    claim.wan_bps = static_cast<double>(node["wan"].as_bytes());
  claim.cpu_seconds_per_item =
      node["cpu_per_item"].as_double_or(claim.cpu_seconds_per_item);
  claim.shared_demand_per_item =
      node["demand_per_item"].as_double_or(claim.shared_demand_per_item);
  if (node.has("bytes_per_item"))
    claim.bytes_per_item =
        static_cast<double>(node["bytes_per_item"].as_bytes());
  if (claim.nodes < 1 || claim.workers_per_node < 1)
    throw SpecError(claim.line, "stage '" + stage_name +
                                    "' claim: nodes and workers_per_node "
                                    "must be >= 1");
  return claim;
}

StageSpec parse_stage(const util::YamlNode& node) {
  if (!node.is_map())
    throw SpecError(node.line(), "each stage must be a map");
  check_keys(node, {"name", "kind", "inputs", "claim"}, "stage");
  StageSpec stage;
  stage.line = node.line();
  if (!node.has("name"))
    throw SpecError(node.line(), "stage is missing 'name'");
  stage.name = node["name"].as_string();
  stage.kind = node["kind"].as_string_or(stage.kind);
  if (stage.kind != "compute" && stage.kind != "transfer")
    throw SpecError(node["kind"].line(),
                    "stage '" + stage.name + "': unknown kind '" +
                        stage.kind + "' (expected compute or transfer)");
  if (node.has("inputs")) {
    for (const auto& input : node["inputs"].items())
      stage.inputs.push_back(input.as_string());
  }
  stage.claim = parse_claim(node["claim"], stage.name, stage.line);
  return stage;
}

}  // namespace

std::vector<SloSpec> parse_slo_list(const util::YamlNode& node) {
  std::vector<SloSpec> rules;
  if (node.is_null()) return rules;
  if (!node.is_list())
    throw SpecError(node.line(), "'slo' must be a list of objectives");
  for (const auto& entry : node.items()) {
    if (!entry.is_map())
      throw SpecError(entry.line(), "each slo entry must be a map");
    check_keys(entry, {"name", "stage", "metric", "threshold", "window"},
               "slo entry");
    SloSpec rule;
    rule.line = entry.line();
    if (!entry.has("name"))
      throw SpecError(entry.line(), "slo entry is missing 'name'");
    rule.name = entry["name"].as_string();
    rule.stage = entry["stage"].as_string_or(rule.stage);
    rule.metric = entry["metric"].as_string_or(rule.metric);
    obs::SloMetric metric;
    if (!obs::slo_metric_from_string(rule.metric, metric))
      throw SpecError(
          entry.has("metric") ? entry["metric"].line() : entry.line(),
          "slo '" + rule.name + "': unknown metric '" + rule.metric +
              "' (expected p99_latency, queue_wait_p99, deadline_miss_rate, "
              "utilization_floor, or wan_retry_budget)");
    if (!entry.has("threshold"))
      throw SpecError(entry.line(),
                      "slo '" + rule.name + "' is missing 'threshold'");
    rule.threshold = entry["threshold"].as_double();
    rule.window_s = entry["window"].as_double_or(rule.window_s);
    if (rule.window_s <= 0.0)
      throw SpecError(entry["window"].line(),
                      "slo '" + rule.name + "': window must be > 0");
    rules.push_back(std::move(rule));
  }
  return rules;
}

std::vector<obs::SloRule> health_rules(const WorkflowSpec& spec) {
  std::vector<obs::SloRule> rules;
  rules.reserve(spec.slo.size());
  for (const auto& entry : spec.slo) {
    obs::SloRule rule;
    rule.name = entry.name;
    rule.stage = entry.stage;
    obs::slo_metric_from_string(entry.metric, rule.metric);
    rule.threshold = entry.threshold;
    rule.window_s = entry.window_s;
    rules.push_back(std::move(rule));
  }
  return rules;
}

const char* to_string(EdgeMode mode) {
  return mode == EdgeMode::kStreaming ? "streaming" : "barrier";
}

WorkflowSpec WorkflowSpec::from_yaml(const util::YamlNode& root) {
  if (!root.is_map())
    throw SpecError(root.line(), "spec document must be a map");
  check_keys(root, {"name", "stages", "dataflow", "campaign", "slo"}, "spec");
  WorkflowSpec spec;
  spec.name = root["name"].as_string_or(spec.name);

  const auto& stages = root["stages"];
  if (!stages.is_list())
    throw SpecError(root.line(), "spec needs a 'stages' list");
  for (const auto& entry : stages.items())
    spec.stages.push_back(parse_stage(entry));

  const auto& dataflow = root["dataflow"];
  if (dataflow.is_list()) {
    for (const auto& entry : dataflow.items()) {
      if (!entry.is_map())
        throw SpecError(entry.line(), "each dataflow entry must be a map");
      check_keys(entry, {"from", "to", "mode"}, "dataflow edge");
      EdgeSpec edge;
      edge.line = entry.line();
      if (!entry.has("from") || !entry.has("to"))
        throw SpecError(entry.line(), "dataflow edge needs 'from' and 'to'");
      edge.from = entry["from"].as_string();
      edge.to = entry["to"].as_string();
      if (entry.has("mode")) edge.mode = parse_edge_mode(entry["mode"]);
      spec.dataflow.push_back(std::move(edge));
    }
  } else if (!dataflow.is_null()) {
    throw SpecError(dataflow.line(), "'dataflow' must be a list of edges");
  }

  const auto& campaign = root["campaign"];
  if (campaign.is_map()) {
    check_keys(campaign, {"count", "spacing", "items", "deadline"},
               "campaign");
    spec.campaign.line = campaign.line();
    spec.campaign.count =
        static_cast<int>(campaign["count"].as_int_or(spec.campaign.count));
    spec.campaign.arrival_spacing =
        campaign["spacing"].as_double_or(spec.campaign.arrival_spacing);
    spec.campaign.items =
        static_cast<int>(campaign["items"].as_int_or(spec.campaign.items));
    spec.campaign.deadline =
        campaign["deadline"].as_double_or(spec.campaign.deadline);
    if (spec.campaign.count < 1 || spec.campaign.items < 1)
      throw SpecError(spec.campaign.line,
                      "campaign: count and items must be >= 1");
  } else if (!campaign.is_null()) {
    throw SpecError(campaign.line(), "'campaign' must be a map");
  }

  spec.slo = parse_slo_list(root["slo"]);
  return spec;
}

WorkflowSpec WorkflowSpec::from_yaml_text(std::string_view text) {
  return from_yaml(util::parse_yaml(text));
}

const Facility& olcf_defiant() {
  static const Facility facility{.name = "OLCF-Defiant"};
  return facility;
}

const Facility& nersc_perlmutter_like() {
  static const Facility facility{.name = "NERSC-Perlmutter-like",
                                 .total_nodes = 64,
                                 .scheduler_latency = 2.5,
                                 .node_r_max = 34.0,
                                 .node_tau = 3.6,
                                 .wan_bps = 40.0 * 1024 * 1024,
                                 .analysis_link_bps = 0.8 * 1024 * 1024 * 1024};
  return facility;
}

const Facility& alcf_polaris_like() {
  static const Facility facility{.name = "ALCF-Polaris-like",
                                 .total_nodes = 24,
                                 .scheduler_latency = 4.0,
                                 .node_r_max = 44.0,
                                 .node_tau = 2.8,
                                 .wan_bps = 30.0 * 1024 * 1024,
                                 .analysis_link_bps = 0.6 * 1024 * 1024 * 1024};
  return facility;
}

StageGraph StageGraph::compile(const WorkflowSpec& spec,
                               const Facility& facility) {
  if (spec.stages.empty())
    throw SpecError(0, "workflow '" + spec.name + "' has no stages");

  // Duplicate-name check; remember declaration lines for later anchors.
  std::map<std::string, const StageSpec*, std::less<>> by_name;
  for (const auto& stage : spec.stages) {
    const auto [it, inserted] = by_name.emplace(stage.name, &stage);
    if (!inserted) {
      throw SpecError(stage.line, "duplicate stage name '" + stage.name +
                                      "' (first declared at line " +
                                      std::to_string(it->second->line) + ")");
    }
  }

  // Undeclared-input check: every declared input must name a stage.
  for (const auto& stage : spec.stages) {
    for (const auto& input : stage.inputs) {
      if (by_name.find(input) == by_name.end())
        throw SpecError(stage.line, "stage '" + stage.name +
                                        "' reads from undeclared input '" +
                                        input + "'");
      if (input == stage.name)
        throw SpecError(stage.line,
                        "stage '" + stage.name + "' lists itself as input");
    }
  }

  // Dataflow overrides must match a declared input edge.
  for (const auto& edge : spec.dataflow) {
    const auto it = by_name.find(edge.to);
    if (by_name.find(edge.from) == by_name.end() || it == by_name.end())
      throw SpecError(edge.line, "dataflow edge '" + edge.from + " -> " +
                                     edge.to + "' names an unknown stage");
    const auto& inputs = it->second->inputs;
    if (std::find(inputs.begin(), inputs.end(), edge.from) == inputs.end())
      throw SpecError(edge.line, "dataflow edge '" + edge.from + " -> " +
                                     edge.to + "': stage '" + edge.to +
                                     "' does not declare input '" +
                                     edge.from + "'");
  }

  // Claim-vs-capacity check.
  for (const auto& stage : spec.stages) {
    const auto& claim = stage.claim;
    if (claim.nodes > facility.total_nodes)
      throw SpecError(claim.line,
                      "stage '" + stage.name + "' claims " +
                          std::to_string(claim.nodes) + " nodes but facility '" +
                          facility.name + "' has " +
                          std::to_string(facility.total_nodes));
    if (claim.workers_per_node > facility.max_workers_per_node)
      throw SpecError(claim.line,
                      "stage '" + stage.name + "' claims " +
                          std::to_string(claim.workers_per_node) +
                          " workers/node but facility '" + facility.name +
                          "' allows " +
                          std::to_string(facility.max_workers_per_node));
    if (claim.wan_bps > facility.wan_bps)
      throw SpecError(claim.line,
                      "stage '" + stage.name + "' claims " +
                          std::to_string(claim.wan_bps) +
                          " B/s WAN but facility '" + facility.name +
                          "' has " + std::to_string(facility.wan_bps) +
                          " B/s");
  }

  // SLO validation: unique names, resolvable stage references, thresholds
  // that make sense for the metric. Metric spelling was already checked by
  // parse_slo_list; programmatically-built specs get the same checks here.
  std::set<std::string, std::less<>> slo_names;
  for (const auto& rule : spec.slo) {
    if (!slo_names.insert(rule.name).second)
      throw SpecError(rule.line, "duplicate slo name '" + rule.name + "'");
    obs::SloMetric metric;
    if (!obs::slo_metric_from_string(rule.metric, metric))
      throw SpecError(rule.line, "slo '" + rule.name + "': unknown metric '" +
                                     rule.metric + "'");
    if (rule.window_s <= 0.0)
      throw SpecError(rule.line,
                      "slo '" + rule.name + "': window must be > 0");
    if (metric == obs::SloMetric::kDeadlineMissRate) {
      if (!rule.stage.empty())
        throw SpecError(rule.line,
                        "slo '" + rule.name +
                            "': deadline_miss_rate is workflow-wide; drop "
                            "'stage'");
      if (rule.threshold < 0.0 || rule.threshold >= 1.0)
        throw SpecError(rule.line, "slo '" + rule.name +
                                       "': deadline_miss_rate threshold must "
                                       "be in [0, 1)");
    } else {
      if (rule.stage.empty())
        throw SpecError(rule.line, "slo '" + rule.name + "': metric '" +
                                       rule.metric + "' needs a 'stage'");
      if (by_name.find(rule.stage) == by_name.end())
        throw SpecError(rule.line, "slo '" + rule.name +
                                       "' watches undeclared stage '" +
                                       rule.stage + "'");
      if (metric == obs::SloMetric::kUtilizationFloor) {
        if (rule.threshold <= 0.0 || rule.threshold > 1.0)
          throw SpecError(rule.line, "slo '" + rule.name +
                                         "': utilization_floor threshold "
                                         "must be in (0, 1]");
      } else if (rule.threshold < 0.0) {
        throw SpecError(rule.line, "slo '" + rule.name +
                                       "': threshold must be >= 0");
      }
    }
  }

  // Kahn topological sort, stable in declaration order; leftovers = cycle.
  StageGraph graph;
  graph.spec_ = spec;
  graph.facility_ = facility;
  std::map<std::string, int, std::less<>> pending_inputs;
  for (const auto& stage : spec.stages)
    pending_inputs[stage.name] = static_cast<int>(stage.inputs.size());
  std::set<std::string, std::less<>> done;
  while (graph.topo_.size() < spec.stages.size()) {
    bool advanced = false;
    for (const auto& stage : spec.stages) {
      if (done.count(stage.name) || pending_inputs[stage.name] != 0) continue;
      graph.topo_.push_back(stage.name);
      done.insert(stage.name);
      advanced = true;
      for (const auto& other : spec.stages) {
        if (std::find(other.inputs.begin(), other.inputs.end(), stage.name) !=
            other.inputs.end())
          --pending_inputs[other.name];
      }
    }
    if (!advanced) {
      // Anchor the cycle report at the first (declaration order) stage that
      // never became ready.
      for (const auto& stage : spec.stages) {
        if (!done.count(stage.name))
          throw SpecError(stage.line, "dependency cycle involving stage '" +
                                          stage.name + "'");
      }
    }
  }
  return graph;
}

const StageSpec& StageGraph::stage(std::string_view name) const {
  for (const auto& stage : spec_.stages)
    if (stage.name == name) return stage;
  throw SpecError(0, "unknown stage '" + std::string(name) + "'");
}

EdgeMode StageGraph::edge_mode(std::string_view from,
                               std::string_view to) const {
  const auto& inputs = stage(to).inputs;
  if (std::find(inputs.begin(), inputs.end(), from) == inputs.end())
    throw SpecError(0, "no edge '" + std::string(from) + " -> " +
                           std::string(to) + "'");
  for (const auto& edge : spec_.dataflow) {
    if (edge.from == from && edge.to == to) return edge.mode;
  }
  return EdgeMode::kBarrier;
}

std::vector<std::string> StageGraph::downstream(std::string_view name) const {
  std::vector<std::string> out;
  for (const auto& stage : spec_.stages) {
    if (std::find(stage.inputs.begin(), stage.inputs.end(), name) !=
        stage.inputs.end())
      out.push_back(stage.name);
  }
  return out;
}

std::string StageGraph::describe() const {
  std::ostringstream os;
  os << "workflow '" << spec_.name << "' on facility '" << facility_.name
     << "' (" << facility_.total_nodes << " nodes, " << facility_.wan_bps
     << " B/s WAN)\n";
  const auto& c = spec_.campaign;
  os << "campaign: " << c.count << " instance(s) x " << c.items
     << " item(s), spacing " << c.arrival_spacing << "s";
  if (c.deadline != std::numeric_limits<double>::infinity())
    os << ", deadline " << c.deadline << "s";
  os << "\nstages (topological order):\n";
  for (const auto& name : topo_) {
    const auto& st = stage(name);
    os << "  " << st.name << " [" << st.kind << "] claim{nodes=" << st.claim.nodes
       << " workers/node=" << st.claim.workers_per_node;
    if (st.claim.wan_bps > 0) os << " wan=" << st.claim.wan_bps << "B/s";
    if (st.claim.cpu_seconds_per_item > 0)
      os << " cpu/item=" << st.claim.cpu_seconds_per_item << "s";
    if (st.claim.shared_demand_per_item > 0)
      os << " demand/item=" << st.claim.shared_demand_per_item;
    if (st.claim.bytes_per_item > 0)
      os << " bytes/item=" << st.claim.bytes_per_item;
    os << "}\n";
  }
  os << "edges:\n";
  bool any = false;
  for (const auto& name : topo_) {
    for (const auto& to : downstream(name)) {
      os << "  " << name << " -> " << to << " ["
         << to_string(edge_mode(name, to)) << "]\n";
      any = true;
    }
  }
  if (!any) os << "  (none)\n";
  if (!spec_.slo.empty()) {
    os << "slo:\n";
    for (const auto& rule : spec_.slo) {
      os << "  " << rule.name << ": "
         << (rule.stage.empty() ? "workflow" : rule.stage) << " "
         << rule.metric << " "
         << (rule.metric == "utilization_floor" ? ">= " : "<= ")
         << rule.threshold << " over " << rule.window_s << "s windows\n";
    }
  }
  return os.str();
}

}  // namespace mfw::spec
