#include "pipeline/config.hpp"

#include <algorithm>
#include <initializer_list>
#include <limits>
#include <stdexcept>
#include <string_view>

namespace mfw::pipeline {

namespace {

modis::Satellite parse_satellite(const std::string& name) {
  if (name == "Terra" || name == "terra") return modis::Satellite::kTerra;
  if (name == "Aqua" || name == "aqua") return modis::Satellite::kAqua;
  throw util::YamlError("unknown satellite: " + name);
}

std::vector<modis::ProductKind> parse_products(const util::YamlNode& node) {
  std::vector<modis::ProductKind> out;
  for (const auto& item : node.items()) {
    const auto& name = item.as_string();
    if (name == "MOD02" || name == "MOD021KM" || name == "MYD021KM") {
      out.push_back(modis::ProductKind::kMod02);
    } else if (name == "MOD03" || name == "MYD03") {
      out.push_back(modis::ProductKind::kMod03);
    } else if (name == "MOD06" || name == "MOD06_L2" || name == "MYD06_L2") {
      out.push_back(modis::ProductKind::kMod06);
    } else {
      throw util::YamlError("unknown product: " + name);
    }
  }
  return out;
}

SchedulingMode parse_scheduling(const std::string& name) {
  if (name == "barrier") return SchedulingMode::kBarrier;
  if (name == "streaming") return SchedulingMode::kStreaming;
  throw util::YamlError("unknown scheduling mode: " + name);
}

std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t next = std::min(
          {row[j] + 1, row[j - 1] + 1, diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = row[j];
      row[j] = next;
    }
  }
  return row[b.size()];
}

/// Typos used to silently fall back to defaults ("downlaod:" configured
/// nothing, "encode_pth:" ran fused, "download: 3" configured nothing);
/// reject a `node` that is present but not a map, and a key of it outside
/// `valid`, the keys its parser reads, suggesting the closest one. `section`
/// names the map, or is empty at the top level. True when `node` is a map.
bool reject_unknown_keys(const util::YamlNode& node,
                         std::initializer_list<std::string_view> valid,
                         std::string_view section) {
  if (node.is_null()) return false;
  if (!node.is_map())
    throw util::YamlError(section.empty()
                              ? std::string("config: the document is not a map")
                              : "config: '" + std::string(section) +
                                    "' is not a map");
  for (const auto& key : node.keys()) {
    if (std::find(valid.begin(), valid.end(), key) != valid.end()) continue;
    std::string_view nearest = *valid.begin();
    std::size_t best = std::numeric_limits<std::size_t>::max();
    for (const auto candidate : valid) {
      const auto d = edit_distance(key, candidate);
      if (d < best) {
        best = d;
        nearest = candidate;
      }
    }
    const std::string where =
        section.empty() ? "top-level key '" + key + "'"
                        : "key '" + key + "' in '" + std::string(section) + "'";
    throw util::YamlError("config: unknown " + where + " (did you mean '" +
                          std::string(nearest) + "'?)");
  }
  return true;
}

}  // namespace

const char* to_string(SchedulingMode mode) {
  return mode == SchedulingMode::kStreaming ? "streaming" : "barrier";
}

EomlConfig EomlConfig::from_yaml(const util::YamlNode& root) {
  reject_unknown_keys(root,
                      {"workflow", "download", "preprocess", "monitor",
                       "inference", "shipment", "facility", "content", "slo"},
                      "");
  EomlConfig config;
  const auto& wf = root["workflow"];
  if (reject_unknown_keys(wf,
                          {"satellite", "products", "span", "max_files",
                           "daytime_only", "seed", "scheduling"},
                          "workflow")) {
    if (wf.has("satellite"))
      config.satellite = parse_satellite(wf["satellite"].as_string());
    if (wf.has("products")) config.products = parse_products(wf["products"]);
    if (wf.has("span")) {
      const auto& span = wf["span"];
      reject_unknown_keys(span, {"year", "first_day", "last_day"},
                          "workflow.span");
      config.span.year = static_cast<int>(span["year"].as_int_or(2022));
      config.span.first_day = static_cast<int>(span["first_day"].as_int_or(1));
      config.span.last_day = static_cast<int>(
          span["last_day"].as_int_or(config.span.first_day));
    }
    if (wf.has("max_files"))
      config.max_files = static_cast<std::size_t>(wf["max_files"].as_int());
    config.daytime_only = wf["daytime_only"].as_bool_or(config.daytime_only);
    config.seed = static_cast<std::uint64_t>(
        wf["seed"].as_int_or(static_cast<std::int64_t>(config.seed)));
    if (wf.has("scheduling"))
      config.scheduling = parse_scheduling(wf["scheduling"].as_string());
  }

  const auto& dl = root["download"];
  if (reject_unknown_keys(dl, {"workers", "wan_capacity", "connection_speed"},
                          "download")) {
    config.download_workers =
        static_cast<int>(dl["workers"].as_int_or(config.download_workers));
    if (dl.has("wan_capacity"))
      config.wan_capacity_bps =
          static_cast<double>(dl["wan_capacity"].as_bytes());
    if (dl.has("connection_speed"))
      config.per_connection_median_bps =
          static_cast<double>(dl["connection_speed"].as_bytes());
  }

  const auto& pp = root["preprocess"];
  if (reject_unknown_keys(pp,
                          {"nodes", "workers_per_node", "elastic", "block",
                           "tile_size", "channels", "min_cloud_fraction",
                           "slurm_latency", "walltime", "cost_scale"},
                          "preprocess")) {
    config.preprocess_nodes =
        static_cast<int>(pp["nodes"].as_int_or(config.preprocess_nodes));
    config.workers_per_node = static_cast<int>(
        pp["workers_per_node"].as_int_or(config.workers_per_node));
    config.elastic = pp["elastic"].as_bool_or(config.elastic);
    if (pp.has("block")) {
      const auto& block = pp["block"];
      reject_unknown_keys(block,
                          {"nodes_per_block", "workers_per_node", "init_blocks",
                           "min_blocks", "max_blocks", "idle_timeout"},
                          "preprocess.block");
      config.block.nodes_per_block = static_cast<int>(
          block["nodes_per_block"].as_int_or(config.block.nodes_per_block));
      config.block.workers_per_node = static_cast<int>(
          block["workers_per_node"].as_int_or(config.workers_per_node));
      config.block.init_blocks = static_cast<int>(
          block["init_blocks"].as_int_or(config.block.init_blocks));
      config.block.min_blocks = static_cast<int>(
          block["min_blocks"].as_int_or(config.block.min_blocks));
      config.block.max_blocks = static_cast<int>(
          block["max_blocks"].as_int_or(config.block.max_blocks));
      config.block.idle_timeout =
          block["idle_timeout"].as_double_or(config.block.idle_timeout);
    }
    config.tiler.tile_size =
        static_cast<int>(pp["tile_size"].as_int_or(config.tiler.tile_size));
    config.tiler.channels =
        static_cast<int>(pp["channels"].as_int_or(config.tiler.channels));
    config.tiler.min_cloud_fraction = pp["min_cloud_fraction"].as_double_or(
        config.tiler.min_cloud_fraction);
    config.slurm_latency = pp["slurm_latency"].as_double_or(config.slurm_latency);
    config.preprocess_walltime =
        pp["walltime"].as_double_or(config.preprocess_walltime);
    // Uniform scaling of the calibrated cost model. Primarily a fault/
    // regression-injection knob: CI's diff smoke gate slows preprocess 2x
    // and requires `mfwctl diff` to attribute the makespan delta to it.
    const double cost_scale = pp["cost_scale"].as_double_or(1.0);
    if (!(cost_scale > 0.0))
      throw util::YamlError("config: preprocess cost_scale must be > 0");
    config.preprocess_cost.cpu_seconds *= cost_scale;
    config.preprocess_cost.demand_per_tile *= cost_scale;
    config.preprocess_cost.min_demand *= cost_scale;
  }

  const auto& mon = root["monitor"];
  if (reject_unknown_keys(
          mon, {"poll_interval", "action_overhead", "retain_provenance"},
          "monitor")) {
    config.poll_interval =
        mon["poll_interval"].as_double_or(config.poll_interval);
    config.flow_action_overhead =
        mon["action_overhead"].as_double_or(config.flow_action_overhead);
    config.retain_provenance =
        mon["retain_provenance"].as_bool_or(config.retain_provenance);
  }

  const auto& inf = root["inference"];
  if (reject_unknown_keys(inf,
                          {"workers", "model", "encode_path", "cost_scale"},
                          "inference")) {
    config.inference_workers =
        static_cast<int>(inf["workers"].as_int_or(config.inference_workers));
    config.model_path = inf["model"].as_string_or(config.model_path);
    config.encode_path = inf["encode_path"].as_string_or(config.encode_path);
    const double cost_scale = inf["cost_scale"].as_double_or(1.0);
    if (!(cost_scale > 0.0))
      throw util::YamlError("config: inference cost_scale must be > 0");
    config.inference_cost.cpu_seconds *= cost_scale;
    config.inference_cost.demand_per_tile *= cost_scale;
  }

  const auto& ship = root["shipment"];
  if (reject_unknown_keys(ship, {"streams", "link_capacity"}, "shipment")) {
    config.shipment_streams =
        static_cast<int>(ship["streams"].as_int_or(config.shipment_streams));
    if (ship.has("link_capacity"))
      config.facility_link_bps =
          static_cast<double>(ship["link_capacity"].as_bytes());
  }

  const auto& facility = root["facility"];
  if (reject_unknown_keys(facility, {"total_nodes", "node_r_max", "node_tau"},
                          "facility")) {
    config.facility_total_nodes = static_cast<int>(
        facility["total_nodes"].as_int_or(config.facility_total_nodes));
    config.node_r_max = facility["node_r_max"].as_double_or(config.node_r_max);
    config.node_tau = facility["node_tau"].as_double_or(config.node_tau);
  }

  const auto& content = root["content"];
  if (reject_unknown_keys(content, {"materialize", "rows", "cols", "bands"},
                          "content")) {
    config.materialize = content["materialize"].as_bool_or(config.materialize);
    config.geometry.rows =
        static_cast<int>(content["rows"].as_int_or(config.geometry.rows));
    config.geometry.cols =
        static_cast<int>(content["cols"].as_int_or(config.geometry.cols));
    config.geometry.bands =
        static_cast<int>(content["bands"].as_int_or(config.geometry.bands));
  }

  // Parsed with the spec layer's parser (line-anchored errors) and validated
  // against the builtin stage graph when the workflow compiles.
  config.slos = spec::parse_slo_list(root["slo"]);

  config.validate();
  return config;
}

EomlConfig EomlConfig::from_yaml_text(std::string_view text) {
  return from_yaml(util::parse_yaml(text));
}

spec::Facility facility_of(const EomlConfig& config) {
  spec::Facility facility;
  facility.total_nodes = config.facility_total_nodes;
  facility.max_workers_per_node = std::max(64, config.workers_per_node);
  facility.scheduler_latency = config.slurm_latency;
  facility.node_r_max = config.node_r_max;
  facility.node_tau = config.node_tau;
  facility.wan_bps = config.wan_capacity_bps;
  facility.analysis_link_bps = config.facility_link_bps;
  return facility;
}

void apply(const spec::Facility& facility, EomlConfig& config) {
  config.facility_total_nodes = facility.total_nodes;
  config.slurm_latency = facility.scheduler_latency;
  config.node_r_max = facility.node_r_max;
  config.node_tau = facility.node_tau;
  config.wan_capacity_bps = facility.wan_bps;
  config.facility_link_bps = facility.analysis_link_bps;
  config.preprocess_nodes =
      std::min(config.preprocess_nodes, facility.total_nodes);
}

const std::array<PipelineTemplate, 3> kPipelineTemplates = {{
    {"aicca-daily",
     "One day of Terra ocean-cloud tiles, labelled and shipped to Orion "
     "(the paper's production configuration).",
     R"(
workflow:
  satellite: Terra
  products: [MOD02, MOD03, MOD06]
  span: {year: 2022, first_day: 1}
  daytime_only: true
download:   {workers: 3}
preprocess: {nodes: 10, workers_per_node: 8, tile_size: 128, min_cloud_fraction: 0.3}
monitor:    {poll_interval: 1.0}
inference:  {workers: 1}
shipment:   {streams: 4}
)"},
    {"aicca-elastic",
     "Elastic-block variant: Parsl-style blocks scale with queue depth "
     "(the dynamic allocation of Fig. 6).",
     R"(
workflow:
  satellite: Terra
  products: [MOD02, MOD03, MOD06]
  span: {year: 2022, first_day: 1}
  max_files: 40
  daytime_only: true
preprocess:
  elastic: true
  block: {nodes_per_block: 1, init_blocks: 1, max_blocks: 8, idle_timeout: 10}
  workers_per_node: 8
)"},
    {"aicca-scaling",
     "The benchmarking configuration of §IV: capped file count, MOD02 only "
     "download accounting, static allocation.",
     R"(
workflow:
  satellite: Terra
  products: [MOD02, MOD03, MOD06]
  span: {year: 2022, first_day: 1}
  max_files: 80
  daytime_only: true
download:   {workers: 3}
preprocess: {nodes: 10, workers_per_node: 8}
inference:  {workers: 1}
)"},
}};

EomlConfig instantiate(std::string_view name, std::string_view overrides_yaml) {
  const auto it = std::find_if(
      kPipelineTemplates.begin(), kPipelineTemplates.end(),
      [name](const PipelineTemplate& tpl) { return tpl.name == name; });
  if (it == kPipelineTemplates.end())
    throw std::invalid_argument("no pipeline named '" + std::string(name) +
                                "'");
  util::YamlNode merged = util::parse_yaml(it->yaml);
  if (!overrides_yaml.empty())
    merged = util::merge_yaml(merged, util::parse_yaml(overrides_yaml));
  return EomlConfig::from_yaml(merged);
}

void EomlConfig::validate() const {
  if (products.empty()) throw std::invalid_argument("config: no products");
  if (scheduling == SchedulingMode::kStreaming) {
    // The per-granule readiness trigger is defined over whole triplets: with
    // any product missing from the stream, granule.ready would never fire.
    const auto has = [this](modis::ProductKind kind) {
      return std::find(products.begin(), products.end(), kind) !=
             products.end();
    };
    if (!has(modis::ProductKind::kMod02) || !has(modis::ProductKind::kMod03) ||
        !has(modis::ProductKind::kMod06))
      throw std::invalid_argument(
          "config: streaming scheduling requires MOD02+MOD03+MOD06 products");
  }
  if (download_workers <= 0)
    throw std::invalid_argument("config: download_workers must be >= 1");
  if (preprocess_nodes <= 0 || workers_per_node <= 0)
    throw std::invalid_argument("config: preprocessing resources must be >= 1");
  if (facility_total_nodes < preprocess_nodes)
    throw std::invalid_argument(
        "config: preprocess_nodes exceeds facility_total_nodes");
  if (!(node_r_max > 0) || !(node_tau > 0))
    throw std::invalid_argument("config: contention law parameters must be > 0");
  if (inference_workers <= 0)
    throw std::invalid_argument("config: inference_workers must be >= 1");
  if (encode_path != "fused" && encode_path != "int8")
    throw std::invalid_argument("config: encode_path must be fused|int8, got '" +
                                encode_path + "'");
  if (shipment_streams <= 0)
    throw std::invalid_argument("config: shipment_streams must be >= 1");
  if (!(wan_capacity_bps > 0) || !(facility_link_bps > 0))
    throw std::invalid_argument("config: link capacities must be > 0");
  if (!(poll_interval > 0))
    throw std::invalid_argument("config: poll_interval must be > 0");
  if (!(preprocess_walltime > 0))
    throw std::invalid_argument("config: preprocess_walltime must be > 0");
  if (span.first_day < 1 || span.last_day < span.first_day || span.last_day > 366)
    throw std::invalid_argument("config: invalid day span");
  if (materialize &&
      (tiler.tile_size > geometry.rows || tiler.tile_size > geometry.cols))
    throw std::invalid_argument(
        "config: tile_size exceeds materialized geometry");
}

}  // namespace mfw::pipeline
