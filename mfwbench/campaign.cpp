// Workload `campaign`: a timing-only streaming EO-ML campaign over
// consecutive days of Terra, every granule day and night, on 10 nodes x 8
// workers, with the bounded telemetry a year-scale `mfwctl watch` run
// attaches (stats-only retention, per-day SpanRollup, TelemetryBus feeding a
// HealthMonitor, FlightRecorder). Every granule is distinct, so `modis`
// granule statistics run with no shared work beside the sim, compute, flow,
// transfer and obs layers at archive scale.
#include <algorithm>
#include <memory>
#include <optional>

#include "compute/cluster.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/rollup.hpp"
#include "obs/trace.hpp"
#include "obs/watch.hpp"
#include "pipeline/eoml_workflow.hpp"
#include "replay.hpp"
#include "sim/link.hpp"
#include "storage/memfs.hpp"
#include "transfer/download.hpp"
#include "util/rng.hpp"

namespace mfwbench {

using namespace mfw;

namespace {

constexpr int kDays = 5;
constexpr int kNodes = 10;
constexpr int kWorkersPerNode = 8;

/// Days 1-5 of 2022 in the default world every paper bench uses; the seed
/// draws the network: WAN capacity and per-connection throughput within 10%
/// of the defaults. Host cost per granule follows the granule's content
/// (candidate tiles), which differs by a third between windows of the year
/// and twice that between worlds, so a seeded window would move granules/s
/// with the seed; network conditions change the event order and every
/// simulated time but not the work.
pipeline::EomlConfig campaign_config(const Options& options) {
  util::Rng rng(util::mix64(options.seed, 0xca));
  pipeline::EomlConfig config;
  config.span = modis::DaySpan{2022, 1, options.toy ? 1 : kDays};
  config.wan_capacity_bps *= rng.uniform(0.9, 1.1);
  config.per_connection_median_bps *= rng.uniform(0.9, 1.1);
  config.daytime_only = false;
  if (options.toy) config.max_files = 48;
  config.scheduling = pipeline::SchedulingMode::kStreaming;
  config.preprocess_nodes = kNodes;
  config.workers_per_node = kWorkersPerNode;
  config.preprocess_walltime = 400.0 * 24 * 3600;
  config.retain_provenance = false;
  return config;
}

/// MOD02 granules the campaign carries, in catalog order.
std::vector<modis::GranuleId> campaign_granules(
    const pipeline::EomlConfig& config) {
  const modis::ArchiveService archive(config.seed);
  std::vector<modis::GranuleId> ids;
  for (const auto& entry :
       archive.list(modis::ProductKind::kMod02, config.satellite, config.span))
    ids.push_back(entry.id);
  if (config.max_files && ids.size() > *config.max_files)
    ids.resize(*config.max_files);
  return ids;
}

/// The bounded campaign telemetry chain: recorder -> bus -> flight ring ->
/// per-day rollup, with a HealthMonitor draining the bus.
struct Telemetry {
  obs::SpanRollup rollup{obs::RollupConfig{86400.0, 366}};
  obs::FlightRecorder flight;
  obs::TelemetryBus bus{65536};
  std::optional<obs::HealthMonitor> monitor;

  explicit Telemetry(pipeline::EomlWorkflow& workflow) {
    obs::HealthConfig health;
    health.window_s = 86400.0;
    health.anomaly_k = 4.0;
    monitor.emplace(health, spec::health_rules(workflow.plan().spec()));
    monitor->attach(bus);
    workflow.attach_health(*monitor, 86400.0);
    bus.set_next(&flight);
    flight.set_next(&rollup);
    auto& rec = obs::TraceRecorder::instance();
    rec.clear();
    rec.set_retention({obs::RetentionMode::kStatsOnly, 64, 4096});
    rec.set_span_sink(&bus);
    obs::set_globally_enabled(true);
  }
  ~Telemetry() {
    obs::set_globally_enabled(false);
    auto& rec = obs::TraceRecorder::instance();
    rec.set_span_sink(nullptr);
    rec.set_retention({});
    rec.clear();
  }
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;
};

struct CampaignRun {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::size_t granules = 0;
  std::size_t tiles = 0;
  std::size_t shipped = 0;
  double makespan = 0.0;
  std::size_t events = 0;
  std::uint64_t bus_events = 0;
  std::size_t observed = 0;
  std::size_t retained = 0;
  std::size_t dropped = 0;
};

CampaignRun run_once(const pipeline::EomlConfig& config, bool telemetry,
                     SpanLog* log) {
  CampaignRun out;
  std::optional<SpanLog::Scope> setup_span;
  if (log) setup_span.emplace(*log, "pipeline.setup");
  const double t0 = now_s();
  pipeline::EomlWorkflow workflow(config);
  std::optional<Telemetry> chain;
  if (telemetry) chain.emplace(workflow);
  out.setup_s = now_s() - t0;
  setup_span.reset();

  std::optional<SpanLog::Scope> run_span;
  if (log) run_span.emplace(*log, "pipeline.run");
  const double t1 = now_s();
  const auto report = workflow.run();
  if (chain) chain->monitor->finish(workflow.engine().now());
  out.run_s = now_s() - t1;
  run_span.reset();

  out.granules = report.granules;
  out.tiles = report.total_tiles;
  out.shipped = report.shipped_files;
  out.makespan = report.makespan;
  out.events = workflow.engine().processed();
  out.bus_events = workflow.events().published_count();
  if (chain) {
    const auto& rec = obs::TraceRecorder::instance();
    out.observed = rec.observed_span_count();
    out.retained = rec.span_count();
    out.dropped = rec.dropped_span_count();
  }
  return out;
}

bool same_outputs(const CampaignRun& a, const CampaignRun& b) {
  return a.granules == b.granules && a.tiles == b.tiles &&
         a.shipped == b.shipped && a.makespan == b.makespan &&
         a.events == b.events;
}

/// Checks one run against the independent expectations and the first run.
bool check_run(Report& report, const CampaignRun& run,
               const CampaignRun& first, std::size_t expected_granules,
               std::size_t expected_tiles, bool telemetry) {
  const bool granules_ok = run.granules == expected_granules;
  const bool tiles_ok = run.tiles == expected_tiles;
  const bool shipped_ok = run.shipped == expected_granules;
  const bool repeat_ok = same_outputs(run, first);
  const bool telemetry_ok =
      !telemetry || (run.observed > 0 &&
                     run.observed == run.retained + run.dropped);
  const bool ok = granules_ok && tiles_ok && shipped_ok && repeat_ok && telemetry_ok;
  if (!ok) {
    report.check("campaign.granules", granules_ok,
                 std::to_string(run.granules) + " of " +
                     std::to_string(expected_granules));
    report.check("campaign.tiles", tiles_ok,
                 std::to_string(run.tiles) + " vs estimate_granule_stats " +
                     std::to_string(expected_tiles));
    report.check("campaign.shipped", shipped_ok, std::to_string(run.shipped));
    report.check("campaign.repeatable", repeat_ok,
                 "granules, tiles, shipped files, makespan and events equal "
                 "the first run's");
    report.check("campaign.telemetry", telemetry_ok,
                 "observed = retained + dropped");
  }
  return ok;
}

/// `transfer.download` + `sim.link.events`: the campaign's file list through
/// a DownloadService on a fresh engine and WAN link.
std::pair<std::size_t, std::size_t> replay_download(
    SpanLog& log, const pipeline::EomlConfig& config) {
  SpanLog::Scope span(log, "transfer.download");
  sim::SimEngine engine;
  const modis::ArchiveService archive(config.seed);
  sim::FlowLink wan(engine, "laads-wan", config.wan_capacity_bps);
  storage::MemFs staging("defiant", &engine);
  transfer::DownloadConfig dl;
  dl.workers = config.download_workers;
  dl.products = config.products;
  dl.satellite = config.satellite;
  dl.span = config.span;
  dl.max_files_per_product = config.max_files;
  dl.daytime_only = config.daytime_only;
  dl.per_connection_median_bps = config.per_connection_median_bps;
  dl.per_connection_sigma = config.per_connection_sigma;
  dl.seed = config.seed;
  transfer::DownloadService service(engine, archive, wan, staging, dl);
  std::size_t files = 0;
  service.start([&files](const transfer::DownloadReport& r) {
    files = r.files.size();
  });
  engine.run();
  return {files, engine.processed()};
}

/// `compute.farm` + `sim.engine.events`: the campaign's preprocess task
/// descriptors through a ClusterExecutor on a fresh engine.
std::pair<std::size_t, std::size_t> replay_farm(
    SpanLog& log, const std::vector<compute::SimTaskDesc>& descs) {
  SpanLog::Scope span(log, "compute.farm");
  sim::SimEngine engine;
  compute::ClusterExecutor farm(engine, compute::defiant_law_factory());
  for (int n = 0; n < kNodes; ++n) farm.add_node(kWorkersPerNode);
  for (const auto& desc : descs) farm.submit(desc);
  engine.run();
  return {farm.completed(), engine.processed()};
}

/// Closed spans of one fully retained campaign run, with their tracks.
struct CapturedSpans {
  std::vector<obs::TraceTrack> tracks;
  std::vector<obs::TraceSpan> spans;
};

CapturedSpans capture_spans(const pipeline::EomlConfig& config) {
  auto& rec = obs::TraceRecorder::instance();
  rec.clear();
  rec.set_retention({});
  obs::set_globally_enabled(true);
  {
    pipeline::EomlWorkflow workflow(config);
    workflow.run();
  }
  obs::set_globally_enabled(false);
  CapturedSpans out{rec.tracks(), rec.spans()};
  rec.clear();
  std::erase_if(out.spans, [](const obs::TraceSpan& s) { return !s.closed(); });
  return out;
}

/// `obs.sinks`: the captured spans through a fresh bus -> flight -> rollup
/// chain with a HealthMonitor draining the bus once per simulated day.
double replay_sinks(SpanLog& log, const CapturedSpans& captured) {
  SpanLog::Scope span(log, "obs.sinks");
  obs::SpanRollup rollup(obs::RollupConfig{86400.0, 366});
  obs::FlightRecorder flight;
  obs::TelemetryBus bus(65536);
  obs::HealthConfig health;
  health.window_s = 86400.0;
  health.anomaly_k = 4.0;
  obs::HealthMonitor monitor(health, {});
  monitor.attach(bus);
  bus.set_next(&flight);
  flight.set_next(&rollup);
  double next_poll = 86400.0;
  for (const auto& s : captured.spans) {
    bus.on_span(captured.tracks[s.track], s);
    if (s.end >= next_poll) {
      monitor.poll(s.end);
      next_poll += 86400.0;
    }
  }
  monitor.finish(next_poll);
  return span.elapsed();
}

void traced(const Options& options, const pipeline::EomlConfig& config,
            Report& report) {
  SpanLog log;
  const auto granules = campaign_granules(config);
  const CampaignRun run = run_once(config, true, &log);
  const double run_s = log.total("pipeline.run");

  const modis::ArchiveService archive(config.seed);
  const auto descs = replay_granule_stats(log, archive.generator(), granules,
                                          config.preprocess_cost);
  std::size_t replay_tiles = 0;
  for (const auto& d : descs) replay_tiles += static_cast<std::size_t>(d.payload);
  const auto [files, link_events] = replay_download(log, config);
  const auto [tasks, engine_events] = replay_farm(log, descs);
  std::vector<std::vector<int>> labels;
  labels.reserve(descs.size());
  for (std::size_t i = 0; i < descs.size(); ++i)
    labels.emplace_back(static_cast<std::size_t>(descs[i].payload),
                        static_cast<int>(i % 42));
  const std::size_t runs =
      replay_flow_runner(log, labels, config.flow_action_overhead);
  const CapturedSpans captured = capture_spans(config);
  const double sinks_s = replay_sinks(log, captured);

  // Telemetry cost: paired runs with and without the chain, medians.
  std::vector<double> with, without;
  for (int i = 0; i < (options.toy ? 1 : 5); ++i) {
    with.push_back(run_once(config, true, nullptr).run_s);
    without.push_back(run_once(config, false, nullptr).run_s);
  }

  const double stats_s = log.total("modis.granule_stats");
  report.metric("pipeline.run_s", run_s, "s");
  LayerSplit split(report, run_s);
  report.metric("modis.granule_stats.calls", static_cast<double>(descs.size()),
                "count");
  split.add("modis.granule_stats", stats_s);
  report.metric("modis.granule_stats.us_per_call",
                1e6 * stats_s / static_cast<double>(std::max<std::size_t>(1, descs.size())),
                "us");
  report.metric("transfer.download.files", static_cast<double>(files), "count");
  split.add("transfer.download", log.total("transfer.download"));
  report.metric("sim.link.events", static_cast<double>(link_events), "count");
  report.metric("compute.farm.tasks", static_cast<double>(tasks), "count");
  split.add("compute.farm", log.total("compute.farm"));
  report.metric("sim.engine.events", static_cast<double>(engine_events), "count");
  report.metric("flow.runner.runs", static_cast<double>(runs), "count");
  split.add("flow.runner", log.total("flow.runner"));
  report.metric("flow.bus.events", static_cast<double>(run.bus_events), "count");
  report.metric("obs.spans.observed", static_cast<double>(run.observed), "count");
  report.metric("obs.spans.dropped", static_cast<double>(run.dropped), "count");
  report.metric("obs.sinks.ns_per_span",
                1e9 * sinks_s / static_cast<double>(std::max<std::size_t>(1, captured.spans.size())),
                "ns");
  split.add("obs.sinks", sinks_s);
  const double telemetry_s = median(with) - median(without);
  report.metric("obs.telemetry_s", telemetry_s, "s");
  report.metric("obs.telemetry.pct", 100.0 * telemetry_s / run_s, "%");
  split.residual("pipeline.residual");

  report.check("campaign.replay_tiles", replay_tiles == run.tiles,
               std::to_string(replay_tiles) + " vs " + std::to_string(run.tiles));
  report.check("campaign.replay_counts",
               files == 3 * granules.size() && tasks == granules.size() &&
                   runs == granules.size(),
               "download files, farm tasks and flow runs cover every granule");
  report.check("campaign.telemetry",
               run.observed > 0 && run.observed == run.retained + run.dropped,
               "observed = retained + dropped");
  report.count(run.granules, run.granules == granules.size() ? 0 : run.granules);
  if (!options.trace_out.empty() && !log.write(options.trace_out))
    report.check("trace.write", false, options.trace_out);
}

}  // namespace

Report run_campaign(const Options& options) {
  Report report;
  const pipeline::EomlConfig config = campaign_config(options);
  if (options.trace) {
    traced(options, config, report);
    return report;
  }

  // Independent expectations: the catalog listing and a direct
  // estimate_granule_stats pass over every granule.
  const auto granules = campaign_granules(config);
  std::size_t expected_tiles = 0;
  {
    const modis::ArchiveService archive(config.seed);
    for (const auto& id : granules) {
      modis::GranuleSpec spec;
      spec.satellite = id.satellite;
      spec.year = id.year;
      spec.day_of_year = id.day_of_year;
      spec.slot = id.slot;
      spec.geometry = modis::kFullGeometry;
      expected_tiles += static_cast<std::size_t>(
          modis::estimate_granule_stats(archive.generator(), spec).selected_tiles);
    }
  }

  // Set-up takes well under a millisecond: sample it apart as well.
  std::vector<double> setup, rate, raw;
  for (int i = 0; i < 200; ++i) {
    const double t0 = now_s();
    pipeline::EomlWorkflow workflow(config);
    Telemetry chain(workflow);
    setup.push_back(now_s() - t0);
  }
  std::optional<CampaignRun> first;
  std::size_t bad_runs = 0;
  HostSpeed host;
  const double deadline = now_s() + options.seconds;
  do {
    const CampaignRun run = run_once(config, true, nullptr);
    const double scaled_s = host.scale(run.run_s);
    if (!first) first = run;
    const bool ok =
        check_run(report, run, *first, granules.size(), expected_tiles, true);
    if (!ok) ++bad_runs;
    report.count(run.granules, ok ? 0 : run.granules);
    setup.push_back(run.setup_s);
    raw.push_back(static_cast<double>(run.granules) / run.run_s);
    rate.push_back(static_cast<double>(run.granules) / scaled_s);
  } while (now_s() < deadline || rate.size() < 3);

  report.check("campaign.outputs", bad_runs == 0,
               std::to_string(first->granules) + " granules, " +
                   std::to_string(first->tiles) + " tiles, " +
                   std::to_string(first->shipped) + " shipped, makespan " +
                   std::to_string(first->makespan) + " s");
  report.metric("granules_per_s", median(rate), "1/s", rate.size());
  report.metric("granules_per_host_s", median(raw), "1/s", raw.size());
  report.metric("host.reference_s", host.reference_s(), "s");
  report.metric("items_per_s", median(rate), "1/s", rate.size());
  report.metric("setup_s", host.scale_run(median(setup)), "s", setup.size());
  report.metric("setup_host_s", median(setup), "s", setup.size());
  report.metric("peak_rss_mb", peak_rss_mib(), "MiB");
  return report;
}

}  // namespace mfwbench
