// mfwctl — command-line front end for the EO-ML workflow. Each command
// declares its flags and positionals once, in subcommands() below; `mfwctl`
// alone prints every command's usage line, generated from that declaration.
//
//   run           Run the five-stage workflow from a YAML configuration file.
//   run-template  Instantiate a built-in pipeline template (optionally merged
//                 with overrides) and run it on a named facility.
//   registry      List the built-in shareable pipeline templates.
//   facilities    Show the built-in facilities.
//   trace         Run with the obs layer enabled and export a Chrome
//                 trace-event JSON (Perfetto / chrome://tracing) plus an
//                 optional flat metrics dump.
//   report        Run traced and print the trace-analysis report: critical
//                 path, per-stage utilization, queue waits, stragglers with
//                 cause attribution; --json emits the machine-readable report
//                 CI gates on, and --from re-renders a saved
//                 mfw.trace_report/v1 document instead of running.
//   lineage       Run traced and reconstruct every granule's causal chain
//                 (download -> granule.ready -> preprocess -> encode/label ->
//                 infer): a slowest-first table, one granule's timeline with
//                 its per-hop wait/service split, or mfw.lineage/v1 JSON.
//   diff          Align two saved reports (A = baseline, B = candidate) and
//                 attribute the makespan delta: per-stage critical-path
//                 shifts with queue-wait, straggler-cause and path-membership
//                 evidence (text, or mfw.trace_diff/v1 JSON). --gate exits 3
//                 when B regressed beyond noise — the CI perf gate.
//   watch         Run with the live health layer (DESIGN.md §12): a
//                 TelemetryBus feeds a HealthMonitor that evaluates the
//                 config's `slo:` rules (plus an optional EWMA/MAD anomaly
//                 detector) as windows close, with a dashboard every
//                 --interval sim-seconds and the mfw.health/v1 alert stream.
//                 Watching is read-only: the run is bit-for-bit `mfwctl run`.
//   plan          Validate a declarative workflow spec (or the built-in paper
//                 spec) against a facility and print the compiled DAG.
//   sweep         Run the policy-sweep laboratory over policy x
//                 facility-count x load and write mfw.policies/v1 Pareto data.
//   serve-bench   Build a sharded serving catalog (DESIGN.md §14) over a
//                 synthetic labelled-tile archive and drive it with the Zipf
//                 client simulator; --check first replays random queries of
//                 every kind against the brute-force archive-scan oracle.
//
// A saved report that is truncated or of another schema exits 1 naming the
// file. `run` and `watch` --flight-out attach the always-on flight recorder
// (DESIGN.md §15): a fixed-size ring of the newest spans, instants and
// health episodes, dumped as Chrome-trace JSON at end of run, on
// std::terminate and (under watch) when an SLO alert fires. The ring is a
// read-only SpanSink, so the run stays bit-for-bit identical.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/analyze.hpp"
#include "obs/diff.hpp"
#include "obs/flight.hpp"
#include "obs/lineage.hpp"
#include "obs/watch.hpp"
#include "pipeline/spec_compile.hpp"
#include "spec/lab.hpp"
#include "spec/spec.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline/eoml_workflow.hpp"
#include "serve/catalog.hpp"
#include "serve/loadgen.hpp"
#include "serve/service.hpp"
#include "util/bytes.hpp"
#include "util/cli.hpp"
#include "util/json_writer.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace mfw;
namespace cli = util::cli;

constexpr std::size_t kMaxInt = std::numeric_limits<int>::max();
/// The smallest positive double: as a minimum it admits exactly the reals
/// above zero.
constexpr double kPositive = std::numeric_limits<double>::denorm_min();

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

pipeline::EomlConfig load_config(const cli::Args& args) {
  return pipeline::EomlConfig::from_yaml_text(slurp(args.text("config.yaml")));
}

int run_config(pipeline::EomlConfig config, bool timeline,
               const std::string& csv_path,
               const std::string& flight_out = {},
               std::size_t flight_capacity = 0) {
  // Always-on black box: spans stream through the flight ring (stats-only
  // retention, so memory stays bounded) and the ring is dumped at end of run
  // plus on std::terminate. Read-only sink — the run itself is unchanged.
  std::unique_ptr<obs::FlightRecorder> flight;
  auto& rec = obs::TraceRecorder::instance();
  if (!flight_out.empty()) {
    obs::FlightConfig flight_config;
    if (flight_capacity > 0) flight_config.capacity = flight_capacity;
    flight = std::make_unique<obs::FlightRecorder>(flight_config);
    obs::set_globally_enabled(true);
    obs::RetentionPolicy retention;
    retention.mode = obs::RetentionMode::kStatsOnly;
    rec.set_retention(retention);
    rec.set_span_sink(flight.get());
    flight->arm_crash_dump(flight_out);
  }
  pipeline::EomlWorkflow workflow(std::move(config));
  const auto report = workflow.run();
  if (flight) {
    rec.set_span_sink(nullptr);
    rec.set_retention({});
    obs::set_globally_enabled(false);
    flight->disarm_crash_dump();
    if (!flight->dump(flight_out, "end-of-run")) {
      std::fprintf(stderr, "error: cannot write %s\n", flight_out.c_str());
      return 1;
    }
  }
  std::printf("%s\n", report.summary().c_str());
  if (timeline) std::printf("%s\n", report.timeline.render(120, 90, 14).c_str());
  if (!csv_path.empty()) {
    obs::write_file_or_exit(csv_path, report.timeline.to_csv(200));
    std::printf("timeline CSV written to %s\n", csv_path.c_str());
  }
  if (flight) {
    std::printf("flight recording written to %s (%llu events seen, %zu "
                "retained, %llu overwritten)\n",
                flight_out.c_str(),
                static_cast<unsigned long long>(flight->seen()), flight->size(),
                static_cast<unsigned long long>(flight->overwritten()));
  }
  return 0;
}

/// The facility `--facility` names; an unknown name is a usage error.
const spec::Facility& facility_by_name(const cli::Args& args,
                                       const std::string& name) {
  if (name == "olcf") return spec::olcf_defiant();
  if (name == "nersc") return spec::nersc_perlmutter_like();
  if (name == "alcf") return spec::alcf_polaris_like();
  args.fail("unknown facility '" + name + "' (expected olcf|nersc|alcf)");
}

/// Compiles the spec a plan/sweep command operates on (a spec YAML file or
/// the built-in paper spec) against the named facility, Defiant by default.
spec::StageGraph load_graph(const cli::Args& args) {
  const auto facility = args.text("--facility");
  const spec::Facility site =
      facility.empty() ? spec::Facility{} : facility_by_name(args, facility);
  if (args.has("--builtin"))
    return spec::StageGraph::compile(
        pipeline::spec_for_config(pipeline::EomlConfig{}), site);
  const auto path = args.text("spec.yaml");
  if (path.empty())
    throw std::runtime_error("expected a <spec.yaml> path or --builtin");
  return spec::StageGraph::compile(
      spec::WorkflowSpec::from_yaml_text(slurp(path)), site);
}

std::vector<std::string> split_csv(const std::string& text) {
  auto items = util::split(text, ',');
  std::erase(items, "");
  return items;
}

/// Parses a saved mfw.trace_report/v1 document; nullopt, with the file
/// named on stderr, when it is not one.
std::optional<obs::TraceReport> read_report(const std::string& path) {
  try {
    return obs::parse_trace_report(slurp(path));
  } catch (const obs::ReportParseError& e) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(), e.what());
    return std::nullopt;
  }
}

int cmd_run(const cli::Args& args) {
  return run_config(load_config(args), args.has("--timeline"),
                    args.text("--csv"), args.text("--flight-out"),
                    args.count("--flight-capacity", 0));
}

int cmd_run_template(const cli::Args& args) {
  std::string overrides;
  if (const auto path = args.text("overrides.yaml"); !path.empty())
    overrides = slurp(path);
  auto config = pipeline::instantiate(args.text("name"), overrides);
  if (const auto facility = args.text("--facility"); !facility.empty())
    pipeline::apply(facility_by_name(args, facility), config);
  return run_config(std::move(config), args.has("--timeline"),
                    args.text("--csv"));
}

int cmd_trace(const cli::Args& args) {
  auto config = load_config(args);
  const auto out = args.text("--out", "trace.json");
  obs::set_globally_enabled(true);
  pipeline::EomlWorkflow workflow(std::move(config));
  const auto report = workflow.run();
  std::printf("%s\n", report.summary().c_str());
  auto& rec = obs::TraceRecorder::instance();
  obs::write_file_or_exit(out, obs::to_chrome_trace_json(rec));
  std::printf("trace written to %s (%zu spans, %zu instants) — load in "
              "https://ui.perfetto.dev or chrome://tracing\n",
              out.c_str(), rec.span_count(), rec.instant_count());
  if (const auto metrics = args.text("--metrics"); !metrics.empty()) {
    obs::write_file_or_exit(
        metrics, obs::to_metrics_text(obs::MetricsRegistry::instance()));
    std::printf("metrics written to %s\n", metrics.c_str());
  }
  return 0;
}

int cmd_report(const cli::Args& args) {
  const bool json = args.has("--json");
  const auto from = args.text("--from");
  std::optional<obs::TraceReport> analysis;
  std::string summary;  // of the run; a saved report (--from) has none
  if (!from.empty()) {
    analysis = read_report(from);
    if (!analysis) return 1;
  } else {
    if (!args.has("config.yaml")) args.fail("missing <config.yaml>");
    obs::AnalyzeOptions options;
    options.straggler_k = args.real("--straggler-k", options.straggler_k);
    auto config = load_config(args);
    // Keep --json stdout machine-readable: logs already go to stderr, but
    // silence the info chatter too.
    if (json) util::Logger::instance().set_level(util::LogLevel::kError);
    obs::set_globally_enabled(true);
    pipeline::EomlWorkflow workflow(std::move(config));
    summary = workflow.run().summary() + "\n\n";
    analysis = obs::analyze_trace(obs::TraceRecorder::instance(), options);
  }
  if (const auto out = args.text("--out"); !out.empty()) {
    obs::write_file_or_exit(out, analysis->to_json());
    if (!json && from.empty())
      std::printf("report JSON written to %s\n", out.c_str());
  }
  if (json) {
    std::printf("%s\n", analysis->to_json().c_str());
  } else {
    std::printf("%s%s", summary.c_str(), analysis->render_text().c_str());
  }
  return 0;
}

int cmd_lineage(const cli::Args& args) {
  const std::size_t top = args.count("--top", 10);
  auto config = load_config(args);
  const bool json = args.has("--json");
  if (json) util::Logger::instance().set_level(util::LogLevel::kError);
  obs::set_globally_enabled(true);
  pipeline::EomlWorkflow workflow(std::move(config));
  const auto report = workflow.run();
  const auto lineage = obs::extract_lineage(obs::TraceRecorder::instance());
  if (const auto out = args.text("--out"); !out.empty()) {
    obs::write_file_or_exit(out, lineage.to_json());
    if (!json)
      std::printf("lineage JSON written to %s (%zu granules)\n", out.c_str(),
                  lineage.granules.size());
  }
  if (const auto granule = args.text("--granule"); !granule.empty()) {
    const auto text = lineage.render_granule(granule);
    if (text.empty()) {
      std::fprintf(stderr,
                   "error: unknown granule '%s' (%zu granules traced; "
                   "run without --granule to list the slowest)\n",
                   granule.c_str(), lineage.granules.size());
      return 1;
    }
    std::printf("%s", text.c_str());
    return 0;
  }
  if (json) {
    std::printf("%s\n", lineage.to_json(top).c_str());
  } else {
    std::printf("%s\n%s", report.summary().c_str(),
                lineage.render_text(top).c_str());
  }
  return 0;
}

int cmd_diff(const cli::Args& args) {
  const auto a = read_report(args.text("reportA.json"));
  if (!a) return 1;
  const auto b = read_report(args.text("reportB.json"));
  if (!b) return 1;
  const auto diff = obs::diff_reports(*a, *b);
  if (const auto out = args.text("--out"); !out.empty())
    obs::write_file_or_exit(out, diff.to_json());
  if (args.has("--json")) {
    std::printf("%s\n", diff.to_json().c_str());
  } else {
    std::printf("%s", diff.render_text().c_str());
  }
  // --gate: distinct exit code so CI can tell "regressed" (3) apart
  // from "could not diff" (1).
  if (args.has("--gate") && diff.regression()) return 3;
  return 0;
}

int cmd_watch(const cli::Args& args) {
  const bool quiet = args.has("--quiet");
  const double interval = args.real("--interval", 0.0);
  obs::HealthConfig health;
  health.window_s = args.real("--window", health.window_s);
  health.anomaly_k = args.real("--anomaly-k", health.anomaly_k);
  obs::FlightConfig flight_config;
  flight_config.capacity =
      args.count("--flight-capacity", flight_config.capacity);
  auto config = load_config(args);

  obs::set_globally_enabled(true);
  auto& rec = obs::TraceRecorder::instance();
  // Watching is operational, not forensic: spans stream through the bus
  // and only aggregates are kept, so an archive-scale watch stays
  // bounded-memory (same retention mode bench/archive_campaign uses).
  obs::RetentionPolicy retention;
  retention.mode = obs::RetentionMode::kStatsOnly;
  rec.set_retention(retention);

  obs::TelemetryBus bus;
  pipeline::EomlWorkflow workflow(std::move(config));
  obs::HealthMonitor monitor(health,
                             spec::health_rules(workflow.plan().spec()));
  monitor.attach(bus);
  workflow.attach_health(monitor, interval, [&](double now) {
    if (!quiet) std::printf("%s", monitor.dashboard(now).c_str());
  });
  // Black box behind the bus: every span lands in the flight ring, SLO
  // transitions become health episodes, and a firing alert dumps the
  // ring immediately — the forensic context survives even if the run
  // never reaches a clean end.
  const auto flight_out = args.text("--flight-out");
  std::unique_ptr<obs::FlightRecorder> flight;
  if (!flight_out.empty()) {
    flight = std::make_unique<obs::FlightRecorder>(flight_config);
    bus.set_next(flight.get());
    monitor.set_alert_hook([&](const obs::Alert& alert) {
      flight->note_alert(alert);
      if (alert.state == "firing" &&
          !flight->dump(flight_out, "slo-firing:" + alert.rule))
        MFW_ERROR("mfwctl", "cannot write ", flight_out);
    });
    flight->arm_crash_dump(flight_out);
  }
  rec.set_span_sink(&bus);
  const auto report = workflow.run();
  monitor.finish(workflow.engine().now());
  rec.set_span_sink(nullptr);
  rec.set_retention({});
  if (flight) {
    bus.set_next(nullptr);
    flight->disarm_crash_dump();
    if (!flight->dump(flight_out, "end-of-run")) {
      std::fprintf(stderr, "error: cannot write %s\n", flight_out.c_str());
      return 1;
    }
    std::printf("flight recording written to %s (%llu events seen, %zu "
                "retained)\n",
                flight_out.c_str(),
                static_cast<unsigned long long>(flight->seen()),
                flight->size());
  }

  std::printf("%s\n", report.summary().c_str());
  std::printf("%s", monitor.dashboard(workflow.engine().now()).c_str());
  for (const auto& alert : monitor.alerts()) {
    std::printf("alert %-8s rule=%s stage=%s metric=%s observed=%g "
                "threshold=%g window_t0=%g%s%s\n",
                alert.state.c_str(), alert.rule.c_str(),
                alert.stage.empty() ? "-" : alert.stage.c_str(),
                alert.metric.c_str(), alert.observed, alert.threshold,
                alert.window_t0, alert.cause.empty() ? "" : " cause=",
                alert.cause.c_str());
  }
  if (const auto out = args.text("--health-out"); !out.empty()) {
    obs::write_file_or_exit(out, monitor.to_json(workflow.engine().now()));
    std::printf("health stream written to %s (%zu alerts, %zu firing)\n",
                out.c_str(), monitor.alerts().size(), monitor.firing_count());
  }
  if (const auto csv = args.text("--csv"); !csv.empty()) {
    obs::write_file_or_exit(csv, report.timeline.to_csv(200));
    std::printf("timeline CSV written to %s\n", csv.c_str());
  }
  return 0;
}

int cmd_plan(const cli::Args& args) {
  std::printf("%s", load_graph(args).describe().c_str());
  return 0;
}

int cmd_sweep(const cli::Args& args) {
  const auto graph = load_graph(args);
  spec::SweepGrid grid{{"fifo", "fair_share", "deadline", "wan_aware"},
                       {1, 2},
                       {1.0, 2.0}};
  if (const auto p = args.text("--policies"); !p.empty())
    grid.policies = split_csv(p);
  if (const auto f = args.text("--facilities"); !f.empty()) {
    grid.facilities.clear();
    for (const auto& v : split_csv(f)) {
      std::size_t count = 0;
      if (!util::parse_count(v.c_str(), 1, count) || count > kMaxInt)
        args.invalid("--facilities", v);
      grid.facilities.push_back(static_cast<int>(count));
    }
  }
  if (const auto l = args.text("--loads"); !l.empty()) {
    grid.loads.clear();
    for (const auto& v : split_csv(l)) {
      double load = 0.0;
      if (!util::parse_real(v.c_str(), kPositive, load))
        args.invalid("--loads", v);
      grid.loads.push_back(load);
    }
  }
  const auto results = spec::run_sweep(graph, grid);
  for (const auto& result : results)
    std::printf("%-10s facilities=%d load=%.2g makespan=%.2fs "
                "util=%.3f p99_wait=%.2fs misses=%d\n",
                result.policy.c_str(), result.facilities, result.load,
                result.makespan, result.utilization, result.p99_queue_wait,
                result.deadline_misses);
  const auto out = args.text("--out", "BENCH_policies.json");
  obs::write_file_or_exit(out, spec::results_to_json(results));
  std::printf("sweep results written to %s (%zu points)\n", out.c_str(),
              results.size());
  return 0;
}

int cmd_serve_bench(const cli::Args& args) {
  const std::size_t tiles = args.count("--tiles", 200000);
  const int days = static_cast<int>(args.count("--days", 30));
  const std::uint64_t seed = args.count("--seed", 2024);
  const std::size_t cache_capacity = args.count("--cache", 8192);
  const bool check = args.has("--check");
  const bool quiet = args.has("--quiet");
  serve::CatalogConfig cat_config;
  cat_config.shard_count = args.count("--shards", cat_config.shard_count);
  serve::LoadConfig load;
  load.users = args.count("--users", load.users);
  load.requests = args.count("--requests", load.requests);
  load.threads = args.count("--threads", load.threads);
  constexpr int kNumClasses = 42;

  const auto records = serve::synth_records(tiles, days, kNumClasses, seed);
  serve::Catalog catalog(cat_config);
  util::ThreadPool pool(std::max(2u, std::thread::hardware_concurrency()));
  catalog.ingest(records, &pool);
  catalog.seal();

  // Oracle spot check: every query kind replayed against a brute-force
  // scan of the same records.
  std::size_t checked = 0, mismatched = 0;
  std::string example_response;
  if (check) {
    util::Rng rng(seed ^ 0x5eedULL);
    for (int q = 0; q < 200; ++q) {
      serve::QueryRequest request;
      request.kind = static_cast<serve::QueryKind>(q % 4);
      request.lat = rng.uniform(-90.0, 90.0);
      request.lon = rng.uniform(-180.0, 180.0);
      request.lat_lo = rng.uniform(-90.0, 40.0);
      request.lat_hi = request.lat_lo + rng.uniform(0.0, 50.0);
      request.lon_lo = rng.uniform(-180.0, 100.0);
      request.lon_hi = request.lon_lo + rng.uniform(0.0, 80.0);
      request.label = static_cast<int>(rng.uniform_int(0, kNumClasses - 1));
      request.day_lo = static_cast<int>(rng.uniform_int(1, days));
      request.day_hi = std::min(
          days, request.day_lo + static_cast<int>(rng.uniform_int(0, 10)));
      request.sample_limit = 4;
      const auto got = catalog.query(request);
      const auto want = serve::brute_force_query(records, request, catalog);
      ++checked;
      bool ok = got.matched == want.matched &&
                got.classes.size() == want.classes.size();
      for (std::size_t i = 0; ok && i < got.classes.size(); ++i) {
        ok = got.classes[i].label == want.classes[i].label &&
             got.classes[i].stats.count == want.classes[i].stats.count &&
             std::abs(got.classes[i].stats.mean_cloud_fraction -
                      want.classes[i].stats.mean_cloud_fraction) <= 1e-9;
      }
      if (!ok) {
        ++mismatched;
        std::fprintf(stderr,
                     "error: oracle mismatch on %s query (matched %llu "
                     "vs %llu)\n",
                     serve::kind_name(request.kind),
                     static_cast<unsigned long long>(got.matched),
                     static_cast<unsigned long long>(want.matched));
      }
      if (q == 2)  // keep one kClass response as the schema example
        example_response = serve::to_json(request, got);
    }
    if (!quiet)
      std::printf("oracle check: %zu queries, %zu mismatches\n", checked,
                  mismatched);
  }

  serve::ServeConfig svc_config;
  svc_config.enable_cache = cache_capacity > 0;
  svc_config.cache_capacity = std::max<std::size_t>(1, cache_capacity);
  serve::ServeService service(catalog, svc_config);
  load.day_hi = days;
  load.num_classes = kNumClasses;
  load.seed = seed;
  const auto result = serve::run_load(service, load);

  if (!quiet) {
    std::printf(
        "serve-bench: %zu tiles, %zu shards, %zu threads, %zu requests\n",
        catalog.tile_count(), catalog.shard_count(), result.threads,
        result.requests);
    std::printf("  qps=%.0f p50=%.1fus p99=%.1fus p999=%.1fus hit_rate=%.3f\n",
                result.qps, result.all.p50_us, result.all.p99_us,
                result.all.p999_us, result.hit_rate);
  }

  util::JsonWriter w;
  w.begin_object();
  w.field("schema", "mfw.serve/v1");
  w.field("doc", "serve_bench");
  w.field("tiles", catalog.tile_count());
  w.field("shards", catalog.shard_count());
  w.field("cache_capacity", cache_capacity);
  if (check) {
    w.key("check", "\n ").begin_object();
    w.field("queries", checked);
    w.field("mismatches", mismatched);
    w.end_object();
  }
  w.key("load", "\n ");
  w.raw(result.to_json());
  if (!example_response.empty()) {
    std::string trimmed = example_response;
    while (!trimmed.empty() && trimmed.back() == '\n') trimmed.pop_back();
    w.key("example_response", "\n ").raw(trimmed);
  }
  w.end_object().raw("\n");
  const std::string doc = w.take();
  if (args.has("--json")) std::fputs(doc.c_str(), stdout);
  if (const auto out = args.text("--out"); !out.empty()) {
    obs::write_file_or_exit(out, doc);
    if (!quiet)
      std::printf("serve-bench document written to %s\n", out.c_str());
  }
  return mismatched == 0 ? 0 : 1;
}

int cmd_registry(const cli::Args&) {
  for (const auto& tpl : pipeline::kPipelineTemplates)
    std::printf("%-16s %s\n", tpl.name, tpl.description);
  return 0;
}

int cmd_facilities(const cli::Args&) {
  for (const auto* facility :
       {&spec::olcf_defiant(), &spec::nersc_perlmutter_like(),
        &spec::alcf_polaris_like()}) {
    std::printf("%-24s %3d nodes  sched %.1fs  archive %s  analysis %s\n",
                facility->name.c_str(), facility->total_nodes,
                facility->scheduler_latency,
                util::format_rate(facility->wan_bps).c_str(),
                util::format_rate(facility->analysis_link_bps).c_str());
  }
  return 0;
}

struct Subcommand {
  cli::Command line;
  int (*run)(const cli::Args&);
};

/// Every command: its declared command line and what runs it.
const std::vector<Subcommand>& subcommands() {
  const auto quiet = cli::flag("--quiet");
  const auto json = cli::flag("--json");
  const auto out = cli::text("--out", "path");
  const auto csv = cli::text("--csv", "path");
  const auto timeline = cli::flag("--timeline");
  const auto facility = cli::text("--facility", "olcf|nersc|alcf");
  const auto flight_out = cli::text("--flight-out", "path");
  const auto flight_capacity = cli::count("--flight-capacity", "n", 1);
  static const std::vector<Subcommand> table = {
      {{"mfwctl run",
        {cli::positional("config.yaml"), timeline, csv, flight_out,
         flight_capacity, quiet}},
       cmd_run},
      {{"mfwctl run-template",
        {cli::positional("name"), cli::optional("overrides.yaml"), facility,
         timeline, csv, quiet}},
       cmd_run_template},
      {{"mfwctl trace",
        {cli::positional("config.yaml"), cli::text("--out", "trace.json"),
         cli::text("--metrics", "path"), quiet}},
       cmd_trace},
      {{"mfwctl report",
        {cli::optional("config.yaml"), cli::text("--from", "report.json"),
         json, out, cli::real("--straggler-k", "k", 0.0), quiet}},
       cmd_report},
      {{"mfwctl lineage",
        {cli::positional("config.yaml"), cli::text("--granule", "id"), json,
         out, cli::count("--top", "n", 0), quiet}},
       cmd_lineage},
      {{"mfwctl diff",
        {cli::positional("reportA.json"), cli::positional("reportB.json"),
         json, out, cli::flag("--gate"), quiet}},
       cmd_diff},
      {{"mfwctl watch",
        {cli::positional("config.yaml"), cli::real("--interval", "sim-s", 0.0),
         cli::real("--window", "s", kPositive),
         cli::real("--anomaly-k", "k", 0.0), cli::text("--health-out", "path"),
         csv, flight_out, flight_capacity, quiet}},
       cmd_watch},
      {{"mfwctl plan",
        {cli::optional("spec.yaml"), cli::flag("--builtin"), facility, quiet}},
       cmd_plan},
      {{"mfwctl sweep",
        {cli::optional("spec.yaml"), cli::flag("--builtin"), facility,
         cli::text("--policies", "a,b"), cli::text("--facilities", "1,2"),
         cli::text("--loads", "1,2"), cli::text("--out", "json"), quiet}},
       cmd_sweep},
      {{"mfwctl serve-bench",
        {cli::count("--tiles", "n", 1), cli::count("--shards", "n", 1),
         cli::count("--threads", "n", 1), cli::count("--users", "n", 1),
         cli::count("--requests", "n", 1),
         cli::count("--days", "n", 1, kMaxInt), cli::count("--cache", "n", 0),
         cli::count("--seed", "n", 0), cli::flag("--check"), json, out, quiet}},
       cmd_serve_bench},
      {{"mfwctl registry"}, cmd_registry},
      {{"mfwctl facilities"}, cmd_facilities},
  };
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  for (const auto& sub : subcommands()) {
    if (sub.line.program() != "mfwctl " + command) continue;
    const auto args = sub.line.parse(argc, argv, 2);
    util::Logger::instance().set_level(args.has("--quiet")
                                           ? util::LogLevel::kError
                                           : util::LogLevel::kInfo);
    try {
      return sub.run(args);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  if (argc > 1)
    std::fprintf(stderr, "error: unknown command '%s'\n", command.c_str());
  std::fprintf(stderr, "usage:\n");
  for (const auto& sub : subcommands())
    std::fprintf(stderr, "%s\n", sub.line.usage("  ").c_str());
  return 2;
}
