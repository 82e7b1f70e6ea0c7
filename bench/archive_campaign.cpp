// Archive-scale campaign: a year of Terra granules through the streaming
// EO-ML workflow, plus substrate scaling to 10^5-10^6 concurrent jobs/flows.
//
// The paper's workflow processes one week per run; AICCA's production goal
// is the two-decade MODIS archive. This benchmark demonstrates that the
// simulation substrate sustains a full 365-day campaign (~105k granules,
// ~315k files, ~21 TB through the WAN model) in one process, and quantifies
// the O(log n) substrate rebuild (DESIGN.md §9) against the O(n)-per-event
// oracles of tests/sim_oracle.hpp at archive-scale concurrency.
//
// Emits a JSON report (see tools/bench_sim.sh -> BENCH_sim.json) whose
// "context" block stamps the build type, compiler and CPU count.
//
// With --report-out <path> the campaign runs with the obs layer in bounded
// mode: RetentionMode::kStatsOnly keeps a small sample of spans while a
// SpanRollup sink folds every closed span into per-day windowed rollups, so
// telemetry memory is O(windows), not O(events). The rollup report plus the
// recorder's observed/retained/dropped counters land at <path>.
//
// With --health-out <path> a TelemetryBus is chained in front of the rollup
// sink and an obs::HealthMonitor (per-day windows, EWMA/MAD anomaly detector)
// watches the campaign live, polled once per simulated day by the workflow's
// read-only snapshot tick; the mfw.health/v1 stream lands at <path>. Both
// watch modes are zero-perturbation: campaign numbers are identical with or
// without them.
//
// Usage: archive_campaign [--days N] [--quick] [--out <path>]
//                         [--report-out <path>] [--health-out <path>]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "obs/export.hpp"
#include "obs/rollup.hpp"
#include "obs/trace.hpp"
#include "obs/watch.hpp"
#include "pipeline/eoml_workflow.hpp"
#include "sim/engine.hpp"
#include "sim/link.hpp"
#include "sim/resource.hpp"
#include "sim_oracle.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

#ifndef MFW_BUILD_TYPE
#define MFW_BUILD_TYPE "Unknown"
#endif
#ifndef MFW_COMPILER
#define MFW_COMPILER "Unknown"
#endif

using namespace mfw;

namespace {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct CampaignResult {
  int days = 0;
  std::size_t granules = 0;
  std::size_t tiles = 0;
  std::size_t shipped_files = 0;
  double makespan = 0.0;  // virtual seconds
  double wall_s = 0.0;
  std::size_t events = 0;
  std::size_t compactions = 0;
};

CampaignResult run_campaign(int days, obs::HealthMonitor* monitor = nullptr) {
  pipeline::EomlConfig config;
  config.span = modis::DaySpan{2022, 1, days};
  config.daytime_only = false;  // the archive keeps night granules too
  config.scheduling = pipeline::SchedulingMode::kStreaming;
  config.preprocess_nodes = 10;
  config.workers_per_node = 8;
  // Archive-scale knobs: the default one-week walltime would expire mid-run,
  // and per-flow provenance records (one per granule) would dominate memory.
  config.preprocess_walltime = 400.0 * 24 * 3600;
  config.retain_provenance = false;

  CampaignResult result;
  result.days = days;
  const double start = wall_now();
  pipeline::EomlWorkflow workflow(config);
  // Live health: poll once per simulated day (read-only tick; the run is
  // bit-for-bit identical with or without the monitor).
  if (monitor) workflow.attach_health(*monitor, 86400.0);
  const std::size_t events_before = workflow.engine().processed();
  const auto report = workflow.run();
  if (monitor) monitor->finish(workflow.engine().now());
  result.wall_s = wall_now() - start;
  result.granules = report.granules;
  result.tiles = report.total_tiles;
  result.shipped_files = report.shipped_files;
  result.makespan = report.makespan;
  result.events = workflow.engine().processed() - events_before;
  result.compactions = workflow.engine().compactions();
  return result;
}

// -- substrate churn ---------------------------------------------------------
// Submissions are staggered 1 ms apart so occupancy ramps to n while the
// drain (WAN trunk / contention law) lags far behind — the archive-download
// arrival pattern, which is exactly where the naive O(n)-per-event rebuild
// collapses. Runs stop early when `budget_s` of wall time elapses; since the
// cheap low-occupancy prefix is what fits in the window, an early stop
// *over*-estimates naive throughput, making the reported speedups
// conservative.

struct ChurnResult {
  std::size_t n = 0;
  std::size_t events = 0;
  double wall_s = 0.0;
  bool completed = true;
  double events_per_s() const { return events / std::max(wall_s, 1e-9); }
};

ChurnResult drive(sim::SimEngine& engine, std::size_t n, double budget_s) {
  ChurnResult result;
  result.n = n;
  const double start = wall_now();
  std::size_t steps = 0;
  while (engine.step()) {
    // Check the wall clock only every few events: rarely enough not to
    // swamp the fast substrate's sub-microsecond events, often enough that
    // the naive substrate's ~10 ms high-occupancy events cannot overshoot
    // the budget by much.
    if (++steps % 16 == 0 && wall_now() - start > budget_s) {
      result.completed = false;
      break;
    }
  }
  result.wall_s = wall_now() - start;
  result.events = engine.processed();
  return result;
}

template <typename Resource>
ChurnResult resource_churn(std::size_t n, double budget_s) {
  sim::SimEngine engine;
  Resource res(engine, std::make_unique<sim::SaturatingExpLaw>(38.5, 3.1));
  for (std::size_t i = 0; i < n; ++i) {
    engine.schedule_at(static_cast<double>(i) * 1e-3, [&res, i] {
      res.submit(1.0 + static_cast<double>(i % 13), [] {});
    });
  }
  return drive(engine, n, budget_s);
}

template <typename Link>
ChurnResult link_churn(std::size_t n, double budget_s) {
  sim::SimEngine engine;
  Link link(engine, "wan", 23.5 * 1024 * 1024);
  util::Rng rng(7);
  std::vector<std::pair<double, double>> specs;  // (bytes, cap)
  specs.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    specs.emplace_back(rng.uniform(1.0, 64.0) * 1024 * 1024,
                       rng.uniform(0.5, 12.0) * 1024 * 1024);
  for (std::size_t i = 0; i < n; ++i) {
    engine.schedule_at(static_cast<double>(i) * 1e-3, [&link, &specs, i] {
      link.start_flow(specs[i].first, specs[i].second, [](double) {});
    });
  }
  return drive(engine, n, budget_s);
}

ChurnResult engine_churn(std::size_t n, double budget_s) {
  // Cancel-heavy: every second event is cancelled before it fires, the
  // workload that makes the lazily-cancelled heap grow without compaction.
  sim::SimEngine engine;
  util::Rng rng(11);
  std::vector<sim::EventHandle> handles;
  handles.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    handles.push_back(engine.schedule_at(rng.uniform(0, 1e6), [] {}));
  for (std::size_t i = 0; i < n; i += 2) engine.cancel(handles[i]);
  return drive(engine, n, budget_s);
}

using ChurnFn = ChurnResult (*)(std::size_t, double);

struct Comparison {
  ChurnResult fast;
  ChurnResult naive;
  double speedup = 0.0;
};

Comparison compare(ChurnFn fast, ChurnFn naive, std::size_t n,
                   double naive_budget_s) {
  Comparison cmp;
  cmp.fast = fast(n, 1e9);
  cmp.naive = naive(n, naive_budget_s);
  cmp.speedup = cmp.fast.events_per_s() / std::max(cmp.naive.events_per_s(), 1e-9);
  return cmp;
}

std::string churn_json(const ChurnResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"n\": %zu, \"events\": %zu, \"wall_s\": %.4f, "
                "\"completed\": %s, \"events_per_s\": %.1f}",
                r.n, r.events, r.wall_s, r.completed ? "true" : "false",
                r.events_per_s());
  return buf;
}

std::string comparison_json(const Comparison& c) {
  return "{\"fast\": " + churn_json(c.fast) +
         ", \"naive\": " + churn_json(c.naive) +
         ", \"speedup\": " + std::to_string(c.speedup) + "}";
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t days = 365;
  bool quick = false;
  std::string out;
  std::string report_out;
  std::string health_out;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--days") && i + 1 < argc &&
        benchx::parse_count(argv[i + 1], 1, days)) {
      ++i;
    } else if (!std::strcmp(argv[i], "--quick")) {
      quick = true;
    } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
      out = argv[++i];
    } else if (!std::strcmp(argv[i], "--report-out") && i + 1 < argc) {
      report_out = argv[++i];
    } else if (!std::strcmp(argv[i], "--health-out") && i + 1 < argc) {
      health_out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: archive_campaign [--days N] [--quick] [--out <path>] "
                   "[--report-out <path>] [--health-out <path>]\n");
      return 2;
    }
  }
  if (quick) days = std::min<std::size_t>(days, 5);
  if (days > 365) {
    std::fprintf(stderr, "archive_campaign: --days must be in [1, 365]\n");
    return 2;
  }
  util::Logger::instance().set_level(util::LogLevel::kWarn);

  // Bounded telemetry: stats-only retention (a 1-in-64 span sample, capped)
  // plus per-day rollups. The recorder is restored to its defaults afterwards
  // so the churn sections below run untraced.
  std::unique_ptr<obs::SpanRollup> rollup;
  std::unique_ptr<obs::TelemetryBus> bus;
  std::unique_ptr<obs::HealthMonitor> monitor;
  if (!report_out.empty() || !health_out.empty()) {
    auto& rec = obs::TraceRecorder::instance();
    rec.clear();
    rec.set_retention({obs::RetentionMode::kStatsOnly, 64, 4096});
    obs::SpanSink* sink = nullptr;
    if (!report_out.empty()) {
      rollup = std::make_unique<obs::SpanRollup>(
          obs::RollupConfig{86400.0, 366});
      sink = rollup.get();
    }
    if (!health_out.empty()) {
      // The bus rides in front of the rollup (single recorder sink slot).
      // One simulated day of spans sits in the queue between daily polls;
      // if the archive ever outgrows the capacity the overflow is *counted*
      // (dropped_total in the health stream), never silently lost.
      bus = std::make_unique<obs::TelemetryBus>(65536);
      bus->set_next(sink);
      obs::HealthConfig health;
      health.window_s = 86400.0;  // per-day windows, like the rollup
      health.anomaly_k = 4.0;     // flag days departing from recent history
      monitor = std::make_unique<obs::HealthMonitor>(
          health, std::vector<obs::SloRule>{});
      monitor->attach(*bus);
      sink = bus.get();
    }
    rec.set_span_sink(sink);
    obs::set_globally_enabled(true);
  }

  std::printf("=== Archive campaign: %zu day(s), streaming, all granules ===\n",
              days);
  const auto campaign = run_campaign(static_cast<int>(days), monitor.get());
  std::printf(
      "%zu granules -> %zu tiles, %zu shipped files\n"
      "virtual makespan %.0f s (%.1f days), %zu events, %zu compactions, "
      "wall %.1f s\n",
      campaign.granules, campaign.tiles, campaign.shipped_files,
      campaign.makespan, campaign.makespan / 86400.0, campaign.events,
      campaign.compactions, campaign.wall_s);

  std::string obs_json;
  if (rollup || monitor) {
    auto& rec = obs::TraceRecorder::instance();
    obs::set_globally_enabled(false);
    const std::size_t observed = rec.observed_span_count();
    const std::size_t retained = rec.span_count();
    const std::size_t dropped = rec.dropped_span_count();
    const std::size_t dropped_instants = rec.dropped_instant_count();
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"observed_spans\": %zu, \"retained_spans\": %zu, "
                  "\"dropped_spans\": %zu, \"dropped_instants\": %zu}",
                  observed, retained, dropped, dropped_instants);
    obs_json = buf;
    if (rollup) {
      obs::write_file(report_out, "{\n  \"recorder\": " + obs_json +
                                      ",\n  \"rollup\": " + rollup->to_json() +
                                      "\n}\n");
      std::printf(
          "\nBounded telemetry: %zu spans observed, %zu retained "
          "(sample), %zu dropped; rollup holds %zu series\n%s",
          observed, retained, dropped, rollup->series_names().size(),
          rollup->summary().c_str());
      std::printf("Rollup report written to %s\n", report_out.c_str());
    }
    if (monitor) {
      obs::write_file(health_out, monitor->to_json(campaign.makespan));
      std::printf(
          "\nLive health: %llu events watched (%llu dropped at the bus), "
          "%zu alert transitions, %zu firing at end\n"
          "Health stream written to %s\n",
          static_cast<unsigned long long>(monitor->events_seen()),
          static_cast<unsigned long long>(monitor->dropped_events()),
          monitor->alerts().size(), monitor->firing_count(),
          health_out.c_str());
    }
    rec.set_span_sink(nullptr);
    rec.set_retention({});
    rec.clear();
  }

  // -- scaling (fast substrate) ----------------------------------------------
  const std::vector<std::size_t> sizes =
      quick ? std::vector<std::size_t>{10'000, 100'000}
            : std::vector<std::size_t>{100'000, 1'000'000};
  std::string scaling_json = "{";
  const struct {
    const char* name;
    ChurnFn fn;
  } kinds[] = {{"engine", engine_churn},
               {"resource", resource_churn<sim::SharedResource>},
               {"link", link_churn<sim::FlowLink>}};
  std::printf("\n=== Substrate scaling (fast) ===\n");
  for (std::size_t k = 0; k < 3; ++k) {
    scaling_json += std::string("\"") + kinds[k].name + "\": [";
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      const auto r = kinds[k].fn(sizes[s], 1e9);
      std::printf("%-8s n=%-8zu %8.3f s   %12.0f events/s\n", kinds[k].name,
                  r.n, r.wall_s, r.events_per_s());
      scaling_json += churn_json(r);
      if (s + 1 < sizes.size()) scaling_json += ", ";
    }
    scaling_json += (k + 1 < 3) ? "], " : "]";
  }
  scaling_json += "}";

  // -- fast vs naive churn ---------------------------------------------------
  const std::size_t churn_n = quick ? 20'000 : 100'000;
  const double naive_budget = quick ? 2.0 : 20.0;
  std::printf("\n=== Fast vs naive churn (n=%zu, naive window %.0f s) ===\n",
              churn_n, naive_budget);
  const auto res_cmp = compare(resource_churn<sim::SharedResource>,
                               resource_churn<sim::NaiveResource>, churn_n,
                               naive_budget);
  std::printf("resource  speedup %.1fx  (fast %.3f s%s, naive %.3f s%s)\n",
              res_cmp.speedup, res_cmp.fast.wall_s,
              res_cmp.fast.completed ? "" : " partial", res_cmp.naive.wall_s,
              res_cmp.naive.completed ? "" : " partial");
  const auto link_cmp = compare(link_churn<sim::FlowLink>,
                                link_churn<sim::NaiveLink>, churn_n,
                                naive_budget);
  std::printf("link      speedup %.1fx  (fast %.3f s%s, naive %.3f s%s)\n",
              link_cmp.speedup, link_cmp.fast.wall_s,
              link_cmp.fast.completed ? "" : " partial", link_cmp.naive.wall_s,
              link_cmp.naive.completed ? "" : " partial");

  std::string json = "{\n";
  {
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "  \"context\": {\"build_type\": \"%s\", \"compiler\": "
                  "\"%s\", \"nproc\": %u},\n",
                  MFW_BUILD_TYPE, MFW_COMPILER,
                  std::thread::hardware_concurrency());
    json += buf;
    std::snprintf(
        buf, sizeof buf,
        "  \"campaign\": {\"days\": %d, \"granules\": %zu, \"tiles\": %zu, "
        "\"shipped_files\": %zu, \"virtual_makespan_s\": %.2f, "
        "\"wall_s\": %.2f, \"events\": %zu, \"compactions\": %zu},\n",
        campaign.days, campaign.granules, campaign.tiles,
        campaign.shipped_files, campaign.makespan, campaign.wall_s,
        campaign.events, campaign.compactions);
    json += buf;
  }
  if (!obs_json.empty()) json += "  \"obs\": " + obs_json + ",\n";
  json += "  \"scaling\": " + scaling_json + ",\n";
  json += "  \"churn_vs_naive\": {\n";
  json += "    \"resource\": " + comparison_json(res_cmp) + ",\n";
  json += "    \"link\": " + comparison_json(link_cmp) + "\n  }\n}\n";

  if (!out.empty()) {
    std::ofstream file(out);
    file << json;
    std::printf("\nJSON written to %s\n", out.c_str());
  } else {
    std::printf("\n%s", json.c_str());
  }
  return 0;
}
