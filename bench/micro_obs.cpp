// micro_obs: overhead of the obs recording paths (DESIGN.md §10).
//
// Drives the instrumented call-site idiom (enabled() gate, then
// begin_span/end_span with args) through a private TraceRecorder in three
// modes and reports span-pairs/second for each:
//
//   disabled      recorder off — the relaxed-atomic gate only, no strings,
//                 no lock (the cost every un-traced run pays per call site)
//   full          RetentionMode::kFull — every span stored (paper figures)
//   stats_rollup  RetentionMode::kStatsOnly + SpanRollup sink — bounded
//                 memory (archive campaigns); measures the sink + sampling
//                 path including window rollover/eviction
//   stats_bus     RetentionMode::kStatsOnly + TelemetryBus chained to the
//                 same rollup, with one subscriber drained every 4096 spans —
//                 the live-watch producer path (DESIGN.md §12): event copy,
//                 bounded-queue fan-out, drop accounting
//   stats_flight  RetentionMode::kStatsOnly + FlightRecorder sink — the
//                 always-on black box (DESIGN.md §15): one ring-slot copy
//                 per event, newest overwriting oldest at fixed memory
//
// Usage: micro_obs [--spans N] [--out <path>]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include <vector>

#include "bench_common.hpp"
#include "obs/flight.hpp"
#include "obs/rollup.hpp"
#include "obs/trace.hpp"
#include "obs/watch.hpp"

using namespace mfw;

namespace {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ModeResult {
  std::string mode;
  double wall_s = 0.0;
  double spans_per_s = 0.0;
  std::size_t retained_spans = 0;
  std::size_t observed_spans = 0;
};

/// Records `n` compute-span open/close pairs through `rec` with the
/// call-site idiom used by the instrumented modules. The track rotates over
/// eight worker lanes so track interning and rollup series keys behave as in
/// a real run. When `bus` is set, subscription `sub` is drained every 4096
/// pairs — a realistic watch poll cadence, so the producer path is measured
/// against a queue that is neither empty nor permanently full.
ModeResult drive(obs::TraceRecorder& rec, std::string mode, std::size_t n,
                 obs::TelemetryBus* bus = nullptr, std::size_t sub = 0) {
  ModeResult result;
  result.mode = std::move(mode);
  std::vector<obs::TelemetryEvent> drained;
  const double start = wall_now();
  for (std::size_t i = 0; i < n; ++i) {
    obs::SpanId span;
    if (rec.enabled()) {
      char track[32];
      std::snprintf(track, sizeof track, "preprocess/node0/w%zu", i % 8);
      span = rec.begin_span(track, "compute", "tile-batch",
                            {{"queue_wait_s", "0.25"},
                             {"granule", "terra.A2022001.s0000"}});
    }
    rec.end_span(span, {{"status", "ok"}});
    if (bus && (i + 1) % 4096 == 0) {
      drained.clear();
      bus->poll(sub, drained);
    }
  }
  result.wall_s = wall_now() - start;
  result.spans_per_s = n / std::max(result.wall_s, 1e-9);
  result.retained_spans = rec.span_count();
  result.observed_spans = rec.observed_span_count();
  return result;
}

std::string mode_json(const ModeResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"wall_s\": %.4f, \"spans_per_s\": %.0f, "
                "\"retained_spans\": %zu, \"observed_spans\": %zu}",
                r.wall_s, r.spans_per_s, r.retained_spans, r.observed_spans);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t spans = 200'000;
  std::string out;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--spans") && i + 1 < argc &&
        benchx::parse_count(argv[i + 1], 1, spans)) {
      ++i;
    } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: micro_obs [--spans N] [--out <path>]\n");
      return 2;
    }
  }

  std::printf("=== obs recording overhead: %zu span pairs per mode ===\n",
              spans);

  // disabled: the gate only. The loop still runs end_span on the invalid id,
  // exactly what an instrumented call site does when tracing is off.
  obs::TraceRecorder disabled_rec;
  disabled_rec.set_enabled(false);
  const auto disabled = drive(disabled_rec, "disabled", spans);

  // full retention (paper-figure runs).
  obs::TraceRecorder full_rec;
  full_rec.set_enabled(true);
  const auto full = drive(full_rec, "full", spans);

  // stats-only retention + rollup sink (archive campaigns). The 10 ms window
  // with a 64-window ring forces continual rollover/eviction under the
  // wall clock, so the measured path includes the ring maintenance.
  obs::TraceRecorder stats_rec;
  stats_rec.set_enabled(true);
  stats_rec.set_retention({obs::RetentionMode::kStatsOnly, 64, 4096});
  obs::SpanRollup rollup(obs::RollupConfig{0.01, 64});
  stats_rec.set_span_sink(&rollup);
  const auto stats = drive(stats_rec, "stats_rollup", spans);
  stats_rec.set_span_sink(nullptr);

  // stats-only retention + the live watch chain: TelemetryBus in front of
  // the same rollup (single sink slot), one subscriber drained every 4096
  // spans. Measures the producer-side event copy + bounded-queue fan-out.
  obs::TraceRecorder bus_rec;
  bus_rec.set_enabled(true);
  bus_rec.set_retention({obs::RetentionMode::kStatsOnly, 64, 4096});
  obs::SpanRollup bus_rollup(obs::RollupConfig{0.01, 64});
  obs::TelemetryBus bus(8192);
  bus.set_next(&bus_rollup);
  const std::size_t sub = bus.subscribe();
  bus_rec.set_span_sink(&bus);
  const auto stats_bus = drive(bus_rec, "stats_bus", spans, &bus, sub);
  bus_rec.set_span_sink(nullptr);

  // stats-only retention + flight ring: the always-on black box. Every span
  // costs one ring-slot copy regardless of how long the campaign runs.
  obs::TraceRecorder flight_rec;
  flight_rec.set_enabled(true);
  flight_rec.set_retention({obs::RetentionMode::kStatsOnly, 64, 4096});
  obs::FlightRecorder flight;
  flight_rec.set_span_sink(&flight);
  const auto stats_flight = drive(flight_rec, "stats_flight", spans);
  flight_rec.set_span_sink(nullptr);

  for (const auto& r : {disabled, full, stats, stats_bus, stats_flight})
    std::printf("%-14s %10.4f s  %14.0f spans/s  retained %zu\n",
                r.mode.c_str(), r.wall_s, r.spans_per_s, r.retained_spans);
  const double full_ns = 1e9 * full.wall_s / spans;
  const double stats_ns = 1e9 * stats.wall_s / spans;
  const double bus_ns = 1e9 * stats_bus.wall_s / spans;
  const double flight_ns = 1e9 * stats_flight.wall_s / spans;
  std::printf("per-pair cost: full %.0f ns, stats+rollup %.0f ns "
              "(rollup adds %.1f%%), stats+bus %.0f ns "
              "(bus adds %.1f%% over rollup; %llu published, %llu dropped)\n",
              full_ns, stats_ns, 100.0 * (stats_ns - full_ns) / full_ns,
              bus_ns, 100.0 * (bus_ns - stats_ns) / stats_ns,
              static_cast<unsigned long long>(bus.published()),
              static_cast<unsigned long long>(bus.dropped_total()));
  std::printf("flight ring: %.0f ns/pair, %zu of %llu events retained "
              "(%llu overwritten)\n",
              flight_ns, flight.size(),
              static_cast<unsigned long long>(flight.seen()),
              static_cast<unsigned long long>(flight.overwritten()));
  std::printf("bounded-mode memory: %zu retained of %zu observed spans, "
              "%zu rollup series\n",
              stats.retained_spans, stats.observed_spans,
              rollup.series_names().size());

  std::string json = "{\n";
  json += "  \"spans\": " + std::to_string(spans) + ",\n";
  json += "  \"modes\": {\n";
  json += "    \"disabled\": " + mode_json(disabled) + ",\n";
  json += "    \"full\": " + mode_json(full) + ",\n";
  json += "    \"stats_rollup\": " + mode_json(stats) + ",\n";
  json += "    \"stats_bus\": " + mode_json(stats_bus) + ",\n";
  json += "    \"stats_flight\": " + mode_json(stats_flight) + "\n  },\n";
  {
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "  \"overhead\": {\"full_pair_ns\": %.1f, "
                  "\"stats_rollup_pair_ns\": %.1f, "
                  "\"stats_bus_pair_ns\": %.1f, "
                  "\"stats_flight_pair_ns\": %.1f, "
                  "\"rollup_vs_full\": %.3f, \"bus_vs_rollup\": %.3f, "
                  "\"flight_vs_rollup\": %.3f, "
                  "\"bus_dropped\": %llu, \"flight_overwritten\": %llu}\n",
                  full_ns, stats_ns, bus_ns, flight_ns,
                  stats_ns / std::max(full_ns, 1e-9),
                  bus_ns / std::max(stats_ns, 1e-9),
                  flight_ns / std::max(stats_ns, 1e-9),
                  static_cast<unsigned long long>(bus.dropped_total()),
                  static_cast<unsigned long long>(flight.overwritten()));
    json += buf;
  }
  json += "}\n";

  if (!out.empty()) {
    std::ofstream file(out);
    file << json;
    std::printf("JSON written to %s\n", out.c_str());
  } else {
    std::printf("%s", json.c_str());
  }
  return 0;
}
