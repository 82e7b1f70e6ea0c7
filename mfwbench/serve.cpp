// Workload `serve`: a 500k-tile, 30-day AICCA catalog with 32 shards and a
// 65,536-entry result cache. The write path (construct, ingest and publish,
// seal; one thread) is timed beside the read path: 3 reader threads replay a
// Zipf mix of point, bbox, class and time-range queries open-loop at two
// fixed offered rates, each request timed from when it was due. Records and
// queries are synthesised here from the seed, not by the serve layer's own
// generators.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <thread>

#include "replay.hpp"
#include "serve/catalog.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace mfwbench {

using namespace mfw;

namespace {

constexpr int kDays = 30;
constexpr int kClasses = 42;
constexpr std::size_t kTiles = 500'000;
constexpr std::size_t kShards = 32;
constexpr std::size_t kCacheEntries = 65'536;
constexpr std::size_t kReaders = 3;
/// Offered rates (requests/s across all readers), fixed so the load never
/// follows the code's own capacity.
constexpr double kBaseRate = 2'000.0;
constexpr double kPeakRate = 6'000.0;
/// Ladder above the peak rate searched for the sustained rate.
constexpr double kLadder[] = {8'000.0, 12'000.0, 16'000.0, 24'000.0, 32'000.0};
/// p99 latency limit for a rate to count as sustained.
constexpr double kLimitUs = 20'000.0;
constexpr std::size_t kCheckedQueries = 100;

std::vector<analysis::TileRecord> make_records(std::size_t n,
                                               std::uint64_t seed) {
  util::Rng rng(util::mix64(seed, 0x5e7));
  const util::ZipfGenerator classes(kClasses, 1.0);
  std::vector<analysis::TileRecord> records(n);
  for (auto& r : records) {
    r.granule.product = modis::ProductKind::kMod02;
    r.granule.year = 2022;
    r.granule.day_of_year = static_cast<int>(rng.uniform_int(1, kDays));
    r.granule.slot = static_cast<int>(rng.uniform_int(0, 287));
    r.label = static_cast<int>(classes(rng));
    // Ocean clouds cluster in the tropics and the storm tracks.
    const double band = rng.bernoulli(0.6) ? 10.0 : 50.0;
    const double lat = (rng.bernoulli(0.5) ? 1.0 : -1.0) * band +
                       rng.normal(0.0, band < 20.0 ? 12.0 : 10.0);
    r.latitude = static_cast<float>(std::clamp(lat, -89.9, 89.9));
    r.longitude = static_cast<float>(rng.uniform(-180.0, 180.0));
    r.cloud_fraction = static_cast<float>(rng.uniform(0.3, 1.0));
    r.optical_thickness = static_cast<float>(rng.lognormal_median(8.0, 0.6));
    r.cloud_top_pressure = static_cast<float>(rng.uniform(200.0, 1000.0));
    r.water_path = static_cast<float>(rng.lognormal_median(90.0, 0.7));
  }
  return records;
}

/// Zipf-popular home cells; coordinates and day windows are quantized the
/// way map tiles and dashboards quantize them, so requests recur. The cell
/// ranking follows `seed`; `stream` picks the draws, so two streams of one
/// seed share their hot cells.
std::vector<serve::QueryRequest> make_queries(const serve::Catalog& catalog,
                                              std::size_t n, std::uint64_t seed,
                                              std::uint64_t stream) {
  util::Rng rank_rng(util::mix64(seed, 0x9a1));
  const std::size_t cells = catalog.cell_count();
  std::vector<std::uint32_t> rank(cells);
  for (std::size_t i = 0; i < cells; ++i) rank[i] = static_cast<std::uint32_t>(i);
  std::shuffle(rank.begin(), rank.end(), rank_rng);
  util::Rng rng(util::mix64(seed, stream));
  const util::ZipfGenerator popularity(cells, 1.1);
  const util::ZipfGenerator classes(kClasses, 1.0);
  const double deg = catalog.config().cell_deg;
  constexpr int kWindow = 7;
  std::vector<serve::QueryRequest> queries(n);
  for (auto& q : queries) {
    double lat = 0.0, lon = 0.0;
    catalog.cell_center(rank[popularity(rng)], &lat, &lon);
    q.day_lo = 1 + kWindow * static_cast<int>(rng.uniform_int(0, (kDays - 1) / kWindow));
    q.day_hi = std::min(kDays, q.day_lo + kWindow - 1);
    q.sample_limit = 4;
    const double mix = rng.uniform();
    if (mix < 0.70) {
      q.kind = serve::QueryKind::kPoint;
      q.lat = std::clamp(lat + 0.3 * deg * static_cast<double>(rng.uniform_int(-1, 1)), -90.0, 90.0);
      q.lon = std::clamp(lon + 0.3 * deg * static_cast<double>(rng.uniform_int(-1, 1)), -180.0, 180.0);
    } else if (mix < 0.90) {
      q.kind = serve::QueryKind::kBbox;
      const double half = deg * (0.5 + 0.5 * static_cast<double>(rng.uniform_int(0, 3)));
      q.lat_lo = std::max(-90.0, lat - half);
      q.lat_hi = std::min(90.0, lat + half);
      q.lon_lo = std::max(-180.0, lon - half);
      q.lon_hi = std::min(180.0, lon + half);
    } else if (mix < 0.98) {
      q.kind = serve::QueryKind::kClass;
      q.label = static_cast<int>(classes(rng));
    } else {
      q.kind = serve::QueryKind::kTimeRange;
    }
  }
  return queries;
}

bool same_response(const serve::QueryResponse& a, const serve::QueryResponse& b) {
  if (a.matched != b.matched || a.classes.size() != b.classes.size()) return false;
  const auto close = [](double x, double y) {
    return std::abs(x - y) <= 1e-6 * std::max(1.0, std::abs(y));
  };
  for (std::size_t i = 0; i < a.classes.size(); ++i) {
    const auto& x = a.classes[i];
    const auto& y = b.classes[i];
    if (x.label != y.label || x.stats.count != y.stats.count ||
        !close(x.stats.mean_cloud_fraction, y.stats.mean_cloud_fraction) ||
        !close(x.stats.mean_optical_thickness, y.stats.mean_optical_thickness) ||
        !close(x.stats.mean_cloud_top_pressure, y.stats.mean_cloud_top_pressure) ||
        !close(x.stats.mean_water_path, y.stats.mean_water_path))
      return false;
  }
  return true;
}

struct Sample {
  float latency_us = 0;  // finish - due
  float service_us = 0;  // finish - start
  float late_us = 0;     // start - due
  serve::QueryKind kind = serve::QueryKind::kPoint;
};

struct Phase {
  std::vector<Sample> samples;
  std::uint64_t errors = 0;
  std::uint64_t matched = 0;
  std::uint64_t probed = 0;
  std::uint64_t pruned = 0;

  double latency(double q) const {
    std::vector<double> v;
    v.reserve(samples.size());
    for (const auto& s : samples) v.push_back(s.latency_us);
    return quantile(std::move(v), q);
  }
};

/// Open loop: each reader draws Poisson arrivals at rate / kReaders and
/// replays its share of `queries` from a common start.
Phase run_phase(serve::ServeService& service,
                const std::vector<serve::QueryRequest>& queries, double rate,
                double seconds, std::uint64_t seed) {
  std::vector<Phase> parts(kReaders);
  const double start = now_s() + 0.005;
  const auto worker = [&](std::size_t w) {
    util::Rng rng(util::mix64(seed, 0x7ead + w));
    Phase& out = parts[w];
    out.samples.reserve(static_cast<std::size_t>(rate * seconds / kReaders * 1.2) + 16);
    double due = start;
    for (std::size_t i = w;; i += kReaders) {
      due += rng.exponential(static_cast<double>(kReaders) / rate);
      if (due > start + seconds) break;
      for (double t = now_s(); t < due; t = now_s()) {
        if (due - t > 300e-6)
          std::this_thread::sleep_for(std::chrono::duration<double>(due - t - 200e-6));
      }
      const auto& request = queries[i % queries.size()];
      const double t0 = now_s();
      try {
        const auto response = service.query(request);
        out.matched += response.matched;
        out.probed += response.shards_probed;
        out.pruned += response.shards_pruned;
      } catch (const std::exception&) {
        ++out.errors;
      }
      const double t1 = now_s();
      out.samples.push_back({static_cast<float>(1e6 * (t1 - due)),
                             static_cast<float>(1e6 * (t1 - t0)),
                             static_cast<float>(1e6 * (t0 - due)), request.kind});
    }
  };
  std::vector<std::thread> readers;
  for (std::size_t w = 0; w < kReaders; ++w) readers.emplace_back(worker, w);
  for (auto& t : readers) t.join();
  Phase all;
  for (auto& p : parts) {
    all.samples.insert(all.samples.end(), p.samples.begin(), p.samples.end());
    all.errors += p.errors;
    all.matched += p.matched;
    all.probed += p.probed;
    all.pruned += p.pruned;
  }
  return all;
}

/// Closed loop over `queries` with kReaders threads (cache warm-up).
void replay_closed(serve::ServeService& service,
                   const std::vector<serve::QueryRequest>& queries) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> readers;
  for (std::size_t w = 0; w < kReaders; ++w)
    readers.emplace_back([&] {
      for (std::size_t i = next++; i < queries.size(); i = next++)
        service.query(queries[i]);
    });
  for (auto& t : readers) t.join();
}

void report_phase(Report& report, const std::string& name, const Phase& phase) {
  const auto n = static_cast<std::uint64_t>(phase.samples.size());
  report.metric("query_p50_us." + name, phase.latency(0.50), "us", n);
  report.metric("query_p99_us." + name, phase.latency(0.99), "us", n);
  std::vector<double> late;
  late.reserve(phase.samples.size());
  for (const auto& s : phase.samples) late.push_back(s.late_us);
  report.metric("generator.late_p99_us." + name, quantile(late, 0.99), "us", n);
}

}  // namespace

Report run_serve(const Options& options) {
  Report report;
  SpanLog log;
  const std::size_t tiles = options.toy ? 20'000 : kTiles;
  const double seconds = std::max(1.0, options.seconds);

  // The write path and set-up run single-threaded on one pinned CPU and are
  // scaled by HostSpeed like the other workloads: on a shared host the
  // 4-thread pool's time drifts with the neighbours' memory traffic, which
  // no single-core reference tracks.
  std::optional<CpuPin> pin(std::in_place);
  HostSpeed host;

  // Set-up: record and query synthesis, sampled a few times.
  std::vector<double> setup;
  std::vector<analysis::TileRecord> records;
  std::vector<serve::QueryRequest> queries, warm;
  for (int i = 0; i < 3; ++i) {
    SpanLog::Scope span(log, "serve.synthesise");
    records = make_records(tiles, options.seed);
    const serve::Catalog geometry(serve::CatalogConfig{});
    queries = make_queries(geometry, 65'536, options.seed, 1);
    warm = make_queries(geometry, options.toy ? 4'096 : 32'768, options.seed, 2);
    setup.push_back(span.elapsed());
  }

  // Write path: a fresh catalog per repetition, timed construction, ingest
  // and publish, and seal.
  serve::CatalogConfig catalog_config;
  catalog_config.shard_count = kShards;
  std::unique_ptr<serve::Catalog> catalog;
  std::vector<double> rate, raw, ingest_s, seal_s;
  const double ingest_deadline = now_s() + 0.25 * seconds;
  do {
    catalog.reset();
    double ingest = 0.0, seal = 0.0;
    {
      SpanLog::Scope span(log, "serve.ingest");
      catalog = std::make_unique<serve::Catalog>(catalog_config);
      catalog->ingest(records);
      ingest = span.elapsed();
    }
    {
      SpanLog::Scope span(log, "serve.seal");
      catalog->seal();
      seal = span.elapsed();
    }
    ingest_s.push_back(ingest);
    seal_s.push_back(seal);
    raw.push_back(static_cast<double>(tiles) / (ingest + seal));
    rate.push_back(static_cast<double>(tiles) / host.scale(ingest + seal));
  } while (now_s() < ingest_deadline || rate.size() < 3);
  pin.reset();
  report.check("serve.ingest", catalog->tile_count() == tiles,
               std::to_string(catalog->tile_count()) + " of " + std::to_string(tiles) +
                   " rows ingested");

  serve::ServeConfig service_config;
  service_config.cache_capacity = kCacheEntries;
  service_config.trace = false;
  serve::ServeService service(*catalog, service_config);
  double warmup_s = 0.0;
  {
    SpanLog::Scope span(log, "serve.warm");
    replay_closed(service, warm);
    warmup_s = span.elapsed();
  }

  // Read path at the two fixed rates, then up the ladder while p99 holds.
  const auto before = service.stats();
  Phase base, peak;
  {
    SpanLog::Scope span(log, "serve.read.base");
    base = run_phase(service, queries, kBaseRate, 0.3 * seconds, options.seed);
  }
  {
    SpanLog::Scope span(log, "serve.read.peak");
    peak = run_phase(service, queries, kPeakRate, 0.3 * seconds, options.seed + 1);
  }
  const auto after = service.stats();
  double sustained = 0.0;
  if (base.latency(0.99) <= kLimitUs) sustained = kBaseRate;
  if (sustained > 0 && peak.latency(0.99) <= kLimitUs) {
    sustained = kPeakRate;
    for (const double step : kLadder) {
      SpanLog::Scope span(log, "serve.read.ladder");
      const Phase p = run_phase(service, queries, step, 0.05 * seconds, options.seed + 2);
      if (p.latency(0.99) > kLimitUs || p.errors > 0) break;
      sustained = step;
    }
  }

  // Output check: a fixed sample of the stream, served through the cache,
  // against the brute-force oracle.
  std::size_t wrong = 0;
  const std::size_t checked = std::min(kCheckedQueries, queries.size());
  for (std::size_t i = 0; i < checked; ++i) {
    if (!same_response(service.query(queries[i]),
                       serve::brute_force_query(records, queries[i], *catalog)))
      ++wrong;
  }
  report.check("serve.oracle", wrong == 0,
               std::to_string(wrong) + " of " + std::to_string(checked) +
                   " sampled queries differ from serve::brute_force_query");
  const std::uint64_t errors = base.errors + peak.errors;
  report.check("serve.errors", errors == 0, std::to_string(errors) + " queries threw");
  report.count(base.samples.size() + peak.samples.size() + checked, errors + wrong);

  report.metric("ingest_rows_per_s", median(rate), "1/s", rate.size());
  report.metric("ingest_rows_per_host_s", median(raw), "1/s", raw.size());
  report.metric("host.reference_s", host.reference_s(), "s");
  report.metric("items_per_s", median(rate), "1/s", rate.size());
  report_phase(report, "base", base);
  report_phase(report, "peak", peak);
  report.metric("sustained_qps", sustained, "1/s");
  report.metric("setup_s", host.scale_run(median(setup)), "s", setup.size());
  report.metric("setup_host_s", median(setup), "s", setup.size());
  report.metric("warmup_s", warmup_s, "s");
  report.metric("peak_rss_mb", peak_rss_mib(), "MiB");

  if (options.trace) {
    const double ingest = median(ingest_s), seal = median(seal_s);
    report.metric("serve.ingest_s", ingest, "s", ingest_s.size());
    report.metric("serve.seal_s", seal, "s", seal_s.size());
    report.metric("serve.ingest.pct", 100.0 * ingest / (ingest + seal), "%");
    report.metric("serve.seal.pct", 100.0 * seal / (ingest + seal), "%");
    double busy = 0.0;
    for (const auto& s : peak.samples) busy += s.service_us;
    for (const auto kind : {serve::QueryKind::kPoint, serve::QueryKind::kBbox,
                            serve::QueryKind::kClass, serve::QueryKind::kTimeRange}) {
      std::vector<double> v;
      double kind_busy = 0.0;
      for (const auto& s : peak.samples)
        if (s.kind == kind) {
          v.push_back(s.service_us);
          kind_busy += s.service_us;
        }
      const std::string name = std::string("serve.query.") + serve::kind_name(kind);
      report.metric(name + ".p50_us", quantile(v, 0.50), "us", v.size());
      report.metric(name + ".p99_us", quantile(v, 0.99), "us", v.size());
      report.metric(name + ".pct", busy > 0 ? 100.0 * kind_busy / busy : 0.0, "%");
    }
    const auto queries_run = static_cast<double>(after.queries - before.queries);
    report.metric("serve.shards.pruned_frac",
                  static_cast<double>(base.pruned + peak.pruned) /
                      std::max(1.0, static_cast<double>(base.pruned + peak.pruned +
                                                        base.probed + peak.probed)),
                  "frac");
    report.metric("serve.rows.matched_per_query",
                  static_cast<double>(base.matched + peak.matched) /
                      std::max(1.0, static_cast<double>(base.samples.size() +
                                                        peak.samples.size())),
                  "count");
    report.metric("serve.cache.hit_frac",
                  static_cast<double>(after.cache_hits - before.cache_hits) /
                      std::max(1.0, queries_run),
                  "frac");
    report.metric("serve.cache.stale",
                  static_cast<double>(after.cache_stale - before.cache_stale), "count");
    report.metric("serve.cache.misses",
                  static_cast<double>(after.cache_misses - before.cache_misses), "count");
    if (!options.trace_out.empty() && !log.write(options.trace_out))
      report.check("trace.write", false, options.trace_out);
  }
  return report;
}

}  // namespace mfwbench
