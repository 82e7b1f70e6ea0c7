// Tests for the sharded serving layer: query correctness against the
// brute-force archive-scan oracle (property-tested over random archives),
// lock-free read-during-ingest behaviour (the TSan target), cache hits /
// generation invalidation / LRU eviction, and the mfw.serve/v1 JSON surface.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>

#include "analysis/aicca.hpp"
#include "obs/metrics.hpp"
#include "preprocess/tile_io.hpp"
#include "serve/api.hpp"
#include "serve/catalog.hpp"
#include "serve/loadgen.hpp"
#include "serve/service.hpp"
#include "storage/memfs.hpp"
#include "util/rng.hpp"

namespace mfw::serve {
namespace {

analysis::TileRecord random_record(util::Rng& rng, int num_classes,
                                   int max_day) {
  analysis::TileRecord record;
  record.granule.product = modis::ProductKind::kMod02;
  record.granule.satellite =
      rng.bernoulli(0.5) ? modis::Satellite::kTerra : modis::Satellite::kAqua;
  record.granule.year = 2022;
  record.granule.day_of_year = static_cast<int>(rng.uniform_int(1, max_day));
  record.granule.slot = static_cast<int>(rng.uniform_int(0, 287));
  record.label = static_cast<int>(rng.uniform_int(0, num_classes - 1));
  // Occasionally pin the poles / dateline so clamp edges are exercised.
  const double edge = rng.uniform();
  if (edge < 0.02) {
    record.latitude = rng.bernoulli(0.5) ? 90.0f : -90.0f;
  } else {
    record.latitude = static_cast<float>(rng.uniform(-90.0, 90.0));
  }
  if (edge > 0.98) {
    record.longitude = rng.bernoulli(0.5) ? 180.0f : -180.0f;
  } else {
    record.longitude = static_cast<float>(rng.uniform(-180.0, 180.0));
  }
  record.cloud_fraction = static_cast<float>(rng.uniform(0.0, 1.0));
  record.optical_thickness = static_cast<float>(rng.uniform(0.1, 60.0));
  record.cloud_top_pressure = static_cast<float>(rng.uniform(150.0, 1000.0));
  record.water_path = static_cast<float>(rng.uniform(1.0, 400.0));
  return record;
}

std::vector<analysis::TileRecord> random_records(std::uint64_t seed,
                                                 std::size_t n,
                                                 int num_classes = 8,
                                                 int max_day = 40) {
  util::Rng rng(seed);
  std::vector<analysis::TileRecord> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    records.push_back(random_record(rng, num_classes, max_day));
  return records;
}

QueryRequest random_request(util::Rng& rng, int num_classes, int max_day) {
  QueryRequest request;
  const int kind = static_cast<int>(rng.uniform_int(0, 3));
  request.kind = static_cast<QueryKind>(kind);
  request.lat = rng.uniform(-95.0, 95.0);  // may fall outside valid range
  request.lon = rng.uniform(-185.0, 185.0);
  const double lat_a = rng.uniform(-90.0, 90.0);
  const double lat_b = rng.uniform(-90.0, 90.0);
  request.lat_lo = std::min(lat_a, lat_b);
  request.lat_hi = std::max(lat_a, lat_b);
  const double lon_a = rng.uniform(-180.0, 180.0);
  const double lon_b = rng.uniform(-180.0, 180.0);
  request.lon_lo = std::min(lon_a, lon_b);
  request.lon_hi = std::max(lon_a, lon_b);
  request.label = static_cast<int>(rng.uniform_int(-1, num_classes));
  const int d0 = static_cast<int>(rng.uniform_int(1, max_day));
  const int d1 = static_cast<int>(rng.uniform_int(1, max_day));
  request.day_lo = std::min(d0, d1);
  request.day_hi = std::max(d0, d1);
  request.sample_limit = static_cast<std::size_t>(rng.uniform_int(0, 6));
  return request;
}

bool record_matches(const analysis::TileRecord& record,
                    const QueryRequest& request, const Catalog& catalog) {
  const int day = record.granule.day_of_year;
  if (day < request.day_lo || day > request.day_hi) return false;
  switch (request.kind) {
    case QueryKind::kPoint:
      return catalog.cell_of(record.latitude, record.longitude) ==
             catalog.cell_of(request.lat, request.lon);
    case QueryKind::kBbox:
      return record.latitude >= request.lat_lo &&
             record.latitude <= request.lat_hi &&
             record.longitude >= request.lon_lo &&
             record.longitude <= request.lon_hi;
    case QueryKind::kClass:
      return record.label == request.label;
    case QueryKind::kTimeRange:
      return true;
  }
  return false;
}

bool same_record(const analysis::TileRecord& a, const analysis::TileRecord& b) {
  return a.granule == b.granule && a.label == b.label &&
         a.latitude == b.latitude && a.longitude == b.longitude &&
         a.cloud_fraction == b.cloud_fraction &&
         a.optical_thickness == b.optical_thickness &&
         a.cloud_top_pressure == b.cloud_top_pressure &&
         a.water_path == b.water_path;
}

/// Asserts a catalog response is equivalent to the oracle's: counts exact,
/// means within floating-point reassociation tolerance, samples valid.
void expect_matches_oracle(const QueryResponse& got, const QueryResponse& want,
                           const QueryRequest& request,
                           const std::vector<analysis::TileRecord>& records,
                           const Catalog& catalog) {
  EXPECT_EQ(got.matched, want.matched);
  ASSERT_EQ(got.classes.size(), want.classes.size());
  for (std::size_t i = 0; i < got.classes.size(); ++i) {
    EXPECT_EQ(got.classes[i].label, want.classes[i].label);
    const auto& g = got.classes[i].stats;
    const auto& o = want.classes[i].stats;
    EXPECT_EQ(g.count, o.count);
    const auto near = [](double a, double b) {
      return std::abs(a - b) <=
             1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
    };
    EXPECT_TRUE(near(g.mean_cloud_fraction, o.mean_cloud_fraction));
    EXPECT_TRUE(near(g.mean_optical_thickness, o.mean_optical_thickness));
    EXPECT_TRUE(near(g.mean_cloud_top_pressure, o.mean_cloud_top_pressure));
    EXPECT_TRUE(near(g.mean_water_path, o.mean_water_path));
    EXPECT_TRUE(near(g.mean_abs_latitude, o.mean_abs_latitude));
  }
  // Samples may differ in order between execution strategies; every sampled
  // record must satisfy the predicate and exist in the archive, and the
  // sample must be as large as the limit allows.
  EXPECT_EQ(got.sample.size(),
            std::min<std::uint64_t>(request.sample_limit, got.matched));
  for (const auto& sampled : got.sample) {
    EXPECT_TRUE(record_matches(sampled, request, catalog));
    bool found = false;
    for (const auto& record : records) {
      if (same_record(sampled, record)) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(GranulePack, RoundTrips) {
  modis::GranuleId id;
  id.product = modis::ProductKind::kMod06;
  id.satellite = modis::Satellite::kAqua;
  id.year = 2023;
  id.day_of_year = 366;
  id.slot = 287;
  EXPECT_EQ(unpack_granule(pack_granule(id)), id);
  modis::GranuleId zero;
  zero.year = 2000;
  zero.day_of_year = 0;
  EXPECT_EQ(unpack_granule(pack_granule(zero)), zero);
}

TEST(Catalog, CellEdgesClampLikeZonalBands) {
  Catalog catalog;
  const std::uint32_t pole = catalog.cell_of(90.0, 0.0);
  EXPECT_EQ(pole, catalog.cell_of(89.999, 0.0));
  const std::uint32_t dateline = catalog.cell_of(0.0, 180.0);
  EXPECT_EQ(dateline, catalog.cell_of(0.0, 179.999));
  EXPECT_LT(catalog.cell_of(-90.0, -180.0), catalog.cell_count());
  double lat = 0.0, lon = 0.0;
  catalog.cell_center(catalog.cell_of(42.0, 13.0), &lat, &lon);
  EXPECT_EQ(catalog.cell_of(lat, lon), catalog.cell_of(42.0, 13.0));
}

TEST(Catalog, PropertyQueriesMatchBruteForceOracle) {
  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    const auto records =
        random_records(1000 + trial, trial == 0 ? 0 : 2000 * trial);
    CatalogConfig config;
    config.shard_count = 1 + 7 * trial;  // 1, 8, 15, 22
    config.rows_per_chunk = 256;         // force multi-chunk shards
    Catalog catalog(config);
    catalog.ingest(records);
    if (trial % 2 == 1) catalog.seal();

    util::Rng rng(77 + trial);
    for (int q = 0; q < 200; ++q) {
      const QueryRequest request = random_request(rng, 8, 45);
      const QueryResponse got = catalog.query(request);
      const QueryResponse want = brute_force_query(records, request, catalog);
      expect_matches_oracle(got, want, request, records, catalog);
    }
  }
}

TEST(Catalog, SealedAndUnsealedAgree) {
  const auto records = random_records(42, 3000);
  CatalogConfig config;
  config.shard_count = 8;
  config.rows_per_chunk = 512;
  Catalog unsealed(config), sealed(config);
  unsealed.ingest(records);
  sealed.ingest(records);
  sealed.seal();
  EXPECT_TRUE(sealed.sealed());
  EXPECT_FALSE(unsealed.sealed());

  util::Rng rng(7);
  for (int q = 0; q < 100; ++q) {
    const QueryRequest request = random_request(rng, 8, 45);
    const QueryResponse a = unsealed.query(request);
    const QueryResponse b = sealed.query(request);
    EXPECT_EQ(a.matched, b.matched);
    ASSERT_EQ(a.classes.size(), b.classes.size());
    for (std::size_t i = 0; i < a.classes.size(); ++i)
      EXPECT_EQ(a.classes[i].stats.count, b.classes[i].stats.count);
  }
}

TEST(Catalog, AppendAfterSealThrows) {
  Catalog catalog;
  const auto records = random_records(5, 10);
  catalog.ingest(records);
  catalog.seal();
  EXPECT_THROW(catalog.append(records.front()), std::logic_error);
}

TEST(Catalog, LoadsFromAiccaArchive) {
  // End-to-end: tile files on a MemFs -> AiccaArchive -> catalog, responses
  // checked against the oracle scanning the same archive.
  storage::MemFs fs("orion");
  const auto records = random_records(9, 300, 5, 20);
  // Group records into per-slot files like the pipeline writes them.
  for (int slot = 0; slot < 10; ++slot) {
    preprocess::TilerResult result;
    result.daytime = true;
    std::vector<std::int32_t> labels;
    modis::GranuleId id;
    for (std::size_t i = static_cast<std::size_t>(slot) * 30;
         i < static_cast<std::size_t>(slot + 1) * 30; ++i) {
      preprocess::Tile tile;
      tile.tile_size = 4;
      tile.channels = 1;
      tile.data.assign(16, 0.5f);
      tile.center_lat = records[i].latitude;
      tile.center_lon = records[i].longitude;
      tile.cloud_fraction = records[i].cloud_fraction;
      tile.mean_optical_thickness = records[i].optical_thickness;
      tile.mean_cloud_top_pressure = records[i].cloud_top_pressure;
      tile.mean_water_path = records[i].water_path;
      result.tiles.push_back(std::move(tile));
      labels.push_back(records[i].label);
      id = records[i].granule;
    }
    preprocess::write_tile_file(fs, "aicca/f" + std::to_string(slot) + ".ncl",
                                id, result);
    preprocess::append_labels(
        fs, "aicca/f" + std::to_string(slot) + ".ncl", labels);
  }
  const auto archive = analysis::AiccaArchive::load(fs, "aicca/*.ncl");
  ASSERT_EQ(archive.tile_count(), 300u);

  Catalog catalog;
  EXPECT_EQ(catalog.ingest(archive), 300u);
  catalog.seal();
  util::Rng rng(11);
  for (int q = 0; q < 50; ++q) {
    const QueryRequest request = random_request(rng, 5, 25);
    const QueryResponse got = catalog.query(request);
    const QueryResponse want =
        brute_force_query(archive.records(), request, catalog);
    expect_matches_oracle(got, want, request, archive.records(), catalog);
  }
}

TEST(Catalog, ConcurrentReadDuringIngest) {
  // The TSan target: readers run lock-free queries while a writer appends
  // and publishes in batches, then seals. Readers assert monotonicity (a
  // time-range count can only grow); the final state must match the oracle.
  const auto records = random_records(123, 20000);
  CatalogConfig config;
  config.shard_count = 4;
  config.rows_per_chunk = 128;  // force chunk allocation races if any exist
  Catalog catalog(config);

  std::atomic<bool> done{false};
  QueryRequest wide;
  wide.kind = QueryKind::kTimeRange;
  wide.day_lo = 1;
  wide.day_hi = 366;
  wide.sample_limit = 2;

  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  std::atomic<std::uint64_t> reads{0};
  std::atomic<int> started{0};
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      util::Rng rng(900 + t);
      std::uint64_t last = 0;
      bool first = true;
      while (!done.load(std::memory_order_acquire)) {
        const QueryResponse wide_response = catalog.query(wide);
        EXPECT_GE(wide_response.matched, last);
        last = wide_response.matched;
        (void)catalog.query(random_request(rng, 8, 45));
        reads.fetch_add(1, std::memory_order_relaxed);
        if (first) started.fetch_add(1, std::memory_order_release);
        first = false;
      }
    });
  }

  // The writer starts once every reader has queried, so reads overlap the
  // ingest even when a loaded host schedules the writer first.
  while (started.load(std::memory_order_acquire) < kReaders)
    std::this_thread::yield();
  for (std::size_t i = 0; i < records.size(); ++i) {
    catalog.append(records[i]);
    if (i % 512 == 511) catalog.publish();
  }
  catalog.seal();
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_GT(reads.load(), 0u);

  const QueryResponse final_response = catalog.query(wide);
  const QueryResponse want = brute_force_query(records, wide, catalog);
  EXPECT_EQ(final_response.matched, want.matched);
  EXPECT_EQ(final_response.matched, records.size());
}

TEST(ServeService, CacheHitsAndGenerationInvalidation) {
  const auto records = random_records(5, 2000);
  Catalog catalog;
  catalog.ingest(records);

  ServeConfig config;
  config.trace = false;
  ServeService service(catalog, config);
  QueryRequest request;
  request.kind = QueryKind::kTimeRange;

  const QueryResponse first = service.query(request);
  EXPECT_FALSE(first.cache_hit);
  const QueryResponse second = service.query(request);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.matched, first.matched);
  EXPECT_EQ(service.stats().cache_hits, 1u);

  // A publish bumps generations: the entry must be detected stale and the
  // recomputed response must include the new rows.
  catalog.append(records.front());
  catalog.publish();
  const QueryResponse third = service.query(request);
  EXPECT_FALSE(third.cache_hit);
  EXPECT_EQ(third.matched, first.matched + 1);
  EXPECT_EQ(service.stats().cache_stale, 1u);

  // And the fresh entry serves hits again.
  const QueryResponse fourth = service.query(request);
  EXPECT_TRUE(fourth.cache_hit);
  EXPECT_EQ(fourth.matched, third.matched);
}

TEST(ServeService, PointCacheSurvivesOtherShardPublishes) {
  // A point query's generation snapshot covers only its candidate shards;
  // publishing rows that land elsewhere must not invalidate the entry.
  CatalogConfig cat_config;
  cat_config.shard_count = 64;
  Catalog catalog(cat_config);
  const auto records = random_records(6, 2000, 8, 40);
  catalog.ingest(records);

  ServeConfig config;
  config.trace = false;
  ServeService service(catalog, config);

  QueryRequest request;
  request.kind = QueryKind::kPoint;
  request.lat = 10.0;
  request.lon = 10.0;
  request.day_lo = 5;
  request.day_hi = 5;
  (void)service.query(request);

  // Find a record whose (cell, day) maps to a different shard than the
  // query's single candidate.
  const std::uint32_t q_shard =
      catalog.shard_of(catalog.cell_of(request.lat, request.lon), 5);
  analysis::TileRecord other;
  bool found = false;
  for (const auto& record : records) {
    const auto cell = catalog.cell_of(record.latitude, record.longitude);
    if (catalog.shard_of(cell, record.granule.day_of_year) != q_shard) {
      other = record;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  catalog.append(other);
  catalog.publish();

  const QueryResponse hit = service.query(request);
  EXPECT_TRUE(hit.cache_hit);
}

TEST(ServeService, LruEvictsColdEntries) {
  const auto records = random_records(5, 500);
  Catalog catalog;
  catalog.ingest(records);
  catalog.seal();

  ServeConfig config;
  config.trace = false;
  config.cache_capacity = 2;
  config.cache_ways = 1;
  ServeService service(catalog, config);

  QueryRequest a, b, c;
  a.kind = QueryKind::kTimeRange;
  a.day_hi = 10;
  b.kind = QueryKind::kTimeRange;
  b.day_hi = 20;
  c.kind = QueryKind::kTimeRange;
  c.day_hi = 30;
  (void)service.query(a);
  (void)service.query(b);
  (void)service.query(c);  // evicts a
  EXPECT_FALSE(service.query(a).cache_hit);  // cold again
  EXPECT_GE(service.stats().cache_evictions, 1u);
}

TEST(ServeService, MetricsCountersTrackQueryOutcomes) {
  const auto records = random_records(7, 2000);
  Catalog catalog;
  catalog.ingest(records);
  ServeConfig config;
  config.trace = false;
  ServeService service(catalog, config);

  auto& metrics = obs::MetricsRegistry::instance();
  metrics.clear();
  metrics.set_enabled(true);
  QueryRequest request;
  request.kind = QueryKind::kTimeRange;
  service.query(request);  // miss
  service.query(request);  // hit
  metrics.set_enabled(false);

  const obs::Labels by_kind{{"kind", kind_name(QueryKind::kTimeRange)}};
  EXPECT_DOUBLE_EQ(metrics.counter("mfw.serve.queries_total", by_kind), 2.0);
  EXPECT_DOUBLE_EQ(
      metrics.counter("mfw.serve.cache_total", {{"result", "miss"}}), 1.0);
  EXPECT_DOUBLE_EQ(
      metrics.counter("mfw.serve.cache_total", {{"result", "hit"}}), 1.0);
  EXPECT_GT(metrics.counter("mfw.serve.shard_probes_total", by_kind), 0.0);
  const auto latency =
      metrics.distribution("mfw.serve.query_latency_seconds", by_kind);
  ASSERT_TRUE(latency.has_value());
  EXPECT_EQ(latency->stats.count(), 2u);
  metrics.clear();

  // Disabled registry: the hot path records nothing.
  service.query(request);
  EXPECT_DOUBLE_EQ(metrics.counter("mfw.serve.queries_total", by_kind), 0.0);
}

TEST(ServeApi, JsonCarriesSchemaAndEchoesRequest) {
  const auto records = random_records(5, 200);
  Catalog catalog;
  catalog.ingest(records);
  QueryRequest request;
  request.kind = QueryKind::kClass;
  request.label = 2;
  request.sample_limit = 3;
  const QueryResponse response = catalog.query(request);
  const std::string json = to_json(request, response);
  EXPECT_NE(json.find("\"schema\": \"mfw.serve/v1\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"class\""), std::string::npos);
  EXPECT_NE(json.find("\"label\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"matched\": "), std::string::npos);
  EXPECT_NE(json.find("\"classes\": ["), std::string::npos);

  // Distinct requests must canonicalize to distinct cache keys, identical
  // ones to the same key.
  QueryRequest other = request;
  EXPECT_EQ(cache_key(request), cache_key(other));
  other.label = 3;
  EXPECT_NE(cache_key(request), cache_key(other));
}

TEST(LoadGen, ClosedLoopRunsAndCacheWarms) {
  const auto records = random_records(3, 5000, 8, 20);
  CatalogConfig cat_config;
  cat_config.shard_count = 8;
  Catalog catalog(cat_config);
  catalog.ingest(records);
  catalog.seal();
  ServeConfig svc_config;
  svc_config.trace = false;
  ServeService service(catalog, svc_config);

  LoadConfig load;
  load.users = 5000;
  load.requests = 4000;
  load.threads = 2;
  load.day_hi = 20;
  load.zipf_s = 1.2;
  const LoadResult result = run_load(service, load);
  EXPECT_EQ(result.requests, 4000u);
  EXPECT_GT(result.qps, 0.0);
  EXPECT_GT(result.all.p99_us, 0.0);
  EXPECT_GE(result.all.p99_us, result.all.p50_us);
  // Zipf skew + repeated day windows must produce real cache traffic.
  EXPECT_GT(result.hit_rate, 0.2);
  const std::string json = result.to_json();
  EXPECT_NE(json.find("\"qps\": "), std::string::npos);
  EXPECT_NE(json.find("\"cache_hit_rate\": "), std::string::npos);
}

TEST(LoadGen, OpenLoopFlashCrowdRaisesTail) {
  const auto records = random_records(4, 5000, 8, 20);
  Catalog catalog;
  catalog.ingest(records);
  catalog.seal();
  ServeConfig svc_config;
  svc_config.trace = false;
  ServeService service(catalog, svc_config);

  LoadConfig load;
  load.users = 2000;
  load.requests = 3000;
  load.threads = 2;
  load.day_hi = 20;
  load.arrival_rate = 500.0;  // modest offered load
  load.flash_crowd = true;
  load.flash_boost = 50.0;  // drive the flash window far past capacity
  const LoadResult result = run_load(service, load);
  EXPECT_EQ(result.requests, 3000u);
  EXPECT_GT(result.flash.count, 0u);
  EXPECT_GT(result.base.count, 0u);
  EXPECT_FALSE(result.timeline.empty());
  const std::string json = result.to_json();
  EXPECT_NE(json.find("\"flash\": "), std::string::npos);
  EXPECT_NE(json.find("\"timeline\": ["), std::string::npos);
}

}  // namespace
}  // namespace mfw::serve
