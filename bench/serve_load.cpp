// Serving-layer load benchmark (DESIGN.md §14): QPS scaling of the sharded
// catalog across shard counts and reader-thread counts, cache-hit-rate
// curves across result-cache capacities, and tail latency under a Zipf +
// flash-crowd open-loop client population of >= 1M simulated users.
//
// Stages (all against one synthetic labelled-tile archive):
//  1. ingest     — partitioned parallel ingest throughput, per shard count;
//  2. scaling    — closed-loop QPS for shard counts x reader threads
//                  (cache disabled, so the matrix measures the lock-free
//                  scan path, not memoization);
//  3. cache      — hit rate / QPS versus cache capacity at the headline
//                  shard count (capacity 0 = cache off);
//  4. flash      — open-loop run with >= 1M users at an offered rate set
//                  relative to measured closed-loop capacity, with a
//                  mid-run flash crowd concentrated on the hottest cell:
//                  base-vs-flash p50/p99/p999 and a latency timeline.
//
// Emits the mfw.serve_bench/v1 JSON consumed by tools/bench_serve.sh ->
// BENCH_serve.json. The build type is stamped into the document so the
// script can refuse to snapshot non-Release numbers.
//
// Usage: serve_load [--quick] [--out <path>] [--tiles N] [--users N]
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "serve/catalog.hpp"
#include "serve/loadgen.hpp"
#include "serve/service.hpp"
#include "util/json_writer.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

#ifndef MFW_BUILD_TYPE
#define MFW_BUILD_TYPE "Unknown"
#endif

using namespace mfw;

namespace {

struct ScalePoint {
  std::size_t shards = 0;
  std::size_t threads = 0;
  double ingest_s = 0.0;
  serve::LoadResult load;
};

struct CachePoint {
  std::size_t capacity = 0;
  serve::LoadResult load;
};

double time_ingest(serve::Catalog& catalog,
                   const std::vector<analysis::TileRecord>& records,
                   util::ThreadPool& pool) {
  const auto t0 = std::chrono::steady_clock::now();
  catalog.ingest(records, &pool);
  catalog.seal();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_serve.json";
  // Non-point queries scan O(tiles) rows per request (bbox/class pruning is
  // per-shard metadata, and hash sharding mixes every cell into every
  // shard), so the corpus size is the per-request cost knob: 500k labelled
  // tiles keeps the full matrix minutes-scale on a small host while the
  // *user population* stays at the 1M the flash-crowd story needs.
  std::size_t tiles = 500'000;
  std::size_t users = 1'000'000;
  for (int i = 1; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && has_value) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--tiles") == 0 && has_value &&
               benchx::parse_count(argv[i + 1], 1, tiles)) {
      ++i;
    } else if (std::strcmp(argv[i], "--users") == 0 && has_value &&
               benchx::parse_count(argv[i + 1], 1, users)) {
      ++i;
    } else {
      std::fprintf(stderr,
                   "usage: serve_load [--quick] [--out <path>] [--tiles N] "
                   "[--users N]\n");
      return 2;
    }
  }
  if (quick) {
    tiles = std::min<std::size_t>(tiles, 100'000);
    users = std::min<std::size_t>(users, 50'000);
  }
  util::Logger::instance().set_level(util::LogLevel::kError);

  constexpr int kDays = 30;
  constexpr int kNumClasses = 42;
  const std::uint64_t seed = 2024;
  std::printf("synthesizing %zu tiles over %d days...\n", tiles, kDays);
  const auto records = serve::synth_records(tiles, kDays, kNumClasses, seed);
  const unsigned hw = std::max(2u, std::thread::hardware_concurrency());
  util::ThreadPool pool(hw);

  // -- stage 2 ingredients: scaling matrix ----------------------------------
  const std::vector<std::size_t> shard_counts = {1, 8, 32};
  std::vector<std::size_t> thread_counts = {1, 2, 4};
  if (hw >= 8 && !quick) thread_counts.push_back(8);
  const std::size_t scale_requests = quick ? 20'000 : 60'000;

  std::vector<ScalePoint> scaling;
  for (const std::size_t shards : shard_counts) {
    serve::CatalogConfig config;
    config.shard_count = shards;
    serve::Catalog catalog(config);
    const double ingest_s = time_ingest(catalog, records, pool);
    std::printf("shards=%zu ingest %.2fs (%.0f tiles/s)\n", shards, ingest_s,
                static_cast<double>(tiles) / ingest_s);
    for (const std::size_t threads : thread_counts) {
      serve::ServeConfig svc_config;
      svc_config.enable_cache = false;  // measure the scan path itself
      svc_config.trace = false;
      serve::ServeService service(catalog, svc_config);
      serve::LoadConfig load;
      load.users = std::min<std::size_t>(users, 200'000);
      load.requests = scale_requests;
      load.threads = threads;
      load.day_hi = kDays;
      load.num_classes = kNumClasses;
      load.seed = seed;
      ScalePoint point;
      point.shards = shards;
      point.threads = threads;
      point.ingest_s = ingest_s;
      point.load = serve::run_load(service, load);
      std::printf("  threads=%zu qps=%.0f p50=%.1fus p99=%.1fus\n", threads,
                  point.load.qps, point.load.all.p50_us,
                  point.load.all.p99_us);
      scaling.push_back(std::move(point));
    }
  }

  // -- headline catalog for cache + flash stages ----------------------------
  serve::CatalogConfig headline_config;
  headline_config.shard_count = 32;
  serve::Catalog catalog(headline_config);
  (void)time_ingest(catalog, records, pool);
  const std::size_t headline_threads = thread_counts.back();

  std::vector<CachePoint> cache_curve;
  const std::vector<std::size_t> capacities = {0, 1'024, 8'192, 65'536};
  const std::size_t cache_requests = quick ? 30'000 : 150'000;
  double best_cached_qps = 0.0;
  for (const std::size_t capacity : capacities) {
    serve::ServeConfig svc_config;
    svc_config.enable_cache = capacity > 0;
    svc_config.cache_capacity = std::max<std::size_t>(1, capacity);
    svc_config.trace = false;
    serve::ServeService service(catalog, svc_config);
    serve::LoadConfig load;
    load.users = users;
    load.requests = cache_requests;
    load.threads = headline_threads;
    load.day_hi = kDays;
    load.num_classes = kNumClasses;
    load.zipf_s = 1.1;
    load.seed = seed;
    CachePoint point;
    point.capacity = capacity;
    point.load = serve::run_load(service, load);
    std::printf("cache=%zu hit_rate=%.3f qps=%.0f p99=%.1fus\n", capacity,
                point.load.hit_rate, point.load.qps, point.load.all.p99_us);
    best_cached_qps = std::max(best_cached_qps, point.load.qps);
    cache_curve.push_back(std::move(point));
  }

  // -- flash crowd: open loop at 60% of measured capacity, 8x burst ---------
  serve::ServeConfig flash_svc;
  flash_svc.trace = false;
  serve::ServeService flash_service(catalog, flash_svc);
  serve::LoadConfig flash;
  flash.users = users;
  flash.requests = quick ? 60'000 : 250'000;
  flash.threads = headline_threads;
  flash.day_hi = kDays;
  flash.num_classes = kNumClasses;
  flash.zipf_s = 1.1;
  flash.seed = seed;
  flash.arrival_rate = 0.6 * best_cached_qps;
  flash.flash_crowd = true;
  flash.flash_boost = 8.0;
  const serve::LoadResult flash_result =
      serve::run_load(flash_service, flash);
  std::printf(
      "flash: offered=%.0f/s base p99=%.1fus flash p99=%.1fus p999=%.1fus "
      "hit_rate=%.3f\n",
      flash.arrival_rate, flash_result.base.p99_us, flash_result.flash.p99_us,
      flash_result.flash.p999_us, flash_result.hit_rate);

  // -- emit ------------------------------------------------------------------
  util::JsonWriter w;
  w.begin_object();
  w.field("schema", "mfw.serve_bench/v1");
  w.field("build_type", MFW_BUILD_TYPE);
  w.field("quick", quick);
  w.field("tiles", tiles);
  w.field("days", kDays);
  w.field("users", users);
  w.key("scaling", "\n ").begin_array();
  for (const ScalePoint& point : scaling) {
    w.item("\n  ").begin_object();
    w.field("shards", point.shards);
    w.field("threads", point.threads);
    w.field("ingest_s", point.ingest_s);
    w.field("qps", point.load.qps);
    w.field("p50_us", point.load.all.p50_us);
    w.field("p99_us", point.load.all.p99_us);
    w.field("p999_us", point.load.all.p999_us);
    w.end_object();
  }
  w.end_array("\n ");
  w.key("cache_curve", "\n ").begin_array();
  for (const CachePoint& point : cache_curve) {
    w.item("\n  ").begin_object();
    w.field("capacity", point.capacity);
    w.field("hit_rate", point.load.hit_rate);
    w.field("qps", point.load.qps);
    w.field("p50_us", point.load.all.p50_us);
    w.field("p99_us", point.load.all.p99_us);
    w.end_object();
  }
  w.end_array("\n ");
  w.key("flash", "\n ");
  w.raw(flash_result.to_json());
  w.end_object().raw("\n");

  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << w.take();
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
