// ServeService: the query front door — catalog + hot-cell result cache +
// optional obs tracing, safe for any number of concurrent caller threads.
//
// Per query: canonicalize the request to its cache key, try the cache and
// validate the entry's generation snapshot, otherwise snapshot generations,
// execute against the catalog, and install the result. Counters distinguish
// true hits, stale hits (entry present but a candidate shard published since
// it was computed), and cold misses — the load benchmarks report all three.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "serve/cache.hpp"
#include "serve/catalog.hpp"

namespace mfw::serve {

struct ServeConfig {
  bool enable_cache = true;
  /// Total cached responses across ways.
  std::size_t cache_capacity = 8192;
  /// Lock partitions of the cache (see util::ShardedLruCache).
  std::size_t cache_ways = 64;
  /// Emit an obs span per query when the global TraceRecorder is enabled
  /// (free otherwise: one relaxed atomic load).
  bool trace = true;
};

struct ServeStats {
  std::uint64_t queries = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_stale = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t matched_rows = 0;
  std::uint64_t cache_evictions = 0;

  double hit_rate() const {
    return queries == 0 ? 0.0
                        : static_cast<double>(cache_hits) /
                              static_cast<double>(queries);
  }
};

class ServeService {
 public:
  explicit ServeService(const Catalog& catalog, ServeConfig config = {});

  /// Thread-safe; lock-free against the catalog, lock-striped in the cache.
  QueryResponse query(const QueryRequest& request);

  const Catalog& catalog() const { return catalog_; }
  const ServeConfig& config() const { return config_; }
  ServeStats stats() const;

 private:
  const Catalog& catalog_;
  ServeConfig config_;
  std::unique_ptr<ResultCache> cache_;  // null when caching disabled
  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_stale_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
  std::atomic<std::uint64_t> matched_rows_{0};
};

}  // namespace mfw::serve
