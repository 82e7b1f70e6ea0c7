#include "serve/service.hpp"

#include <chrono>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json_writer.hpp"

namespace mfw::serve {

namespace {

/// Query latencies are microseconds-to-milliseconds; bucket the histogram
/// accordingly (seconds).
constexpr obs::HistogramSpec kLatencyBuckets{0.0, 0.005, 25};

/// Counter + latency accounting for one finished query. Guarded by
/// MetricsRegistry::enabled() at the call site so the serving hot path pays
/// one relaxed load when metrics are off.
void record_query_metrics(QueryKind kind, const char* cache_result,
                          const QueryResponse& response, double latency_s) {
  auto& metrics = obs::MetricsRegistry::instance();
  const obs::Labels by_kind{{"kind", kind_name(kind)}};
  metrics.counter_add("mfw.serve.queries_total", 1.0, by_kind);
  metrics.counter_add("mfw.serve.cache_total", 1.0,
                      {{"result", cache_result}});
  metrics.counter_add("mfw.serve.matched_rows_total",
                      static_cast<double>(response.matched), by_kind);
  metrics.counter_add("mfw.serve.shard_probes_total",
                      static_cast<double>(response.shards_probed), by_kind);
  metrics.counter_add("mfw.serve.shards_pruned_total",
                      static_cast<double>(response.shards_pruned), by_kind);
  metrics.observe("mfw.serve.query_latency_seconds", latency_s, by_kind,
                  kLatencyBuckets);
}

}  // namespace

ServeService::ServeService(const Catalog& catalog, ServeConfig config)
    : catalog_(catalog), config_(config) {
  if (config_.enable_cache) {
    cache_ = std::make_unique<ResultCache>(config_.cache_capacity,
                                           config_.cache_ways);
  }
}

QueryResponse ServeService::query(const QueryRequest& request) {
  queries_.fetch_add(1, std::memory_order_relaxed);
  const bool metrics_on = obs::MetricsRegistry::instance().enabled();
  const auto wall_start = metrics_on
                              ? std::chrono::steady_clock::now()
                              : std::chrono::steady_clock::time_point{};
  const auto latency_s = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         wall_start)
        .count();
  };
  obs::SpanId span;
  if (auto& rec = obs::TraceRecorder::instance();
      config_.trace && rec.enabled()) {
    span = rec.begin_span("serve/api", "serve", kind_name(request.kind));
  }

  std::string key;
  const char* cache_result = "uncached";
  if (cache_ != nullptr) {
    key = cache_key(request);
    if (auto entry = cache_->get(key)) {
      if (catalog_.generations_current(entry->generations)) {
        cache_hits_.fetch_add(1, std::memory_order_relaxed);
        QueryResponse response = entry->response;
        response.cache_hit = true;
        matched_rows_.fetch_add(response.matched, std::memory_order_relaxed);
        if (metrics_on)
          record_query_metrics(request.kind, "hit", response, latency_s());
        obs::TraceRecorder::instance().end_span(
            span, {{"cache", "hit"},
                   {"matched", std::to_string(response.matched)}});
        return response;
      }
      cache_stale_.fetch_add(1, std::memory_order_relaxed);
      cache_result = "stale";
    } else {
      cache_misses_.fetch_add(1, std::memory_order_relaxed);
      cache_result = "miss";
    }
  }

  // Snapshot generations *before* executing: a publish that lands while the
  // scan runs makes the stored snapshot stale, so the entry self-invalidates
  // on its next hit instead of serving a half-old response as current.
  auto entry = std::make_shared<CacheEntry>();
  if (cache_ != nullptr)
    entry->generations = catalog_.generation_snapshot(request);
  QueryResponse response = catalog_.query(request);
  matched_rows_.fetch_add(response.matched, std::memory_order_relaxed);
  if (cache_ != nullptr) {
    entry->response = response;
    cache_->put(key, std::move(entry));
  }
  if (metrics_on)
    record_query_metrics(request.kind, cache_result, response, latency_s());
  obs::TraceRecorder::instance().end_span(
      span, {{"cache", cache_result},
             {"matched", std::to_string(response.matched)},
             {"shards_probed", std::to_string(response.shards_probed)},
             {"shards_pruned", std::to_string(response.shards_pruned)}});
  return response;
}

ServeStats ServeService::stats() const {
  ServeStats s;
  s.queries = queries_.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.cache_stale = cache_stale_.load(std::memory_order_relaxed);
  s.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  s.matched_rows = matched_rows_.load(std::memory_order_relaxed);
  s.cache_evictions = cache_ != nullptr ? cache_->evictions() : 0;
  return s;
}

}  // namespace mfw::serve
