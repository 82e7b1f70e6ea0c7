// MetricsRegistry: named counters, gauges, and distribution series with
// labeled dimensions (facility, stage, node, product, topic).
//
// Naming convention: `mfw.<module>.<name>` with unit suffixes `_total`
// (monotonic counters), `_seconds` / `_bytes` (distributions), bare nouns
// for gauges — see DESIGN.md §7. A metric series is identified by
// (name, sorted label set); the same name with different labels forms
// independent series, like Prometheus.
//
// Every series lives in one cell of the registry's store. A call site that
// updates per event resolves (name, labels) to a cell once, through
// counter_series / gauge_series / distribution_series, and then updates the
// cell through the returned handle: no label copy, sort, key string or map
// lookup per update. The name-plus-labels methods resolve the same cells on
// each call, so both paths feed one store.
//
// Distributions reuse util::StreamingStats (always) plus util::Histogram
// (when the observe() call supplies bucket bounds). Like the TraceRecorder,
// the registry is globally reachable, thread-safe, and free when disabled:
// call sites guard with enabled() so labels are never materialised and no
// handle is resolved on the off path.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/stats.hpp"

namespace mfw::obs {

/// Label dimensions for a metric series, e.g. {{"stage", "preprocess"},
/// {"node", "3"}}. Order-insensitive: series identity uses the sorted set.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Bucket layout for a distribution's optional util::Histogram.
struct HistogramSpec {
  double lo = 0.0;
  double hi = 1.0;
  std::size_t bins = 20;
};

/// One distribution series: streaming moments plus optional fixed buckets.
struct Distribution {
  util::StreamingStats stats;
  std::optional<util::Histogram> histogram;
};

enum class SeriesKind : std::uint8_t { kCounter, kGauge, kDistribution };

namespace detail {
/// One series' storage. A cell is created on first resolution and lives as
/// long as its registry; `live` says whether it was updated since then or
/// since the last clear(), and only live cells are visible.
struct SeriesCell {
  bool live = false;
  double value = 0.0;  // counter total or latest gauge value
  Distribution dist;   // distribution series only
};
}  // namespace detail

/// Stable reference to one series cell of a MetricsRegistry. Default-
/// constructed handles are unresolved (false); a call site keeps one per
/// series it updates and resolves it on the first update it makes while the
/// registry is enabled. A handle stays valid for the registry's lifetime,
/// across clear(). The kind is part of the type, so a counter handle cannot
/// feed a gauge.
template <SeriesKind Kind>
class SeriesHandle {
 public:
  SeriesHandle() = default;
  explicit operator bool() const { return cell_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit SeriesHandle(detail::SeriesCell* cell) : cell_(cell) {}
  detail::SeriesCell* cell_ = nullptr;
};

using CounterHandle = SeriesHandle<SeriesKind::kCounter>;
using GaugeHandle = SeriesHandle<SeriesKind::kGauge>;
using DistributionHandle = SeriesHandle<SeriesKind::kDistribution>;

class MetricsRegistry {
 public:
  /// Global registry used by the instrumented modules; direct construction
  /// is supported for tests.
  static MetricsRegistry& instance();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // -- series resolution ------------------------------------------------------
  /// Resolves (name, sorted labels) to its cell, creating an empty one on
  /// first use. Resolution alone does not make a series visible; its first
  /// update does.
  CounterHandle counter_series(std::string_view name,
                               const Labels& labels = {});
  GaugeHandle gauge_series(std::string_view name, const Labels& labels = {});
  DistributionHandle distribution_series(std::string_view name,
                                         const Labels& labels = {});

  // -- updates through a handle (no-op when disabled or unresolved) -----------
  void counter_add(CounterHandle series, double delta);
  void gauge_set(GaugeHandle series, double value);
  void observe(DistributionHandle series, double value,
               std::optional<HistogramSpec> spec = std::nullopt);

  // -- updates by name (resolve, then update the same cell) -------------------
  /// Adds `delta` to a monotonic counter series (created on first use).
  /// No-op when disabled.
  void counter_add(std::string_view name, double delta,
                   const Labels& labels = {});

  /// Sets a gauge series to its latest value. No-op when disabled.
  void gauge_set(std::string_view name, double value,
                 const Labels& labels = {});

  /// Feeds one sample into a distribution series. The first observation
  /// carrying a HistogramSpec fixes the series' bucket layout; spec-less
  /// observations still accumulate StreamingStats. No-op when disabled.
  void observe(std::string_view name, double value, const Labels& labels = {},
               std::optional<HistogramSpec> spec = std::nullopt);

  /// Drops every series (between runs). Handles stay valid: a cleared
  /// series reads as one never created until its next update, and the next
  /// spec-carrying observe fixes its bucket layout again.
  void clear();

  // -- inspection (exporter + tests) ----------------------------------------
  /// Counter value; 0.0 for unknown series.
  double counter(std::string_view name, const Labels& labels = {}) const;
  /// Latest gauge value; nullopt for unknown series.
  std::optional<double> gauge(std::string_view name,
                              const Labels& labels = {}) const;
  /// Copy of a distribution series; nullopt for unknown series.
  std::optional<Distribution> distribution(std::string_view name,
                                           const Labels& labels = {}) const;

  struct CounterEntry { std::string name; Labels labels; double value; };
  struct GaugeEntry { std::string name; Labels labels; double value; };
  struct DistributionEntry {
    std::string name;
    Labels labels;
    Distribution dist;
  };

  /// Sorted snapshots (by name, then labels) for the text exporter.
  std::vector<CounterEntry> counters() const;
  std::vector<GaugeEntry> gauges() const;
  std::vector<DistributionEntry> distributions() const;

 private:
  using SeriesKey = std::pair<std::string, Labels>;
  using Store = std::map<SeriesKey, detail::SeriesCell>;
  static SeriesKey key_of(std::string_view name, const Labels& labels);

  Store& store(SeriesKind kind) {
    return stores_[static_cast<std::size_t>(kind)];
  }
  const Store& store(SeriesKind kind) const {
    return stores_[static_cast<std::size_t>(kind)];
  }
  detail::SeriesCell* resolve_locked(SeriesKind kind, std::string_view name,
                                     const Labels& labels);
  const detail::SeriesCell* find_locked(SeriesKind kind, std::string_view name,
                                        const Labels& labels) const;
  static void add_locked(detail::SeriesCell& cell, double delta);
  static void set_locked(detail::SeriesCell& cell, double value);
  static void observe_locked(detail::SeriesCell& cell, double value,
                             const std::optional<HistogramSpec>& spec);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  // One store per kind; std::map nodes never move, so handles may point at
  // cells for the registry's lifetime.
  Store stores_[3];
};

}  // namespace mfw::obs
