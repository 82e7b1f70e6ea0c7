// Bounded-memory telemetry rollups (DESIGN.md §10).
//
// The full TraceRecorder keeps O(events) memory — fine for paper-figure runs
// (tens of thousands of spans), fatal for archive campaigns (~3M events for
// a 365-day run). This header provides the streaming aggregation path:
//
//  - LogHistogram: a fixed-size log-linear quantile sketch (8 sub-buckets per
//    power of two => worst-case relative quantile error sqrt(9/8)-1 ≈ 6.1%,
//    documented bound kMaxRelativeError) in ~1.6 KB, no allocation.
//  - WindowedSeries: ring buffer of per-window {count, sum, min, max, sketch}
//    keyed by floor(t / window_s), evicting the oldest window past
//    max_windows, plus exact whole-stream totals and a whole-stream sketch
//    that never evict. Memory is O(max_windows), independent of event count.
//  - SpanRollup: a TraceRecorder SpanSink that folds every closed span into
//    per-series WindowedSeries keyed "<stage>/<category>.<metric>" (e.g.
//    "preprocess/compute.duration_s", plus ".queue_wait_s" when the span
//    carries that arg), so a campaign run with RetentionMode::kStatsOnly
//    needs only O(series × windows) memory.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace mfw::obs {

/// Stage prefix of a track name: "preprocess/node3/w1" -> "preprocess",
/// "download/w0" -> "download", "flow/granules" -> "flow". Track names with
/// no '/' map to themselves. The view points into `track_name`.
std::string_view track_stage(std::string_view track_name);

/// Window index of timestamp `t` for width `window_s`, with half-open
/// [index * window_s, (index + 1) * window_s) semantics guaranteed even when
/// the width is not exactly representable (e.g. 0.1): a bare
/// floor(t / window_s) can land a sample exactly on a window edge one window
/// early, double-counting the edge in the closing window. Shared by
/// WindowedSeries and the watch layer so both bucket identically.
std::int64_t window_index(double t, double window_s);

/// Log-linear histogram over positive values: buckets span
/// [2^kMinExp, 2^kMaxExp) with kSubBuckets linear sub-buckets per power of
/// two, plus underflow/overflow buckets. Quantiles are estimated at the
/// geometric midpoint of the hit bucket.
class LogHistogram {
 public:
  static constexpr int kSubBuckets = 8;
  static constexpr int kMinExp = -20;  // lower edge ~9.5e-7
  static constexpr int kMaxExp = 30;   // upper edge ~1.07e9
  static constexpr std::size_t kBucketCount =
      static_cast<std::size_t>(kMaxExp - kMinExp) * kSubBuckets + 2;
  /// Worst-case relative error of quantile(): half a sub-bucket in log
  /// space, sqrt(1 + 1/kSubBuckets) - 1.
  static constexpr double kMaxRelativeError = 0.0607;

  void add(double value);
  void merge(const LogHistogram& other);
  std::uint64_t total() const { return total_; }
  /// q in [0, 1]; returns 0 for an empty histogram.
  double quantile(double q) const;

 private:
  std::array<std::uint32_t, kBucketCount> counts_{};
  std::uint64_t total_ = 0;
};

struct RollupConfig {
  double window_s = 60.0;
  std::size_t max_windows = 256;
};

struct WindowStats {
  std::int64_t index = 0;  // window start time = index * window_s
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  LogHistogram hist;

  double p50() const { return hist.quantile(0.50); }
  double p99() const { return hist.quantile(0.99); }
};

/// Windowed time series with bounded memory: a deque of per-window stats
/// (oldest evicted past max_windows) plus exact whole-stream aggregates.
class WindowedSeries {
 public:
  explicit WindowedSeries(RollupConfig config = {});

  void add(double t, double value);

  const RollupConfig& config() const { return config_; }
  const std::deque<WindowStats>& windows() const { return windows_; }
  std::uint64_t evicted_windows() const { return evicted_; }

  // Whole-stream aggregates (exact; never evicted).
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return min_; }
  double max() const { return max_; }
  double mean() const { return count_ ? sum_ / count_ : 0.0; }
  /// Whole-stream quantile estimates from the total sketch (error bound
  /// LogHistogram::kMaxRelativeError).
  double p50() const { return total_hist_.quantile(0.50); }
  double p99() const { return total_hist_.quantile(0.99); }
  const LogHistogram& total_hist() const { return total_hist_; }

 private:
  RollupConfig config_;
  std::deque<WindowStats> windows_;
  LogHistogram total_hist_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::uint64_t evicted_ = 0;
};

/// SpanSink that aggregates closed spans into WindowedSeries. Thread-safe
/// (the recorder invokes sinks under its own lock, but the accessors may be
/// called from another thread).
class SpanRollup : public SpanSink {
 public:
  explicit SpanRollup(RollupConfig config = {});

  void on_span(const TraceTrack& track, const TraceSpan& span) override;
  void on_instant(const TraceTrack& track, const TraceInstant& instant) override;

  std::uint64_t spans_seen() const;
  std::uint64_t instants_seen() const;
  std::vector<std::string> series_names() const;
  /// Snapshot copy of one series (empty-count series when unknown).
  WindowedSeries series(const std::string& name) const;

  /// Machine-readable report: {"window_s", "series": [...], ...}.
  std::string to_json() const;
  /// Short human-readable table (one line per series).
  std::string summary() const;

 private:
  /// key_ = "<stage>/<name>" with the capacity of earlier keys.
  const std::string& key_locked(std::string_view track_name,
                                std::string_view name);
  WindowedSeries& series_locked(std::string_view name);

  mutable std::mutex mu_;
  RollupConfig config_;
  // Transparent comparators: lookups by view build no key string.
  std::map<std::string, WindowedSeries, std::less<>> series_;
  std::map<std::string, std::uint64_t, std::less<>> instant_counts_;
  std::string key_;  // scratch for series and instant keys
  std::uint64_t spans_seen_ = 0;
  std::uint64_t instants_seen_ = 0;
};

}  // namespace mfw::obs
