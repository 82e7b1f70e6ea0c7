#include "obs/rollup.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "obs/export.hpp"
#include "util/json_writer.hpp"
#include "util/strings.hpp"

namespace mfw::obs {

namespace {

std::string num(double value) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  return buf;
}

}  // namespace

std::int64_t window_index(double t, double window_s) {
  auto index = static_cast<std::int64_t>(std::floor(t / window_s));
  // The division rounds before floor(), so a sample exactly on a window edge
  // can be assigned to the window it closes instead of the one it opens.
  // Nudge until index * window_s <= t < (index + 1) * window_s holds.
  if (static_cast<double>(index + 1) * window_s <= t) {
    ++index;
  } else if (static_cast<double>(index) * window_s > t) {
    --index;
  }
  return index;
}

std::string_view track_stage(std::string_view track_name) {
  return track_name.substr(0, track_name.find('/'));
}

void LogHistogram::add(double value) {
  ++total_;
  std::size_t bucket = 0;
  if (value > 0.0) {
    int exp = 0;
    const double frac = std::frexp(value, &exp);  // value = frac * 2^exp
    const int e = exp - 1;                        // value in [2^e, 2^(e+1))
    if (e >= kMaxExp) {
      bucket = kBucketCount - 1;
    } else if (e >= kMinExp) {
      const int sub = std::clamp(
          static_cast<int>((frac * 2.0 - 1.0) * kSubBuckets), 0,
          kSubBuckets - 1);
      bucket = 1 + static_cast<std::size_t>(e - kMinExp) * kSubBuckets +
               static_cast<std::size_t>(sub);
    }
  }
  ++counts_[bucket];
}

void LogHistogram::merge(const LogHistogram& other) {
  for (std::size_t b = 0; b < kBucketCount; ++b) counts_[b] += other.counts_[b];
  total_ += other.total_;
}

double LogHistogram::quantile(double q) const {
  if (total_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total_)));
  rank = std::clamp<std::uint64_t>(rank, 1, total_);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < kBucketCount; ++b) {
    cumulative += counts_[b];
    if (cumulative < rank) continue;
    if (b == 0) return 0.0;  // underflow: below 2^kMinExp (or non-positive)
    if (b == kBucketCount - 1) return std::ldexp(1.0, kMaxExp);
    const std::size_t idx = b - 1;
    const int e = kMinExp + static_cast<int>(idx / kSubBuckets);
    const auto sub = static_cast<double>(idx % kSubBuckets);
    const double lo = std::ldexp(1.0 + sub / kSubBuckets, e);
    const double hi = std::ldexp(1.0 + (sub + 1.0) / kSubBuckets, e);
    return std::sqrt(lo * hi);  // geometric midpoint of the hit bucket
  }
  return 0.0;
}

WindowedSeries::WindowedSeries(RollupConfig config) : config_(config) {
  if (config_.window_s <= 0.0) config_.window_s = 60.0;
  if (config_.max_windows == 0) config_.max_windows = 1;
}

void WindowedSeries::add(double t, double value) {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  total_hist_.add(value);

  const auto index = window_index(t, config_.window_s);
  // A window carries a 1.6 KB sketch: build one only when a new window
  // opens, never per sample.
  WindowStats* window = nullptr;
  if (!windows_.empty() && index == windows_.back().index) {
    window = &windows_.back();
  } else if (windows_.empty() || index > windows_.back().index) {
    window = &windows_.emplace_back();
    window->index = index;
  } else {
    const auto pos = std::lower_bound(
        windows_.begin(), windows_.end(), index,
        [](const WindowStats& w, std::int64_t i) { return w.index < i; });
    if (pos != windows_.end() && pos->index == index) {
      window = &*pos;
    } else if (pos == windows_.begin() && evicted_ > 0) {
      // Older than the retained horizon: fold into the oldest window rather
      // than resurrect evicted history. An out-of-order sample merely older
      // than the current front (nothing evicted yet) still gets its own
      // window below — folding it here would miscount the front window.
      window = &windows_.front();
    } else {
      window = &*windows_.emplace(pos);
      window->index = index;
    }
  }
  if (window->count == 0) {
    window->min = window->max = value;
  } else {
    window->min = std::min(window->min, value);
    window->max = std::max(window->max, value);
  }
  ++window->count;
  window->sum += value;
  window->hist.add(value);
  while (windows_.size() > config_.max_windows) {
    windows_.pop_front();
    ++evicted_;
  }
}

SpanRollup::SpanRollup(RollupConfig config) : config_(config) {}

const std::string& SpanRollup::key_locked(std::string_view track_name,
                                          std::string_view name) {
  key_.assign(track_stage(track_name));
  key_ += '/';
  key_ += name;
  return key_;
}

WindowedSeries& SpanRollup::series_locked(std::string_view name) {
  const auto it = series_.find(name);
  if (it != series_.end()) return it->second;
  return series_.emplace(std::string(name), WindowedSeries(config_))
      .first->second;
}

void SpanRollup::on_span(const TraceTrack& track, const TraceSpan& span) {
  std::lock_guard lock(mu_);
  ++spans_seen_;
  key_locked(track.name, span.category);
  const std::size_t base = key_.size();
  key_ += ".duration_s";
  series_locked(key_).add(span.end, span.duration());
  for (const auto& [key, value] : span.args) {
    double wait = 0.0;
    if (key != "queue_wait_s" || !util::parse_double_prefix(value, wait))
      continue;
    key_.resize(base);
    key_ += ".queue_wait_s";
    series_locked(key_).add(span.end, wait);
  }
}

void SpanRollup::on_instant(const TraceTrack& track,
                            const TraceInstant& instant) {
  std::lock_guard lock(mu_);
  ++instants_seen_;
  const std::string& key = key_locked(track.name, instant.name);
  const auto it = instant_counts_.find(key);
  if (it != instant_counts_.end()) {
    ++it->second;
  } else {
    instant_counts_.emplace(key, 1);
  }
}

std::uint64_t SpanRollup::spans_seen() const {
  std::lock_guard lock(mu_);
  return spans_seen_;
}

std::uint64_t SpanRollup::instants_seen() const {
  std::lock_guard lock(mu_);
  return instants_seen_;
}

std::vector<std::string> SpanRollup::series_names() const {
  std::lock_guard lock(mu_);
  std::vector<std::string> names;
  names.reserve(series_.size());
  for (const auto& [name, unused] : series_) names.push_back(name);
  return names;
}

WindowedSeries SpanRollup::series(const std::string& name) const {
  std::lock_guard lock(mu_);
  const auto it = series_.find(name);
  return it != series_.end() ? it->second : WindowedSeries(config_);
}

std::string SpanRollup::to_json() const {
  std::lock_guard lock(mu_);
  util::JsonWriter w;
  w.begin_object();
  w.field("window_s", config_.window_s);
  w.field("max_windows", config_.max_windows);
  w.field("quantile_max_relative_error", LogHistogram::kMaxRelativeError);
  w.field("spans_seen", spans_seen_);
  w.field("instants_seen", instants_seen_);
  w.key("instants").begin_object();
  for (const auto& [name, count] : instant_counts_) w.field(name, count);
  w.end_object();
  w.key("series").begin_array();
  for (const auto& [name, s] : series_) {
    w.item("\n  ").begin_object();
    w.field("name", name);
    w.field("count", s.count());
    w.field("sum", s.sum());
    w.field("min", s.min());
    w.field("max", s.max());
    w.field("mean", s.mean());
    w.field("p50", s.p50());
    w.field("p99", s.p99());
    w.field("evicted_windows", s.evicted_windows());
    w.key("windows").begin_array();
    for (const auto& win : s.windows()) {
      w.inline_item().begin_object();
      w.field("t0", static_cast<double>(win.index) * s.config().window_s);
      w.field("count", win.count);
      w.field("sum", win.sum);
      w.field("min", win.min);
      w.field("max", win.max);
      w.field("p50", win.p50());
      w.field("p99", win.p99());
      w.end_object();
    }
    w.end_array().end_object();
  }
  w.raw("\n").end_array().end_object();
  return w.take();
}

std::string SpanRollup::summary() const {
  std::lock_guard lock(mu_);
  std::ostringstream os;
  os << "rollup: " << spans_seen_ << " spans, " << instants_seen_
     << " instants, " << series_.size() << " series (window "
     << num(config_.window_s) << " s, cap " << config_.max_windows << ")\n";
  for (const auto& [name, s] : series_) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "  %-36s n=%-8llu mean=%-10.4g p50=%-10.4g p99=%-10.4g "
                  "max=%-10.4g windows=%zu+%llu evicted\n",
                  name.c_str(),
                  static_cast<unsigned long long>(s.count()), s.mean(),
                  s.p50(), s.p99(), s.max(), s.windows().size(),
                  static_cast<unsigned long long>(s.evicted_windows()));
    os << line;
  }
  return os.str();
}

}  // namespace mfw::obs
