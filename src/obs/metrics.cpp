#include "obs/metrics.hpp"

#include <algorithm>

namespace mfw::obs {

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry::SeriesKey MetricsRegistry::key_of(std::string_view name,
                                                   const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  return {std::string(name), std::move(sorted)};
}

detail::SeriesCell* MetricsRegistry::resolve_locked(SeriesKind kind,
                                                    std::string_view name,
                                                    const Labels& labels) {
  return &store(kind)[key_of(name, labels)];
}

const detail::SeriesCell* MetricsRegistry::find_locked(
    SeriesKind kind, std::string_view name, const Labels& labels) const {
  const Store& cells = store(kind);
  const auto it = cells.find(key_of(name, labels));
  return it == cells.end() || !it->second.live ? nullptr : &it->second;
}

void MetricsRegistry::add_locked(detail::SeriesCell& cell, double delta) {
  cell.live = true;
  cell.value += delta;
}

void MetricsRegistry::set_locked(detail::SeriesCell& cell, double value) {
  cell.live = true;
  cell.value = value;
}

void MetricsRegistry::observe_locked(detail::SeriesCell& cell, double value,
                                     const std::optional<HistogramSpec>& spec) {
  cell.live = true;
  Distribution& dist = cell.dist;
  dist.stats.add(value);
  if (!dist.histogram && spec)
    dist.histogram.emplace(spec->lo, spec->hi, spec->bins);
  if (dist.histogram) dist.histogram->add(value);
}

CounterHandle MetricsRegistry::counter_series(std::string_view name,
                                              const Labels& labels) {
  std::lock_guard lock(mu_);
  return CounterHandle(resolve_locked(SeriesKind::kCounter, name, labels));
}

GaugeHandle MetricsRegistry::gauge_series(std::string_view name,
                                          const Labels& labels) {
  std::lock_guard lock(mu_);
  return GaugeHandle(resolve_locked(SeriesKind::kGauge, name, labels));
}

DistributionHandle MetricsRegistry::distribution_series(std::string_view name,
                                                        const Labels& labels) {
  std::lock_guard lock(mu_);
  return DistributionHandle(
      resolve_locked(SeriesKind::kDistribution, name, labels));
}

void MetricsRegistry::counter_add(CounterHandle series, double delta) {
  if (!enabled() || !series) return;
  std::lock_guard lock(mu_);
  add_locked(*series.cell_, delta);
}

void MetricsRegistry::gauge_set(GaugeHandle series, double value) {
  if (!enabled() || !series) return;
  std::lock_guard lock(mu_);
  set_locked(*series.cell_, value);
}

void MetricsRegistry::observe(DistributionHandle series, double value,
                              std::optional<HistogramSpec> spec) {
  if (!enabled() || !series) return;
  std::lock_guard lock(mu_);
  observe_locked(*series.cell_, value, spec);
}

void MetricsRegistry::counter_add(std::string_view name, double delta,
                                  const Labels& labels) {
  if (!enabled()) return;
  std::lock_guard lock(mu_);
  add_locked(*resolve_locked(SeriesKind::kCounter, name, labels), delta);
}

void MetricsRegistry::gauge_set(std::string_view name, double value,
                                const Labels& labels) {
  if (!enabled()) return;
  std::lock_guard lock(mu_);
  set_locked(*resolve_locked(SeriesKind::kGauge, name, labels), value);
}

void MetricsRegistry::observe(std::string_view name, double value,
                              const Labels& labels,
                              std::optional<HistogramSpec> spec) {
  if (!enabled()) return;
  std::lock_guard lock(mu_);
  observe_locked(*resolve_locked(SeriesKind::kDistribution, name, labels),
                 value, spec);
}

void MetricsRegistry::clear() {
  std::lock_guard lock(mu_);
  for (Store& cells : stores_)
    for (auto& [key, cell] : cells) cell = detail::SeriesCell{};
}

double MetricsRegistry::counter(std::string_view name,
                                const Labels& labels) const {
  std::lock_guard lock(mu_);
  const auto* cell = find_locked(SeriesKind::kCounter, name, labels);
  return cell ? cell->value : 0.0;
}

std::optional<double> MetricsRegistry::gauge(std::string_view name,
                                             const Labels& labels) const {
  std::lock_guard lock(mu_);
  const auto* cell = find_locked(SeriesKind::kGauge, name, labels);
  if (!cell) return std::nullopt;
  return cell->value;
}

std::optional<Distribution> MetricsRegistry::distribution(
    std::string_view name, const Labels& labels) const {
  std::lock_guard lock(mu_);
  const auto* cell = find_locked(SeriesKind::kDistribution, name, labels);
  if (!cell) return std::nullopt;
  return cell->dist;
}

std::vector<MetricsRegistry::CounterEntry> MetricsRegistry::counters() const {
  std::lock_guard lock(mu_);
  std::vector<CounterEntry> out;
  for (const auto& [key, cell] : store(SeriesKind::kCounter))
    if (cell.live)
      out.push_back(CounterEntry{key.first, key.second, cell.value});
  return out;
}

std::vector<MetricsRegistry::GaugeEntry> MetricsRegistry::gauges() const {
  std::lock_guard lock(mu_);
  std::vector<GaugeEntry> out;
  for (const auto& [key, cell] : store(SeriesKind::kGauge))
    if (cell.live)
      out.push_back(GaugeEntry{key.first, key.second, cell.value});
  return out;
}

std::vector<MetricsRegistry::DistributionEntry>
MetricsRegistry::distributions() const {
  std::lock_guard lock(mu_);
  std::vector<DistributionEntry> out;
  for (const auto& [key, cell] : store(SeriesKind::kDistribution))
    if (cell.live)
      out.push_back(DistributionEntry{key.first, key.second, cell.dist});
  return out;
}

}  // namespace mfw::obs
