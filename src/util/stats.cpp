#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace mfw::util {

void StreamingStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double StreamingStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double StreamingStats::stddev() const { return std::sqrt(variance()); }

double percentile(std::span<const double> xs, double p) {
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile p out of range");
  if (xs.empty()) return 0.0;
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  if (bins == 0) throw std::invalid_argument("Histogram needs >= 1 bin");
  if (!(hi > lo)) throw std::invalid_argument("Histogram needs hi > lo");
}

void Histogram::add(double x) {
  const double frac = (x - lo_) / (hi_ - lo_);
  auto bin = static_cast<std::ptrdiff_t>(frac * static_cast<double>(counts_.size()));
  bin = std::clamp<std::ptrdiff_t>(bin, 0,
                                   static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(bin)];
  ++total_;
}

double Histogram::bin_lo(std::size_t bin) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(bin) /
                   static_cast<double>(counts_.size());
}

double Histogram::bin_hi(std::size_t bin) const { return bin_lo(bin + 1); }

std::string Histogram::render(std::size_t max_width) const {
  std::size_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  std::ostringstream os;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const auto width = counts_[b] * max_width / peak;
    os << bin_lo(b) << " .. " << bin_hi(b) << " | "
       << std::string(width, '#') << "  (" << counts_[b] << ")\n";
  }
  return os.str();
}

}  // namespace mfw::util
