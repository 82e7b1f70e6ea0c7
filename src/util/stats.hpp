// Streaming and batch statistics used by benchmarks and telemetry.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace mfw::util {

/// Welford-style streaming accumulator for mean / variance / extrema.
class StreamingStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 when fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Linear-interpolated percentile, p in [0, 100]. Sorts a copy.
double percentile(std::span<const double> xs, double p);

/// Fixed-width linear histogram over [lo, hi); out-of-range samples clamp to
/// the first/last bin.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  std::size_t bin_count() const { return counts_.size(); }
  std::size_t count(std::size_t bin) const { return counts_.at(bin); }
  std::size_t total() const { return total_; }
  double bin_lo(std::size_t bin) const;
  double bin_hi(std::size_t bin) const;

  /// Renders "lo..hi: ####  (n)" rows for bench output.
  std::string render(std::size_t max_width = 40) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace mfw::util
