#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace mfwbench {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

namespace {

volatile double reference_sink = 0;

/// Value noise of the kind the modis layer's granule synthesis evaluates:
/// 64-bit hash mixing, a quintic fade and a sine per sample. A copy that
/// stays here, so the reference never changes when the layer does.
double reference_loop_s() {
  const double start = now_s();
  double sum = 0.0;
  for (int i = 0; i < 1'500'000; ++i) {
    const double x = i * 0.37, y = i * 0.011;
    const double fx = std::floor(x), fy = std::floor(y);
    std::uint64_t h = 0x2545f4914f6cdd1dull ^
                      (static_cast<std::uint64_t>(fx) * 0x9e3779b97f4a7c15ull) ^
                      (static_cast<std::uint64_t>(fy) * 0xbf58476d1ce4e5b9ull);
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    h ^= h >> 31;
    const double t = x - fx;
    const double fade = t * t * t * (t * (t * 6.0 - 15.0) + 10.0);
    sum += static_cast<double>(h >> 11) * 0x1.0p-52 * fade + std::sin(y);
  }
  const double elapsed = now_s() - start;
  reference_sink = sum;
  return elapsed;
}

}  // namespace

CpuPin::CpuPin() {
  sched_getaffinity(0, sizeof previous_, &previous_);
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  CPU_SET(sched_getcpu(), &cpus);
  sched_setaffinity(0, sizeof cpus, &cpus);
}

CpuPin::~CpuPin() { sched_setaffinity(0, sizeof previous_, &previous_); }

HostSpeed::HostSpeed() { reference_.push_back(reference_loop_s()); }

double HostSpeed::scale(double seconds) {
  const double before = reference_.back();
  reference_.push_back(reference_loop_s());
  return seconds * kReferenceSeconds / (0.5 * (before + reference_.back()));
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::uint64_t samples) {
  metrics_.push_back({name, value, unit, samples});
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back({name, ok, detail});
  if (!ok) correct_ = false;
}

void Report::count(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

std::string Report::to_json(const Options& options) const {
  std::string out = "{\"schema\": \"mfwbench/v1\"";
  out += ", \"workload\": " + json_string(options.workload);
  out += ", \"seed\": " + std::to_string(options.seed);
  out += ", \"trace\": " + std::string(options.trace ? "true" : "false");
  out += ", \"toy\": " + std::string(options.toy ? "true" : "false");
  out += ", \"build_type\": " + json_string(MFWBENCH_BUILD_TYPE);
  out += ", \"compiler\": " + json_string(MFWBENCH_COMPILER);
  out += ", \"correct\": " + std::string(correct_ ? "true" : "false");
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"checks\": [";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    const Check& c = checks_[i];
    out += (i ? ", " : "") + std::string("{\"name\": ") + json_string(c.name) +
           ", \"ok\": " + (c.ok ? "true" : "false") +
           ", \"detail\": " + json_string(c.detail) + "}";
  }
  out += "], \"metrics\": {";
  std::vector<Metric> metrics = metrics_;
  metrics.push_back({"failed_frac",
                     attempted_ ? static_cast<double>(failed_) /
                                      static_cast<double>(attempted_)
                                : 1.0,
                     "frac", attempted_});
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i ? ", " : "") + json_string(m.name) +
           ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit);
    if (m.samples > 0) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "}}";
}

SpanLog::Scope::Scope(SpanLog& log, std::string name)
    : log_(log), index_(log.spans_.size()) {
  log_.spans_.push_back({std::move(name), now_s(), -1.0, log_.open_});
  log_.open_ = static_cast<long>(index_);
}

SpanLog::Scope::~Scope() {
  log_.spans_[index_].end = now_s();
  log_.open_ = log_.spans_[index_].parent;
}

double SpanLog::Scope::elapsed() const {
  return now_s() - log_.spans_[index_].start;
}

double SpanLog::total(const std::string& name) const {
  double sum = 0.0;
  for (const Span& s : spans_)
    if (s.name == name && s.end >= s.start) sum += s.end - s.start;
  return sum;
}

double SpanLog::self(const std::string& name) const {
  double sum = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name != name || s.end < s.start) continue;
    double children = 0.0;
    for (const Span& c : spans_)
      if (c.parent == static_cast<long>(i) && c.end >= c.start)
        children += c.end - c.start;
    sum += (s.end - s.start) - children;
  }
  return sum;
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  const char* sep = "";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end < s.start) continue;
    out << sep << "{\"name\": " << json_string(s.name)
        << ", \"cat\": \"mfwbench\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1"
        << ", \"ts\": " << json_number((s.start - origin) * 1e6)
        << ", \"dur\": " << json_number((s.end - s.start) * 1e6)
        << ", \"args\": {\"span\": " << i << ", \"parent\": " << s.parent
        << "}}";
    sep = ",\n";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace mfwbench
