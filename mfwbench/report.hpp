// Shared pieces of the benchmark binary: run options, the metric document a
// workload fills in, output checks, timing helpers, and the span log the
// traced run records around each call into a layer.
#pragma once

#include <sched.h>

#include <cstdint>
#include <string>
#include <vector>

namespace mfwbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Toy sizes for the self-check: every code path, a fraction of the work.
  bool toy = false;
  /// Chrome-trace output of the traced run (empty: not written).
  std::string trace_out;
};

/// Monotonic host time in seconds.
double now_s();
/// Peak resident set size of this process in MiB.
double peak_rss_mib();
double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty input.
double quantile(std::vector<double> values, double q);

/// Pins the calling thread to the CPU it runs on until destroyed, so a
/// single-threaded measurement and the HostSpeed loop around it see the same
/// core. Threads the pinned thread starts inherit the pin.
class CpuPin {
 public:
  CpuPin();
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t previous_;
};

/// Scales timed repetitions to a nominal host speed. A shared host's speed
/// drifts by tens of percent over tens of seconds; a fixed reference loop
/// timed before and after each repetition measures that drift, and its code
/// never changes between commits. A repetition's seconds are multiplied by
/// kReferenceSeconds / (mean of the two reference times).
class HostSpeed {
 public:
  /// Nominal reference-loop time: its typical time on the 4-core Xeon host
  /// the benchmark was defined on.
  static constexpr double kReferenceSeconds = 0.024;

  HostSpeed();
  /// Call right after a repetition that took `seconds`; returns the seconds
  /// scaled to the nominal host.
  double scale(double seconds);
  /// Scales seconds measured anywhere in the run (set-up, say) by the
  /// run's median reference time.
  double scale_run(double seconds) const {
    return seconds * kReferenceSeconds / reference_s();
  }
  /// Median reference-loop time over the run (s).
  double reference_s() const { return median(reference_); }

 private:
  std::vector<double> reference_;
};

/// The metric document one workload run produces. Values keep every digit
/// as measured; the printing side never rounds.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::uint64_t samples = 0);
  /// Records one output check. A failed check marks the run incorrect.
  void check(const std::string& name, bool ok, const std::string& detail = "");
  /// Operations attempted and failed (failed ones include any whose output
  /// check did not pass).
  void count(std::uint64_t attempted, std::uint64_t failed);

  bool correct() const { return correct_; }
  std::string to_json(const Options& options) const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::uint64_t samples = 0;
  };
  struct Check {
    std::string name;
    bool ok = false;
    std::string detail;
  };
  std::vector<Metric> metrics_;
  std::vector<Check> checks_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

/// In-memory span log for the traced run: name, start, end and parent of
/// each span, written as Chrome-trace JSON at exit. Self time is a span's
/// duration minus the time its direct children cover. Independent of
/// obs::TraceRecorder, which the campaign runs as telemetry under test.
class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog& log, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Seconds since the span opened.
    double elapsed() const;

   private:
    SpanLog& log_;
    std::size_t index_;
  };

  /// Total duration (s) of every span called `name`.
  double total(const std::string& name) const;
  /// Total self time (s) of every span called `name`.
  double self(const std::string& name) const;
  std::size_t size() const { return spans_.size(); }
  /// Writes Chrome-trace JSON (loads in Perfetto); false on I/O error.
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = -1.0;
    long parent = -1;
  };
  std::vector<Span> spans_;
  long open_ = -1;  // innermost open span
};

Report run_campaign(const Options& options);
Report run_materialized(const Options& options);
Report run_serve(const Options& options);

}  // namespace mfwbench
