// Crash-safe flight recorder (DESIGN.md §15): an always-on fixed-size ring
// of the most recent spans, instants, and health episodes — the "black box"
// a multi-facility campaign dumps when something goes wrong, long after the
// full trace would have been unaffordable to keep.
//
// FlightRecorder is a SpanSink peer of SpanRollup/TelemetryBus: attach it as
// the recorder's sink (or chain it behind either via set_next) and every
// closed span / instant is copied into a preallocated ring, newest
// overwriting oldest. Memory is capacity * sizeof(Entry) forever; a year-
// scale campaign with RetentionMode::kStatsOnly plus a flight ring retains
// full forensic context for the *last few minutes* of sim time at zero
// amortised growth.
//
// Zero-perturbation contract (same argument as the watch layer, sha256-
// gated by the run_fig6_flight smoke check): the ring only *reads* the event
// stream under the recorder lock, touches no simulation state, takes no clock
// of its own, and its dump path runs strictly outside recording. A run with
// the flight recorder attached is bit-for-bit identical to one without.
//
// Dump triggers, most automatic first:
//  - arm_crash_dump(path): installs a std::terminate hook that writes the
//    ring before aborting — uncaught exceptions and logic-error aborts
//    leave a black box behind.
//  - HealthMonitor::set_alert_hook: the watch layer calls note_alert() on
//    every SLO transition; callers (mfwctl watch --flight-out) dump when a
//    firing alert lands.
//  - dump(path, reason): explicit (end of run, operator request).
//
// The dump is Chrome-trace JSON (loads in Perfetto / chrome://tracing) with
// the dump reason, drop accounting, and alert episodes as metadata.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace mfw::obs {

struct Alert;  // obs/watch.hpp

struct FlightConfig {
  /// Ring capacity in entries (spans + instants + health episodes share it).
  std::size_t capacity = 8192;
};

class FlightRecorder : public SpanSink {
 public:
  /// One ring slot: a flattened copy of a span, instant, or alert episode.
  struct Entry {
    enum class Kind : std::uint8_t { kSpan, kInstant, kAlert };
    Kind entry_kind = Kind::kSpan;
    double start = 0.0;
    double end = 0.0;  // == start for instants / alerts
    std::uint32_t process = 0;
    std::uint32_t tid = 0;
    std::string track;
    std::string category;
    std::string name;
    Args args;
    std::uint64_t seq = 0;  // monotonic arrival number
  };

  explicit FlightRecorder(FlightConfig config = {});
  ~FlightRecorder() override;

  // SpanSink: called under the recorder lock — one in-place ring-slot
  // write, no allocation beyond what the slot's strings lack, no re-entry.
  void on_span(const TraceTrack& track, const TraceSpan& span) override;
  void on_instant(const TraceTrack& track,
                  const TraceInstant& instant) override;

  /// Chains a downstream sink fed every event verbatim (the recorder holds
  /// a single sink slot). nullptr detaches.
  void set_next(SpanSink* next);

  /// Records a health-alert episode into the ring (wired to
  /// HealthMonitor::set_alert_hook by mfwctl watch).
  void note_alert(const Alert& alert);

  // -- accounting -------------------------------------------------------------
  std::uint64_t seen() const;
  /// Entries overwritten by newer arrivals (seen - retained).
  std::uint64_t overwritten() const;
  std::size_t size() const;
  /// Ring contents oldest-first (copy; safe from any thread).
  std::vector<Entry> snapshot() const;

  /// Chrome-trace JSON of the ring with `reason`, drop accounting, and
  /// entry horizon as metadata. Loads in Perfetto.
  std::string to_chrome_trace_json(std::string_view reason) const;
  /// Writes to_chrome_trace_json(reason) to `path`; false on I/O error.
  bool dump(const std::string& path, std::string_view reason) const;

  /// Installs a process-wide std::terminate hook that dumps this ring to
  /// `path` (reason "terminate") before the previous handler runs. One
  /// recorder may be armed at a time; re-arming replaces the target.
  /// disarm_crash_dump() (also run by the destructor) restores the previous
  /// handler.
  void arm_crash_dump(std::string path);
  void disarm_crash_dump();

 private:
  /// Claims the slot the next arrival overwrites (stamping its seq).
  Entry& next_slot_locked();

  mutable std::mutex mu_;
  FlightConfig config_;
  SpanSink* next_ = nullptr;
  std::vector<Entry> ring_;  // preallocated to capacity
  std::size_t head_ = 0;     // next slot to write once the ring is full
  bool full_ = false;
  std::uint64_t seen_ = 0;
};

}  // namespace mfw::obs
