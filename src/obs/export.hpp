// Exporters for the obs layer:
//  - Chrome trace-event JSON (the `traceEvents` array format) loadable in
//    Perfetto (ui.perfetto.dev) and chrome://tracing. Processes map to pid,
//    tracks to tid (with "process_name"/"thread_name" metadata records),
//    spans to complete events (ph "X", microsecond ts/dur), instants to
//    ph "i" with thread scope.
//  - A flat metrics text dump: one `name{label="v",...} value` line per
//    counter/gauge series and a count/mean/min/max (+ bucket rows) block per
//    distribution.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mfw::obs {

/// JSON-escapes `text` without surrounding quotes: quote/backslash plus
/// \uXXXX for every control character < 0x20, so adversarial label values
/// (embedded newlines, tabs, NULs) cannot produce invalid JSON. Shared by
/// the trace exporter and the analyze/rollup report writers.
std::string json_escape(std::string_view text);

/// Renders the recorder's events as a Chrome trace-event JSON document.
std::string to_chrome_trace_json(const TraceRecorder& recorder);

/// The Chrome trace-event records both trace documents are built from (this
/// exporter and FlightRecorder::to_chrome_trace_json), so a lane, a span or
/// an instant reads byte for byte the same in either: thread-name metadata,
/// a complete event (ph "X") and a thread-scoped instant (ph "i"). Times
/// are in seconds.
std::string thread_name_event(std::uint32_t pid, std::uint32_t tid,
                              std::string_view name);
std::string span_event(std::uint32_t pid, std::uint32_t tid,
                       std::string_view category, std::string_view name,
                       double start, double duration, const Args& args);
std::string instant_event(std::uint32_t pid, std::uint32_t tid,
                          std::string_view category, std::string_view name,
                          double at, const Args& args);

/// Renders the registry as flat text (counters, gauges, distributions).
std::string to_metrics_text(const MetricsRegistry& registry);

/// Writes content to a host-filesystem path. Returns false, and prints
/// nothing, when the file cannot be opened or written: the caller reports
/// it.
bool write_file(const std::string& path, const std::string& content);

/// write_file for the output files of mfwctl and the benches: when it fails,
/// prints "error: cannot write <path>" to stderr and exits 1.
void write_file_or_exit(const std::string& path, const std::string& content);

/// Convenience: enables/disables the global TraceRecorder + MetricsRegistry
/// together (the common switch behind `--trace-out` and `mfwctl trace`).
void set_globally_enabled(bool on);

}  // namespace mfw::obs
