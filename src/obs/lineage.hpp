// Per-granule lineage (DESIGN.md §15): the causal chain each granule
// travelled through the multi-facility pipeline — download of its member
// files, triplet assembly ("granule.ready"), preprocess, the flow-engine
// encode/label states, inference, and serve-side touches — reconstructed
// from TraceRecorder snapshots by the same track/category/arg conventions
// obs/analyze.hpp consumes (the "granule"/"key" identity arg threaded
// through every instrumented stage).
//
// extract_lineage() is post-hoc, O(events): it walks a recorder snapshot
// and materialises every hop of every granule with a per-hop wait/service
// split (queue_wait_s when the span recorded it, otherwise the causal gap
// since the previous hop ended). Powers `mfwctl lineage`.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace mfw::obs {

/// One hop of a granule's causal chain, in time order.
struct LineageHop {
  std::string kind;    // "download" | "granule.ready" | "preprocess" |
                       // "inference" | "flow" | "flow:<state>" | "serve" |
                       // "<stage>" for unrecognised compute lanes
  std::string name;    // span / instant name
  std::string track;   // worker lane it ran on
  double start = 0.0;
  double end = 0.0;       // == start for instants
  double gap_s = 0.0;     // idle time since the previous hop of this granule
  double queue_wait_s = 0.0;  // queue_wait_s arg when recorded, else 0
  std::string status;     // "status" arg when present ("ok", "failed", ...)
  int attempts = 0;       // "attempts" arg when present

  double service_s() const { return end - start; }
  /// Wait charged to this hop: explicit queue wait when the span recorded
  /// it, otherwise the causal gap since the previous hop.
  double wait_s() const { return queue_wait_s > 0.0 ? queue_wait_s : gap_s; }
};

/// The full causal chain of one granule.
struct GranuleLineage {
  std::string granule;
  std::string process;
  std::vector<LineageHop> hops;  // time-ordered
  double first_start = 0.0;
  double last_end = 0.0;
  double service_s = 0.0;  // sum of hop service times
  double wait_s = 0.0;     // sum of hop waits
  bool ready = false;      // saw the granule.ready assembly instant
  bool failed = false;     // any hop reported status "failed"

  /// End-to-end latency: first causal touch to last.
  double latency_s() const {
    return last_end > first_start ? last_end - first_start : 0.0;
  }
};

struct LineageReport {
  std::vector<GranuleLineage> granules;  // sorted by latency, slowest first

  const GranuleLineage* find(const std::string& granule) const;

  /// Machine-readable ({"schema": "mfw.lineage/v1", ...}). `max_granules`
  /// caps the emitted chains (0 = all).
  std::string to_json(std::size_t max_granules = 0) const;
  /// Summary table of the slowest `top` granules.
  std::string render_text(std::size_t top = 10) const;
  /// Full causal timeline of one granule with the wait/service split per
  /// hop; empty string when the granule is unknown.
  std::string render_granule(const std::string& granule) const;
};

struct LineageOptions {
  /// Granules whose chain is only a download (no ready/compute hop) are
  /// usually cancelled tails; keep them unless this is set.
  bool drop_download_only = false;
};

/// Reconstructs every granule's chain from a recorder snapshot. Convention-
/// driven like analyze_trace(): any span or instant carrying a "granule" or
/// "key" arg joins the chain of that granule.
LineageReport extract_lineage(const TraceRecorder& recorder,
                              const LineageOptions& options = {});

}  // namespace mfw::obs
