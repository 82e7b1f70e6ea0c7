// Cross-run trace differencing (DESIGN.md §15): `mfwctl diff` aligns two
// mfw.trace_report/v1 documents and answers the question the paper's
// operators ask after every campaign — *why was this run slower than the
// last one?*
//
// The attribution rides on an invariant the analyzer already guarantees:
// the critical path tiles the makespan (coverage ≈ 1), and its `by_stage`
// decomposition charges every on-path second to a stage. The makespan delta
// between two runs therefore decomposes *exactly* into per-stage critical-
// path deltas — a stage that gained 90 s of on-path time explains 90 s of
// the slowdown, a stage that joined the path explains its whole on-path
// time, one that left it contributes negatively. Each stage attribution is
// then annotated with supporting evidence from the aligned stage/node/
// straggler tables: p99 and queue-wait-p99 shifts, the node whose busy time
// grew most, straggler-count and straggler-cause changes, and path-
// membership transitions ("now on critical path").
//
// Output is a ranked mfw.trace_diff/v1 document plus a one-line text
// verdict per process pair; the diff_fig6_* smoke checks gate on the verdict
// instead of raw makespan thresholds.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/analyze.hpp"

namespace mfw::obs {

/// Thrown by parse_trace_report: schema-version mismatch, malformed JSON,
/// or truncated input (distinguished so the CLI can say which).
class ReportParseError : public std::runtime_error {
 public:
  ReportParseError(const std::string& message, bool truncated)
      : std::runtime_error(message), truncated_(truncated) {}
  bool truncated() const { return truncated_; }

 private:
  bool truncated_;
};

/// Parses a serialized mfw.trace_report/v1 document back into a TraceReport.
/// Utilization timelines are not round-tripped (the diff does not consume
/// them); every field the diff and text renderer read is. Throws
/// ReportParseError with a message naming the file problem.
TraceReport parse_trace_report(std::string_view text);

struct DiffOptions {
  /// |makespan delta| below max(noise_abs_s, noise_rel * makespan_a) is
  /// reported as "no regression" (deterministic reruns give exactly 0).
  double noise_abs_s = 0.05;
  double noise_rel = 0.005;
  /// Stage attributions under this |delta| are folded into "other".
  double rank_min_s = 0.01;
};

/// One ranked explanation of the makespan delta. `kind` "stage" findings
/// are the attribution proper (their delta_s sums to the critical-path
/// length delta); other kinds ("queue-wait", "straggler-shift",
/// "path-membership") are supporting evidence and excluded from
/// attributed_s.
struct DiffFinding {
  std::string kind;
  std::string stage;
  std::string detail;
  double delta_s = 0.0;
  double share = 0.0;  // delta_s / makespan delta (0 when delta is noise)
};

struct ProcessDiff {
  std::string process_a;
  std::string process_b;
  double makespan_a = 0.0;
  double makespan_b = 0.0;
  double delta_s = 0.0;  // b - a
  bool regression = false;   // slower beyond noise
  bool improvement = false;  // faster beyond noise
  double attributed_s = 0.0;      // sum of "stage" finding deltas
  double attributed_share = 0.0;  // attributed_s / delta_s (when not noise)
  std::string verdict;            // one-line human summary
  std::vector<DiffFinding> findings;  // stage attributions ranked first
};

struct TraceDiff {
  std::vector<ProcessDiff> processes;

  /// True when any aligned process pair regressed beyond noise.
  bool regression() const;

  /// {"schema": "mfw.trace_diff/v1", ...}.
  std::string to_json() const;
  /// Verdict + ranked findings per process pair.
  std::string render_text() const;
};

/// Aligns processes (by name, then by order) and attributes each pair's
/// makespan delta. `a` is the baseline, `b` the candidate.
TraceDiff diff_reports(const TraceReport& a, const TraceReport& b,
                       const DiffOptions& options = {});

}  // namespace mfw::obs
