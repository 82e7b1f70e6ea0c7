// Provenance and telemetry records for flow runs (paper §V-A: "integrate
// advanced provenance tracking and telemetry tools for real-time workflow
// insights").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mfw::obs {
class TraceRecorder;
}

namespace mfw::flow {

struct StateRecord {
  std::string state;
  std::string kind;
  double started_at = 0.0;
  /// For action states: the moment the action provider was invoked, after
  /// the orchestration hop. started_at..action_started_at is the pure flow
  /// overhead the paper reports as ~50 ms.
  double action_started_at = 0.0;
  double finished_at = 0.0;
  std::string status;  // "ok" | "failed"

  double latency() const { return finished_at - started_at; }
  double orchestration_overhead() const {
    return action_started_at > started_at ? action_started_at - started_at : 0.0;
  }
};

struct RunRecord {
  std::uint64_t run_id = 0;
  std::string flow_name;
  /// What the run operated on (e.g. the tile file path) and the granule
  /// identity it descends from — threaded onto the trace bridge so the
  /// analyzer can stitch the per-granule download->preprocess->inference DAG.
  std::string subject;
  std::string granule;
  double started_at = 0.0;
  double finished_at = 0.0;
  bool succeeded = false;
  std::string error;
  std::vector<StateRecord> states;

  double elapsed() const { return finished_at - started_at; }
};

/// Append-only log of completed runs.
class ProvenanceLog {
 public:
  void record(RunRecord run);

  std::size_t size() const { return runs_.size(); }
  const RunRecord& run(std::size_t index) const { return runs_.at(index); }
  const std::vector<RunRecord>& runs() const { return runs_; }

  /// Mean orchestration overhead per action transition across all runs.
  double mean_action_overhead() const;

  /// YAML dump for archival / debugging.
  std::string dump() const;

 private:
  std::vector<RunRecord> runs_;
};

/// Bridges runner-level provenance onto the obs timeline: each completed
/// RunRecord becomes a flow span (track "flows/run<id>") containing one child
/// span per state, annotated with kind/status and the orchestration overhead.
/// No-op while the recorder is disabled.
void export_to_trace(const ProvenanceLog& log, obs::TraceRecorder& recorder);

}  // namespace mfw::flow
