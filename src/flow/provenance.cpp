#include "flow/provenance.hpp"

#include <sstream>

#include "obs/trace.hpp"

namespace mfw::flow {

void ProvenanceLog::record(RunRecord run) { runs_.push_back(std::move(run)); }

double ProvenanceLog::mean_action_overhead() const {
  double total = 0.0;
  std::size_t count = 0;
  for (const auto& run : runs_) {
    for (const auto& state : run.states) {
      if (state.kind == "action") {
        total += state.orchestration_overhead();
        ++count;
      }
    }
  }
  return count ? total / static_cast<double>(count) : 0.0;
}

std::string ProvenanceLog::dump() const {
  std::ostringstream os;
  for (const auto& run : runs_) {
    os << "- run: " << run.run_id << "\n"
       << "  flow: " << run.flow_name << "\n"
       << "  started_at: " << run.started_at << "\n"
       << "  finished_at: " << run.finished_at << "\n"
       << "  status: " << (run.succeeded ? "ok" : "failed") << "\n";
    if (!run.error.empty()) os << "  error: " << run.error << "\n";
    os << "  states:\n";
    for (const auto& state : run.states) {
      os << "    - {name: " << state.state << ", kind: " << state.kind
         << ", start: " << state.started_at << ", end: " << state.finished_at
         << ", status: " << state.status << "}\n";
    }
  }
  return os.str();
}

void export_to_trace(const ProvenanceLog& log, obs::TraceRecorder& recorder) {
  if (!recorder.enabled()) return;
  for (const auto& run : log.runs()) {
    const std::string track = "flows/run" + std::to_string(run.run_id);
    obs::Args run_args = {{"status", run.succeeded ? "ok" : "failed"}};
    if (!run.subject.empty()) run_args.emplace_back("subject", run.subject);
    if (!run.granule.empty()) run_args.emplace_back("granule", run.granule);
    if (!run.error.empty()) run_args.emplace_back("error", run.error);
    recorder.add_span(track, "flow", run.flow_name, run.started_at,
                      run.finished_at, std::move(run_args));
    for (const auto& state : run.states) {
      obs::Args args = {{"kind", state.kind}, {"status", state.status}};
      // Thread the granule identity down to the state spans so per-granule
      // lineage (obs/lineage.hpp) sees the encode/label hops, not just the
      // run envelope.
      if (!run.granule.empty()) args.emplace_back("granule", run.granule);
      if (state.kind == "action")
        args.emplace_back("orchestration_overhead_s",
                          std::to_string(state.orchestration_overhead()));
      recorder.add_span(track, "flow.state", state.state, state.started_at,
                        state.finished_at, std::move(args));
    }
  }
}

}  // namespace mfw::flow
