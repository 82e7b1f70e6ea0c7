// Layer replays shared by the campaign and materialized workloads. Each one
// feeds a workload's own inputs through a layer's public entry point inside
// a SpanLog span, so the traced run can attribute host time to the layer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "compute/task.hpp"
#include "modis/catalog.hpp"
#include "preprocess/tasks.hpp"
#include "report.hpp"

namespace mfwbench {

/// `modis.granule_stats`: preprocess::make_preprocess_task per MOD02
/// granule, one span each. Returns the task descriptors.
std::vector<mfw::compute::SimTaskDesc> replay_granule_stats(
    SpanLog& log, const mfw::modis::GranuleGenerator& generator,
    const std::vector<mfw::modis::GranuleId>& granules,
    const mfw::preprocess::PreprocessCostModel& cost);

/// `flow.runner`: the inference flow (infer -> append -> move) once per
/// granule on a fresh engine and FlowRunner whose actions return at once;
/// run i's inference result carries `labels[i]`. Returns runs completed.
std::size_t replay_flow_runner(SpanLog& log,
                               const std::vector<std::vector<int>>& labels,
                               double action_overhead);

/// Reports a layer's seconds, its share of `whole_s` in percent, and keeps a
/// running total of the layers reported so far.
class LayerSplit {
 public:
  LayerSplit(Report& report, double whole_s) : report_(report), whole_s_(whole_s) {}
  /// `grouped` names the seconds `<name>.s` (beside `<name>.calls` and the
  /// like); otherwise `<name>_s`.
  void add(const std::string& name, double seconds, bool grouped = true);
  /// Whole minus every layer added: `pipeline.residual_s` and its share.
  void residual(const std::string& name);

 private:
  Report& report_;
  double whole_s_;
  double layers_s_ = 0.0;
};

}  // namespace mfwbench
