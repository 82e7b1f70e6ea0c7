#include "replay.hpp"

#include "flow/definition.hpp"
#include "flow/runner.hpp"
#include "sim/engine.hpp"

namespace mfwbench {

using namespace mfw;

namespace {

// Same shape as the workflow's built-in aicca-inference flow.
constexpr const char* kInferenceFlow = R"(
name: aicca-inference
start_at: infer
states:
  infer:
    type: action
    action: inference.run
    parameters:
      path: $.file.path
    result_path: inference
    next: append
  append:
    type: action
    action: labels.append
    parameters:
      path: $.file.path
      labels: $.inference.labels
    result_path: append
    next: move
  move:
    type: action
    action: files.move
    parameters:
      path: $.file.path
    result_path: move
    next: done
  done:
    type: succeed
)";

}  // namespace

std::vector<compute::SimTaskDesc> replay_granule_stats(
    SpanLog& log, const modis::GranuleGenerator& generator,
    const std::vector<modis::GranuleId>& granules,
    const preprocess::PreprocessCostModel& cost) {
  std::vector<compute::SimTaskDesc> descs;
  descs.reserve(granules.size());
  for (const auto& id : granules) {
    SpanLog::Scope span(log, "modis.granule_stats");
    descs.push_back(preprocess::make_preprocess_task(generator, id, cost));
  }
  return descs;
}

std::size_t replay_flow_runner(SpanLog& log,
                               const std::vector<std::vector<int>>& labels,
                               double action_overhead) {
  SpanLog::Scope span(log, "flow.runner");
  const auto definition = flow::FlowDefinition::from_yaml_text(kInferenceFlow);
  sim::SimEngine engine;
  flow::FlowRunner runner(engine, nullptr,
                          flow::FlowRunnerConfig{action_overhead, 1'000'000});
  runner.register_action(
      "inference.run",
      [&labels](const util::YamlNode& params, const util::YamlNode&,
                flow::ActionHandle handle) {
        const auto& path = params.require("path").as_string();
        const auto& run_labels = labels[std::stoul(path.substr(path.find('/') + 1))];
        auto result = util::YamlNode::map();
        result.set("count",
                   util::YamlNode::scalar(std::to_string(run_labels.size())));
        auto list = util::YamlNode::list();
        for (const int label : run_labels)
          list.push_back(util::YamlNode::scalar(std::to_string(label)));
        result.set("labels", std::move(list));
        handle.succeed(std::move(result));
      });
  runner.register_action(
      "labels.append", [](const util::YamlNode&, const util::YamlNode&,
                          flow::ActionHandle handle) {
        auto result = util::YamlNode::map();
        result.set("ok", util::YamlNode::scalar("true"));
        handle.succeed(std::move(result));
      });
  runner.register_action(
      "files.move", [](const util::YamlNode& params, const util::YamlNode&,
                       flow::ActionHandle handle) {
        auto result = util::YamlNode::map();
        result.set("path", params.require("path"));
        handle.succeed(std::move(result));
      });
  std::size_t done = 0;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    auto file = util::YamlNode::map();
    file.set("path", util::YamlNode::scalar("tiles/" + std::to_string(i)));
    auto context = util::YamlNode::map();
    context.set("file", std::move(file));
    runner.start(definition, std::move(context),
                 [&done](const flow::RunRecord& record, const util::YamlNode&) {
                   if (record.succeeded) ++done;
                 });
  }
  engine.run();
  return done;
}

void LayerSplit::add(const std::string& name, double seconds, bool grouped) {
  report_.metric(name + (grouped ? ".s" : "_s"), seconds, "s");
  report_.metric(name + ".pct", 100.0 * seconds / whole_s_, "%");
  layers_s_ += seconds;
}

void LayerSplit::residual(const std::string& name) {
  const double residual = whole_s_ - layers_s_;
  report_.metric(name + "_s", residual, "s");
  report_.metric(name + ".pct", 100.0 * residual / whole_s_, "%");
}

}  // namespace mfwbench
