// Validator and compiler tests for mfw::spec: every diagnostic the
// StageGraph compiler emits must be anchored to the YAML line of the
// offending element, so each negative test asserts the full "spec:<line>:"
// prefix, not just the message tail.
#include <gtest/gtest.h>

#include <string>

#include "spec/lab.hpp"
#include "spec/spec.hpp"

namespace mfw::spec {
namespace {

/// Parses + compiles `yaml`, returning the SpecError message ("" if none).
std::string compile_error(const char* yaml, Facility facility = {}) {
  try {
    StageGraph::compile(WorkflowSpec::from_yaml_text(yaml), facility);
  } catch (const SpecError& e) {
    return e.what();
  }
  return "";
}

TEST(SpecValidate, DuplicateStageNameIsLineAnchored) {
  const auto err = compile_error(
      "stages:\n"
      "  - name: tile\n"
      "  - name: tile\n");
  EXPECT_EQ(err, "spec:3: duplicate stage name 'tile' (first declared at "
                 "line 2)");
}

TEST(SpecValidate, UndeclaredInputIsLineAnchored) {
  const auto err = compile_error(
      "stages:\n"
      "  - name: tile\n"
      "    inputs: [ingest]\n");
  EXPECT_EQ(err, "spec:2: stage 'tile' reads from undeclared input 'ingest'");
}

TEST(SpecValidate, SelfInputIsRejected) {
  const auto err = compile_error(
      "stages:\n"
      "  - name: tile\n"
      "    inputs: [tile]\n");
  EXPECT_EQ(err, "spec:2: stage 'tile' lists itself as input");
}

TEST(SpecValidate, CyclicDagIsLineAnchored) {
  const auto err = compile_error(
      "stages:\n"
      "  - name: a\n"
      "    inputs: [b]\n"
      "  - name: b\n"
      "    inputs: [a]\n");
  EXPECT_EQ(err, "spec:2: dependency cycle involving stage 'a'");
}

TEST(SpecValidate, ClaimExceedsNodeCapacity) {
  const auto err = compile_error(
      "stages:\n"
      "  - name: tile\n"
      "    claim:\n"
      "      nodes: 99\n");
  EXPECT_EQ(err, "spec:4: stage 'tile' claims 99 nodes but facility "
                 "'olcf_defiant' has 36");
}

TEST(SpecValidate, ClaimExceedsWanCapacity) {
  Facility facility;
  facility.name = "lab";
  facility.wan_bps = 100.0;
  const auto err = compile_error(
      "stages:\n"
      "  - name: ship\n"
      "    kind: transfer\n"
      "    claim:\n"
      "      wan: 200\n",
      facility);
  EXPECT_NE(err.find("spec:5: stage 'ship' claims 200"), std::string::npos)
      << err;
  EXPECT_NE(err.find("facility 'lab' has 100"), std::string::npos) << err;
}

TEST(SpecValidate, DataflowEdgeMustMatchDeclaredInput) {
  const auto err = compile_error(
      "stages:\n"
      "  - name: a\n"
      "  - name: b\n"
      "dataflow:\n"
      "  - {from: a, to: b}\n");
  EXPECT_EQ(err, "spec:5: dataflow edge 'a -> b': stage 'b' does not "
                 "declare input 'a'");
}

TEST(SpecValidate, UnknownTopLevelKeyIsLineAnchored) {
  const auto err = compile_error(
      "stages:\n"
      "  - name: a\n"
      "bogus: 3\n");
  EXPECT_EQ(err, "spec:3: spec: unknown key 'bogus'");
}

TEST(SpecCompile, TopoOrderAndEdgeModes) {
  const auto graph = StageGraph::compile(
      WorkflowSpec::from_yaml_text(
          "name: demo\n"
          "stages:\n"
          "  - name: label\n"
          "    inputs: [tile]\n"
          "  - name: tile\n"
          "    inputs: [ingest]\n"
          "  - name: ingest\n"
          "    kind: transfer\n"
          "dataflow:\n"
          "  - {from: ingest, to: tile, mode: streaming}\n"
          "campaign:\n"
          "  count: 2\n"
          "  spacing: 30\n"
          "  items: 8\n"),
      Facility{});
  const auto& topo = graph.topo_order();
  ASSERT_EQ(topo.size(), 3u);
  EXPECT_EQ(topo[0], "ingest");
  EXPECT_EQ(topo[1], "tile");
  EXPECT_EQ(topo[2], "label");
  EXPECT_EQ(graph.edge_mode("ingest", "tile"), EdgeMode::kStreaming);
  // Edges without a dataflow override default to barrier coupling.
  EXPECT_EQ(graph.edge_mode("tile", "label"), EdgeMode::kBarrier);
  EXPECT_THROW(graph.edge_mode("ingest", "label"), SpecError);
  EXPECT_EQ(graph.spec().campaign.count, 2);
  EXPECT_EQ(graph.spec().campaign.items, 8);

  const auto plan = graph.describe();
  EXPECT_NE(plan.find("workflow 'demo'"), std::string::npos);
  EXPECT_NE(plan.find("ingest -> tile [streaming]"), std::string::npos);
  EXPECT_NE(plan.find("tile -> label [barrier]"), std::string::npos);
}

TEST(SpecLab, RunsCompiledGraphAndEmitsSchema) {
  Facility facility;
  facility.name = "lab";
  facility.total_nodes = 2;
  facility.max_workers_per_node = 4;
  LabConfig config;
  config.graph = StageGraph::compile(
      WorkflowSpec::from_yaml_text(
          "name: mini\n"
          "stages:\n"
          "  - name: tile\n"
          "    claim:\n"
          "      nodes: 2\n"
          "      workers_per_node: 2\n"
          "      cpu_per_item: 0.5\n"
          "  - name: label\n"
          "    inputs: [tile]\n"
          "    claim:\n"
          "      cpu_per_item: 0.1\n"
          "dataflow:\n"
          "  - {from: tile, to: label, mode: streaming}\n"
          "campaign:\n"
          "  count: 2\n"
          "  spacing: 1\n"
          "  items: 6\n"),
      facility);
  config.policy = "fair_share";
  const auto result = run_lab(config);
  EXPECT_GT(result.makespan, 0.0);
  EXPECT_EQ(result.campaigns, 2);
  EXPECT_EQ(result.tasks, 2u * 6u * 2u);  // two stages x items x campaigns
  EXPECT_GT(result.utilization, 0.0);
  EXPECT_LE(result.utilization, 1.0);

  const auto json = results_to_json({result});
  EXPECT_NE(json.find("\"schema\": \"mfw.policies/v1\""), std::string::npos);
  EXPECT_NE(json.find("\"policy\": \"fair_share\""), std::string::npos);
  EXPECT_NE(json.find("\"makespan\": "), std::string::npos);
}

TEST(SpecLab, LoadScalesCampaignCount) {
  Facility facility;
  facility.total_nodes = 1;
  facility.max_workers_per_node = 2;
  LabConfig config;
  config.graph = StageGraph::compile(
      WorkflowSpec::from_yaml_text(
          "stages:\n"
          "  - name: tile\n"
          "    claim:\n"
          "      cpu_per_item: 0.1\n"
          "campaign:\n"
          "  count: 2\n"
          "  items: 3\n"),
      facility);
  config.load = 2.0;
  const auto result = run_lab(config);
  EXPECT_EQ(result.campaigns, 4);
  EXPECT_EQ(result.tasks, 4u * 3u);
}

// ---------------------------------------------------------------------------
// Spec-declared SLOs (DESIGN.md §12)

TEST(SpecSlo, UnknownMetricIsLineAnchored) {
  const auto err = compile_error(
      "stages:\n"
      "  - name: tile\n"
      "slo:\n"
      "  - name: r1\n"
      "    metric: p42_latency\n"
      "    threshold: 1\n");
  EXPECT_NE(err.find("spec:5: slo 'r1': unknown metric 'p42_latency'"),
            std::string::npos)
      << err;
}

TEST(SpecSlo, MissingThresholdIsLineAnchored) {
  const auto err = compile_error(
      "stages:\n"
      "  - name: tile\n"
      "slo:\n"
      "  - name: r1\n"
      "    stage: tile\n");
  EXPECT_EQ(err, "spec:4: slo 'r1' is missing 'threshold'");
}

TEST(SpecSlo, StageRuleNeedsDeclaredStage) {
  const auto err = compile_error(
      "stages:\n"
      "  - name: tile\n"
      "slo:\n"
      "  - name: r1\n"
      "    stage: nope\n"
      "    metric: p99_latency\n"
      "    threshold: 1\n");
  EXPECT_EQ(err, "spec:4: slo 'r1' watches undeclared stage 'nope'");

  const auto err2 = compile_error(
      "stages:\n"
      "  - name: tile\n"
      "slo:\n"
      "  - name: r1\n"
      "    metric: p99_latency\n"
      "    threshold: 1\n");
  EXPECT_EQ(err2, "spec:4: slo 'r1': metric 'p99_latency' needs a 'stage'");
}

TEST(SpecSlo, DeadlineRuleIsWorkflowWideWithFractionThreshold) {
  const auto err = compile_error(
      "stages:\n"
      "  - name: tile\n"
      "slo:\n"
      "  - name: r1\n"
      "    stage: tile\n"
      "    metric: deadline_miss_rate\n"
      "    threshold: 0.1\n");
  EXPECT_NE(err.find("deadline_miss_rate is workflow-wide"),
            std::string::npos)
      << err;

  const auto err2 = compile_error(
      "stages:\n"
      "  - name: tile\n"
      "slo:\n"
      "  - name: r1\n"
      "    metric: deadline_miss_rate\n"
      "    threshold: 1.5\n");
  EXPECT_NE(err2.find("threshold must be in [0, 1)"), std::string::npos)
      << err2;
}

TEST(SpecSlo, DuplicateNameAndBadWindowAndUtilizationRange) {
  const auto dup = compile_error(
      "stages:\n"
      "  - name: tile\n"
      "slo:\n"
      "  - name: r1\n"
      "    stage: tile\n"
      "    metric: p99_latency\n"
      "    threshold: 1\n"
      "  - name: r1\n"
      "    stage: tile\n"
      "    metric: queue_wait_p99\n"
      "    threshold: 1\n");
  EXPECT_EQ(dup, "spec:8: duplicate slo name 'r1'");

  const auto window = compile_error(
      "stages:\n"
      "  - name: tile\n"
      "slo:\n"
      "  - name: r1\n"
      "    stage: tile\n"
      "    metric: p99_latency\n"
      "    threshold: 1\n"
      "    window: 0\n");
  EXPECT_EQ(window, "spec:8: slo 'r1': window must be > 0");

  const auto util = compile_error(
      "stages:\n"
      "  - name: tile\n"
      "slo:\n"
      "  - name: r1\n"
      "    stage: tile\n"
      "    metric: utilization_floor\n"
      "    threshold: 1.5\n");
  EXPECT_NE(util.find("utilization_floor threshold must be in (0, 1]"),
            std::string::npos)
      << util;
}

TEST(SpecSlo, CompilesIntoHealthRulesAndDescribe) {
  const auto graph = StageGraph::compile(
      WorkflowSpec::from_yaml_text(
          "name: watched\n"
          "stages:\n"
          "  - name: tile\n"
          "slo:\n"
          "  - name: tile-lat\n"
          "    stage: tile\n"
          "    metric: p99_latency\n"
          "    threshold: 2.5\n"
          "    window: 30\n"
          "  - name: deadlines\n"
          "    metric: deadline_miss_rate\n"
          "    threshold: 0.1\n"),
      Facility{});
  const auto rules = health_rules(graph.spec());
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules[0].name, "tile-lat");
  EXPECT_EQ(rules[0].stage, "tile");
  EXPECT_EQ(rules[0].metric, obs::SloMetric::kP99Latency);
  EXPECT_DOUBLE_EQ(rules[0].threshold, 2.5);
  EXPECT_DOUBLE_EQ(rules[0].window_s, 30.0);
  EXPECT_EQ(rules[1].stage, "");
  EXPECT_EQ(rules[1].metric, obs::SloMetric::kDeadlineMissRate);

  const auto plan = graph.describe();
  EXPECT_NE(plan.find("slo:"), std::string::npos);
  EXPECT_NE(plan.find("tile-lat: tile p99_latency <= 2.5 over 30s windows"),
            std::string::npos)
      << plan;
  EXPECT_NE(plan.find("deadlines: workflow deadline_miss_rate <= 0.1"),
            std::string::npos)
      << plan;
}

TEST(SpecLab, DeadlineSloEvaluatedFromCampaignOutcomes) {
  Facility facility;
  facility.total_nodes = 1;
  facility.max_workers_per_node = 2;
  LabConfig config;
  config.graph = StageGraph::compile(
      WorkflowSpec::from_yaml_text(
          "stages:\n"
          "  - name: tile\n"
          "    claim:\n"
          "      cpu_per_item: 0.5\n"
          "campaign:\n"
          "  count: 2\n"
          "  spacing: 1\n"
          "  items: 6\n"
          "  deadline: 0.1\n"  // impossible: every campaign misses
          "slo:\n"
          "  - name: deadline-budget\n"
          "    metric: deadline_miss_rate\n"
          "    threshold: 0.25\n"
          "    window: 60\n"),
      facility);
  const auto result = run_lab(config);
  EXPECT_EQ(result.deadline_misses, 2);
  EXPECT_EQ(result.slo_rules, 1);
  EXPECT_GE(result.slo_alerts, 1);
  EXPECT_EQ(result.slo_firing, 1);

  const auto json = results_to_json({result});
  EXPECT_NE(json.find("\"slo_rules\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"slo_firing\": 1"), std::string::npos);
}

TEST(SpecFacility, DefaultIsDefiantAndBuiltinsDiffer) {
  const Facility defiant;
  EXPECT_EQ(defiant.name, "olcf_defiant");
  EXPECT_EQ(defiant.total_nodes, 36);
  EXPECT_EQ(defiant.max_workers_per_node, 64);
  EXPECT_DOUBLE_EQ(defiant.wan_bps, 23.5 * 1024 * 1024);
  EXPECT_DOUBLE_EQ(defiant.node_r_max, 38.5);
  EXPECT_DOUBLE_EQ(defiant.node_tau, 3.1);

  const Facility& olcf = olcf_defiant();
  const Facility& nersc = nersc_perlmutter_like();
  const Facility& alcf = alcf_polaris_like();
  EXPECT_EQ(olcf.name, "OLCF-Defiant");
  EXPECT_EQ(olcf.total_nodes, 36);
  EXPECT_GT(nersc.total_nodes, olcf.total_nodes);
  EXPECT_LT(alcf.total_nodes, olcf.total_nodes);
  EXPECT_NE(nersc.scheduler_latency, alcf.scheduler_latency);
  EXPECT_NE(nersc.node_r_max, olcf.node_r_max);
  EXPECT_NE(alcf.node_r_max, olcf.node_r_max);
}

TEST(SpecLab, ExecutorsRunTheFacilityContentionLaw) {
  // Same spec, same partition: only the node law's ceiling differs, and
  // every item contends for the node's shared substrate.
  const auto spec = WorkflowSpec::from_yaml_text(
      "stages:\n"
      "  - name: tile\n"
      "    claim:\n"
      "      workers_per_node: 8\n"
      "      cpu_per_item: 0.1\n"
      "      demand_per_item: 20\n"
      "campaign:\n"
      "  count: 2\n"
      "  items: 24\n");
  Facility slow;
  slow.total_nodes = 1;
  Facility fast = slow;
  fast.node_r_max = 2 * slow.node_r_max;

  LabConfig config;
  config.graph = StageGraph::compile(spec, slow);
  const double slow_makespan = run_lab(config).makespan;
  config.graph = StageGraph::compile(spec, fast);
  const double fast_makespan = run_lab(config).makespan;
  EXPECT_GT(slow_makespan, 0.0);
  EXPECT_LT(fast_makespan, slow_makespan);
}

}  // namespace
}  // namespace mfw::spec
