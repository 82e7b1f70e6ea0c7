// Tests for the flow engine: definition parsing/validation, runner
// semantics (actions, choices, waits, context, overhead, failure), the
// event bus, the filesystem monitor, and the dataflow layer (typed events +
// GranuleTracker triplet assembly).
#include <gtest/gtest.h>

#include <cstdio>

#include "flow/definition.hpp"
#include "flow/event_bus.hpp"
#include "flow/events.hpp"
#include "flow/granule_tracker.hpp"
#include "flow/monitor.hpp"
#include "flow/provenance.hpp"
#include "flow/runner.hpp"
#include "obs/trace.hpp"
#include "storage/memfs.hpp"

namespace mfw::flow {
namespace {

constexpr const char* kSimpleFlow = R"(
name: simple
start_at: work
states:
  work:
    type: action
    action: echo
    parameters:
      value: 42
    result_path: result
    next: finish
  finish:
    type: succeed
)";

TEST(Definition, ParsesFromYaml) {
  const auto def = FlowDefinition::from_yaml_text(kSimpleFlow);
  EXPECT_EQ(def.name(), "simple");
  EXPECT_EQ(def.start_at(), "work");
  ASSERT_TRUE(def.has_state("work"));
  EXPECT_EQ(def.state("work").action, "echo");
  EXPECT_EQ(def.state("work").parameters["value"].as_int(), 42);
}

TEST(Definition, ValidatesGraph) {
  EXPECT_THROW(FlowDefinition::from_yaml_text(R"(
start_at: missing
states:
  other:
    type: succeed
)"),
               util::YamlError);
  EXPECT_THROW(FlowDefinition::from_yaml_text(R"(
start_at: a
states:
  a:
    type: action
    action: x
    next: nowhere
)"),
               util::YamlError);
  EXPECT_THROW(FlowDefinition::from_yaml_text(R"(
start_at: a
states:
  a:
    type: pass
)"),
               util::YamlError);  // non-terminal without next
}

TEST(Definition, ChoiceParsing) {
  const auto def = FlowDefinition::from_yaml_text(R"(
start_at: decide
states:
  decide:
    type: choice
    choices:
      - variable: count
        greater_than: 0
        next: go
    default: stop
  go:
    type: succeed
  stop:
    type: fail
    error: empty
)");
  const auto& decide = def.state("decide");
  ASSERT_EQ(decide.choices.size(), 1u);
  EXPECT_EQ(decide.choices[0].op, ChoiceRule::Op::kGreaterThan);
  EXPECT_EQ(decide.default_next, "stop");
}

struct RunnerFixture {
  sim::SimEngine engine;
  ProvenanceLog provenance;
  FlowRunner runner{engine, &provenance};
};

TEST(Runner, ActionResultStoredInContext) {
  RunnerFixture fx;
  fx.runner.register_action(
      "echo", [](const util::YamlNode& params, const util::YamlNode&,
                 ActionHandle handle) {
        handle.succeed(params["value"]);
      });
  util::YamlNode final_context;
  bool succeeded = false;
  fx.runner.start(FlowDefinition::from_yaml_text(kSimpleFlow),
                  util::YamlNode::map(),
                  [&](const RunRecord& record, const util::YamlNode& context) {
                    succeeded = record.succeeded;
                    final_context = context;
                  });
  fx.engine.run();
  ASSERT_TRUE(succeeded);
  EXPECT_EQ(final_context["result"].as_int(), 42);
}

TEST(Runner, ParameterReferencesResolveFromContext) {
  RunnerFixture fx;
  std::string seen;
  fx.runner.register_action(
      "consume", [&](const util::YamlNode& params, const util::YamlNode&,
                     ActionHandle handle) {
        seen = params["path"].as_string();
        handle.succeed(util::YamlNode::map());
      });
  const auto def = FlowDefinition::from_yaml_text(R"(
start_at: s
states:
  s:
    type: action
    action: consume
    parameters:
      path: $.file.path
    next: end
  end:
    type: succeed
)");
  auto context = util::YamlNode::map();
  auto file = util::YamlNode::map();
  file.set("path", util::YamlNode::scalar("tiles/x.ncl"));
  context.set("file", std::move(file));
  fx.runner.start(def, std::move(context));
  fx.engine.run();
  EXPECT_EQ(seen, "tiles/x.ncl");
}

TEST(Runner, ChoiceRoutesOnContext) {
  RunnerFixture fx;
  const auto def = FlowDefinition::from_yaml_text(R"(
start_at: decide
states:
  decide:
    type: choice
    choices:
      - variable: n
        greater_than: 10
        next: big
      - variable: n
        greater_or_equal: 0
        next: small
    default: neg
  big:
    type: succeed
  small:
    type: succeed
  neg:
    type: fail
    error: negative
)");
  auto run_with = [&](const std::string& n) {
    auto context = util::YamlNode::map();
    context.set("n", util::YamlNode::scalar(n));
    std::string last_state;
    bool ok = false;
    fx.runner.start(def, std::move(context),
                    [&](const RunRecord& record, const util::YamlNode&) {
                      ok = record.succeeded;
                      last_state = record.states.back().state;
                    });
    fx.engine.run();
    return std::make_pair(ok, last_state);
  };
  EXPECT_EQ(run_with("50"), std::make_pair(true, std::string("big")));
  EXPECT_EQ(run_with("3"), std::make_pair(true, std::string("small")));
  EXPECT_EQ(run_with("-2"), std::make_pair(false, std::string("neg")));
}

TEST(Runner, WaitAdvancesVirtualTime) {
  RunnerFixture fx;
  const auto def = FlowDefinition::from_yaml_text(R"(
start_at: nap
states:
  nap:
    type: wait
    seconds: 7.5
    next: end
  end:
    type: succeed
)");
  double finished = -1;
  fx.runner.start(def, util::YamlNode::map(),
                  [&](const RunRecord& r, const util::YamlNode&) {
                    finished = r.finished_at;
                  });
  fx.engine.run();
  EXPECT_NEAR(finished, 7.5, 1e-9);
}

TEST(Runner, PassAssignsContext) {
  RunnerFixture fx;
  const auto def = FlowDefinition::from_yaml_text(R"(
start_at: set
states:
  set:
    type: pass
    set:
      mode: fast
      copy: $.input
    next: end
  end:
    type: succeed
)");
  auto context = util::YamlNode::map();
  context.set("input", util::YamlNode::scalar("original"));
  util::YamlNode final_context;
  fx.runner.start(def, std::move(context),
                  [&](const RunRecord&, const util::YamlNode& ctx) {
                    final_context = ctx;
                  });
  fx.engine.run();
  EXPECT_EQ(final_context["mode"].as_string(), "fast");
  EXPECT_EQ(final_context["copy"].as_string(), "original");
}

TEST(Runner, ActionFailureFailsRun) {
  RunnerFixture fx;
  fx.runner.register_action(
      "echo", [](const util::YamlNode&, const util::YamlNode&,
                 ActionHandle handle) { handle.fail("kaput"); });
  bool succeeded = true;
  std::string error;
  fx.runner.start(FlowDefinition::from_yaml_text(kSimpleFlow),
                  util::YamlNode::map(),
                  [&](const RunRecord& record, const util::YamlNode&) {
                    succeeded = record.succeeded;
                    error = record.error;
                  });
  fx.engine.run();
  EXPECT_FALSE(succeeded);
  EXPECT_EQ(error, "kaput");
}

TEST(Runner, UnregisteredActionRejectedAtStart) {
  RunnerFixture fx;
  EXPECT_THROW(
      fx.runner.start(FlowDefinition::from_yaml_text(kSimpleFlow)),
      std::invalid_argument);
}

TEST(Runner, ActionOverheadChargedPerAction) {
  sim::SimEngine engine;
  ProvenanceLog provenance;
  FlowRunner runner(engine, &provenance, FlowRunnerConfig{0.05, 1000});
  runner.register_action("echo",
                         [](const util::YamlNode& p, const util::YamlNode&,
                            ActionHandle h) { h.succeed(p["value"]); });
  double finished = -1;
  runner.start(FlowDefinition::from_yaml_text(kSimpleFlow),
               util::YamlNode::map(),
               [&](const RunRecord& r, const util::YamlNode&) {
                 finished = r.finished_at;
               });
  engine.run();
  EXPECT_NEAR(finished, 0.05, 1e-9);  // one action, ~50 ms overhead
  EXPECT_NEAR(provenance.mean_action_overhead(), 0.05, 1e-9);
}

TEST(Runner, AsyncActionsCompleteAcrossEvents) {
  RunnerFixture fx;
  fx.runner.register_action(
      "echo", [&](const util::YamlNode& p, const util::YamlNode&,
                  ActionHandle handle) {
        // Succeed three seconds later, from a different event.
        fx.engine.schedule_after(
            3.0, [p, succeed = handle.succeed] { succeed(p["value"]); });
      });
  double finished = -1;
  fx.runner.start(FlowDefinition::from_yaml_text(kSimpleFlow),
                  util::YamlNode::map(),
                  [&](const RunRecord& r, const util::YamlNode&) {
                    finished = r.finished_at;
                  });
  fx.engine.run();
  EXPECT_GT(finished, 3.0);
}

TEST(Runner, DefinitionLoopHitsTransitionGuard) {
  sim::SimEngine engine;
  FlowRunner runner(engine, nullptr, FlowRunnerConfig{0.0, 50});
  // pass <-> bounce loop with no exit: the guard must fail the run.
  const auto def = FlowDefinition::from_yaml_text(R"(
start_at: a
states:
  a:
    type: pass
    next: b
  b:
    type: pass
    next: a
)");
  bool succeeded = true;
  std::string error;
  runner.start(def, util::YamlNode::map(),
               [&](const RunRecord& r, const util::YamlNode&) {
                 succeeded = r.succeeded;
                 error = r.error;
               });
  engine.run();
  EXPECT_FALSE(succeeded);
  EXPECT_NE(error.find("max_transitions"), std::string::npos);
}

TEST(Runner, MultipleConcurrentRuns) {
  RunnerFixture fx;
  fx.runner.register_action("echo",
                            [](const util::YamlNode& p, const util::YamlNode&,
                               ActionHandle h) { h.succeed(p["value"]); });
  int finished = 0;
  const auto def = FlowDefinition::from_yaml_text(kSimpleFlow);
  for (int i = 0; i < 20; ++i)
    fx.runner.start(def, util::YamlNode::map(),
                    [&](const RunRecord& r, const util::YamlNode&) {
                      EXPECT_TRUE(r.succeeded);
                      ++finished;
                    });
  EXPECT_EQ(fx.runner.active_runs(), 20u);
  fx.engine.run();
  EXPECT_EQ(finished, 20);
  EXPECT_EQ(fx.runner.active_runs(), 0u);
}

TEST(Runner, ProvenanceRecordsStates) {
  RunnerFixture fx;
  fx.runner.register_action("echo",
                            [](const util::YamlNode& p, const util::YamlNode&,
                               ActionHandle h) { h.succeed(p["value"]); });
  fx.runner.start(FlowDefinition::from_yaml_text(kSimpleFlow));
  fx.engine.run();
  ASSERT_EQ(fx.provenance.size(), 1u);
  const auto& run = fx.provenance.run(0);
  ASSERT_EQ(run.states.size(), 2u);
  EXPECT_EQ(run.states[0].state, "work");
  EXPECT_EQ(run.states[0].kind, "action");
  EXPECT_EQ(run.states[1].kind, "succeed");
  EXPECT_TRUE(run.succeeded);
  EXPECT_FALSE(fx.provenance.dump().empty());
  EXPECT_EQ(run.flow_name, "simple");
}

TEST(Schema, FieldValidation) {
  const auto doc = util::parse_yaml(
      "path: tiles/x.ncl\nlabels: [1, 2]\nmeta: {a: 1}\n");
  std::vector<FieldSpec> ok{{"path", util::YamlNode::Kind::kScalar, true},
                            {"labels", util::YamlNode::Kind::kList, true},
                            {"meta.a", util::YamlNode::Kind::kScalar, true},
                            {"optional", util::YamlNode::Kind::kMap, false}};
  EXPECT_FALSE(validate_fields(doc, ok).has_value());

  std::vector<FieldSpec> missing{{"nope", util::YamlNode::Kind::kScalar, true}};
  const auto err1 = validate_fields(doc, missing);
  ASSERT_TRUE(err1.has_value());
  EXPECT_NE(err1->find("missing"), std::string::npos);

  std::vector<FieldSpec> wrong_kind{{"labels", util::YamlNode::Kind::kMap, true}};
  const auto err2 = validate_fields(doc, wrong_kind);
  ASSERT_TRUE(err2.has_value());
  EXPECT_NE(err2->find("expected map"), std::string::npos);
}

TEST(Schema, RunnerEnforcesInputSchema) {
  RunnerFixture fx;
  ActionSchema schema;
  schema.inputs = {{"value", util::YamlNode::Kind::kScalar, true},
                   {"count", util::YamlNode::Kind::kScalar, true}};
  fx.runner.register_action(
      "echo",
      [](const util::YamlNode& p, const util::YamlNode&, ActionHandle h) {
        h.succeed(p["value"]);
      },
      schema);
  ASSERT_NE(fx.runner.schema("echo"), nullptr);
  // kSimpleFlow passes only `value`; the missing `count` must fail the run
  // before the action executes.
  bool succeeded = true;
  std::string error;
  fx.runner.start(FlowDefinition::from_yaml_text(kSimpleFlow),
                  util::YamlNode::map(),
                  [&](const RunRecord& r, const util::YamlNode&) {
                    succeeded = r.succeeded;
                    error = r.error;
                  });
  fx.engine.run();
  EXPECT_FALSE(succeeded);
  EXPECT_NE(error.find("input schema"), std::string::npos);
}

TEST(Schema, RunnerEnforcesOutputSchema) {
  RunnerFixture fx;
  ActionSchema schema;
  schema.outputs = {{"labels", util::YamlNode::Kind::kList, true}};
  fx.runner.register_action(
      "echo",
      [](const util::YamlNode&, const util::YamlNode&, ActionHandle h) {
        auto result = util::YamlNode::map();
        result.set("labels", util::YamlNode::scalar("oops-not-a-list"));
        h.succeed(std::move(result));
      },
      schema);
  bool succeeded = true;
  std::string error;
  fx.runner.start(FlowDefinition::from_yaml_text(kSimpleFlow),
                  util::YamlNode::map(),
                  [&](const RunRecord& r, const util::YamlNode&) {
                    succeeded = r.succeeded;
                    error = r.error;
                  });
  fx.engine.run();
  EXPECT_FALSE(succeeded);
  EXPECT_NE(error.find("output schema"), std::string::npos);
}

TEST(Schema, ValidActionPassesBothSchemas) {
  RunnerFixture fx;
  ActionSchema schema;
  schema.inputs = {{"value", util::YamlNode::Kind::kScalar, true}};
  schema.outputs = {{"doubled", util::YamlNode::Kind::kScalar, true}};
  fx.runner.register_action(
      "echo",
      [](const util::YamlNode& p, const util::YamlNode&, ActionHandle h) {
        auto result = util::YamlNode::map();
        result.set("doubled", util::YamlNode::scalar(std::to_string(
                                  p["value"].as_int() * 2)));
        h.succeed(std::move(result));
      },
      schema);
  util::YamlNode context;
  bool succeeded = false;
  fx.runner.start(FlowDefinition::from_yaml_text(kSimpleFlow),
                  util::YamlNode::map(),
                  [&](const RunRecord& r, const util::YamlNode& ctx) {
                    succeeded = r.succeeded;
                    context = ctx;
                  });
  fx.engine.run();
  ASSERT_TRUE(succeeded);
  EXPECT_EQ(context.path("result.doubled").as_int(), 84);
}

TEST(ContextSet, CreatesNestedMaps) {
  auto root = util::YamlNode::map();
  context_set(root, "a.b.c", util::YamlNode::scalar("1"));
  context_set(root, "a.d", util::YamlNode::scalar("2"));
  EXPECT_EQ(root.path("a.b.c").as_int(), 1);
  EXPECT_EQ(root.path("a.d").as_int(), 2);
}

TEST(EventBus, DeliversAsynchronously) {
  sim::SimEngine engine;
  EventBus bus(engine);
  std::vector<std::string> seen;
  bus.subscribe(Topic::kStage, [&](const Event& event) {
    seen.push_back(std::get<StageEvent>(event).stage);
  });
  bus.publish(Topic::kStage, StageEvent{"download", "started", 0.0});
  EXPECT_TRUE(seen.empty());  // not delivered synchronously
  engine.run();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "download");
}

TEST(EventBus, UnsubscribeStopsDelivery) {
  sim::SimEngine engine;
  EventBus bus(engine);
  int count = 0;
  const auto sub = bus.subscribe(Topic::kStage, [&](const Event&) { ++count; });
  bus.publish(Topic::kStage, StageEvent{});
  engine.run();
  bus.unsubscribe(sub);
  bus.publish(Topic::kStage, StageEvent{});
  engine.run();
  EXPECT_EQ(count, 1);
  EXPECT_EQ(bus.subscriber_count(Topic::kStage), 0u);
  EXPECT_EQ(bus.published_count(), 2u);
}

TEST(EventBus, OnePublishSchedulesOneDispatchOnlyWhenSubscribed) {
  // The workflow's event order depends on this: every publish to a topic
  // with subscribers costs exactly one zero-delay engine event, however
  // many subscribers it has, and a publish nobody hears costs none.
  sim::SimEngine engine;
  EventBus bus(engine);
  int delivered = 0;
  bus.subscribe(Topic::kGranuleReady, [&](const Event&) { ++delivered; });
  bus.subscribe(Topic::kGranuleReady, [&](const Event&) { ++delivered; });
  bus.publish(Topic::kGranuleReady, ReadyGranule{});
  EXPECT_EQ(engine.pending(), 1u);
  bus.publish(Topic::kDownloadFile, FileEvent{});
  EXPECT_EQ(engine.pending(), 1u);
  EXPECT_EQ(bus.published_count(), 2u);
  EXPECT_EQ(engine.run(), 1u);
  EXPECT_EQ(delivered, 2);
}

TEST(Monitor, DetectsNewAndModifiedFiles) {
  sim::SimEngine engine;
  storage::MemFs fs("defiant", &engine);
  std::vector<std::string> triggered;
  FsMonitor monitor(engine, fs, FsMonitorConfig{"tiles/*.ncl", 1.0},
                    [&](const std::vector<storage::FileInfo>& files) {
                      for (const auto& f : files) triggered.push_back(f.path);
                    });
  monitor.start();
  engine.schedule_at(0.5, [&] { fs.write_text("tiles/a.ncl", "1"); });
  engine.schedule_at(2.5, [&] { fs.write_text("tiles/b.ncl", "2"); });
  engine.schedule_at(4.5, [&] { fs.write_text("tiles/a.ncl", "modified"); });
  engine.schedule_at(6.0, [&] { monitor.stop(); });
  engine.run();
  EXPECT_EQ(triggered,
            (std::vector<std::string>{"tiles/a.ncl", "tiles/b.ncl",
                                      "tiles/a.ncl"}));
  EXPECT_FALSE(monitor.running());
  EXPECT_EQ(monitor.batches_triggered(), 3u);
}

TEST(Monitor, IgnoresNonMatchingPaths) {
  sim::SimEngine engine;
  storage::MemFs fs("defiant", &engine);
  int batches = 0;
  FsMonitor monitor(engine, fs, FsMonitorConfig{"tiles/*.ncl", 1.0},
                    [&](const auto&) { ++batches; });
  monitor.start();
  engine.schedule_at(0.5, [&] { fs.write_text("staging/x.hdf", "1"); });
  engine.schedule_at(2.0, [&] { monitor.stop(); });
  engine.run();
  EXPECT_EQ(batches, 0);
}

TEST(Monitor, StopDrainsLastBatch) {
  sim::SimEngine engine;
  storage::MemFs fs("defiant", &engine);
  int files_seen = 0;
  FsMonitor monitor(engine, fs, FsMonitorConfig{"*.ncl", 5.0},
                    [&](const auto& files) { files_seen += files.size(); });
  monitor.start();
  // File lands just before stop; the drain poll must pick it up.
  engine.schedule_at(6.0, [&] {
    fs.write_text("late.ncl", "x");
    monitor.stop();
  });
  engine.run();
  EXPECT_EQ(files_seen, 1);
}

TEST(Monitor, RejectsBadConfig) {
  sim::SimEngine engine;
  storage::MemFs fs("x");
  EXPECT_THROW(FsMonitor(engine, fs, FsMonitorConfig{"", 1.0}, [](const auto&) {}),
               std::invalid_argument);
  EXPECT_THROW(FsMonitor(engine, fs, FsMonitorConfig{"*", 0.0}, [](const auto&) {}),
               std::invalid_argument);
  EXPECT_THROW(FsMonitor(engine, fs, FsMonitorConfig{"*", 1.0}, nullptr),
               std::invalid_argument);
}

TEST(EventBus, SelfUnsubscribeDuringDispatchIsSafe) {
  sim::SimEngine engine;
  EventBus bus(engine);
  int count = 0;
  Subscription sub;
  sub = bus.subscribe(Topic::kStage, [&](const Event&) {
    ++count;
    bus.unsubscribe(sub);  // from inside the handler, mid-dispatch
  });
  bus.publish(Topic::kStage, StageEvent{});
  bus.publish(Topic::kStage, StageEvent{});
  engine.run();
  EXPECT_EQ(count, 1);  // the second pending delivery is suppressed
  EXPECT_EQ(bus.subscriber_count(Topic::kStage), 0u);
}

TEST(EventBus, HandlerUnsubscribingPeerSuppressesPendingDelivery) {
  sim::SimEngine engine;
  EventBus bus(engine);
  int first = 0;
  int second = 0;
  Subscription peer;
  bus.subscribe(Topic::kStage, [&](const Event&) {
    ++first;
    bus.unsubscribe(peer);  // removes the next subscriber in this dispatch
  });
  peer = bus.subscribe(Topic::kStage, [&](const Event&) { ++second; });
  bus.publish(Topic::kStage, StageEvent{});
  engine.run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 0);
}

TEST(EventBus, LateSubscriberDoesNotSeeEarlierPublish) {
  sim::SimEngine engine;
  EventBus bus(engine);
  int early = 0;
  int late = 0;
  bus.subscribe(Topic::kStage, [&](const Event&) {
    ++early;
    if (early == 1)
      bus.subscribe(Topic::kStage, [&](const Event&) { ++late; });
  });
  bus.publish(Topic::kStage, StageEvent{});
  engine.run();
  EXPECT_EQ(early, 1);
  EXPECT_EQ(late, 0);  // subscribed after publish: event not replayed
  bus.publish(Topic::kStage, StageEvent{});
  engine.run();
  EXPECT_EQ(early, 2);
  EXPECT_EQ(late, 1);
}

TEST(Monitor, OverwriteWithNewMtimeRetriggersSamePath) {
  sim::SimEngine engine;
  storage::MemFs fs("defiant", &engine);
  int batches = 0;
  FsMonitor monitor(engine, fs, FsMonitorConfig{"tiles/*.ncl", 1.0},
                    [&](const auto&) { ++batches; });
  monitor.start();
  engine.schedule_at(0.5, [&] { fs.write_text("tiles/a.ncl", "v"); });
  // Identical content, later mtime: path+mtime bookkeeping must re-trigger.
  engine.schedule_at(2.5, [&] { fs.write_text("tiles/a.ncl", "v"); });
  engine.schedule_at(5.0, [&] { monitor.stop(); });
  engine.run();
  EXPECT_EQ(batches, 2);
  // Polls between the writes saw an unchanged mtime and stayed quiet.
  EXPECT_EQ(monitor.files_seen(), 1u);
}

TEST(Monitor, StickyDrainKeepsPollingUntilQuiet) {
  sim::SimEngine engine;
  storage::MemFs fs("defiant", &engine);
  int files_seen = 0;
  FsMonitorConfig config{"*.ncl", 1.0};
  config.sticky = true;
  FsMonitor monitor(engine, fs, config,
                    [&](const auto& files) { files_seen += files.size(); });
  monitor.start();
  engine.schedule_at(1.5, [&] {
    fs.write_text("a.ncl", "x");
    monitor.stop();
  });
  // Lands after the drain poll delivered a.ncl; sticky keeps polling because
  // that drain batch was non-empty, so b.ncl is still picked up.
  engine.schedule_at(2.0, [&] { fs.write_text("b.ncl", "x"); });
  engine.run();
  EXPECT_EQ(files_seen, 2);
  EXPECT_FALSE(monitor.running());
}

TEST(Monitor, NonStickyStopsAfterSingleDrainPoll) {
  sim::SimEngine engine;
  storage::MemFs fs("defiant", &engine);
  int files_seen = 0;
  FsMonitorConfig config{"*.ncl", 1.0};
  config.sticky = false;
  FsMonitor monitor(engine, fs, config,
                    [&](const auto& files) { files_seen += files.size(); });
  monitor.start();
  engine.schedule_at(1.5, [&] {
    fs.write_text("a.ncl", "x");
    monitor.stop();
  });
  engine.schedule_at(2.0, [&] { fs.write_text("b.ncl", "x"); });
  engine.run();
  // The drain poll delivers a.ncl but is the last poll: b.ncl is dropped.
  EXPECT_EQ(files_seen, 1);
  EXPECT_FALSE(monitor.running());
}

// -- dataflow events + granule tracker ---------------------------------------

FileEvent make_file_event(modis::ProductKind product, int slot,
                          double at = 1.0) {
  FileEvent event;
  event.id =
      modis::GranuleId{product, modis::Satellite::kTerra, 2022, 1, slot};
  event.path = "staging/" + event.id.filename();
  event.bytes = 1000;
  event.finished_at = at;
  return event;
}

TEST(DataflowEvents, TopicNamesAndGranuleKeyText) {
  EXPECT_STREQ(topic_name(Topic::kDownloadFile), "download.file");
  EXPECT_STREQ(topic_name(Topic::kDownloadFailed), "download.failed");
  EXPECT_STREQ(topic_name(Topic::kGranuleReady), "granule.ready");
  EXPECT_STREQ(topic_name(Topic::kStage), "workflow");
  EXPECT_EQ((GranuleKey{modis::Satellite::kAqua, 2022, 123, 40}).to_string(),
            "aqua.A2022123.s0040");
}

TEST(DataflowEvents, GranuleKeyTextIsThePrintfFormat) {
  // printf's "%s.A%04d%03d.s%04d", fields beyond their width and negative
  // ones included.
  for (const auto sat : {modis::Satellite::kTerra, modis::Satellite::kAqua}) {
    for (const int year : {-5, 0, 7, 2022, 12345}) {
      for (const int day : {-3, 1, 42, 366, 1000}) {
        for (const int slot : {-13, 0, 40, 287, 12345}) {
          char expect[64];
          std::snprintf(expect, sizeof expect, "%s.A%04d%03d.s%04d",
                        sat == modis::Satellite::kTerra ? "terra" : "aqua",
                        year, day, slot);
          EXPECT_EQ((GranuleKey{sat, year, day, slot}).to_string(), expect);
        }
      }
    }
  }
}

TEST(GranuleTracker, EmitsReadyOnceTripletIsWhole) {
  sim::SimEngine engine;
  EventBus bus(engine);
  GranuleTracker tracker(bus);
  std::vector<ReadyGranule> ready;
  tracker.on_ready([&](const ReadyGranule& g) { ready.push_back(g); });
  tracker.observe_file(make_file_event(modis::ProductKind::kMod02, 5, 1.0));
  tracker.observe_file(make_file_event(modis::ProductKind::kMod06, 5, 2.0));
  engine.run();
  EXPECT_TRUE(ready.empty());
  EXPECT_EQ(tracker.pending(), 1u);
  tracker.observe_file(make_file_event(modis::ProductKind::kMod03, 5, 3.0));
  engine.run();
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].key.slot, 5);
  EXPECT_EQ(ready[0].first_file_at, 1.0);
  EXPECT_EQ(ready[0].ready_at, 3.0);
  EXPECT_FALSE(ready[0].mod03_path.empty());
  EXPECT_EQ(tracker.pending(), 0u);
  EXPECT_EQ(tracker.ready_count(), 1u);
}

TEST(GranuleTracker, AssemblesFromBusEventsAndPublishesExactRecord) {
  sim::SimEngine engine;
  EventBus bus(engine);
  GranuleTracker tracker(bus);
  std::vector<ReadyGranule> ready;
  bus.subscribe(Topic::kGranuleReady, [&](const Event& event) {
    ready.push_back(std::get<ReadyGranule>(event));
  });
  // Times with no short decimal form: the record must arrive bit-exact.
  const double first = 1.0 / 3.0;
  const double last = 2.0 / 3.0;
  bus.publish(Topic::kDownloadFile,
              make_file_event(modis::ProductKind::kMod03, 7, first));
  bus.publish(Topic::kDownloadFile,
              make_file_event(modis::ProductKind::kMod06, 7, 0.5));
  bus.publish(Topic::kDownloadFile,
              make_file_event(modis::ProductKind::kMod02, 7, last));
  engine.run();
  EXPECT_EQ(tracker.files_seen(), 3u);
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].key.slot, 7);
  EXPECT_EQ(ready[0].first_file_at, first);
  EXPECT_EQ(ready[0].ready_at, last);
  EXPECT_EQ(ready[0].mod02_path,
            make_file_event(modis::ProductKind::kMod02, 7).path);
  EXPECT_EQ(ready[0].mod03_path,
            make_file_event(modis::ProductKind::kMod03, 7).path);
  EXPECT_EQ(ready[0].mod06_path,
            make_file_event(modis::ProductKind::kMod06, 7).path);
}

TEST(GranuleTracker, DuplicateFilesAreIdempotent) {
  sim::SimEngine engine;
  EventBus bus(engine);
  GranuleTracker tracker(bus);
  std::size_t ready = 0;
  tracker.on_ready([&](const ReadyGranule&) { ++ready; });
  tracker.observe_file(make_file_event(modis::ProductKind::kMod02, 9, 1.0));
  tracker.observe_file(make_file_event(modis::ProductKind::kMod02, 9, 1.5));
  tracker.observe_file(make_file_event(modis::ProductKind::kMod03, 9, 2.0));
  tracker.observe_file(make_file_event(modis::ProductKind::kMod06, 9, 3.0));
  // A retried overwrite arriving after the triplet completed must not
  // resurrect the granule.
  tracker.observe_file(make_file_event(modis::ProductKind::kMod03, 9, 4.0));
  engine.run();
  EXPECT_EQ(ready, 1u);
  EXPECT_EQ(tracker.pending(), 0u);
}

TEST(GranuleTracker, TracksInterleavedGranulesIndependently) {
  sim::SimEngine engine;
  EventBus bus(engine);
  GranuleTracker tracker(bus);
  std::vector<int> ready_slots;
  tracker.on_ready(
      [&](const ReadyGranule& g) { ready_slots.push_back(g.key.slot); });
  tracker.observe_file(make_file_event(modis::ProductKind::kMod02, 1, 1.0));
  tracker.observe_file(make_file_event(modis::ProductKind::kMod02, 2, 1.1));
  tracker.observe_file(make_file_event(modis::ProductKind::kMod03, 2, 1.2));
  tracker.observe_file(make_file_event(modis::ProductKind::kMod06, 2, 1.3));
  tracker.observe_file(make_file_event(modis::ProductKind::kMod03, 1, 1.4));
  EXPECT_EQ(tracker.pending(), 1u);
  ASSERT_EQ(tracker.pending_keys().size(), 1u);
  EXPECT_EQ(tracker.pending_keys()[0].slot, 1);
  tracker.observe_file(make_file_event(modis::ProductKind::kMod06, 1, 1.5));
  engine.run();
  EXPECT_EQ(ready_slots, (std::vector<int>{2, 1}));
}

namespace {
RunRecord make_run(std::uint64_t id, bool ok) {
  RunRecord run;
  run.run_id = id;
  run.flow_name = "aicca-inference";
  run.started_at = 1.0;
  run.finished_at = 4.0;
  run.succeeded = ok;
  if (!ok) run.error = "action 'infer' failed";
  // Action state with 0.05 s orchestration overhead, then a pass state.
  run.states.push_back(
      {"infer", "action", 1.0, 1.05, 2.0, ok ? "ok" : "failed"});
  run.states.push_back({"move", "pass", 2.0, 0.0, 4.0, "ok"});
  return run;
}
}  // namespace

TEST(Provenance, DumpRendersRunsAndStates) {
  ProvenanceLog log;
  log.record(make_run(7, true));
  log.record(make_run(8, false));
  const auto text = log.dump();
  EXPECT_NE(text.find("run: 7"), std::string::npos);
  EXPECT_NE(text.find("run: 8"), std::string::npos);
  EXPECT_NE(text.find("flow: aicca-inference"), std::string::npos);
  EXPECT_NE(text.find("status: ok"), std::string::npos);
  EXPECT_NE(text.find("status: failed"), std::string::npos);
  EXPECT_NE(text.find("error: action 'infer' failed"), std::string::npos);
  EXPECT_NE(text.find("{name: infer, kind: action"), std::string::npos);
  EXPECT_NE(text.find("{name: move, kind: pass"), std::string::npos);
}

TEST(Provenance, MeanActionOverheadAveragesActionStatesOnly) {
  ProvenanceLog log;
  EXPECT_DOUBLE_EQ(log.mean_action_overhead(), 0.0);
  log.record(make_run(1, true));
  auto second = make_run(2, true);
  second.states[0].action_started_at = 1.15;  // 0.15 s overhead
  log.record(second);
  // Two action states (0.05 and 0.15); the pass states must not dilute.
  EXPECT_NEAR(log.mean_action_overhead(), 0.10, 1e-12);
}

TEST(Provenance, ExportToTraceProducesFlowSpans) {
  ProvenanceLog log;
  log.record(make_run(7, true));

  obs::TraceRecorder disabled;
  export_to_trace(log, disabled);
  EXPECT_EQ(disabled.span_count(), 0u);

  obs::TraceRecorder rec;
  rec.set_enabled(true);
  export_to_trace(log, rec);
  const auto spans = rec.spans();
  ASSERT_EQ(spans.size(), 3u);  // run + 2 states
  EXPECT_EQ(spans[0].category, "flow");
  EXPECT_EQ(spans[0].name, "aicca-inference");
  EXPECT_DOUBLE_EQ(spans[0].start, 1.0);
  EXPECT_DOUBLE_EQ(spans[0].end, 4.0);
  EXPECT_EQ(spans[1].category, "flow.state");
  EXPECT_EQ(spans[1].name, "infer");
  // State spans share the run's track and nest inside the run span.
  EXPECT_EQ(spans[1].track, spans[0].track);
  EXPECT_GE(spans[1].start, spans[0].start);
  EXPECT_LE(spans[1].end, spans[0].end);
  const auto tracks = rec.tracks();
  ASSERT_EQ(tracks.size(), 1u);
  EXPECT_EQ(tracks[0].name, "flows/run7");
  // The action state carries its orchestration overhead as an arg.
  bool overhead_seen = false;
  for (const auto& [key, value] : spans[1].args)
    if (key == "orchestration_overhead_s") overhead_seen = true;
  EXPECT_TRUE(overhead_seen);
}

}  // namespace
}  // namespace mfw::flow
