// Unit tests for the live-health layer (obs/watch.hpp): TelemetryBus
// fan-out + drop accounting, window_index / WindowedSeries boundary
// regressions, the SLO alert lifecycle (firing -> resolved with cause
// attribution), the EWMA/MAD anomaly detector, and the stable metrics text
// export order.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/rollup.hpp"
#include "obs/trace.hpp"
#include "obs/watch.hpp"

namespace mfw::obs {
namespace {

// ---------------------------------------------------------------------------
// TelemetryBus

/// A recorder wired to `bus`, with `n` compute spans of duration `dur`
/// recorded on `track` ending at `end0, end0+step, ...`.
void feed_spans(TraceRecorder& rec, const char* track, int n, double end0,
                double step, double dur,
                std::initializer_list<std::pair<std::string, std::string>>
                    extra = {}) {
  for (int i = 0; i < n; ++i) {
    const double end = end0 + i * step;
    Args args;
    for (const auto& [k, v] : extra) args.emplace_back(k, v);
    rec.add_span(track, "compute", "t", end - dur, end, std::move(args));
  }
}

TEST(TelemetryBusTest, DropAccountingIsExactAndPerSubscriber) {
  TraceRecorder rec;
  rec.set_enabled(true);
  TelemetryBus bus(4);
  const auto sub = bus.subscribe();
  rec.set_span_sink(&bus);
  feed_spans(rec, "preprocess/node0/w0", 10, 1.0, 1.0, 0.5);
  rec.set_span_sink(nullptr);

  EXPECT_EQ(bus.published(), 10u);
  EXPECT_EQ(bus.dropped(sub), 6u);  // capacity 4 -> first 4 kept, 6 dropped
  EXPECT_EQ(bus.dropped_total(), 6u);
  std::vector<TelemetryEvent> events;
  EXPECT_EQ(bus.poll(sub, events), 4u);
  ASSERT_EQ(events.size(), 4u);
  // FIFO: the kept events are the oldest four.
  EXPECT_DOUBLE_EQ(events.front().end, 1.0);
  EXPECT_DOUBLE_EQ(events.back().end, 4.0);
  // Drained queue accepts new events again.
  feed_spans(rec, "preprocess/node0/w0", 1, 20.0, 1.0, 0.5);
  rec.set_span_sink(&bus);
  feed_spans(rec, "preprocess/node0/w0", 1, 21.0, 1.0, 0.5);
  rec.set_span_sink(nullptr);
  events.clear();
  EXPECT_EQ(bus.poll(sub, events), 1u);
}

TEST(TelemetryBusTest, PollRespectsMaxEvents) {
  TraceRecorder rec;
  rec.set_enabled(true);
  TelemetryBus bus;
  const auto sub = bus.subscribe();
  rec.set_span_sink(&bus);
  feed_spans(rec, "download/w0", 5, 1.0, 1.0, 0.5);
  rec.set_span_sink(nullptr);

  std::vector<TelemetryEvent> events;
  EXPECT_EQ(bus.poll(sub, events, 2), 2u);
  EXPECT_EQ(bus.poll(sub, events, 0), 3u);  // 0 = drain the rest
  EXPECT_EQ(events.size(), 5u);
  EXPECT_EQ(bus.poll(sub, events), 0u);
}

TEST(TelemetryBusTest, SubscribersAreIndependent) {
  TraceRecorder rec;
  rec.set_enabled(true);
  TelemetryBus bus(2);
  const auto a = bus.subscribe();
  const auto b = bus.subscribe();
  rec.set_span_sink(&bus);
  feed_spans(rec, "preprocess/node0/w0", 3, 1.0, 1.0, 0.5);
  rec.set_span_sink(nullptr);

  EXPECT_EQ(bus.dropped(a), 1u);
  EXPECT_EQ(bus.dropped(b), 1u);
  std::vector<TelemetryEvent> events;
  EXPECT_EQ(bus.poll(a, events), 2u);
  // Draining a does not consume b's queue.
  events.clear();
  EXPECT_EQ(bus.poll(b, events), 2u);
  EXPECT_EQ(bus.subscriber_count(), 2u);
}

TEST(TelemetryBusTest, ChainsToNextSinkVerbatim) {
  TraceRecorder rec;
  rec.set_enabled(true);
  TelemetryBus bus(2);
  SpanRollup rollup(RollupConfig{10.0, 16});
  bus.set_next(&rollup);
  bus.subscribe();
  rec.set_span_sink(&bus);
  feed_spans(rec, "preprocess/node0/w0", 5, 1.0, 1.0, 0.5);
  rec.set_span_sink(nullptr);

  // The chained sink sees every span even though the queue dropped three.
  EXPECT_EQ(rollup.spans_seen(), 5u);
  EXPECT_EQ(bus.dropped_total(), 3u);
}

TEST(TelemetryBusTest, ParsesWellKnownArgs) {
  TraceRecorder rec;
  rec.set_enabled(true);
  TelemetryBus bus;
  const auto sub = bus.subscribe();
  rec.set_span_sink(&bus);
  rec.add_span("download/w0", "download", "d1", 0.0, 4.0,
               {{"queue_wait_s", "1.5"}, {"attempts", "3"}, {"status", "ok"}});
  rec.add_instant("flow/granules", "flow", "granule.ready", 4.0);
  rec.set_span_sink(nullptr);

  std::vector<TelemetryEvent> events;
  ASSERT_EQ(bus.poll(sub, events), 2u);
  EXPECT_FALSE(events[0].is_instant);
  EXPECT_EQ(events[0].stage, "download");
  EXPECT_EQ(events[0].category, "download");
  EXPECT_DOUBLE_EQ(events[0].queue_wait_s, 1.5);
  EXPECT_EQ(events[0].attempts, 3);
  EXPECT_DOUBLE_EQ(events[0].duration(), 4.0);
  EXPECT_TRUE(events[1].is_instant);
  EXPECT_EQ(events[1].stage, "flow");
}

// ---------------------------------------------------------------------------
// window_index / WindowedSeries boundary regressions

TEST(WindowIndexTest, HalfOpenSemanticsHoldForAwkwardWidths) {
  for (const double w : {0.1, 0.3, 1.0 / 3.0, 60.0, 86400.0}) {
    for (int k = 0; k < 200; ++k) {
      const double t = k * w;  // exactly on the edge, as represented
      const auto i = window_index(t, w);
      EXPECT_EQ(i, k) << "t=" << t << " w=" << w;
      EXPECT_LE(static_cast<double>(i) * w, t);
      EXPECT_GT(static_cast<double>(i + 1) * w, t);
    }
  }
}

TEST(WindowedSeriesTest, OutOfOrderSampleGetsItsOwnWindow) {
  WindowedSeries series(RollupConfig{10.0, 8});
  series.add(35.0, 1.0);  // window 3
  series.add(5.0, 2.0);   // window 0, older than the front, nothing evicted
  ASSERT_EQ(series.windows().size(), 2u);
  EXPECT_EQ(series.windows().front().index, 0);
  EXPECT_EQ(series.windows().front().count, 1u);
  EXPECT_DOUBLE_EQ(series.windows().front().sum, 2.0);
  EXPECT_EQ(series.windows().back().index, 3);
  EXPECT_EQ(series.windows().back().count, 1u);
}

TEST(WindowedSeriesTest, EvictedRangeSamplesFoldIntoFront) {
  WindowedSeries series(RollupConfig{10.0, 2});
  series.add(5.0, 1.0);   // window 0
  series.add(15.0, 1.0);  // window 1
  series.add(25.0, 1.0);  // window 2 -> evicts window 0
  EXPECT_EQ(series.evicted_windows(), 1u);
  series.add(5.0, 1.0);  // window 0 again: evicted, folds into the front
  ASSERT_EQ(series.windows().size(), 2u);
  EXPECT_EQ(series.windows().front().index, 1);
  EXPECT_EQ(series.windows().front().count, 2u);
  // Whole-stream totals never lose samples.
  std::uint64_t windowed = 0;
  for (const auto& window : series.windows()) windowed += window.count;
  EXPECT_EQ(series.count(), 4u);
  EXPECT_EQ(windowed + 1, series.count());  // 1 sample in the evicted window
}

TEST(WindowedSeriesTest, WindowCountsSumToStreamCount) {
  WindowedSeries series(RollupConfig{0.1, 4096});
  for (int i = 0; i < 1000; ++i) series.add(i * 0.1, 1.0);
  std::uint64_t windowed = 0;
  for (const auto& window : series.windows()) {
    EXPECT_EQ(window.count, 1u) << "window " << window.index;
    windowed += window.count;
  }
  EXPECT_EQ(windowed, series.count());
  EXPECT_EQ(series.count(), 1000u);
}

// ---------------------------------------------------------------------------
// HealthMonitor: SLO alert lifecycle

/// Bus + monitor wired to a private recorder; the caller records spans and
/// polls the monitor.
struct WatchHarness {
  TraceRecorder rec;
  TelemetryBus bus;
  HealthMonitor monitor;

  WatchHarness(HealthConfig config, std::vector<SloRule> rules)
      : monitor(config, std::move(rules)) {
    rec.set_enabled(true);
    monitor.attach(bus);
    rec.set_span_sink(&bus);
  }
  ~WatchHarness() { rec.set_span_sink(nullptr); }
};

SloRule rule(const char* name, const char* stage, SloMetric metric,
             double threshold, double window_s = 10.0) {
  SloRule r;
  r.name = name;
  r.stage = stage;
  r.metric = metric;
  r.threshold = threshold;
  r.window_s = window_s;
  return r;
}

TEST(HealthMonitorTest, InjectedStragglerFiresThenResolves) {
  HealthConfig config;
  config.window_s = 10.0;
  WatchHarness h(config, {rule("pp-lat", "preprocess",
                               SloMetric::kP99Latency, 1.0)});
  // Windows 0 and 1: healthy 0.5 s tasks. Window 2: an injected 5 s
  // straggler. Window 3: healthy again.
  feed_spans(h.rec, "preprocess/node0/w0", 3, 1.0, 1.0, 0.5);
  feed_spans(h.rec, "preprocess/node0/w0", 3, 11.0, 1.0, 0.5);
  feed_spans(h.rec, "preprocess/node0/w0", 1, 26.0, 1.0, 5.0);
  feed_spans(h.rec, "preprocess/node0/w0", 3, 31.0, 1.0, 0.5);

  h.monitor.poll(45.0);
  const auto& alerts = h.monitor.alerts();
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_EQ(alerts[0].state, "firing");
  EXPECT_EQ(alerts[0].rule, "pp-lat");
  EXPECT_EQ(alerts[0].kind, "slo");
  EXPECT_EQ(alerts[0].stage, "preprocess");
  EXPECT_EQ(alerts[0].metric, "p99_latency");
  EXPECT_DOUBLE_EQ(alerts[0].window_t0, 20.0);
  EXPECT_NEAR(alerts[0].observed, 5.0, 5.0 * LogHistogram::kMaxRelativeError);
  // No queue pressure, no WAN evidence, service time inflated vs the
  // stream's own p50 -> node contention.
  EXPECT_EQ(alerts[0].cause, "node-contention");
  EXPECT_EQ(alerts[1].state, "resolved");
  EXPECT_DOUBLE_EQ(alerts[1].window_t0, 30.0);
  EXPECT_EQ(h.monitor.firing_count(), 0u);

  // The evaluated_to watermark prevents re-judging the same windows.
  h.monitor.poll(46.0);
  h.monitor.finish(50.0);
  EXPECT_EQ(h.monitor.alerts().size(), 2u);
}

TEST(HealthMonitorTest, CleanRunRaisesNoAlerts) {
  HealthConfig config;
  config.window_s = 10.0;
  WatchHarness h(config, {rule("pp-lat", "preprocess",
                               SloMetric::kP99Latency, 1.0),
                          rule("pp-queue", "preprocess",
                               SloMetric::kQueueWaitP99, 5.0)});
  for (int w = 0; w < 5; ++w)
    feed_spans(h.rec, "preprocess/node0/w0", 3, w * 10.0 + 1.0, 1.0, 0.5,
               {{"queue_wait_s", "0.1"}});
  h.monitor.finish(60.0);
  EXPECT_TRUE(h.monitor.alerts().empty());
  EXPECT_EQ(h.monitor.firing_count(), 0u);
  EXPECT_EQ(h.monitor.events_seen(), 15u);
}

TEST(HealthMonitorTest, QueueWaitViolationAttributesQueueWait) {
  HealthConfig config;
  config.window_s = 10.0;
  WatchHarness h(config, {rule("pp-queue", "preprocess",
                               SloMetric::kQueueWaitP99, 1.0)});
  feed_spans(h.rec, "preprocess/node0/w0", 3, 1.0, 1.0, 0.5,
             {{"queue_wait_s", "0.1"}});
  feed_spans(h.rec, "preprocess/node0/w0", 3, 11.0, 1.0, 0.5,
             {{"queue_wait_s", "8.0"}});
  h.monitor.poll(25.0);
  const auto& alerts = h.monitor.alerts();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].state, "firing");
  EXPECT_EQ(alerts[0].metric, "queue_wait_p99");
  EXPECT_EQ(alerts[0].cause, "queue-wait");
  EXPECT_EQ(h.monitor.firing_count(), 1u);  // never resolved: stays firing
}

TEST(HealthMonitorTest, WanRetryEvidenceAttributesWanRetry) {
  HealthConfig config;
  config.window_s = 10.0;
  WatchHarness h(config, {rule("dl-lat", "download",
                               SloMetric::kP99Latency, 1.0)});
  for (int i = 0; i < 3; ++i)
    h.rec.add_span("download/w0", "download", "d", 11.0 + i, 14.0 + i,
                   {{"attempts", "3"}, {"status", "ok"}});
  // Evaluate only the window with data (a later empty window would resolve
  // the episode — empty latency windows are clean by design).
  h.monitor.poll(25.0);
  const auto& alerts = h.monitor.alerts();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].state, "firing");
  EXPECT_EQ(alerts[0].cause, "wan-retry");
}

TEST(HealthMonitorTest, WanRetryBudgetRule) {
  HealthConfig config;
  config.window_s = 10.0;
  WatchHarness h(config, {rule("wan-budget", "download",
                               SloMetric::kWanRetryBudget, 2.0)});
  // Window 0: 2 retries (within budget). Window 1: 4 retries (violation).
  // Window 2: none (retry rules treat empty windows as clean -> resolved).
  h.rec.add_span("download/w0", "download", "d", 1.0, 2.0, {{"attempts", "3"}});
  h.rec.add_span("download/w0", "download", "d", 12.0, 13.0,
                 {{"attempts", "3"}});
  h.rec.add_span("download/w1", "download", "d", 13.0, 14.0,
                 {{"attempts", "3"}});
  h.rec.add_span("download/w0", "download", "d", 22.0, 23.0,
                 {{"attempts", "1"}});
  h.monitor.poll(35.0);
  const auto& alerts = h.monitor.alerts();
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_EQ(alerts[0].state, "firing");
  EXPECT_DOUBLE_EQ(alerts[0].observed, 4.0);
  EXPECT_DOUBLE_EQ(alerts[0].window_t0, 10.0);
  EXPECT_EQ(alerts[1].state, "resolved");
}

TEST(HealthMonitorTest, DeadlineMissRateSkipsEmptyWindows) {
  HealthConfig config;
  config.window_s = 10.0;
  WatchHarness h(config, {rule("deadlines", "", SloMetric::kDeadlineMissRate,
                               0.5)});
  h.monitor.note_deadline(5.0, false);
  h.monitor.note_deadline(6.0, true);   // window 0: rate 0.5, at threshold
  h.monitor.note_deadline(15.0, true);
  h.monitor.note_deadline(16.0, true);  // window 1: rate 1.0 -> firing
  h.monitor.poll(25.0);
  ASSERT_EQ(h.monitor.alerts().size(), 1u);
  EXPECT_EQ(h.monitor.alerts()[0].state, "firing");
  EXPECT_DOUBLE_EQ(h.monitor.alerts()[0].observed, 1.0);
  // Window 2 has no outcomes: no information, still firing.
  h.monitor.poll(35.0);
  EXPECT_EQ(h.monitor.alerts().size(), 1u);
  EXPECT_EQ(h.monitor.firing_count(), 1u);
  // Window 3 recovers.
  h.monitor.note_deadline(35.0, false);
  h.monitor.poll(45.0);
  ASSERT_EQ(h.monitor.alerts().size(), 2u);
  EXPECT_EQ(h.monitor.alerts()[1].state, "resolved");
  EXPECT_EQ(h.monitor.firing_count(), 0u);
}

TEST(HealthMonitorTest, UtilizationFloorStopsAtLastBusyWindow) {
  HealthConfig config;
  config.window_s = 10.0;
  WatchHarness h(config, {rule("pp-util", "preprocess",
                               SloMetric::kUtilizationFloor, 0.5)});
  h.monitor.set_stage_capacity("preprocess", 1.0);
  h.rec.add_span("preprocess/node0/w0", "compute", "t", 0.0, 10.0);   // 100%
  h.rec.add_span("preprocess/node0/w0", "compute", "t", 10.0, 12.0);  // 20%
  // Polling far in the future must not flag the idle windows after the run
  // drained — only the low-utilization window 1 fires.
  h.monitor.poll(100.0);
  const auto& alerts = h.monitor.alerts();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].state, "firing");
  EXPECT_EQ(alerts[0].metric, "utilization_floor");
  EXPECT_DOUBLE_EQ(alerts[0].window_t0, 10.0);
  EXPECT_NEAR(alerts[0].observed, 0.2, 1e-9);
}

TEST(HealthMonitorTest, AnomalyDetectorFlagsDepartureFromBaseline) {
  HealthConfig config;
  config.window_s = 10.0;
  config.anomaly_k = 3.0;
  config.anomaly_min_history = 5;
  WatchHarness h(config, {});
  // Six healthy windows build the baseline, window 6 bursts 10x, window 7
  // returns to baseline.
  for (int w = 0; w < 6; ++w)
    feed_spans(h.rec, "preprocess/node0/w0", 2, w * 10.0 + 1.0, 1.0, 1.0);
  feed_spans(h.rec, "preprocess/node0/w0", 2, 61.0, 1.0, 10.0);
  feed_spans(h.rec, "preprocess/node0/w0", 2, 71.0, 1.0, 1.0);
  h.monitor.poll(85.0);
  const auto& alerts = h.monitor.alerts();
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_EQ(alerts[0].kind, "anomaly");
  EXPECT_EQ(alerts[0].rule, "anomaly:preprocess");
  EXPECT_EQ(alerts[0].state, "firing");
  EXPECT_DOUBLE_EQ(alerts[0].window_t0, 60.0);
  EXPECT_DOUBLE_EQ(alerts[0].observed, 10.0);  // window means are exact
  EXPECT_EQ(alerts[1].state, "resolved");
  EXPECT_EQ(h.monitor.firing_count(), 0u);
}

TEST(HealthMonitorTest, JsonAndDashboardCarryTheStream) {
  HealthConfig config;
  config.window_s = 10.0;
  WatchHarness h(config, {rule("pp-lat", "preprocess",
                               SloMetric::kP99Latency, 1.0)});
  feed_spans(h.rec, "preprocess/node0/w0", 1, 5.0, 1.0, 5.0);
  h.monitor.finish(9.0);  // still inside window 0: the episode stays firing
  const auto json = h.monitor.to_json(9.0);
  EXPECT_NE(json.find("\"schema\": \"mfw.health/v1\""), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"pp-lat\""), std::string::npos);
  EXPECT_NE(json.find("\"state\": \"firing\""), std::string::npos);
  EXPECT_NE(json.find("\"stage\": \"preprocess\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\": 0"), std::string::npos);
  const auto dash = h.monitor.dashboard(9.0);
  EXPECT_NE(dash.find("health @"), std::string::npos);
  EXPECT_NE(dash.find("firing:"), std::string::npos);
  EXPECT_NE(dash.find("pp-lat"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Metrics text export: stable, sorted series order

TEST(MetricsExportTest, TextOrderIsSortedAndInsertionIndependent) {
  MetricsRegistry a;
  a.set_enabled(true);
  a.counter_add("zeta_total", 1.0, {{"stage", "b"}});
  a.counter_add("alpha_total", 2.0, {{"stage", "z"}});
  a.counter_add("alpha_total", 3.0, {{"stage", "a"}});
  a.gauge_set("mid_gauge", 4.0);

  MetricsRegistry b;
  b.set_enabled(true);
  b.gauge_set("mid_gauge", 4.0);
  b.counter_add("alpha_total", 3.0, {{"stage", "a"}});
  b.counter_add("zeta_total", 1.0, {{"stage", "b"}});
  b.counter_add("alpha_total", 2.0, {{"stage", "z"}});

  const auto text_a = to_metrics_text(a);
  EXPECT_EQ(text_a, to_metrics_text(b));
  // Sorted by (name, labels): alpha{a} before alpha{z} before zeta.
  const auto alpha_a = text_a.find("alpha_total{stage=\"a\"}");
  const auto alpha_z = text_a.find("alpha_total{stage=\"z\"}");
  const auto zeta = text_a.find("zeta_total");
  ASSERT_NE(alpha_a, std::string::npos);
  ASSERT_NE(alpha_z, std::string::npos);
  ASSERT_NE(zeta, std::string::npos);
  EXPECT_LT(alpha_a, alpha_z);
  EXPECT_LT(alpha_z, zeta);
}

}  // namespace
}  // namespace mfw::obs
