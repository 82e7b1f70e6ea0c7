// Unit tests for the obs layer: TraceRecorder span semantics under the sim
// clock, thread-safety under pool concurrency, MetricsRegistry label
// handling, and Chrome trace-event export validity (checked with a small
// built-in JSON syntax validator — no external parser in tier 1).
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <fstream>
#include <string>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"
#include "util/thread_pool.hpp"

namespace mfw::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON syntax checker (value grammar only). Returns
// true iff the whole string is one valid JSON value.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char e = text_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_])))
              return false;
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character inside a string
      }
      ++pos_;
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* word) {
    for (const char* p = word; *p; ++p, ++pos_)
      if (pos_ >= text_.size() || text_[pos_] != *p) return false;
    return true;
  }
  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// TraceRecorder

TEST(TraceRecorder, DisabledRecordingIsInvisible) {
  TraceRecorder rec;
  EXPECT_FALSE(rec.enabled());
  const auto span = rec.begin_span("t", "cat", "noop");
  EXPECT_FALSE(span.valid());
  rec.end_span(span);  // must be a safe no-op
  rec.instant("t", "cat", "nothing");
  rec.add_span("t", "cat", "nothing", 0.0, 1.0);
  EXPECT_EQ(rec.span_count(), 0u);
  EXPECT_EQ(rec.instant_count(), 0u);
  EXPECT_TRUE(rec.tracks().empty());
}

TEST(TraceRecorder, SpansStampedFromSimClock) {
  sim::SimEngine engine;
  TraceRecorder rec;
  rec.set_enabled(true);
  rec.set_clock(&engine);

  SpanId outer, inner;
  engine.schedule_at(1.0, [&] { outer = rec.begin_span("lane", "c", "outer"); });
  engine.schedule_at(2.0, [&] { inner = rec.begin_span("lane", "c", "inner"); });
  engine.schedule_at(3.0, [&] { rec.end_span(inner, {{"k", "v"}}); });
  engine.schedule_at(5.0, [&] { rec.end_span(outer); });
  engine.run();

  const auto spans = rec.spans();
  ASSERT_EQ(spans.size(), 2u);
  // Spans are stored in begin order; nested span is fully contained.
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_DOUBLE_EQ(spans[0].start, 1.0);
  EXPECT_DOUBLE_EQ(spans[0].end, 5.0);
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_DOUBLE_EQ(spans[1].start, 2.0);
  EXPECT_DOUBLE_EQ(spans[1].end, 3.0);
  EXPECT_GE(spans[1].start, spans[0].start);
  EXPECT_LE(spans[1].end, spans[0].end);
  EXPECT_DOUBLE_EQ(spans[1].duration(), 1.0);
  ASSERT_EQ(spans[1].args.size(), 1u);
  EXPECT_EQ(spans[1].args[0].first, "k");
  // Both spans share the interned track.
  EXPECT_EQ(spans[0].track, spans[1].track);
  EXPECT_EQ(rec.open_span_count(), 0u);
  rec.set_clock(nullptr);
}

TEST(TraceRecorder, TracksInternPerProcess) {
  TraceRecorder rec;
  rec.set_enabled(true);
  rec.instant("a", "c", "x");
  rec.instant("a", "c", "y");
  const auto pid = rec.begin_process("run2");
  rec.instant("a", "c", "z");  // same name, new process -> new track
  const auto tracks = rec.tracks();
  ASSERT_EQ(tracks.size(), 2u);
  EXPECT_EQ(tracks[0].name, "a");
  EXPECT_EQ(tracks[1].name, "a");
  EXPECT_NE(tracks[0].process, tracks[1].process);
  EXPECT_EQ(tracks[1].process, pid);
  const auto instants = rec.instants();
  ASSERT_EQ(instants.size(), 3u);
  EXPECT_EQ(instants[0].track, instants[1].track);
  EXPECT_NE(instants[1].track, instants[2].track);
}

TEST(TraceRecorder, OpenSpanCountAndClear) {
  TraceRecorder rec;
  rec.set_enabled(true);
  const auto a = rec.begin_span("t", "c", "a");
  rec.begin_span("t", "c", "b");
  EXPECT_EQ(rec.open_span_count(), 2u);
  rec.end_span(a);
  EXPECT_EQ(rec.open_span_count(), 1u);
  rec.clear();
  EXPECT_EQ(rec.span_count(), 0u);
  // A stale handle from before clear() must not crash or corrupt.
  rec.end_span(a);
  EXPECT_EQ(rec.span_count(), 0u);
}

TEST(TraceRecorder, HandleFromBeforeClearIsIgnored) {
  for (const auto mode : {RetentionMode::kFull, RetentionMode::kStatsOnly}) {
    SCOPED_TRACE(mode == RetentionMode::kFull ? "kFull" : "kStatsOnly");
    TraceRecorder rec;
    rec.set_enabled(true);
    rec.set_retention({mode, 1, 4096});
    const auto stale = rec.begin_span("t", "c", "before-clear");
    rec.clear();
    const auto fresh = rec.begin_span("t", "c", "after-clear");
    // The stale handle names the slot the fresh span now holds; it must not
    // close it or hand it the stale call's args.
    rec.end_span(stale, {{"who", "stale"}});
    EXPECT_EQ(rec.open_span_count(), 1u);
    EXPECT_EQ(rec.observed_span_count(), 0u);
    if (mode == RetentionMode::kFull) {
      const auto spans = rec.spans();
      ASSERT_EQ(spans.size(), 1u);
      EXPECT_EQ(spans[0].name, "after-clear");
      EXPECT_FALSE(spans[0].closed());
      EXPECT_TRUE(spans[0].args.empty());
    }
    rec.end_span(fresh, {{"who", "fresh"}});
    EXPECT_EQ(rec.open_span_count(), 0u);
    EXPECT_EQ(rec.observed_span_count(), 1u);
    const auto spans = rec.spans();  // kStatsOnly keeps every span (1 in 1)
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_EQ(spans[0].name, "after-clear");
    ASSERT_EQ(spans[0].args.size(), 1u);
    EXPECT_EQ(spans[0].args[0].second, "fresh");
  }
}

TEST(TraceRecorder, ClosedHandleIsIgnoredAfterItsSlotIsReused) {
  for (const auto mode : {RetentionMode::kFull, RetentionMode::kStatsOnly}) {
    SCOPED_TRACE(mode == RetentionMode::kFull ? "kFull" : "kStatsOnly");
    TraceRecorder rec;
    rec.set_enabled(true);
    rec.set_retention({mode, 1, 4096});
    const auto first = rec.begin_span("t", "c", "first");
    rec.end_span(first);
    const double first_end = rec.spans().at(0).end;
    // kStatsOnly hands "second" the slot "first" held; kFull keeps "first"
    // where it was. Either way closing "first" again must change nothing.
    const auto second = rec.begin_span("t", "c", "second");
    rec.end_span(first, {{"who", "stale"}});
    EXPECT_EQ(rec.open_span_count(), 1u);
    EXPECT_EQ(rec.observed_span_count(), 1u);
    rec.end_span(second);
    const auto spans = rec.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].name, "first");
    EXPECT_EQ(spans[0].end, first_end);
    EXPECT_TRUE(spans[0].args.empty());
    EXPECT_EQ(spans[1].name, "second");
    EXPECT_TRUE(spans[1].args.empty());
    EXPECT_EQ(rec.observed_span_count(), 2u);
  }
}

TEST(TraceRecorder, ConcurrentRecordingFromPoolThreads) {
  TraceRecorder rec;
  rec.set_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::atomic<int> done{0};
  {
    util::ThreadPool pool(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      pool.submit([&, t] {
        const std::string track = "w" + std::to_string(t);
        for (int i = 0; i < kPerThread; ++i) {
          const auto span = rec.begin_span(track, "c", "job");
          rec.instant(track, "c", "tick");
          rec.end_span(span);
        }
        done.fetch_add(1);
      });
    }
    pool.shutdown();
  }
  EXPECT_EQ(done.load(), kThreads);
  EXPECT_EQ(rec.span_count(), static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(rec.instant_count(),
            static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(rec.open_span_count(), 0u);
  for (const auto& span : rec.spans()) EXPECT_TRUE(span.closed());
  EXPECT_EQ(rec.tracks().size(), static_cast<std::size_t>(kThreads));
}

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(MetricsRegistry, CountersAccumulatePerLabelSet) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  reg.counter_add("mfw.test.files_total", 1, {{"product", "MOD02"}});
  reg.counter_add("mfw.test.files_total", 2, {{"product", "MOD02"}});
  reg.counter_add("mfw.test.files_total", 5, {{"product", "MOD03"}});
  reg.counter_add("mfw.test.files_total", 7);  // label-less series is distinct
  EXPECT_DOUBLE_EQ(reg.counter("mfw.test.files_total", {{"product", "MOD02"}}),
                   3.0);
  EXPECT_DOUBLE_EQ(reg.counter("mfw.test.files_total", {{"product", "MOD03"}}),
                   5.0);
  EXPECT_DOUBLE_EQ(reg.counter("mfw.test.files_total"), 7.0);
  EXPECT_DOUBLE_EQ(reg.counter("mfw.test.unknown"), 0.0);
}

TEST(MetricsRegistry, LabelOrderDoesNotSplitSeries) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  reg.counter_add("c", 1, {{"a", "1"}, {"b", "2"}});
  reg.counter_add("c", 1, {{"b", "2"}, {"a", "1"}});
  EXPECT_DOUBLE_EQ(reg.counter("c", {{"b", "2"}, {"a", "1"}}), 2.0);
  EXPECT_EQ(reg.counters().size(), 1u);
}

TEST(MetricsRegistry, GaugesKeepLatestValue) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  EXPECT_FALSE(reg.gauge("g").has_value());
  reg.gauge_set("g", 3, {{"node", "0"}});
  reg.gauge_set("g", 8, {{"node", "0"}});
  reg.gauge_set("g", 2, {{"node", "1"}});
  EXPECT_DOUBLE_EQ(reg.gauge("g", {{"node", "0"}}).value(), 8.0);
  EXPECT_DOUBLE_EQ(reg.gauge("g", {{"node", "1"}}).value(), 2.0);
}

TEST(MetricsRegistry, DistributionsTrackStatsAndBuckets) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  const HistogramSpec spec{0.0, 10.0, 10};
  reg.observe("d", 1.5, {}, spec);
  reg.observe("d", 2.5);  // spec already fixed by the first observation
  reg.observe("d", 9.5);
  const auto dist = reg.distribution("d");
  ASSERT_TRUE(dist.has_value());
  EXPECT_EQ(dist->stats.count(), 3u);
  EXPECT_DOUBLE_EQ(dist->stats.min(), 1.5);
  EXPECT_DOUBLE_EQ(dist->stats.max(), 9.5);
  ASSERT_TRUE(dist->histogram.has_value());
  EXPECT_EQ(dist->histogram->total(), 3u);
  EXPECT_EQ(dist->histogram->count(1), 1u);  // 1.5
  EXPECT_EQ(dist->histogram->count(2), 1u);  // 2.5
  EXPECT_EQ(dist->histogram->count(9), 1u);  // 9.5
}

TEST(MetricsRegistry, DisabledRegistryRecordsNothing) {
  MetricsRegistry reg;
  reg.counter_add("c", 1);
  reg.gauge_set("g", 1);
  reg.observe("d", 1);
  EXPECT_TRUE(reg.counters().empty());
  EXPECT_TRUE(reg.gauges().empty());
  EXPECT_TRUE(reg.distributions().empty());
}

TEST(MetricsRegistry, HandleUpdatesEqualNamedUpdatesInAnyLabelOrder) {
  MetricsRegistry by_name;
  MetricsRegistry by_handle;
  by_name.set_enabled(true);
  by_handle.set_enabled(true);
  const HistogramSpec spec{0.0, 10.0, 5};
  const CounterHandle c =
      by_handle.counter_series("c", {{"b", "2"}, {"a", "1"}});
  const GaugeHandle g = by_handle.gauge_series("g", {{"node", "3"}});
  const DistributionHandle d =
      by_handle.distribution_series("d", {{"stage", "x"}});
  for (int i = 0; i < 4; ++i) {
    by_name.counter_add("c", 1.5, {{"a", "1"}, {"b", "2"}});
    by_handle.counter_add(c, 1.5);
    by_name.gauge_set("g", i, {{"node", "3"}});
    by_handle.gauge_set(g, i);
    by_name.observe("d", 2.0 * i, {{"stage", "x"}}, spec);
    by_handle.observe(d, 2.0 * i, spec);
  }
  // Named updates reach the handle's cell: one store, not two.
  by_handle.counter_add("c", 1.0, {{"a", "1"}, {"b", "2"}});
  by_name.counter_add("c", 1.0, {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(to_metrics_text(by_name), to_metrics_text(by_handle));
  EXPECT_DOUBLE_EQ(by_handle.counter("c", {{"a", "1"}, {"b", "2"}}), 7.0);
  EXPECT_EQ(by_handle.counters().size(), 1u);
  EXPECT_DOUBLE_EQ(by_handle.gauge("g", {{"node", "3"}}).value(), 3.0);
  const auto dist = by_handle.distribution("d", {{"stage", "x"}});
  ASSERT_TRUE(dist.has_value());
  EXPECT_EQ(dist->stats.count(), 4u);
  ASSERT_TRUE(dist->histogram.has_value());
  EXPECT_EQ(dist->histogram->bin_count(), 5u);
}

TEST(MetricsRegistry, HandleSurvivesClearAndSeriesIsAbsentUntilTouched) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  const CounterHandle c = reg.counter_series("c");
  const GaugeHandle g = reg.gauge_series("g");
  const DistributionHandle d = reg.distribution_series("d");
  // Resolving alone creates nothing visible.
  EXPECT_TRUE(reg.counters().empty());
  EXPECT_FALSE(reg.gauge("g").has_value());
  reg.counter_add(c, 4.0);
  reg.gauge_set(g, 2.0);
  reg.observe(d, 1.0, HistogramSpec{0.0, 10.0, 10});
  reg.clear();
  EXPECT_TRUE(reg.counters().empty());
  EXPECT_TRUE(reg.gauges().empty());
  EXPECT_TRUE(reg.distributions().empty());
  EXPECT_DOUBLE_EQ(reg.counter("c"), 0.0);
  EXPECT_FALSE(reg.gauge("g").has_value());
  EXPECT_FALSE(reg.distribution("d").has_value());
  EXPECT_EQ(to_metrics_text(reg),
            "# mfw metrics dump (counters, gauges, distributions)\n");
  // Touched again, each series starts from nothing; the next spec-carrying
  // observe fixes the bucket layout anew.
  reg.counter_add(c, 1.0);
  reg.observe(d, 3.0);
  reg.observe(d, 5.0, HistogramSpec{0.0, 8.0, 4});
  EXPECT_DOUBLE_EQ(reg.counter("c"), 1.0);
  EXPECT_FALSE(reg.gauge("g").has_value());
  const auto dist = reg.distribution("d");
  ASSERT_TRUE(dist.has_value());
  EXPECT_EQ(dist->stats.count(), 2u);
  ASSERT_TRUE(dist->histogram.has_value());
  EXPECT_EQ(dist->histogram->bin_count(), 4u);
  EXPECT_EQ(dist->histogram->total(), 1u);
}

TEST(MetricsRegistry, DisabledRegistryIgnoresHandleUpdates) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  const CounterHandle c = reg.counter_series("c");
  const GaugeHandle g = reg.gauge_series("g");
  const DistributionHandle d = reg.distribution_series("d");
  reg.set_enabled(false);
  reg.counter_add(c, 1.0);
  reg.gauge_set(g, 1.0);
  reg.observe(d, 1.0);
  reg.counter_add(CounterHandle{}, 1.0);  // unresolved: ignored too
  EXPECT_TRUE(reg.counters().empty());
  EXPECT_TRUE(reg.gauges().empty());
  EXPECT_TRUE(reg.distributions().empty());
  reg.set_enabled(true);
  reg.counter_add(c, 2.0);
  EXPECT_DOUBLE_EQ(reg.counter("c"), 2.0);
}

// ---------------------------------------------------------------------------
// Exporters

TEST(TraceExport, ChromeTraceJsonIsValidAndComplete) {
  sim::SimEngine engine;
  TraceRecorder rec;
  rec.set_enabled(true);
  rec.set_clock(&engine);
  engine.schedule_at(0.5, [&] {
    const auto span = rec.begin_span("stages/download", "stage", "download",
                                     {{"quote", "a\"b"}, {"newline", "x\ny"}});
    engine.schedule_at(1.25, [&, span] {
      rec.end_span(span, {{"files", "3"}});
      rec.instant("flow/granules", "flow", "granule.ready",
                  {{"key", "A2017026.1855"}});
    });
  });
  engine.run();
  rec.begin_process("second-run");
  rec.add_span("flows/run1", "flow", "aicca-inference", 2.0, 2.5);
  rec.set_clock(nullptr);

  const auto json = to_chrome_trace_json(rec);
  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid()) << json;

  // Golden structure probes (kept substring-level so formatting may evolve).
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"download\""), std::string::npos);
  EXPECT_NE(json.find("\"granule.ready\""), std::string::npos);
  EXPECT_NE(json.find("\"second-run\""), std::string::npos);
  // 0.5 s -> 500000 microseconds; 0.75 s duration -> 750000.
  EXPECT_NE(json.find("\"ts\":500000.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":750000.000"), std::string::npos);
  // Escaping: the quote and newline must be JSON-escaped.
  EXPECT_NE(json.find("a\\\"b"), std::string::npos);
  EXPECT_NE(json.find("x\\ny"), std::string::npos);
}

TEST(TraceExport, ControlCharactersEscapeAsUnicode) {
  // Sub-0x20 bytes must become \uXXXX escapes, never raw bytes.
  EXPECT_EQ(json_escape("\x1f"), "\\u001f");
  // Adjacent-literal splicing: the \x escape resolves before concatenation.
  EXPECT_EQ(json_escape("a\x01" "b"), "a\\u0001b");
  EXPECT_EQ(json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(json_escape("nl\nquote\"back\\"), "nl\\nquote\\\"back\\\\");
  EXPECT_EQ(json_escape("plain ascii"), "plain ascii");
}

TEST(TraceExport, AdversarialLabelsStayValidJson) {
  // Control characters smuggled into track/category/name/args (e.g. from a
  // hostile catalog entry) must not break the exported trace.
  TraceRecorder rec;
  rec.set_enabled(true);
  rec.add_span("track\x02" "lane", "cat\tegory", "name\x01" "mid\x1f" "end",
               0.0, 1.0, {{"key\x03", "value\nwith\x04" "stuff"}});
  rec.instant("track\x02" "lane", "c", "bell\x07", {{"quote", "\"\\"}});

  const auto json = to_chrome_trace_json(rec);
  JsonChecker checker(json);
  EXPECT_TRUE(checker.valid()) << json;
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  EXPECT_NE(json.find("\\u001f"), std::string::npos);
  EXPECT_NE(json.find("\\u0003"), std::string::npos);
  EXPECT_NE(json.find("\\u0007"), std::string::npos);
  // No raw control character may survive outside the structural newlines the
  // writer emits between records.
  for (const char c : json) {
    if (static_cast<unsigned char>(c) < 0x20) {
      EXPECT_EQ(c, '\n');
    }
  }
}

TEST(MetricsExport, TextDumpListsEverySeries) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  reg.counter_add("mfw.x.files_total", 4, {{"product", "MOD02"}});
  reg.gauge_set("mfw.x.busy", 7, {{"stage", "preprocess"}});
  reg.observe("mfw.x.seconds", 0.5, {}, HistogramSpec{0.0, 1.0, 4});
  const auto text = to_metrics_text(reg);
  EXPECT_NE(text.find("mfw.x.files_total{product=\"MOD02\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("mfw.x.busy{stage=\"preprocess\"} 7"),
            std::string::npos);
  EXPECT_NE(text.find("mfw.x.seconds"), std::string::npos);
  EXPECT_NE(text.find("count=1"), std::string::npos);
}

TEST(WriteFile, FailsWhenTheFileCannotBeOpenedOrWritten) {
  EXPECT_FALSE(write_file("/nonexistent-dir/out.json", "{}"));
  // /dev/full opens but refuses every byte; a write this short stays in the
  // stream's buffer until the file is closed.
  if (!std::ifstream("/dev/full")) GTEST_SKIP() << "no /dev/full";
  EXPECT_FALSE(write_file("/dev/full", "{}"));
}

TEST(GlobalObs, SetGloballyEnabledTogglesBothSingletons) {
  set_globally_enabled(true);
  EXPECT_TRUE(TraceRecorder::instance().enabled());
  EXPECT_TRUE(MetricsRegistry::instance().enabled());
  set_globally_enabled(false);
  EXPECT_FALSE(TraceRecorder::instance().enabled());
  EXPECT_FALSE(MetricsRegistry::instance().enabled());
  TraceRecorder::instance().clear();
  MetricsRegistry::instance().clear();
}

}  // namespace
}  // namespace mfw::obs
