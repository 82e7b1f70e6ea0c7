// Unit tests for the crash-safe flight recorder (obs/flight.hpp): fixed-size
// ring semantics with overwrite accounting, sink chaining, health-alert
// episodes, and a dump that is valid Chrome-trace JSON (validated with the
// in-repo JSON reader).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "obs/watch.hpp"
#include "util/jsonlite.hpp"

namespace mfw::obs {
namespace {

void feed_spans(TraceRecorder& rec, int count, double t0 = 0.0) {
  for (int i = 0; i < count; ++i) {
    rec.add_span("preprocess/node0/w0", "compute", "p" + std::to_string(i),
                 t0 + i, t0 + i + 0.5,
                 {{"granule", "g" + std::to_string(i)}});
  }
}

TEST(Flight, RingKeepsNewestAndCountsOverwrites) {
  FlightConfig config;
  config.capacity = 4;
  FlightRecorder flight(config);

  TraceRecorder rec;
  rec.set_enabled(true);
  rec.begin_process("p");
  rec.set_span_sink(&flight);
  feed_spans(rec, 10);
  rec.add_instant("flow/granules", "flow", "granule.ready", 99.0,
                  {{"key", "g9"}});
  rec.set_span_sink(nullptr);

  EXPECT_EQ(flight.seen(), 11u);
  EXPECT_EQ(flight.size(), 4u);
  EXPECT_EQ(flight.overwritten(), 7u);

  // Snapshot is oldest-first and holds exactly the newest four events.
  const auto entries = flight.snapshot();
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries[0].name, "p7");
  EXPECT_EQ(entries[1].name, "p8");
  EXPECT_EQ(entries[2].name, "p9");
  EXPECT_EQ(entries[3].name, "granule.ready");
  EXPECT_EQ(entries[3].entry_kind, FlightRecorder::Entry::Kind::kInstant);
  EXPECT_LT(entries[0].seq, entries[3].seq);
}

struct CountingSink : SpanSink {
  int spans = 0;
  int instants = 0;
  void on_span(const TraceTrack&, const TraceSpan&) override { ++spans; }
  void on_instant(const TraceTrack&, const TraceInstant&) override {
    ++instants;
  }
};

TEST(Flight, ChainsToDownstreamSink) {
  FlightRecorder flight;
  CountingSink downstream;
  flight.set_next(&downstream);

  TraceRecorder rec;
  rec.set_enabled(true);
  rec.begin_process("p");
  rec.set_span_sink(&flight);
  feed_spans(rec, 3);
  rec.add_instant("flow/granules", "flow", "granule.ready", 1.0, {});
  rec.set_span_sink(nullptr);

  EXPECT_EQ(downstream.spans, 3);
  EXPECT_EQ(downstream.instants, 1);
  EXPECT_EQ(flight.seen(), 4u);
}

TEST(Flight, AlertsBecomeHealthEpisodes) {
  FlightRecorder flight;
  Alert alert;
  alert.rule = "pp-queue";
  alert.kind = "slo";
  alert.stage = "preprocess";
  alert.metric = "queue_wait_p99";
  alert.state = "firing";
  alert.threshold = 0.5;
  alert.observed = 4.2;
  alert.at = 120.0;
  alert.cause = "queue-wait";
  flight.note_alert(alert);

  const auto entries = flight.snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].entry_kind, FlightRecorder::Entry::Kind::kAlert);
  EXPECT_EQ(entries[0].category, "health");
  EXPECT_EQ(entries[0].name, "pp-queue");
  EXPECT_DOUBLE_EQ(entries[0].start, 120.0);

  const std::string json = flight.to_chrome_trace_json("test");
  EXPECT_NE(json.find("\"health\""), std::string::npos);
  EXPECT_NE(json.find("queue-wait"), std::string::npos);
}

TEST(Flight, DumpIsValidChromeTraceJson) {
  FlightConfig config;
  config.capacity = 8;
  FlightRecorder flight(config);

  TraceRecorder rec;
  rec.set_enabled(true);
  rec.begin_process("p");
  rec.set_span_sink(&flight);
  feed_spans(rec, 12);
  rec.set_span_sink(nullptr);

  const auto doc = util::parse_json(flight.to_chrome_trace_json("unit-test"));
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.str("displayTimeUnit"), "ms");
  const auto& events = doc.items("traceEvents");
  ASSERT_FALSE(events.empty());
  std::size_t span_events = 0;
  for (const auto& e : events) {
    const auto ph = e.str("ph");
    EXPECT_TRUE(ph == "X" || ph == "i" || ph == "M") << ph;
    if (ph == "X") ++span_events;
  }
  EXPECT_EQ(span_events, 8u);  // ring capacity, not events seen

  const auto* meta = doc.find("flight");
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->str("reason"), "unit-test");
  EXPECT_DOUBLE_EQ(meta->num("seen"), 12.0);
  EXPECT_DOUBLE_EQ(meta->num("overwritten"), 4.0);
  EXPECT_DOUBLE_EQ(meta->num("retained"), 8.0);
}

/// The event lines of a trace document that contain `needle`, without
/// their separating commas, sorted.
std::vector<std::string> event_lines(const std::string& doc,
                                     const std::string& needle) {
  std::vector<std::string> out;
  std::istringstream in(doc);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find(needle) == std::string::npos) continue;
    if (line.back() == ',') line.pop_back();
    out.push_back(line);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(Flight, EventsMatchTheExporterByteForByte) {
  // One span and one instant, with names and args that need escaping, seen
  // by both writers: each event must read the same in the exporter's
  // document and in the flight dump.
  FlightRecorder flight;
  TraceRecorder rec;
  rec.set_enabled(true);
  rec.begin_process("p");
  rec.set_span_sink(&flight);
  rec.add_span("download/w0", "download", "get \"MOD02\"", 1.25, 3.5,
               {{"granule", "g\n1"}, {"bytes", "42"}});
  rec.add_instant("flow/granules", "flow", "granule.ready", 3.5,
                  {{"key", "g\t1"}});
  rec.set_span_sink(nullptr);

  const std::string exported = to_chrome_trace_json(rec);
  const std::string dumped = flight.to_chrome_trace_json("test");
  for (const std::string needle :
       {"{\"ph\":\"X\"", "{\"ph\":\"i\"", "\"thread_name\""}) {
    const auto want = event_lines(exported, needle);
    ASSERT_FALSE(want.empty()) << needle;
    EXPECT_EQ(event_lines(dumped, needle), want) << needle;
  }
}

TEST(Flight, DumpWritesFile) {
  FlightRecorder flight;
  TraceRecorder rec;
  rec.set_enabled(true);
  rec.begin_process("p");
  rec.set_span_sink(&flight);
  feed_spans(rec, 2);
  rec.set_span_sink(nullptr);

  const std::string path = ::testing::TempDir() + "mfw_flight_test.json";
  ASSERT_TRUE(flight.dump(path, "end-of-run"));
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const auto doc = util::parse_json(buffer.str());
  EXPECT_EQ(doc.find("flight")->str("reason"), "end-of-run");
  std::remove(path.c_str());
}

TEST(Flight, ArmAndDisarmCrashDumpAreBalanced) {
  // No terminate is triggered here — just exercise the install/restore path
  // (the destructor also disarms; doing both must be harmless).
  FlightRecorder flight;
  flight.arm_crash_dump(::testing::TempDir() + "mfw_flight_crash.json");
  flight.disarm_crash_dump();
  flight.disarm_crash_dump();
}

}  // namespace
}  // namespace mfw::obs
