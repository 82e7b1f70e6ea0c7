#include "obs/export.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <tuple>

#include "util/json_writer.hpp"

namespace mfw::obs {

namespace {

using util::append_json_escaped;

std::string json_string(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out += '"';
  append_json_escaped(out, text);
  out += '"';
  return out;
}

/// Seconds -> trace-event microseconds with fixed sub-microsecond precision
/// (fixed notation keeps the JSON friendly to lenient parsers).
std::string micros(double seconds) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e6);
  return buf;
}

std::string json_args(const Args& args) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : args) {
    if (!first) out += ",";
    first = false;
    out += json_string(key);
    out += ":";
    out += json_string(value);
  }
  out += "}";
  return out;
}

std::string number_text(double value) {
  char buf[48];
  if (value == static_cast<double>(static_cast<long long>(value)) &&
      value > -1e15 && value < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", value);
  }
  return buf;
}

std::string labels_text(const Labels& labels) {
  if (labels.empty()) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += key;
    out += "=\"";
    out += value;
    out += "\"";
  }
  out += "}";
  return out;
}

}  // namespace

std::string json_escape(std::string_view text) {
  return util::json_escape(text);
}

std::string to_chrome_trace_json(const TraceRecorder& recorder) {
  const auto processes = recorder.processes();
  const auto tracks = recorder.tracks();
  const auto spans = recorder.spans();
  const auto instants = recorder.instants();

  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto emit = [&](const std::string& event) {
    if (!first) os << ",";
    first = false;
    os << "\n" << event;
  };

  for (const auto& process : processes) {
    emit("{\"ph\":\"M\",\"pid\":" + std::to_string(process.pid) +
         ",\"name\":\"process_name\",\"args\":{\"name\":" +
         json_string(process.name) + "}}");
  }
  for (const auto& track : tracks)
    emit(thread_name_event(track.process, track.tid, track.name));
  for (const auto& span : spans) {
    const TraceTrack& track = tracks.at(span.track);
    Args args = span.args;
    if (!span.closed()) args.emplace_back("open", "true");
    emit(span_event(track.process, track.tid, span.category, span.name,
                    span.start, span.closed() ? span.end - span.start : 0.0,
                    args));
  }
  for (const auto& inst : instants) {
    const TraceTrack& track = tracks.at(inst.track);
    emit(instant_event(track.process, track.tid, inst.category, inst.name,
                       inst.at, inst.args));
  }
  os << "\n]}\n";
  return os.str();
}

std::string thread_name_event(std::uint32_t pid, std::uint32_t tid,
                              std::string_view name) {
  return "{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
         ",\"tid\":" + std::to_string(tid) +
         ",\"name\":\"thread_name\",\"args\":{\"name\":" +
         json_string(name) + "}}";
}

std::string span_event(std::uint32_t pid, std::uint32_t tid,
                       std::string_view category, std::string_view name,
                       double start, double duration, const Args& args) {
  return "{\"ph\":\"X\",\"pid\":" + std::to_string(pid) +
         ",\"tid\":" + std::to_string(tid) +
         ",\"cat\":" + json_string(category) + ",\"name\":" +
         json_string(name) + ",\"ts\":" + micros(start) +
         ",\"dur\":" + micros(duration) + ",\"args\":" + json_args(args) +
         "}";
}

std::string instant_event(std::uint32_t pid, std::uint32_t tid,
                          std::string_view category, std::string_view name,
                          double at, const Args& args) {
  return "{\"ph\":\"i\",\"pid\":" + std::to_string(pid) +
         ",\"tid\":" + std::to_string(tid) +
         ",\"cat\":" + json_string(category) + ",\"name\":" +
         json_string(name) + ",\"ts\":" + micros(at) +
         ",\"s\":\"t\",\"args\":" + json_args(args) + "}";
}

std::string to_metrics_text(const MetricsRegistry& registry) {
  // The dump is diffed across runs (health/report smoke gates), so emission
  // order is part of the format: sort by (name, labels) here rather than
  // rely on whatever order the registry snapshots happen to use.
  const auto by_series = [](const auto& a, const auto& b) {
    return std::tie(a.name, a.labels) < std::tie(b.name, b.labels);
  };
  auto counters = registry.counters();
  auto gauges = registry.gauges();
  auto distributions = registry.distributions();
  std::stable_sort(counters.begin(), counters.end(), by_series);
  std::stable_sort(gauges.begin(), gauges.end(), by_series);
  std::stable_sort(distributions.begin(), distributions.end(), by_series);

  std::ostringstream os;
  os << "# mfw metrics dump (counters, gauges, distributions)\n";
  for (const auto& entry : counters) {
    os << entry.name << labels_text(entry.labels) << " "
       << number_text(entry.value) << "\n";
  }
  for (const auto& entry : gauges) {
    os << entry.name << labels_text(entry.labels) << " "
       << number_text(entry.value) << "\n";
  }
  for (const auto& entry : distributions) {
    const auto& stats = entry.dist.stats;
    os << entry.name << labels_text(entry.labels) << " count="
       << stats.count() << " mean=" << number_text(stats.mean())
       << " min=" << number_text(stats.min())
       << " max=" << number_text(stats.max())
       << " stddev=" << number_text(stats.stddev()) << "\n";
    if (entry.dist.histogram) {
      std::istringstream rows(entry.dist.histogram->render());
      std::string row;
      while (std::getline(rows, row)) os << "  " << row << "\n";
    }
  }
  return os.str();
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << content;
  out.close();  // a write the buffer still holds fails here
  return !out.fail();
}

void write_file_or_exit(const std::string& path, const std::string& content) {
  if (write_file(path, content)) return;
  std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
  std::exit(1);
}

void set_globally_enabled(bool on) {
  TraceRecorder::instance().set_enabled(on);
  MetricsRegistry::instance().set_enabled(on);
}

}  // namespace mfw::obs
