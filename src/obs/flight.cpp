#include "obs/flight.hpp"

#include <cstdio>
#include <exception>
#include <map>
#include <sstream>
#include <utility>

#include "obs/export.hpp"
#include "obs/watch.hpp"
#include "util/log.hpp"

namespace mfw::obs {
namespace {

/// Synthetic lane for health episodes in the dump (no recorder track backs
/// them).
constexpr std::uint32_t kAlertTid = 999999;
constexpr const char* kAlertTrack = "flight/alerts";

std::string num(double value) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  return buf;
}

// ---------------------------------------------------------------------------
// terminate-hook plumbing: one armed recorder process-wide. The hook only
// reads the ring (its own lock) and writes a file — safe work for a
// terminate handler, after which the previous handler (usually abort) runs.
// ---------------------------------------------------------------------------

std::mutex g_crash_mu;
FlightRecorder* g_armed = nullptr;
std::string g_crash_path;
std::terminate_handler g_previous = nullptr;

void crash_dump_handler() {
  {
    std::lock_guard<std::mutex> lock(g_crash_mu);
    if (g_armed && !g_armed->dump(g_crash_path, "terminate"))
      MFW_ERROR("obs", "cannot write ", g_crash_path);
  }
  if (g_previous) g_previous();
  std::abort();
}

}  // namespace

FlightRecorder::FlightRecorder(FlightConfig config) : config_(config) {
  if (config_.capacity == 0) config_.capacity = 1;
  ring_.resize(config_.capacity);
}

FlightRecorder::~FlightRecorder() { disarm_crash_dump(); }

FlightRecorder::Entry& FlightRecorder::next_slot_locked() {
  Entry& entry = ring_[head_];
  entry.seq = seen_++;
  head_ = (head_ + 1) % ring_.size();
  if (seen_ >= ring_.size()) full_ = true;
  return entry;
}

void FlightRecorder::on_span(const TraceTrack& track, const TraceSpan& span) {
  SpanSink* next = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Written in place: an overwritten slot's strings and args keep their
    // capacity.
    Entry& entry = next_slot_locked();
    entry.entry_kind = Entry::Kind::kSpan;
    entry.start = span.start;
    entry.end = span.end;
    entry.process = track.process;
    entry.tid = track.tid;
    entry.track.assign(track.name);
    entry.category.assign(span.category);
    entry.name.assign(span.name);
    entry.args = span.args;
    next = next_;
  }
  if (next) next->on_span(track, span);
}

void FlightRecorder::on_instant(const TraceTrack& track,
                                const TraceInstant& instant) {
  SpanSink* next = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Entry& entry = next_slot_locked();
    entry.entry_kind = Entry::Kind::kInstant;
    entry.start = instant.at;
    entry.end = instant.at;
    entry.process = track.process;
    entry.tid = track.tid;
    entry.track.assign(track.name);
    entry.category.assign(instant.category);
    entry.name.assign(instant.name);
    entry.args = instant.args;
    next = next_;
  }
  if (next) next->on_instant(track, instant);
}

void FlightRecorder::set_next(SpanSink* next) {
  std::lock_guard<std::mutex> lock(mu_);
  next_ = next;
}

void FlightRecorder::note_alert(const Alert& alert) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = next_slot_locked();
  entry.entry_kind = Entry::Kind::kAlert;
  entry.start = alert.at;
  entry.end = alert.at;
  entry.process = 0;
  entry.tid = kAlertTid;
  entry.track = kAlertTrack;
  entry.category = "health";
  entry.name = alert.rule;
  entry.args = {{"kind", alert.kind},
                {"stage", alert.stage},
                {"metric", alert.metric},
                {"state", alert.state},
                {"threshold", num(alert.threshold)},
                {"observed", num(alert.observed)},
                {"cause", alert.cause}};
}

std::uint64_t FlightRecorder::seen() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seen_;
}

std::uint64_t FlightRecorder::overwritten() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seen_ > ring_.size() ? seen_ - ring_.size() : 0;
}

std::size_t FlightRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return full_ ? ring_.size() : head_;
}

std::vector<FlightRecorder::Entry> FlightRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Entry> out;
  const std::size_t count = full_ ? ring_.size() : head_;
  out.reserve(count);
  if (full_)
    for (std::size_t i = 0; i < ring_.size(); ++i)
      out.push_back(ring_[(head_ + i) % ring_.size()]);
  else
    for (std::size_t i = 0; i < head_; ++i) out.push_back(ring_[i]);
  return out;
}

std::string FlightRecorder::to_chrome_trace_json(
    std::string_view reason) const {
  const std::vector<Entry> entries = snapshot();
  std::uint64_t seen_count = 0, overwritten_count = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    seen_count = seen_;
    overwritten_count =
        seen_ > ring_.size() ? seen_ - ring_.size() : 0;
  }

  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto emit = [&](const std::string& event) {
    if (!first) os << ",";
    first = false;
    os << "\n" << event;
  };

  // Thread-name metadata for every lane present in the ring.
  std::map<std::pair<std::uint32_t, std::uint32_t>, const std::string*> lanes;
  for (const auto& entry : entries)
    lanes.emplace(std::make_pair(entry.process, entry.tid), &entry.track);
  for (const auto& [lane, name] : lanes)
    emit(thread_name_event(lane.first, lane.second, *name));

  for (const auto& entry : entries) {
    if (entry.entry_kind == Entry::Kind::kSpan) {
      emit(span_event(entry.process, entry.tid, entry.category, entry.name,
                      entry.start, entry.end - entry.start, entry.args));
    } else {
      emit(instant_event(entry.process, entry.tid, entry.category,
                         entry.name, entry.start, entry.args));
    }
  }
  os << "\n],\"flight\":{\"reason\":\"" << json_escape(reason) << '"'
     << ",\"capacity\":" << config_.capacity << ",\"seen\":" << seen_count
     << ",\"overwritten\":" << overwritten_count << ",\"retained\":"
     << entries.size() << "}}\n";
  return os.str();
}

bool FlightRecorder::dump(const std::string& path,
                          std::string_view reason) const {
  return write_file(path, to_chrome_trace_json(reason));
}

void FlightRecorder::arm_crash_dump(std::string path) {
  std::lock_guard<std::mutex> lock(g_crash_mu);
  if (!g_armed) g_previous = std::set_terminate(crash_dump_handler);
  g_armed = this;
  g_crash_path = std::move(path);
}

void FlightRecorder::disarm_crash_dump() {
  std::lock_guard<std::mutex> lock(g_crash_mu);
  if (g_armed != this) return;
  g_armed = nullptr;
  g_crash_path.clear();
  // Restore the previous handler when there was one; otherwise leave ours
  // installed disarmed (it then just forwards to abort).
  if (g_previous) {
    std::set_terminate(g_previous);
    g_previous = nullptr;
  }
}

}  // namespace mfw::obs
