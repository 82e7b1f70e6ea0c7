#include "obs/trace.hpp"

#include "util/strings.hpp"

namespace mfw::obs {

namespace {
/// Fallback time source when no clock is attached; origin at first use so
/// standalone tools still get small, positive timestamps.
const sim::Clock& wall_fallback() {
  static sim::WallClock wall;
  return wall;
}
}  // namespace

const std::string* find_arg(const Args& args, std::string_view key) {
  for (const auto& [k, v] : args)
    if (k == key) return &v;
  return nullptr;
}

double arg_number(const Args& args, std::string_view key, double fallback) {
  const std::string* value = find_arg(args, key);
  if (value) util::parse_double_prefix(*value, fallback);
  return fallback;
}

std::string granule_arg(const Args& args) {
  if (const std::string* g = find_arg(args, "granule")) return *g;
  if (const std::string* k = find_arg(args, "key")) return *k;
  return {};
}

TraceRecorder& TraceRecorder::instance() {
  static TraceRecorder recorder;
  return recorder;
}

void TraceRecorder::set_clock(const sim::Clock* clock) {
  std::lock_guard lock(mu_);
  clock_ = clock;
}

const sim::Clock* TraceRecorder::clock() const {
  std::lock_guard lock(mu_);
  return clock_;
}

double TraceRecorder::now_locked() const {
  return (clock_ ? *clock_ : wall_fallback()).now();
}

void TraceRecorder::ensure_default_process_locked() {
  if (!processes_.empty()) return;
  processes_.push_back(TraceProcess{1, "mfw"});
  current_pid_ = 1;
}

std::uint32_t TraceRecorder::begin_process(std::string name) {
  std::lock_guard lock(mu_);
  ensure_default_process_locked();
  const auto pid = static_cast<std::uint32_t>(processes_.size() + 1);
  processes_.push_back(TraceProcess{pid, std::move(name)});
  current_pid_ = pid;
  return pid;
}

std::uint32_t TraceRecorder::intern_track_locked(std::string_view name) {
  ensure_default_process_locked();
  const auto it = track_index_.find(TrackView{current_pid_, name});
  if (it != track_index_.end()) return it->second;
  const auto index = static_cast<std::uint32_t>(tracks_.size());
  TraceTrack track;
  track.process = current_pid_;
  track.tid = index + 1;
  track.name = std::string(name);
  track_index_.emplace(TrackKey{current_pid_, track.name}, index);
  tracks_.push_back(std::move(track));
  return index;
}

SpanId TraceRecorder::make_id(bool bounded, std::uint32_t epoch,
                              std::size_t index) {
  return SpanId{(bounded ? kBoundedBit : 0) |
                (static_cast<std::uint64_t>(epoch & kEpochMask) << 32) |
                static_cast<std::uint64_t>(index + 1)};
}

void TraceRecorder::note_closed_locked(const TraceSpan& span) {
  ++observed_spans_;
  if (sink_) sink_->on_span(tracks_[span.track], span);
}

bool TraceRecorder::retain_sample_locked() const {
  return retention_.sample_every != 0 &&
         observed_spans_ % retention_.sample_every == 0 &&
         spans_.size() < retention_.max_retained;
}

SpanId TraceRecorder::begin_span(std::string_view track,
                                 std::string_view category,
                                 std::string_view name, Args args) {
  if (!enabled()) return {};
  std::lock_guard lock(mu_);
  const std::uint32_t track_index = intern_track_locked(track);
  const double start = now_locked();
  if (retention_.mode == RetentionMode::kStatsOnly) {
    std::uint32_t index = 0;
    if (free_slots_.empty()) {
      index = static_cast<std::uint32_t>(open_slots_.size());
      open_slots_.emplace_back();
    } else {
      index = free_slots_.back();
      free_slots_.pop_back();
    }
    OpenSlot& slot = open_slots_[index];
    slot.epoch = (slot.epoch + 1) & kEpochMask;
    slot.open = true;
    ++open_bounded_;
    // Assign in place: the slot's strings and arg vector keep the capacity
    // an earlier span gave them.
    TraceSpan& span = slot.span;
    span.track = track_index;
    span.category.assign(category);
    span.name.assign(name);
    span.start = start;
    span.end = -1.0;
    span.args.clear();
    for (auto& arg : args) span.args.push_back(std::move(arg));
    return make_id(true, slot.epoch, index);
  }
  TraceSpan& span = spans_.emplace_back();
  span.track = track_index;
  span.category = std::string(category);
  span.name = std::string(name);
  span.start = start;
  span.args = std::move(args);
  return make_id(false, epoch_, spans_.size() - 1);
}

void TraceRecorder::end_span(SpanId span, Args args) {
  if (!span.valid()) return;
  const auto index = static_cast<std::size_t>(span.id & 0xffffffffu) - 1;
  const auto epoch = static_cast<std::uint32_t>(span.id >> 32) & kEpochMask;
  std::lock_guard lock(mu_);
  const double at = now_locked();
  if (span.id & kBoundedBit) {
    if (index >= open_slots_.size()) return;
    OpenSlot& slot = open_slots_[index];
    if (!slot.open || slot.epoch != epoch) return;  // stale handle
    slot.open = false;
    --open_bounded_;
    free_slots_.push_back(static_cast<std::uint32_t>(index));
    TraceSpan& record = slot.span;
    record.end = at;
    for (auto& arg : args) record.args.push_back(std::move(arg));
    note_closed_locked(record);
    if (retain_sample_locked()) {
      spans_.push_back(record);
    } else {
      ++dropped_spans_;
    }
    return;
  }
  if (epoch != epoch_ || index >= spans_.size()) return;  // stale handle
  TraceSpan& record = spans_[index];
  if (record.closed()) return;  // closed twice
  record.end = at;
  for (auto& arg : args) record.args.push_back(std::move(arg));
  note_closed_locked(record);
}

void TraceRecorder::add_span(std::string_view track, std::string_view category,
                             std::string_view name, double start, double end,
                             Args args) {
  if (!enabled()) return;
  std::lock_guard lock(mu_);
  TraceSpan span;
  span.track = intern_track_locked(track);
  span.category = std::string(category);
  span.name = std::string(name);
  span.start = start;
  span.end = end;
  span.args = std::move(args);
  note_closed_locked(span);
  if (retention_.mode == RetentionMode::kFull || retain_sample_locked()) {
    spans_.push_back(std::move(span));
  } else {
    ++dropped_spans_;
  }
}

void TraceRecorder::instant(std::string_view track, std::string_view category,
                            std::string_view name, Args args) {
  if (!enabled()) return;
  std::lock_guard lock(mu_);
  add_instant_locked(track, category, name, now_locked(), std::move(args));
}

void TraceRecorder::add_instant(std::string_view track,
                                std::string_view category,
                                std::string_view name, double at, Args args) {
  if (!enabled()) return;
  std::lock_guard lock(mu_);
  add_instant_locked(track, category, name, at, std::move(args));
}

void TraceRecorder::add_instant_locked(std::string_view track,
                                       std::string_view category,
                                       std::string_view name, double at,
                                       Args&& args) {
  const std::uint32_t track_index = intern_track_locked(track);
  if (retention_.mode == RetentionMode::kFull) {
    TraceInstant& event = instants_.emplace_back();
    event.track = track_index;
    event.category = std::string(category);
    event.name = std::string(name);
    event.at = at;
    event.args = std::move(args);
    if (sink_) sink_->on_instant(tracks_[track_index], event);
    return;
  }
  // Counted, shown to the sink, not stored: build it in the reused scratch.
  TraceInstant& event = instant_scratch_;
  event.track = track_index;
  event.category.assign(category);
  event.name.assign(name);
  event.at = at;
  event.args.clear();
  for (auto& arg : args) event.args.push_back(std::move(arg));
  if (sink_) sink_->on_instant(tracks_[track_index], event);
  ++dropped_instants_;
}

void TraceRecorder::set_retention(RetentionPolicy policy) {
  std::lock_guard lock(mu_);
  retention_ = policy;
}

RetentionPolicy TraceRecorder::retention() const {
  std::lock_guard lock(mu_);
  return retention_;
}

void TraceRecorder::set_span_sink(SpanSink* sink) {
  std::lock_guard lock(mu_);
  sink_ = sink;
}

std::size_t TraceRecorder::observed_span_count() const {
  std::lock_guard lock(mu_);
  return observed_spans_;
}

std::size_t TraceRecorder::dropped_span_count() const {
  std::lock_guard lock(mu_);
  return dropped_spans_;
}

std::size_t TraceRecorder::dropped_instant_count() const {
  std::lock_guard lock(mu_);
  return dropped_instants_;
}

void TraceRecorder::clear() {
  std::lock_guard lock(mu_);
  processes_.clear();
  current_pid_ = 0;
  tracks_.clear();
  track_index_.clear();
  spans_.clear();
  instants_.clear();
  // Open slots are freed but keep their epochs, and kFull ids move to a new
  // epoch, so no handle from before the clear matches a later span.
  free_slots_.clear();
  for (std::size_t i = open_slots_.size(); i-- > 0;) {
    open_slots_[i].open = false;
    free_slots_.push_back(static_cast<std::uint32_t>(i));
  }
  open_bounded_ = 0;
  epoch_ = (epoch_ + 1) & kEpochMask;
  observed_spans_ = 0;
  dropped_spans_ = 0;
  dropped_instants_ = 0;
}

std::vector<TraceProcess> TraceRecorder::processes() const {
  std::lock_guard lock(mu_);
  return processes_;
}

std::vector<TraceTrack> TraceRecorder::tracks() const {
  std::lock_guard lock(mu_);
  return tracks_;
}

std::vector<TraceSpan> TraceRecorder::spans() const {
  std::lock_guard lock(mu_);
  return spans_;
}

std::vector<TraceInstant> TraceRecorder::instants() const {
  std::lock_guard lock(mu_);
  return instants_;
}

std::size_t TraceRecorder::span_count() const {
  std::lock_guard lock(mu_);
  return spans_.size();
}

std::size_t TraceRecorder::instant_count() const {
  std::lock_guard lock(mu_);
  return instants_.size();
}

std::size_t TraceRecorder::open_span_count() const {
  std::lock_guard lock(mu_);
  std::size_t open = open_bounded_;
  for (const auto& span : spans_)
    if (!span.closed()) ++open;
  return open;
}

}  // namespace mfw::obs
