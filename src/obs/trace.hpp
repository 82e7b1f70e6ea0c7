// TraceRecorder: hierarchical span + instant-event recording for the
// multi-facility workflow (paper §V-A: "advanced provenance tracking and
// telemetry tools for real-time workflow insights").
//
// Design notes:
//  - Timestamps come from a pluggable sim::Clock so discrete-event benches
//    (SimEngine is a Clock) and wall-clock runs trace uniformly; with no
//    clock attached a process-lifetime WallClock is used.
//  - Events carry a *track* (a named lane: "download/w0", "preprocess/node3",
//    "stages/inference") and belong to the current *process* (one per
//    workflow run), mapping directly onto Chrome trace-event pid/tid so the
//    export (see obs/export.hpp) loads in Perfetto / chrome://tracing.
//  - Recording is thread-safe (pool threads and the sim thread may record
//    concurrently); a single mutex guards the buffers.
//  - Disabled recording is free: enabled() is one relaxed atomic load, the
//    begin/end macro-free idiom at call sites is
//        obs::SpanId span;
//        if (auto& rec = obs::TraceRecorder::instance(); rec.enabled())
//          span = rec.begin_span(...);   // strings built only here
//        ...
//        obs::TraceRecorder::instance().end_span(span);  // no-op if invalid
//    so the off path performs no allocation and takes no lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/clock.hpp"

namespace mfw::obs {

/// Key/value annotations attached to spans and instants (rendered as Chrome
/// trace-event "args").
using Args = std::vector<std::pair<std::string, std::string>>;

/// The value of `key` in `args`, or nullptr when absent.
const std::string* find_arg(const Args& args, std::string_view key);

/// `key`'s value read as a number (util::parse_double_prefix), or `fallback`
/// when it is absent or does not start with one.
double arg_number(const Args& args, std::string_view key,
                  double fallback = 0.0);

/// The granule a span or instant belongs to: its "granule" arg (task spans,
/// flow runs), else its "key" arg (granule.ready instants), else empty.
std::string granule_arg(const Args& args);

/// Handle for an open span; zero-initialised means "not recording". The id
/// packs the slot the span occupies with an epoch, so a handle that outlives
/// its span (closed twice, or kept across TraceRecorder::clear()) is ignored
/// instead of closing whatever span took the slot next.
struct SpanId {
  std::uint64_t id = 0;
  bool valid() const { return id != 0; }
};

/// A named lane inside a process (Chrome trace-event tid).
struct TraceTrack {
  std::uint32_t process = 0;
  std::uint32_t tid = 0;
  std::string name;
};

struct TraceProcess {
  std::uint32_t pid = 0;
  std::string name;
};

struct TraceSpan {
  std::uint32_t track = 0;  // index into tracks()
  std::string category;
  std::string name;
  double start = 0.0;
  double end = -1.0;  // < start while open
  Args args;

  bool closed() const { return end >= start; }
  double duration() const { return closed() ? end - start : 0.0; }
};

struct TraceInstant {
  std::uint32_t track = 0;
  std::string category;
  std::string name;
  double at = 0.0;
  Args args;
};

/// How much of the raw event stream the recorder keeps in memory.
///  - kFull: every span and instant is retained (paper-figure runs; the
///    default, byte-for-byte identical to the pre-retention recorder).
///  - kStatsOnly: closed spans are forwarded to the SpanSink and then
///    discarded, except for an optional 1-in-sample_every exemplar stream
///    capped at max_retained. Instants are counted but not stored. Memory is
///    O(open spans + retained exemplars) instead of O(events), which is what
///    lets bench/archive_campaign observe a 365-day run (~millions of spans).
enum class RetentionMode { kFull, kStatsOnly };

struct RetentionPolicy {
  RetentionMode mode = RetentionMode::kFull;
  /// In kStatsOnly mode, retain every Nth closed span as an exemplar
  /// (0 = retain none).
  std::size_t sample_every = 0;
  /// Hard cap on retained exemplar spans in kStatsOnly mode.
  std::size_t max_retained = 4096;
};

/// Streaming observer fed every *closed* span (and every instant) regardless
/// of retention mode. Implementations (e.g. obs::SpanRollup) aggregate into
/// bounded structures. Callbacks run under the recorder lock: they must be
/// fast and must not re-enter the recorder.
class SpanSink {
 public:
  virtual ~SpanSink() = default;
  virtual void on_span(const TraceTrack& track, const TraceSpan& span) = 0;
  virtual void on_instant(const TraceTrack& /*track*/,
                          const TraceInstant& /*instant*/) {}
};

class TraceRecorder {
 public:
  /// Global recorder used by the instrumented modules. Directly-constructed
  /// recorders are supported for tests.
  static TraceRecorder& instance();

  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Master switch. Instrumented call sites must check enabled() before
  /// building track names / args so the off path stays allocation-free.
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Attaches the time source (e.g. a workflow's SimEngine). nullptr
  /// restores the internal wall clock. The clock must outlive all recording
  /// calls made while it is attached.
  void set_clock(const sim::Clock* clock);
  const sim::Clock* clock() const;

  /// Opens a new process scope (one per workflow run); subsequent tracks are
  /// created inside it. Returns its pid. A default "mfw" process exists
  /// implicitly.
  std::uint32_t begin_process(std::string name);

  /// Opens a span on `track` (interned per process by name) stamped at the
  /// attached clock's time (the wall clock when none is attached). Returns
  /// an invalid SpanId when disabled.
  SpanId begin_span(std::string_view track, std::string_view category,
                    std::string_view name, Args args = {});

  /// Closes a span at the clock's time, appending `args`. Invalid ids are
  /// ignored, so call sites need no enabled() re-check; spans opened before
  /// a disable still close correctly. So are stale ids: a span already
  /// closed, or one opened before the last clear().
  void end_span(SpanId span, Args args = {});

  /// Records a fully-formed span with explicit timestamps (used by post-hoc
  /// bridges such as flow::export_to_trace). No-op when disabled.
  void add_span(std::string_view track, std::string_view category,
                std::string_view name, double start, double end,
                Args args = {});

  /// Records a point event stamped at the clock's time. No-op when disabled.
  void instant(std::string_view track, std::string_view category,
               std::string_view name, Args args = {});

  /// Records a point event with an explicit timestamp (post-hoc bridges and
  /// synthetic-trace tests). No-op when disabled.
  void add_instant(std::string_view track, std::string_view category,
                   std::string_view name, double at, Args args = {});

  /// Sets the retention policy. Safe to call between runs; switching modes
  /// while spans are open is supported (each span closes under the mode it
  /// was opened in). The default kFull policy keeps the recorder behaviour
  /// identical to the pre-retention implementation.
  void set_retention(RetentionPolicy policy);
  RetentionPolicy retention() const;

  /// Attaches a streaming observer fed every closed span and every instant
  /// (in all retention modes). nullptr detaches. The sink must outlive all
  /// recording calls made while attached.
  void set_span_sink(SpanSink* sink);

  /// Closed spans seen since the last clear(), regardless of retention.
  std::size_t observed_span_count() const;
  /// Spans / instants discarded by the kStatsOnly retention policy.
  std::size_t dropped_span_count() const;
  std::size_t dropped_instant_count() const;

  /// Drops all recorded events, tracks, and processes (between runs).
  /// Retention policy and sink attachment survive a clear().
  void clear();

  // -- snapshot accessors (exporter + tests); copies under the lock ----------
  std::vector<TraceProcess> processes() const;
  std::vector<TraceTrack> tracks() const;
  std::vector<TraceSpan> spans() const;
  std::vector<TraceInstant> instants() const;
  std::size_t span_count() const;
  std::size_t instant_count() const;
  /// Spans still open (begin without end) — should be 0 after a clean run.
  std::size_t open_span_count() const;

 private:
  /// SpanId layout: bit 63 set for a kStatsOnly open-span slot (clear for a
  /// kFull spans_ index), bits 32-62 the epoch, bits 0-31 the index + 1.
  /// A kFull id carries the recorder epoch, which clear() advances; a slot id
  /// carries the slot's own epoch, advanced each time the slot is taken.
  static constexpr std::uint64_t kBoundedBit = 1ull << 63;
  static constexpr std::uint32_t kEpochMask = 0x7fffffffu;

  /// One kStatsOnly open span. Slots are recycled through free_slots_, so a
  /// slot's strings and arg vector keep their capacity from span to span.
  struct OpenSlot {
    TraceSpan span;
    std::uint32_t epoch = 0;
    bool open = false;
  };

  /// Track index key: (pid, name). Lookups pass a string_view name, so
  /// interning an existing track builds no string.
  using TrackKey = std::pair<std::uint32_t, std::string>;
  using TrackView = std::pair<std::uint32_t, std::string_view>;
  struct TrackHash {
    using is_transparent = void;
    std::size_t operator()(const TrackView& key) const noexcept {
      return std::hash<std::string_view>{}(key.second) ^
             (static_cast<std::size_t>(key.first) * 0x9e3779b97f4a7c15ull);
    }
    std::size_t operator()(const TrackKey& key) const noexcept {
      return (*this)(TrackView{key.first, key.second});
    }
  };
  struct TrackEq {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const noexcept {
      return a.first == b.first &&
             std::string_view(a.second) == std::string_view(b.second);
    }
  };

  static SpanId make_id(bool bounded, std::uint32_t epoch, std::size_t index);
  double now_locked() const;
  std::uint32_t intern_track_locked(std::string_view name);
  void ensure_default_process_locked();
  void add_instant_locked(std::string_view track, std::string_view category,
                          std::string_view name, double at, Args&& args);
  /// Sink notification + observed-span accounting for a just-closed span.
  void note_closed_locked(const TraceSpan& span);
  /// kStatsOnly sampling decision: should the span just counted by
  /// note_closed_locked be kept as an exemplar?
  bool retain_sample_locked() const;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  const sim::Clock* clock_ = nullptr;  // guarded by mu_
  std::vector<TraceProcess> processes_;
  std::uint32_t current_pid_ = 0;
  std::vector<TraceTrack> tracks_;
  std::unordered_map<TrackKey, std::uint32_t, TrackHash, TrackEq>
      track_index_;
  std::vector<TraceSpan> spans_;
  std::vector<TraceInstant> instants_;
  RetentionPolicy retention_;
  SpanSink* sink_ = nullptr;
  std::vector<OpenSlot> open_slots_;        // kStatsOnly open spans
  std::vector<std::uint32_t> free_slots_;   // closed slots, reused LIFO
  std::size_t open_bounded_ = 0;            // open slots
  TraceInstant instant_scratch_;            // kStatsOnly instants, reused
  std::uint32_t epoch_ = 0;                 // kFull id epoch; clear() bumps
  std::size_t observed_spans_ = 0;
  std::size_t dropped_spans_ = 0;
  std::size_t dropped_instants_ = 0;
};

}  // namespace mfw::obs
