// Discrete-event simulation engine.
//
// The multi-facility substrate (WAN links, Lustre bandwidth, node contention,
// Slurm allocation, flow triggers) runs as events on this engine so that
// cluster-scale experiments (10 nodes x 8 workers, 128-worker farms, year-long
// archive campaigns) execute deterministically on a single host. The engine is
// single-threaded by design: determinism and the ability to model thousands of
// concurrent activities matter more than host parallelism here (see
// DESIGN.md).
//
// Storage layout (DESIGN.md §9): callbacks live in a slab indexed by slot,
// recycled through a free list — no per-event node allocation, O(1) cancel.
// Handles carry a generation so a stale handle can never cancel the slot's
// next tenant. Cancellation is lazy (the heap entry dies in place); when dead
// entries exceed half the heap it is compacted in one O(n) pass, keeping the
// queue proportional to the number of *live* events. The (time, seq) FIFO
// tie-break is a total order, so heap layout never affects pop order.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/clock.hpp"

namespace mfw::sim {

/// Identifies a scheduled event; used to cancel it. The generation guards
/// against slot reuse: cancelling an already-fired (or already-cancelled)
/// handle is always a no-op, even after the slot hosts a new event.
struct EventHandle {
  std::uint64_t id = 0;       // slot index + 1; 0 = invalid
  std::uint32_t gen = 0;      // slot generation at scheduling time
  bool valid() const { return id != 0; }
};

class SimEngine final : public Clock {
 public:
  using Callback = std::function<void()>;

  SimEngine() = default;
  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;

  /// Current virtual time in seconds.
  double now() const override { return now_; }

  /// Schedules `fn` at absolute virtual time `t` (clamped to now()).
  EventHandle schedule_at(double t, Callback fn);

  /// Schedules `fn` after `dt` seconds (dt < 0 treated as 0).
  EventHandle schedule_after(double dt, Callback fn);

  /// Cancels a pending event; no-op if already fired or cancelled.
  void cancel(EventHandle handle);

  /// Runs until no events remain. Returns the number of events processed.
  std::size_t run();

  /// Processes all events with time <= t, then advances the clock to exactly
  /// t (even if idle). Returns events processed.
  std::size_t run_until(double t);

  /// Processes a single event if any; returns whether one was processed.
  bool step();

  bool empty() const { return live_ == 0; }
  std::size_t pending() const { return live_; }
  std::size_t processed() const { return processed_; }

  /// Heap entries whose event was cancelled but whose timestamp has not
  /// surfaced yet (lazy cancellation). Compaction keeps this below the live
  /// count.
  std::size_t dead_entries() const { return dead_; }
  /// Number of dead-entry compaction passes performed (telemetry).
  std::size_t compactions() const { return compactions_; }

 private:
  struct QueueEntry {
    double time;
    std::uint64_t seq;  // FIFO tie-break for simultaneous events
    std::uint32_t slot;
    std::uint32_t gen;
    /// Strict total order (seq is unique), so pop order is independent of
    /// heap layout — compaction cannot perturb event ordering.
    bool operator>(const QueueEntry& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  struct Slot {
    Callback fn;
    std::uint32_t gen = 0;
    bool live = false;
  };

  bool pop_next(QueueEntry& out);
  void heap_push(QueueEntry entry);
  void heap_pop();
  /// Extracts the callback and retires the slot for reuse.
  Callback take(std::uint32_t slot);
  void maybe_compact();

  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t processed_ = 0;
  std::size_t live_ = 0;
  std::size_t dead_ = 0;
  std::size_t compactions_ = 0;
  std::vector<QueueEntry> heap_;     // binary min-heap on (time, seq)
  std::vector<Slot> slots_;          // slab of callbacks, indexed by slot
  std::vector<std::uint32_t> free_;  // retired slots available for reuse
};

}  // namespace mfw::sim
