#include "sim/engine.hpp"

#include <algorithm>
#include <utility>

namespace mfw::sim {

namespace {
// Below this heap size compaction is not worth the pass; also keeps the
// dead-fraction trigger from thrashing on tiny queues.
constexpr std::size_t kMinCompactSize = 64;
}  // namespace

void SimEngine::heap_push(QueueEntry entry) {
  heap_.push_back(entry);
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

void SimEngine::heap_pop() {
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  heap_.pop_back();
}

EventHandle SimEngine::schedule_at(double t, Callback fn) {
  const double when = std::max(t, now_);
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.live = true;
  ++live_;
  heap_push(QueueEntry{when, next_seq_++, slot, s.gen});
  return EventHandle{static_cast<std::uint64_t>(slot) + 1, s.gen};
}

EventHandle SimEngine::schedule_after(double dt, Callback fn) {
  return schedule_at(now_ + std::max(dt, 0.0), std::move(fn));
}

SimEngine::Callback SimEngine::take(std::uint32_t slot) {
  Slot& s = slots_[slot];
  Callback fn = std::move(s.fn);
  s.fn = nullptr;
  s.live = false;
  ++s.gen;  // invalidates every outstanding handle to this slot
  --live_;
  free_.push_back(slot);
  return fn;
}

void SimEngine::cancel(EventHandle handle) {
  if (!handle.valid()) return;
  const std::uint64_t index = handle.id - 1;
  if (index >= slots_.size()) return;
  Slot& s = slots_[index];
  if (!s.live || s.gen != handle.gen) return;  // fired/cancelled/reused
  take(static_cast<std::uint32_t>(index));
  ++dead_;  // the heap entry outlives the event until popped or compacted
  maybe_compact();
}

void SimEngine::maybe_compact() {
  if (heap_.size() < kMinCompactSize || dead_ * 2 <= heap_.size()) return;
  std::erase_if(heap_, [this](const QueueEntry& e) {
    const Slot& s = slots_[e.slot];
    return !s.live || s.gen != e.gen;
  });
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
  dead_ = 0;
  ++compactions_;
}

bool SimEngine::pop_next(QueueEntry& out) {
  while (!heap_.empty()) {
    const QueueEntry& entry = heap_.front();
    const Slot& s = slots_[entry.slot];
    if (!s.live || s.gen != entry.gen) {
      heap_pop();  // cancelled; skip lazily
      if (dead_ > 0) --dead_;
      continue;
    }
    out = entry;
    return true;
  }
  return false;
}

bool SimEngine::step() {
  QueueEntry entry;
  if (!pop_next(entry)) return false;
  heap_pop();
  Callback fn = take(entry.slot);
  now_ = entry.time;
  ++processed_;
  fn();
  return true;
}

std::size_t SimEngine::run() {
  std::size_t n = 0;
  while (step()) ++n;
  return n;
}

std::size_t SimEngine::run_until(double t) {
  std::size_t n = 0;
  QueueEntry entry;
  while (pop_next(entry) && entry.time <= t) {
    heap_pop();
    Callback fn = take(entry.slot);
    now_ = entry.time;
    ++processed_;
    ++n;
    fn();
  }
  now_ = std::max(now_, t);
  return n;
}

}  // namespace mfw::sim
