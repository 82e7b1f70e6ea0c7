// Topic-based publish/subscribe bus for workflow events.
//
// Loosely models the event plumbing between workflow components (download
// complete -> preprocessing eligible; files landed -> monitor notified).
// Each flow::Topic carries one typed payload of flow::Event (events.hpp);
// the bus delivers the record itself, never a serialized copy. Delivery is
// asynchronous: published events are dispatched as zero-delay simulation
// events so subscribers never run re-entrantly inside publish().
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>

#include "flow/events.hpp"
#include "sim/engine.hpp"

namespace mfw::flow {

struct Subscription {
  std::uint64_t id = 0;
  bool valid() const { return id != 0; }
};

class EventBus {
 public:
  explicit EventBus(sim::SimEngine& engine) : engine_(engine) {}

  using Handler = std::function<void(const Event& event)>;

  /// Subscribes to a topic; handler fires for every event published there.
  Subscription subscribe(Topic topic, Handler handler);
  void unsubscribe(Subscription subscription);

  /// Publishes an event. A topic with at least one subscriber gets exactly
  /// one zero-delay engine event per publish, which delivers to the
  /// subscribers in subscription order; a topic with none schedules
  /// nothing. Delivery checks each subscriber is still registered:
  /// unsubscribing — even from inside a handler during dispatch — suppresses
  /// any pending deliveries to that subscription, and subscribers added
  /// after publish() do not see the event.
  void publish(Topic topic, Event event);

  std::size_t subscriber_count(Topic topic) const;
  /// Every publish, delivered or not.
  std::uint64_t published_count() const { return published_; }

 private:
  using Subscribers = std::map<std::uint64_t, Handler>;
  Subscribers& subscribers(Topic topic) {
    return topics_[static_cast<std::size_t>(topic)];
  }

  sim::SimEngine& engine_;
  std::array<Subscribers, kTopicCount> topics_;
  std::uint64_t next_id_ = 1;
  std::uint64_t published_ = 0;
};

}  // namespace mfw::flow
