#include "flow/event_bus.hpp"

#include <vector>

namespace mfw::flow {

EventBus::TopicSeries& EventBus::series(Topic topic,
                                        obs::MetricsRegistry& metrics) {
  TopicSeries& s = series_[static_cast<std::size_t>(topic)];
  if (!s.published) {
    const obs::Labels label = {{"topic", topic_name(topic)}};
    s.published =
        metrics.counter_series("mfw.flow.events_published_total", label);
    s.dispatch_latency =
        metrics.distribution_series("mfw.flow.dispatch_latency_seconds", label);
  }
  return s;
}

Subscription EventBus::subscribe(Topic topic, Handler handler) {
  const std::uint64_t id = next_id_++;
  subscribers(topic).emplace(id, std::move(handler));
  return Subscription{id};
}

void EventBus::unsubscribe(Subscription subscription) {
  if (!subscription.valid()) return;
  for (auto& handlers : topics_) handlers.erase(subscription.id);
}

void EventBus::publish(Topic topic, Event event) {
  ++published_;
  if (auto& metrics = obs::MetricsRegistry::instance(); metrics.enabled())
    metrics.counter_add(series(topic, metrics).published, 1.0);
  const Subscribers& handlers = subscribers(topic);
  if (handlers.empty()) return;
  // Snapshot subscriber *ids*, not handlers: subscribers added after
  // publish() do not see this event, and a subscriber removed before (or
  // during) dispatch is skipped — so unsubscribe() is safe to call from
  // inside a handler while the snapshot is being walked.
  std::vector<std::uint64_t> ids;
  ids.reserve(handlers.size());
  for (const auto& [id, handler] : handlers) ids.push_back(id);
  const double published_at = engine_.now();
  engine_.schedule_after(0.0, [this, topic, ids = std::move(ids),
                               event = std::move(event), published_at] {
    // Publish -> delivery gap: 0 in pure virtual time unless intervening
    // same-time events ran first; meaningful for wall-clock-coupled runs.
    if (auto& metrics = obs::MetricsRegistry::instance(); metrics.enabled())
      metrics.observe(series(topic, metrics).dispatch_latency,
                      engine_.now() - published_at,
                      obs::HistogramSpec{0.0, 0.1, 20});
    const Subscribers& live = subscribers(topic);
    for (const auto id : ids) {
      const auto it = live.find(id);
      if (it == live.end()) continue;  // unsubscribed since snapshot
      // Copy so a handler that unsubscribes itself stays alive for the call.
      const Handler handler = it->second;
      handler(event);
    }
  });
}

std::size_t EventBus::subscriber_count(Topic topic) const {
  return topics_[static_cast<std::size_t>(topic)].size();
}

}  // namespace mfw::flow
