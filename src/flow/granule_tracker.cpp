#include "flow/granule_tracker.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace mfw::flow {

namespace {
constexpr const char* kComponent = "granules";
/// A granule is whole once every modis::ProductKind (MOD02, MOD03, MOD06)
/// has landed.
constexpr std::size_t kTripletSize =
    static_cast<std::size_t>(modis::ProductKind::kMod06) + 1;
}

GranuleTracker::GranuleTracker(EventBus& bus) : bus_(bus) {
  file_sub_ = bus_.subscribe(Topic::kDownloadFile, [this](const Event& event) {
    observe_file(std::get<FileEvent>(event));
  });
}

GranuleTracker::~GranuleTracker() { bus_.unsubscribe(file_sub_); }

Subscription GranuleTracker::on_ready(ReadyHandler handler) {
  return bus_.subscribe(Topic::kGranuleReady,
                        [handler = std::move(handler)](const Event& event) {
                          handler(std::get<ReadyGranule>(event));
                        });
}

void GranuleTracker::observe_file(const FileEvent& event) {
  ++files_;
  const auto key = GranuleKey::of(event.id);
  if (completed_.count(key)) return;  // late duplicate of a whole triplet
  auto [it, inserted] = partial_.emplace(key, Partial{});
  Partial& partial = it->second;
  if (inserted) partial.first_at = event.finished_at;
  partial.paths[event.id.product] = event.path;
  if (partial.paths.size() < kTripletSize) return;

  ReadyGranule ready;
  ready.key = key;
  ready.mod02_path = std::move(partial.paths[modis::ProductKind::kMod02]);
  ready.mod03_path = std::move(partial.paths[modis::ProductKind::kMod03]);
  ready.mod06_path = std::move(partial.paths[modis::ProductKind::kMod06]);
  ready.first_file_at = partial.first_at;
  ready.ready_at = event.finished_at;
  partial_.erase(it);
  completed_.insert(key);
  ++ready_;
  MFW_DEBUG(kComponent, "granule ", ready.key.to_string(), " whole after ",
            ready.ready_at - ready.first_file_at, "s");
  if (auto& rec = obs::TraceRecorder::instance(); rec.enabled()) {
    const double assembly = ready.ready_at - ready.first_file_at;
    rec.instant("flow/granules", "flow", "granule.ready",
                {{"key", ready.key.to_string()},
                 {"assembly_s", std::to_string(assembly)}});
    auto& metrics = obs::MetricsRegistry::instance();
    metrics.counter_add("mfw.flow.granules_ready_total", 1.0);
    metrics.observe("mfw.flow.granule_assembly_seconds", assembly, {},
                    obs::HistogramSpec{0.0, 120.0, 24});
  }
  bus_.publish(Topic::kGranuleReady, std::move(ready));
}

std::vector<GranuleKey> GranuleTracker::pending_keys() const {
  std::vector<GranuleKey> keys;
  keys.reserve(partial_.size());
  for (const auto& [key, partial] : partial_) keys.push_back(key);
  return keys;
}

}  // namespace mfw::flow
