// GranuleTracker: per-granule readiness assembly over the EventBus.
//
// The paper delays preprocessing behind a whole-stage barrier because a
// granule must not be tiled while any of its MOD02/MOD03/MOD06 files is
// still being written (the HDF partial-read hazard). The tracker is the
// per-granule analogue of that barrier: it consumes Topic::kDownloadFile
// events, groups them by (satellite, year, day, slot), and publishes
// Topic::kGranuleReady the moment all three products have landed — so a
// streaming scheduler can start preprocessing each granule individually
// while later downloads are still in flight.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "flow/event_bus.hpp"
#include "flow/events.hpp"
#include "modis/catalog.hpp"

namespace mfw::flow {

class GranuleTracker {
 public:
  explicit GranuleTracker(EventBus& bus);
  ~GranuleTracker();

  GranuleTracker(const GranuleTracker&) = delete;
  GranuleTracker& operator=(const GranuleTracker&) = delete;

  using ReadyHandler = std::function<void(const ReadyGranule&)>;

  /// Typed subscription to Topic::kGranuleReady. The returned subscription
  /// belongs to the caller; cancel it with EventBus::unsubscribe.
  Subscription on_ready(ReadyHandler handler);

  /// Typed ingestion for publishers not wired to the bus; equivalent to a
  /// Topic::kDownloadFile event. Duplicate files (retried overwrites) are
  /// idempotent.
  void observe_file(const FileEvent& event);

  /// Granules with at least one file landed but not yet whole.
  std::size_t pending() const { return partial_.size(); }
  std::size_t ready_count() const { return ready_; }
  std::size_t files_seen() const { return files_; }
  std::vector<GranuleKey> pending_keys() const;

 private:
  struct Partial {
    std::map<modis::ProductKind, std::string> paths;
    double first_at = 0.0;
  };

  EventBus& bus_;
  Subscription file_sub_;
  std::map<GranuleKey, Partial> partial_;
  std::set<GranuleKey> completed_;
  std::size_t ready_ = 0;
  std::size_t files_ = 0;
};

}  // namespace mfw::flow
