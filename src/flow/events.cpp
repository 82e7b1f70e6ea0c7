#include "flow/events.hpp"

#include <cstdio>

namespace mfw::flow {

const char* topic_name(Topic topic) {
  switch (topic) {
    case Topic::kDownloadFile: return "download.file";
    case Topic::kDownloadFailed: return "download.failed";
    case Topic::kGranuleReady: return "granule.ready";
    case Topic::kStage: return "workflow";
  }
  return "unknown";
}

std::string GranuleKey::to_string() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s.A%04d%03d.s%04d",
                satellite == modis::Satellite::kTerra ? "terra" : "aqua", year,
                day_of_year, slot);
  return buf;
}

GranuleKey GranuleKey::of(const modis::GranuleId& id) {
  return GranuleKey{id.satellite, id.year, id.day_of_year, id.slot};
}

}  // namespace mfw::flow
