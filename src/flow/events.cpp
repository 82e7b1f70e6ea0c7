#include "flow/events.hpp"

#include "util/strings.hpp"

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
  // printf's "%s.A%04d%03d.s%04d" without the printf parser: every
  // granule-carrying span and instant formats one of these.
  std::string out = satellite == modis::Satellite::kTerra ? "terra" : "aqua";
  out += ".A";
  util::append_padded(out, year, 4);
  util::append_padded(out, day_of_year, 3);
  out += ".s";
  util::append_padded(out, slot, 4);
  return out;
}

GranuleKey GranuleKey::of(const modis::GranuleId& id) {
  return GranuleKey{id.satellite, id.year, id.day_of_year, id.slot};
}

}  // namespace mfw::flow
