// Typed dataflow events carried over the EventBus.
//
// The streaming scheduler replaces implicit whole-stage sequencing with an
// explicit event contract: stage boundaries communicate through these typed
// records, which the bus delivers as they are, so any subscriber (tests,
// telemetry, provenance tooling) observes the dataflow by including this
// header, without linking against the publishing stage. See DESIGN.md
// "Dataflow architecture".
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <variant>

#include "modis/catalog.hpp"

namespace mfw::flow {

/// The bus's fixed topic set; each topic carries one payload type.
enum class Topic {
  /// FileEvent: one archive file landed on the facility filesystem
  /// (DownloadService).
  kDownloadFile,
  /// FileEvent: one archive file was abandoned after exhausting its retry
  /// budget (path empty).
  kDownloadFailed,
  /// ReadyGranule: a MOD02/MOD03/MOD06 triplet is whole and safe to
  /// preprocess (GranuleTracker).
  kGranuleReady,
  /// StageEvent: stage lifecycle (EomlWorkflow).
  kStage,
};
inline constexpr std::size_t kTopicCount =
    static_cast<std::size_t>(Topic::kStage) + 1;

/// Stable topic name used in metric labels: "download.file",
/// "download.failed", "granule.ready" and "workflow".
const char* topic_name(Topic topic);

/// Product-independent identity of one 5-minute granule triplet.
struct GranuleKey {
  modis::Satellite satellite = modis::Satellite::kTerra;
  int year = 2022;
  int day_of_year = 1;
  int slot = 0;

  auto operator<=>(const GranuleKey&) const = default;

  /// e.g. "terra.A2022001.s0095"
  std::string to_string() const;
  static GranuleKey of(const modis::GranuleId& id);
};

/// One downloaded (or abandoned) archive file: the payload of
/// Topic::kDownloadFile / kDownloadFailed and one entry of
/// transfer::DownloadReport::files.
struct FileEvent {
  modis::GranuleId id;
  std::string path;  // empty for failures
  std::uint64_t bytes = 0;
  double started_at = 0.0;   // first attempt began
  double finished_at = 0.0;  // stored, or abandoned
  double mean_bps = 0.0;     // effective throughput incl. overheads; 0 if failed
  int attempts = 1;          // 1 = clean first try
};

/// Payload of Topic::kGranuleReady.
struct ReadyGranule {
  GranuleKey key;
  std::string mod02_path;
  std::string mod03_path;
  std::string mod06_path;
  double first_file_at = 0.0;  // first triplet member landed
  double ready_at = 0.0;       // triplet became whole
};

/// Payload of Topic::kStage.
struct StageEvent {
  std::string stage;  // "download", "preprocess", "inference", "shipment"
  std::string event;  // "started" or "completed"
  double time = 0.0;
};

/// What the bus carries. Subscribers read their topic's payload with
/// std::get, which throws std::bad_variant_access on a mismatch.
using Event = std::variant<FileEvent, ReadyGranule, StageEvent>;

}  // namespace mfw::flow
