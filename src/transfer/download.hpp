// DownloadService: the workflow's "(1) Data download" stage.
//
// Models the remotely executable Globus Compute function of the paper: a
// pool of download workers pulls granule-file tasks for the configured
// products/time span from the LAADS-like archive and writes them to the
// facility filesystem. Each worker holds one HTTPS connection whose
// throughput is sampled per file (lognormal) and capped by the shared WAN
// link (max-min fair sharing) — this produces Fig. 3's behaviour: more
// workers raise aggregate speed by a few MB/s except for single-file
// downloads, where connection setup overhead dominates.
//
// "If a worker completes its download task and additional time spans are
// queued, it automatically begins the next task. If no further tasks are
// available, the worker gracefully terminates." — reproduced verbatim by the
// worker loop below.
#pragma once

#include <array>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "flow/event_bus.hpp"
#include "flow/events.hpp"
#include "modis/catalog.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/link.hpp"
#include "storage/filesystem.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace mfw::transfer {

struct DownloadConfig {
  int workers = 3;
  std::vector<modis::ProductKind> products = {modis::ProductKind::kMod02,
                                              modis::ProductKind::kMod03,
                                              modis::ProductKind::kMod06};
  modis::Satellite satellite = modis::Satellite::kTerra;
  modis::DaySpan span{};
  /// Directory prefix on the destination filesystem.
  std::string dest_prefix = "staging";
  /// Cap on files per product (chronological prefix); for benchmarks that
  /// sweep download sizes.
  std::optional<std::size_t> max_files_per_product;
  /// Skip night granules (the AICCA pipeline only tiles daytime MOD02).
  bool daytime_only = false;

  // -- network model ---------------------------------------------------------
  /// Median single-connection HTTPS throughput (bytes/s).
  double per_connection_median_bps = 7.5 * 1024 * 1024;
  /// Log-space sigma of per-file connection throughput.
  double per_connection_sigma = 0.22;
  /// Per-file request/handshake overhead (seconds).
  double request_overhead = 0.6;
  /// Globus Compute endpoint worker launch time (part of Fig. 7's 5.63 s).
  double endpoint_launch = 3.4;
  /// LAADS catalog listing time (rest of the 5.63 s launch latency).
  double listing_latency = 2.2;

  // -- resilience ------------------------------------------------------------
  /// Probability that a download attempt fails mid-transfer (connection
  /// reset, HTTP 5xx); the worker retries with backoff.
  double transient_failure_rate = 0.0;
  /// Maximum attempts per file (>= 1). A file that exhausts its attempts is
  /// recorded in DownloadReport::failed and skipped.
  int max_attempts = 4;
  /// Base retry backoff in seconds (scaled by the attempt number).
  double retry_backoff = 1.5;

  // -- content materialization ----------------------------------------------
  /// When true, downloaded files contain real hdfl granule bytes at
  /// `geometry` (needed when preprocessing/inference will actually read
  /// them); otherwise a small stub record is written and only the *timing*
  /// uses the catalog byte size.
  bool materialize = false;
  modis::GranuleGeometry geometry = modis::kSmallGeometry;

  std::uint64_t seed = 7;
};

struct DownloadReport {
  double started_at = 0.0;
  /// Workers launched + catalog listed (start of actual transfers).
  double transfers_started_at = 0.0;
  double finished_at = 0.0;
  /// Stored files in completion order (the records published on
  /// flow::Topic::kDownloadFile).
  std::vector<flow::FileEvent> files;
  std::uint64_t total_bytes = 0;
  /// Total retry attempts across all files.
  std::size_t retries = 0;
  /// Files abandoned after max_attempts.
  std::vector<modis::GranuleId> failed;

  double launch_latency() const { return transfers_started_at - started_at; }
  double elapsed() const { return finished_at - started_at; }
  /// Aggregate throughput over the transfer phase (bytes/s).
  double aggregate_bps() const;
};

class DownloadService {
 public:
  /// All references must outlive the service. `wan` is the shared
  /// LAADS->facility link.
  DownloadService(sim::SimEngine& engine, const modis::ArchiveService& archive,
                  sim::FlowLink& wan, storage::FileSystem& destination,
                  DownloadConfig config);

  /// Attaches a bus for per-file completion events: every stored file's
  /// record is published on flow::Topic::kDownloadFile as it lands, and
  /// every abandoned file on flow::Topic::kDownloadFailed. This is the event
  /// contract the streaming scheduler consumes (via GranuleTracker); the
  /// terminal report remains the stage summary. Call before start().
  void set_event_bus(flow::EventBus* bus) { bus_ = bus; }

  /// Starts the stage; `on_complete` fires (virtual time) when every file is
  /// stored. May be called once.
  void start(std::function<void(const DownloadReport&)> on_complete);

  /// (time, active download workers) transitions for Fig. 6 timelines.
  const std::vector<std::pair<double, int>>& activity() const {
    return activity_;
  }

  std::size_t queued() const { return next_task_ >= tasks_.size()
                                          ? 0
                                          : tasks_.size() - next_task_; }

 private:
  void build_task_list();
  void worker_loop(int worker);
  void attempt_download(int worker, const modis::CatalogEntry& entry,
                        int attempt, double first_started_at);
  void store_file(const modis::CatalogEntry& entry, double first_started_at,
                  int attempt);
  void record_activity();
  /// Opens the per-file obs span on the worker's track (no-op when tracing
  /// is disabled).
  void begin_file_span(int worker, const modis::CatalogEntry& entry);
  /// Closes the worker's open file span, stamping outcome + attempt count.
  void end_file_span(int worker, const char* status, int attempt);

  sim::SimEngine& engine_;
  const modis::ArchiveService& archive_;
  sim::FlowLink& wan_;
  storage::FileSystem& destination_;
  DownloadConfig config_;
  util::Rng rng_;

  std::vector<modis::CatalogEntry> tasks_;
  std::size_t next_task_ = 0;
  int active_workers_ = 0;
  int finished_workers_ = 0;
  bool started_ = false;
  DownloadReport report_;
  std::function<void(const DownloadReport&)> on_complete_;
  std::vector<std::pair<double, int>> activity_;
  flow::EventBus* bus_ = nullptr;
  /// Open per-file obs span per worker (all invalid while tracing is off).
  std::vector<obs::SpanId> worker_spans_;

  /// Metric handles and worker track names, resolved on the first update
  /// made while telemetry is on.
  struct ProductSeries {
    obs::CounterHandle bytes;
    obs::CounterHandle files;
  };
  struct Telemetry {
    std::array<std::array<ProductSeries, 3>, 2> products;  // [sat][kind]
    obs::DistributionHandle file_seconds;
    obs::CounterHandle retries;
    obs::CounterHandle failed;
    std::vector<std::string> tracks;  // "download/w<i>" by worker
  };
  Telemetry telemetry_;
  const std::string& track_name(int worker);
};

}  // namespace mfw::transfer
