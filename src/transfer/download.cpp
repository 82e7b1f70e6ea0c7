#include "transfer/download.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/bytes.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace mfw::transfer {

namespace {
constexpr const char* kComponent = "download";
/// Per-file download durations dominated by the WAN window (Fig. 3: tens of
/// seconds to a few minutes at 3 workers).
constexpr obs::HistogramSpec kFileSecondsSpec{0.0, 120.0, 24};
}

double DownloadReport::aggregate_bps() const {
  const double window = finished_at - transfers_started_at;
  if (window <= 0) return 0.0;
  return static_cast<double>(total_bytes) / window;
}

double DownloadReport::mean_file_bps() const {
  util::StreamingStats stats;
  for (const auto& f : files) stats.add(f.mean_bps);
  return stats.mean();
}

double DownloadReport::stddev_file_bps() const {
  util::StreamingStats stats;
  for (const auto& f : files) stats.add(f.mean_bps);
  return stats.stddev();
}

DownloadService::DownloadService(sim::SimEngine& engine,
                                 const modis::ArchiveService& archive,
                                 sim::FlowLink& wan,
                                 storage::FileSystem& destination,
                                 DownloadConfig config)
    : engine_(engine),
      archive_(archive),
      wan_(wan),
      destination_(destination),
      config_(std::move(config)),
      rng_(util::mix64(config_.seed, 0x0d0a11c3)) {
  if (config_.workers <= 0)
    throw std::invalid_argument("DownloadService needs >= 1 worker");
  if (config_.products.empty())
    throw std::invalid_argument("DownloadService needs >= 1 product");
}

void DownloadService::build_task_list() {
  for (const auto product : config_.products) {
    auto entries = archive_.list(product, config_.satellite, config_.span);
    if (config_.daytime_only) {
      std::erase_if(entries, [](const modis::CatalogEntry& e) {
        return !modis::is_daytime(e.id.satellite, e.id.slot, e.id.day_of_year);
      });
    }
    if (config_.max_files_per_product &&
        entries.size() > *config_.max_files_per_product) {
      entries.resize(*config_.max_files_per_product);
    }
    tasks_.insert(tasks_.end(), entries.begin(), entries.end());
  }
  // Interleave products chronologically so that each time step's MOD02/03/06
  // triplet lands close together (the preprocessing join wants all three).
  std::stable_sort(tasks_.begin(), tasks_.end(),
                   [](const modis::CatalogEntry& a, const modis::CatalogEntry& b) {
                     if (a.id.day_of_year != b.id.day_of_year)
                       return a.id.day_of_year < b.id.day_of_year;
                     return a.id.slot < b.id.slot;
                   });
}

void DownloadService::start(std::function<void(const DownloadReport&)> on_complete) {
  if (started_) throw std::logic_error("DownloadService::start called twice");
  started_ = true;
  on_complete_ = std::move(on_complete);
  report_.started_at = engine_.now();

  // Launch phase: start Globus Compute workers, connect to LAADS, list the
  // archive (Fig. 7's 5.63 s "download launch" latency).
  const double launch = config_.endpoint_launch + config_.listing_latency;
  engine_.schedule_after(launch, [this] {
    build_task_list();
    report_.transfers_started_at = engine_.now();
    MFW_INFO(kComponent, "listed ", tasks_.size(), " files after ",
             util::format_seconds(report_.transfers_started_at -
                                  report_.started_at),
             " launch latency");
    if (tasks_.empty()) {
      report_.finished_at = engine_.now();
      if (on_complete_) on_complete_(report_);
      return;
    }
    const int workers =
        std::min<int>(config_.workers, static_cast<int>(tasks_.size()));
    for (int w = 0; w < workers; ++w) {
      ++active_workers_;
      record_activity();
      worker_loop(w);
    }
  });
}

void DownloadService::worker_loop(int worker) {
  if (next_task_ >= tasks_.size()) {
    // "If no further tasks are available, the worker gracefully terminates."
    --active_workers_;
    ++finished_workers_;
    record_activity();
    if (active_workers_ == 0) {
      report_.finished_at = engine_.now();
      MFW_INFO(kComponent, "completed ", report_.files.size(), " files, ",
               util::format_bytes(report_.total_bytes), " in ",
               util::format_seconds(report_.elapsed()));
      if (on_complete_) on_complete_(report_);
    }
    return;
  }
  const modis::CatalogEntry entry = tasks_[next_task_++];
  begin_file_span(worker, entry);
  attempt_download(worker, entry, 1, engine_.now());
}

void DownloadService::begin_file_span(int worker,
                                      const modis::CatalogEntry& entry) {
  auto& rec = obs::TraceRecorder::instance();
  if (!rec.enabled()) return;
  if (worker_spans_.size() <= static_cast<std::size_t>(worker))
    worker_spans_.resize(worker + 1);
  worker_spans_[worker] = rec.begin_span(
      "download/w" + std::to_string(worker), "download", entry.id.filename(),
      {{"bytes", std::to_string(entry.size_bytes)},
       {"product",
        modis::product_short_name(entry.id.product, entry.id.satellite)},
       {"granule", flow::GranuleKey::of(entry.id).to_string()}});
}

void DownloadService::end_file_span(int worker, const char* status,
                                    int attempt) {
  if (worker_spans_.size() <= static_cast<std::size_t>(worker)) return;
  obs::SpanId& span = worker_spans_[worker];
  if (!span.valid()) return;
  obs::TraceRecorder::instance().end_span(
      span, {{"status", status}, {"attempts", std::to_string(attempt)}});
  span = {};
}

void DownloadService::attempt_download(int worker,
                                       const modis::CatalogEntry& entry,
                                       int attempt, double first_started_at) {
  // Per-file request/handshake overhead, then the body as a WAN flow capped
  // at this connection's sampled throughput.
  const double overhead =
      config_.request_overhead * (0.7 + 0.6 * rng_.uniform());
  const double conn_bps = rng_.lognormal_median(
      config_.per_connection_median_bps, config_.per_connection_sigma);

  if (rng_.bernoulli(config_.transient_failure_rate)) {
    // The connection dies partway through: time is lost for a fraction of
    // the body, then the worker backs off and retries (or gives up).
    const double wasted = overhead + rng_.uniform(0.1, 0.9) *
                                         static_cast<double>(entry.size_bytes) /
                                         conn_bps;
    if (attempt >= config_.max_attempts) {
      MFW_WARN(kComponent, "giving up on ", entry.id.filename(), " after ",
               attempt, " attempts");
      engine_.schedule_after(wasted, [this, worker, entry, attempt,
                                      first_started_at] {
        report_.failed.push_back(entry.id);
        end_file_span(worker, "failed", attempt);
        if (auto& metrics = obs::MetricsRegistry::instance();
            metrics.enabled()) {
          metrics.counter_add("mfw.download.failed_total", 1.0,
                              {{"stage", "download"}});
          obs::TraceRecorder::instance().instant(
              "download/w" + std::to_string(worker), "download",
              "download.failed", {{"file", entry.id.filename()}});
        }
        if (bus_) {
          flow::FileEvent event;
          event.id = entry.id;
          event.bytes = entry.size_bytes;
          event.started_at = first_started_at;
          event.finished_at = engine_.now();
          event.attempts = attempt;
          bus_->publish(flow::Topic::kDownloadFailed, std::move(event));
        }
        worker_loop(worker);
      });
      return;
    }
    ++report_.retries;
    obs::MetricsRegistry::instance().counter_add("mfw.download.retries_total",
                                                 1.0);
    const double backoff = config_.retry_backoff * attempt;
    MFW_DEBUG(kComponent, "transient failure on ", entry.id.filename(),
              " (attempt ", attempt, "); retrying in ", backoff, "s");
    engine_.schedule_after(
        wasted + backoff, [this, worker, entry, attempt, first_started_at] {
          attempt_download(worker, entry, attempt + 1, first_started_at);
        });
    return;
  }

  engine_.schedule_after(
      overhead, [this, worker, entry, attempt, first_started_at, conn_bps] {
        wan_.start_flow(static_cast<double>(entry.size_bytes), conn_bps,
                        [this, worker, entry, attempt,
                         first_started_at](double /*flow_bps*/) {
                          store_file(entry, first_started_at, attempt);
                          end_file_span(worker, "ok", attempt);
                          worker_loop(worker);
                        });
      });
}

void DownloadService::store_file(const modis::CatalogEntry& entry,
                                 double first_started_at, int attempt) {
  const std::string path =
      util::path_join(config_.dest_prefix, entry.id.filename());
  if (config_.materialize) {
    destination_.write_file(path,
                            archive_.materialize(entry.id, config_.geometry));
  } else {
    // Stub record: id + nominal size (timing already accounted).
    destination_.write_text(path, "granule-stub " + entry.id.filename() +
                                      " bytes=" +
                                      std::to_string(entry.size_bytes) + "\n");
  }
  flow::FileEvent& stored = report_.files.emplace_back();
  stored.id = entry.id;
  stored.path = path;
  stored.bytes = entry.size_bytes;
  stored.started_at = first_started_at;
  stored.finished_at = engine_.now();
  stored.mean_bps = static_cast<double>(entry.size_bytes) /
                    std::max(stored.finished_at - stored.started_at, 1e-9);
  stored.attempts = attempt;
  report_.total_bytes += entry.size_bytes;

  if (auto& metrics = obs::MetricsRegistry::instance(); metrics.enabled()) {
    const obs::Labels product_label = {
        {"product",
         modis::product_short_name(entry.id.product, entry.id.satellite)}};
    metrics.counter_add("mfw.download.bytes_total",
                        static_cast<double>(entry.size_bytes), product_label);
    metrics.counter_add("mfw.download.files_total", 1.0, product_label);
    metrics.observe("mfw.download.file_seconds",
                    stored.finished_at - stored.started_at, {},
                    kFileSecondsSpec);
  }
  if (bus_) bus_->publish(flow::Topic::kDownloadFile, stored);
}

void DownloadService::record_activity() {
  activity_.emplace_back(engine_.now(), active_workers_);
}

}  // namespace mfw::transfer
