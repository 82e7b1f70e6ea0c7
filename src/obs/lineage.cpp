#include "obs/lineage.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

#include "obs/rollup.hpp"
#include "util/json_writer.hpp"

namespace mfw::obs {
namespace {

/// Hop kind for a span: the chain vocabulary is derived from the span
/// category (the analyzer's conventions), with compute lanes resolving to
/// their stage so preprocess and inference read as distinct hops.
std::string hop_kind(const TraceSpan& span, const TraceTrack& track) {
  if (span.category == "download") return "download";
  if (span.category == "compute") return std::string(track_stage(track.name));
  if (span.category == "flow") return "flow";
  if (span.category == "flow.state") return "flow:" + span.name;
  if (span.category == "serve") return "serve";
  return span.category.empty() ? std::string("span") : span.category;
}

}  // namespace

const GranuleLineage* LineageReport::find(const std::string& granule) const {
  for (const auto& chain : granules)
    if (chain.granule == granule) return &chain;
  return nullptr;
}

LineageReport extract_lineage(const TraceRecorder& recorder,
                              const LineageOptions& options) {
  const auto processes = recorder.processes();
  const auto tracks = recorder.tracks();
  const auto spans = recorder.spans();
  const auto instants = recorder.instants();

  std::map<std::uint32_t, const TraceProcess*> by_pid;
  for (const auto& process : processes) by_pid[process.pid] = &process;

  // Chains keyed by (process, granule) so a recorder holding several runs
  // (e.g. barrier + streaming in one bench) keeps them apart.
  std::map<std::pair<std::uint32_t, std::string>, GranuleLineage> chains;

  auto chain_for = [&](std::uint32_t pid,
                       const std::string& granule) -> GranuleLineage& {
    GranuleLineage& chain = chains[{pid, granule}];
    if (chain.granule.empty()) {
      chain.granule = granule;
      const auto it = by_pid.find(pid);
      if (it != by_pid.end()) chain.process = it->second->name;
    }
    return chain;
  };

  for (const auto& span : spans) {
    if (span.track >= tracks.size() || !span.closed()) continue;
    const std::string granule = granule_arg(span.args);
    if (granule.empty()) continue;
    const TraceTrack& track = tracks[span.track];
    LineageHop hop;
    hop.kind = hop_kind(span, track);
    hop.name = span.name;
    hop.track = track.name;
    hop.start = span.start;
    hop.end = span.end;
    hop.queue_wait_s = arg_number(span.args, "queue_wait_s");
    if (const std::string* status = find_arg(span.args, "status"))
      hop.status = *status;
    hop.attempts = static_cast<int>(arg_number(span.args, "attempts"));
    chain_for(track.process, granule).hops.push_back(std::move(hop));
  }
  for (const auto& instant : instants) {
    if (instant.track >= tracks.size()) continue;
    const std::string granule = granule_arg(instant.args);
    if (granule.empty()) continue;
    const TraceTrack& track = tracks[instant.track];
    LineageHop hop;
    hop.kind = instant.name == "granule.ready" ? "granule.ready"
                                               : instant.name;
    hop.name = instant.name;
    hop.track = track.name;
    hop.start = instant.at;
    hop.end = instant.at;
    chain_for(track.process, granule).hops.push_back(std::move(hop));
  }

  LineageReport report;
  report.granules.reserve(chains.size());
  for (auto& [key, chain] : chains) {
    std::sort(chain.hops.begin(), chain.hops.end(),
              [](const LineageHop& a, const LineageHop& b) {
                if (a.start != b.start) return a.start < b.start;
                if (a.end != b.end) return a.end < b.end;
                return a.kind < b.kind;
              });
    chain.first_start = chain.hops.front().start;
    double prev_end = chain.hops.front().start;
    for (LineageHop& hop : chain.hops) {
      hop.gap_s = std::max(0.0, hop.start - prev_end);
      prev_end = std::max(prev_end, hop.end);
      chain.last_end = std::max(chain.last_end, hop.end);
      chain.service_s += hop.service_s();
      chain.wait_s += hop.wait_s();
      if (hop.kind == "granule.ready") chain.ready = true;
      if (hop.status == "failed") chain.failed = true;
    }
    if (options.drop_download_only) {
      bool beyond_download = false;
      for (const LineageHop& hop : chain.hops)
        if (hop.kind != "download") beyond_download = true;
      if (!beyond_download) continue;
    }
    report.granules.push_back(std::move(chain));
  }
  std::sort(report.granules.begin(), report.granules.end(),
            [](const GranuleLineage& a, const GranuleLineage& b) {
              if (a.latency_s() != b.latency_s())
                return a.latency_s() > b.latency_s();
              return a.granule < b.granule;
            });
  return report;
}

std::string LineageReport::to_json(std::size_t max_granules) const {
  util::JsonWriter w;
  w.begin_object();
  w.field("schema", "mfw.lineage/v1");
  w.field("granules_total", granules.size());
  w.key("granules").begin_array();
  std::size_t emitted = 0;
  for (const auto& chain : granules) {
    if (max_granules && emitted++ >= max_granules) break;
    w.item("\n ").begin_object();
    w.field("granule", chain.granule);
    w.field("process", chain.process);
    w.field("first_start", chain.first_start);
    w.field("last_end", chain.last_end);
    w.field("latency_s", chain.latency_s());
    w.field("service_s", chain.service_s);
    w.field("wait_s", chain.wait_s);
    w.field("ready", chain.ready);
    w.field("failed", chain.failed);
    w.key("hops", "\n  ").begin_array();
    for (const auto& hop : chain.hops) {
      w.item("\n   ").begin_object();
      w.field("kind", hop.kind);
      w.field("name", hop.name);
      w.field("track", hop.track);
      w.field("start", hop.start);
      w.field("end", hop.end);
      w.field("service_s", hop.service_s());
      w.field("wait_s", hop.wait_s());
      w.field("gap_s", hop.gap_s);
      w.field("queue_wait_s", hop.queue_wait_s);
      w.field("status", hop.status);
      w.field("attempts", hop.attempts);
      w.end_object();
    }
    w.end_array("\n  ").end_object();
  }
  w.end_array("\n").end_object();
  return w.take();
}

std::string LineageReport::render_text(std::size_t top) const {
  std::ostringstream os;
  char line[512];
  std::snprintf(line, sizeof line, "lineage: %zu granules\n",
                granules.size());
  os << line;
  if (granules.empty()) return os.str();
  os << "  slowest granules (end-to-end latency = wait + service + "
        "overlap-hidden gaps):\n";
  std::size_t shown = 0;
  for (const auto& chain : granules) {
    if (top && shown++ >= top) break;
    std::snprintf(line, sizeof line,
                  "    %-44s %4zu hops  latency %8.1fs  service %7.1fs  "
                  "wait %7.1fs%s%s\n",
                  chain.granule.c_str(), chain.hops.size(),
                  chain.latency_s(), chain.service_s, chain.wait_s,
                  chain.ready ? "" : "  [never ready]",
                  chain.failed ? "  [failed]" : "");
    os << line;
  }
  return os.str();
}

std::string LineageReport::render_granule(const std::string& granule) const {
  const GranuleLineage* chain = find(granule);
  if (!chain) return {};
  std::ostringstream os;
  char line[512];
  std::snprintf(line, sizeof line,
                "granule %s (process %s)\n  %zu hops, latency %.2f s "
                "(service %.2f s, wait %.2f s)%s%s\n",
                chain->granule.c_str(), chain->process.c_str(),
                chain->hops.size(), chain->latency_s(), chain->service_s,
                chain->wait_s, chain->ready ? "" : "  [never ready]",
                chain->failed ? "  [failed]" : "");
  os << line;
  for (const auto& hop : chain->hops) {
    std::snprintf(
        line, sizeof line,
        "    t=%9.2f  %-16s %-32s wait %7.2fs  service %7.2fs  [%s]%s%s%s\n",
        hop.start, hop.kind.c_str(), hop.name.c_str(), hop.wait_s(),
        hop.service_s(), hop.track.c_str(),
        hop.status.empty() ? "" : "  ", hop.status.c_str(),
        hop.attempts > 1 ? "  (retried)" : "");
    os << line;
  }
  return os.str();
}

}  // namespace mfw::obs
