#include "compute/slurm_sim.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/log.hpp"

namespace mfw::compute {

namespace {
constexpr const char* kComponent = "slurm";
}  // namespace

void SlurmSim::record_free_nodes_gauge() {
  if (auto& metrics = obs::MetricsRegistry::instance(); metrics.enabled()) {
    if (!free_nodes_series_)
      free_nodes_series_ = metrics.gauge_series("mfw.slurm.free_nodes");
    metrics.gauge_set(free_nodes_series_, static_cast<double>(free_));
  }
}

SlurmSim::SlurmSim(sim::SimEngine& engine, SlurmSimConfig config)
    : engine_(engine), config_(config), free_(config.total_nodes) {
  if (config.total_nodes <= 0)
    throw std::invalid_argument("SlurmSim needs >= 1 node");
  free_node_ids_.reserve(static_cast<std::size_t>(config.total_nodes));
  for (int i = config.total_nodes - 1; i >= 0; --i) free_node_ids_.push_back(i);
}

SlurmJobId SlurmSim::submit(
    int nodes, double walltime,
    std::function<void(const SlurmAllocation&)> on_granted,
    std::function<void()> on_expired) {
  if (nodes <= 0 || nodes > config_.total_nodes)
    throw std::invalid_argument("SlurmSim: invalid node count request");
  if (!(walltime > 0)) throw std::invalid_argument("SlurmSim: invalid walltime");
  const SlurmJobId id{next_id_++};
  PendingJob pending{id,       nodes, walltime, engine_.now(),
                     std::move(on_granted), std::move(on_expired), {}};
  if (auto& rec = obs::TraceRecorder::instance(); rec.enabled()) {
    pending.queued_span =
        rec.begin_span("slurm/job" + std::to_string(id.id), "slurm", "queued",
                       {{"nodes", std::to_string(nodes)}});
  }
  queue_.push_back(std::move(pending));
  try_schedule();
  return id;
}

void SlurmSim::release(SlurmJobId job) {
  if (!job.valid()) return;
  // Queued job: cancel.
  const auto qit = std::find_if(queue_.begin(), queue_.end(),
                                [&](const PendingJob& p) { return p.id.id == job.id; });
  if (qit != queue_.end()) {
    obs::TraceRecorder::instance().end_span(qit->queued_span,
                                            {{"status", "cancelled"}});
    queue_.erase(qit);
    return;
  }
  const auto rit = running_.find(job.id);
  if (rit == running_.end()) return;
  engine_.cancel(rit->second.expiry);
  obs::TraceRecorder::instance().end_span(rit->second.alloc_span,
                                          {{"status", "released"}});
  free_ += static_cast<int>(rit->second.node_ids.size());
  for (int node : rit->second.node_ids) free_node_ids_.push_back(node);
  running_.erase(rit);
  record_free_nodes_gauge();
  MFW_DEBUG(kComponent, "released job ", job.id, "; free nodes=", free_);
  try_schedule();
}

void SlurmSim::try_schedule() {
  // FIFO first: grant from the head while it fits (this matches the
  // conservative behaviour the paper's latency figures assume).
  while (!queue_.empty() && queue_.front().nodes <= free_) {
    PendingJob job = std::move(queue_.front());
    queue_.erase(queue_.begin());
    free_ -= job.nodes;
    engine_.schedule_after(config_.scheduling_latency,
                           [this, job = std::move(job)]() mutable {
                             grant(std::move(job));
                           });
  }
  if (!config_.enable_backfill) return;
  // Backfill: later jobs that fit the leftover nodes may jump the blocked
  // head.
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->nodes <= free_) {
      PendingJob job = std::move(*it);
      it = queue_.erase(it);
      free_ -= job.nodes;
      MFW_DEBUG(kComponent, "backfilling job ", job.id.id, " (", job.nodes,
                " nodes)");
      engine_.schedule_after(config_.scheduling_latency,
                             [this, job = std::move(job)]() mutable {
                               grant(std::move(job));
                             });
    } else {
      ++it;
    }
  }
}

void SlurmSim::grant(PendingJob job) {
  SlurmAllocation alloc;
  alloc.job = job.id;
  alloc.granted_at = engine_.now();
  alloc.walltime = job.walltime;
  alloc.node_ids.reserve(static_cast<std::size_t>(job.nodes));
  for (int i = 0; i < job.nodes; ++i) {
    alloc.node_ids.push_back(free_node_ids_.back());
    free_node_ids_.pop_back();
  }
  RunningJob running;
  running.node_ids = alloc.node_ids;
  running.on_expired = job.on_expired;
  if (auto& rec = obs::TraceRecorder::instance(); rec.enabled()) {
    rec.end_span(job.queued_span, {{"status", "granted"}});
    if (auto& metrics = obs::MetricsRegistry::instance(); metrics.enabled()) {
      if (!queue_wait_series_)
        queue_wait_series_ =
            metrics.distribution_series("mfw.slurm.queue_wait_seconds");
      metrics.observe(queue_wait_series_, engine_.now() - job.submitted_at,
                      obs::HistogramSpec{0.0, 30.0, 30});
    }
    running.alloc_span = rec.begin_span(
        "slurm/job" + std::to_string(job.id.id), "slurm", "allocation",
        {{"nodes", std::to_string(job.nodes)}});
    record_free_nodes_gauge();
  }
  running.expiry = engine_.schedule_after(job.walltime, [this, id = job.id.id] {
    auto it = running_.find(id);
    if (it == running_.end()) return;
    auto on_expired = std::move(it->second.on_expired);
    obs::TraceRecorder::instance().end_span(it->second.alloc_span,
                                            {{"status", "expired"}});
    free_ += static_cast<int>(it->second.node_ids.size());
    for (int node : it->second.node_ids) free_node_ids_.push_back(node);
    running_.erase(it);
    record_free_nodes_gauge();
    MFW_DEBUG(kComponent, "job ", id, " walltime expired");
    try_schedule();
    if (on_expired) on_expired();
  });
  running_.emplace(job.id.id, std::move(running));
  MFW_DEBUG(kComponent, "granted job ", job.id.id, " with ", job.nodes,
            " nodes at t=", alloc.granted_at);
  if (job.on_granted) job.on_granted(alloc);
}

}  // namespace mfw::compute
