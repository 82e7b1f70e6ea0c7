#include "sim_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

namespace mfw::sim {

namespace {
// A job whose residual falls below this many demand units is complete.
constexpr double kJobEpsilon = 1e-9;
// A flow whose residual falls below this many bytes is complete.
constexpr double kFlowEpsilon = 1e-6;
}  // namespace

// -- NaiveResource ------------------------------------------------------------

NaiveResource::NaiveResource(SimEngine& engine,
                             std::unique_ptr<ContentionLaw> law)
    : engine_(engine), law_(std::move(law)), last_update_(engine.now()) {}

NaiveResource::~NaiveResource() { engine_.cancel(pending_event_); }

double NaiveResource::per_job_rate(std::size_t active) const {
  return active == 0
             ? 0.0
             : law_->aggregate_rate(active) / static_cast<double>(active);
}

ResourceJobId NaiveResource::submit(double demand,
                                    std::function<void()> on_complete) {
  advance();
  const std::uint64_t id = next_id_++;
  jobs_.emplace(id, Job{demand, std::move(on_complete)});
  reschedule();
  return ResourceJobId{id};
}

void NaiveResource::cancel(ResourceJobId id) {
  if (!id.valid()) return;
  advance();
  jobs_.erase(id.id);
  reschedule();
}

void NaiveResource::advance() {
  const double now = engine_.now();
  const double dt = now - last_update_;
  last_update_ = now;
  if (dt <= 0 || jobs_.empty()) return;
  const double served = per_job_rate(jobs_.size()) * dt;
  for (auto& [id, job] : jobs_) job.remaining -= served;
}

void NaiveResource::reschedule() {
  engine_.cancel(pending_event_);
  pending_event_ = EventHandle{};
  if (jobs_.empty()) return;
  double min_remaining = std::numeric_limits<double>::infinity();
  for (const auto& [id, job] : jobs_)
    min_remaining = std::min(min_remaining, job.remaining);
  const double per_job = per_job_rate(jobs_.size());
  if (per_job <= 0) return;
  const double dt = std::max(min_remaining, 0.0) / per_job;
  pending_event_ = engine_.schedule_after(dt, [this] { on_event(); });
}

void NaiveResource::on_event() {
  pending_event_ = EventHandle{};
  advance();
  const double per_job = per_job_rate(jobs_.size());
  std::vector<std::function<void()>> done;
  for (auto it = jobs_.begin(); it != jobs_.end();) {
    if (it->second.remaining <= std::max(kJobEpsilon, per_job * 1e-9)) {
      done.push_back(std::move(it->second.on_complete));
      it = jobs_.erase(it);
    } else {
      ++it;
    }
  }
  if (done.empty() && !jobs_.empty()) {
    // The event was scheduled for a completion; force the smallest residual.
    auto min_it = jobs_.begin();
    for (auto it = jobs_.begin(); it != jobs_.end(); ++it) {
      if (it->second.remaining < min_it->second.remaining) min_it = it;
    }
    done.push_back(std::move(min_it->second.on_complete));
    jobs_.erase(min_it);
  }
  reschedule();
  for (auto& fn : done) {
    if (fn) fn();
  }
}

// -- NaiveLink ----------------------------------------------------------------

NaiveLink::NaiveLink(SimEngine& engine, const std::string& /*name*/,
                     double capacity_bps)
    : engine_(engine), capacity_(capacity_bps), last_update_(engine.now()) {}

NaiveLink::~NaiveLink() { engine_.cancel(pending_event_); }

FlowId NaiveLink::start_flow(double bytes, double rate_cap_bps,
                             std::function<void(double)> on_complete) {
  advance();
  const std::uint64_t id = next_id_++;
  flows_.emplace(id, Flow{bytes, bytes, rate_cap_bps, engine_.now(),
                          std::move(on_complete)});
  recompute_rates();
  reschedule();
  return FlowId{id};
}

void NaiveLink::cancel(FlowId id) {
  if (!id.valid()) return;
  advance();
  flows_.erase(id.id);
  recompute_rates();
  reschedule();
}

void NaiveLink::advance() {
  const double now = engine_.now();
  const double dt = now - last_update_;
  last_update_ = now;
  if (dt <= 0) return;
  for (auto& [id, flow] : flows_) {
    const auto rit = rates_.find(id);
    if (rit != rates_.end()) flow.remaining -= rit->second * dt;
  }
}

void NaiveLink::recompute_rates() {
  // Water-filling: in ascending cap order, each flow takes the smaller of
  // its cap and an equal share of the capacity the earlier flows left.
  rates_.clear();
  if (flows_.empty()) return;
  double leftover = capacity_;
  std::vector<std::pair<std::uint64_t, double>> open;  // (id, cap)
  open.reserve(flows_.size());
  for (const auto& [id, flow] : flows_) open.emplace_back(id, flow.cap);
  std::sort(open.begin(), open.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  std::size_t remaining = open.size();
  for (const auto& [id, cap] : open) {
    const double share = leftover / static_cast<double>(remaining);
    const double rate = std::min(cap, share);
    rates_[id] = rate;
    leftover -= rate;
    --remaining;
  }
}

void NaiveLink::reschedule() {
  engine_.cancel(pending_event_);
  pending_event_ = EventHandle{};
  if (flows_.empty()) return;
  double soonest = std::numeric_limits<double>::infinity();
  for (const auto& [id, flow] : flows_) {
    const double rate = rates_.at(id);
    if (rate <= 0) continue;
    soonest = std::min(soonest, std::max(flow.remaining, 0.0) / rate);
  }
  if (!std::isfinite(soonest)) return;
  pending_event_ = engine_.schedule_after(soonest, [this] { on_event(); });
}

void NaiveLink::on_event() {
  pending_event_ = EventHandle{};
  advance();
  const double now = engine_.now();
  std::vector<std::pair<std::function<void(double)>, double>> done;
  for (auto it = flows_.begin(); it != flows_.end();) {
    Flow& flow = it->second;
    // Complete when the residual is negligible in bytes or would finish
    // within a nanosecond at the flow's rate.
    const auto rit = rates_.find(it->first);
    const double rate = rit == rates_.end() ? 0.0 : rit->second;
    if (flow.remaining <= std::max(kFlowEpsilon, rate * 1e-9)) {
      const double elapsed = std::max(now - flow.started_at, 1e-12);
      done.emplace_back(std::move(flow.on_complete), flow.total / elapsed);
      it = flows_.erase(it);
    } else {
      ++it;
    }
  }
  if (done.empty() && !flows_.empty()) {
    // The event was scheduled for a completion; force the smallest residual.
    auto min_it = flows_.begin();
    for (auto it = flows_.begin(); it != flows_.end(); ++it) {
      if (it->second.remaining < min_it->second.remaining) min_it = it;
    }
    Flow& flow = min_it->second;
    const double elapsed = std::max(now - flow.started_at, 1e-12);
    done.emplace_back(std::move(flow.on_complete), flow.total / elapsed);
    flows_.erase(min_it);
  }
  recompute_rates();
  reschedule();
  for (auto& [fn, mean_bps] : done) {
    if (fn) fn(mean_bps);
  }
}

}  // namespace mfw::sim
