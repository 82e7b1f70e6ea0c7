#include "sim/resource.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

namespace mfw::sim {

namespace {
// Jobs whose remaining demand falls below this fraction of a unit are
// considered complete; guards against float drift stalling the resource.
constexpr double kEpsilon = 1e-9;
// Occupancy at which the resource trades the exact per-job arithmetic for
// the O(log n) virtual-time structures. Calibrated
// workflow runs never get near it (a node hosts <= 8 workers); archive-scale
// churn crosses it immediately.
constexpr std::size_t kVirtualCutover = 64;
}  // namespace

LinearCapLaw::LinearCapLaw(double per_task_rate, double capacity)
    : per_task_rate_(per_task_rate), capacity_(capacity) {
  if (per_task_rate <= 0 || capacity <= 0)
    throw std::invalid_argument("LinearCapLaw rates must be > 0");
}

double LinearCapLaw::aggregate_rate(std::size_t active) const {
  return std::min(per_task_rate_ * static_cast<double>(active), capacity_);
}

SaturatingExpLaw::SaturatingExpLaw(double r_max, double tau)
    : r_max_(r_max), tau_(tau) {
  if (r_max <= 0 || tau <= 0)
    throw std::invalid_argument("SaturatingExpLaw parameters must be > 0");
}

double SaturatingExpLaw::aggregate_rate(std::size_t active) const {
  if (active == 0) return 0.0;
  return r_max_ * (1.0 - std::exp(-static_cast<double>(active) / tau_));
}

StepCapLaw::StepCapLaw(double per_task_rate, std::size_t knee)
    : per_task_rate_(per_task_rate), knee_(knee) {
  if (per_task_rate <= 0 || knee == 0)
    throw std::invalid_argument("StepCapLaw parameters must be > 0");
}

double StepCapLaw::aggregate_rate(std::size_t active) const {
  return per_task_rate_ * static_cast<double>(std::min(active, knee_));
}

SharedResource::SharedResource(SimEngine& engine,
                               std::unique_ptr<ContentionLaw> law)
    : engine_(engine), law_(std::move(law)) {
  if (!law_) throw std::invalid_argument("SharedResource needs a law");
  last_update_ = engine_.now();
}

SharedResource::~SharedResource() { engine_.cancel(pending_event_); }

double SharedResource::per_job_rate(std::size_t active) const {
  return active == 0
             ? 0.0
             : law_->aggregate_rate(active) / static_cast<double>(active);
}

void SharedResource::convert_to_virtual() {
  // credit_ rebases to 0, so each finish credit is the job's residual,
  // bit-for-bit — the switch itself introduces no rounding.
  credit_ = 0.0;
  for (auto& [id, job] : jobs_) {
    by_finish_.emplace(FinishKey{job.remaining, id},
                       std::move(job.on_complete));
    finish_of_.emplace(id, job.remaining);
  }
  jobs_.clear();
  virtual_mode_ = true;
}

ResourceJobId SharedResource::submit(double demand,
                                     std::function<void()> on_complete) {
  if (!(demand > 0)) throw std::invalid_argument("job demand must be > 0");
  advance();
  const std::uint64_t id = next_id_++;
  if (virtual_mode_) {
    const double finish = credit_ + demand;
    by_finish_.emplace(FinishKey{finish, id}, std::move(on_complete));
    finish_of_.emplace(id, finish);
  } else {
    jobs_.emplace(id, Job{demand, std::move(on_complete)});
    if (jobs_.size() >= kVirtualCutover) convert_to_virtual();
  }
  reschedule();
  return ResourceJobId{id};
}

void SharedResource::cancel(ResourceJobId id) {
  if (!id.valid()) return;
  advance();
  if (virtual_mode_) {
    const auto it = finish_of_.find(id.id);
    if (it != finish_of_.end()) {
      by_finish_.erase(FinishKey{it->second, id.id});
      finish_of_.erase(it);
    }
  } else {
    jobs_.erase(id.id);
  }
  reschedule();
}

void SharedResource::advance() {
  const double now = engine_.now();
  const double dt = now - last_update_;
  last_update_ = now;
  if (dt <= 0) return;
  if (virtual_mode_) {
    if (by_finish_.empty()) return;
    credit_ += per_job_rate(by_finish_.size()) * dt;
  } else {
    if (jobs_.empty()) return;
    const double served = per_job_rate(jobs_.size()) * dt;
    for (auto& [id, job] : jobs_) job.remaining -= served;
  }
}

void SharedResource::reschedule() {
  engine_.cancel(pending_event_);
  pending_event_ = EventHandle{};
  if (!virtual_mode_) {
    if (jobs_.empty()) return;
    double min_remaining = std::numeric_limits<double>::infinity();
    for (const auto& [id, job] : jobs_)
      min_remaining = std::min(min_remaining, job.remaining);
    const double per_job = per_job_rate(jobs_.size());
    if (per_job <= 0) return;  // stalled (law returned 0); nothing to schedule
    const double dt = std::max(min_remaining, 0.0) / per_job;
    pending_event_ = engine_.schedule_after(dt, [this] { on_event(); });
    return;
  }
  if (by_finish_.empty()) {
    credit_ = 0.0;  // drained: rebase and fall back to the exact regime
    virtual_mode_ = false;
    return;
  }
  const double per_job = per_job_rate(by_finish_.size());
  if (per_job <= 0) return;
  const double min_remaining = by_finish_.begin()->first.first - credit_;
  const double dt = std::max(min_remaining, 0.0) / per_job;
  pending_event_ = engine_.schedule_after(dt, [this] { on_event(); });
}

void SharedResource::on_event() {
  pending_event_ = EventHandle{};
  advance();
  // Collect all jobs finished at this instant, then run callbacks after the
  // internal state is consistent (callbacks may submit new jobs). The
  // per-rate term guards against floating-point stalls at large virtual
  // times (see FlowLink::on_event for the rationale).
  if (!virtual_mode_) {
    const double per_job = per_job_rate(jobs_.size());
    std::vector<std::function<void()>> done;
    for (auto it = jobs_.begin(); it != jobs_.end();) {
      if (it->second.remaining <= std::max(kEpsilon, per_job * 1e-9)) {
        ++completed_jobs_;
        done.push_back(std::move(it->second.on_complete));
        it = jobs_.erase(it);
      } else {
        ++it;
      }
    }
    if (done.empty() && !jobs_.empty()) {
      // Event was scheduled for a completion; force the smallest residual.
      auto min_it = jobs_.begin();
      for (auto it = jobs_.begin(); it != jobs_.end(); ++it) {
        if (it->second.remaining < min_it->second.remaining) min_it = it;
      }
      ++completed_jobs_;
      done.push_back(std::move(min_it->second.on_complete));
      jobs_.erase(min_it);
    }
    reschedule();
    for (auto& fn : done) {
      if (fn) fn();
    }
    return;
  }
  const double per_job = per_job_rate(by_finish_.size());
  const double threshold = std::max(kEpsilon, per_job * 1e-9);
  // Pop everything due from the front of the finish-credit order, then fire
  // in ascending id order — the exact set and order the exact-regime
  // id-keyed scan produces (residual = finish credit - credit).
  std::vector<std::pair<std::uint64_t, std::function<void()>>> done;
  while (!by_finish_.empty() &&
         by_finish_.begin()->first.first - credit_ <= threshold) {
    auto it = by_finish_.begin();
    ++completed_jobs_;
    done.emplace_back(it->first.second, std::move(it->second));
    finish_of_.erase(it->first.second);
    by_finish_.erase(it);
  }
  if (done.empty() && !by_finish_.empty()) {
    // Forced-min fallback: the front of the order is the smallest residual
    // (ties resolve to the lowest id, as in the exact-regime scan).
    auto it = by_finish_.begin();
    ++completed_jobs_;
    done.emplace_back(it->first.second, std::move(it->second));
    finish_of_.erase(it->first.second);
    by_finish_.erase(it);
  }
  reschedule();
  std::sort(done.begin(), done.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [id, fn] : done) {
    if (fn) fn();
  }
}

}  // namespace mfw::sim
