// Saturating processor-sharing resource: the on-node contention model.
//
// The paper's single-node strong-scaling column (Table I) shows aggregate
// preprocessing throughput saturating as workers are added to one Defiant
// node (10.5 t/s at 1 worker -> ~37-39 t/s from 8 workers on). We model a
// node's shared substrate (filesystem + memory bandwidth) as a resource that
// serves all active tasks at an aggregate rate R(n) given by a pluggable
// ContentionLaw, divided evenly among the n active tasks (processor
// sharing).
//
// The resource runs in one of two regimes, picked by occupancy:
//   exact   — remaining demand stored per job; every occupancy change walks
//             all n jobs (advance) and rescans for the minimum (reschedule).
//             Used while occupancy stays below a small cutover, so the work
//             per event stays bounded.
//   virtual — virtual-service-time transformation (DESIGN.md §9): track the
//             cumulative per-job service credit S(t); a job with demand d
//             submitted at credit S finishes when the credit reaches S + d.
//             An ordered set on finish credit gives O(log n) submit/cancel
//             and O(1) advance; completions pop from the front.
//
// The switch happens when occupancy reaches the cutover and reverts when the
// resource drains. The credit rebases to 0 at the switch, so conversion is
// exact. The exact regime keeps every calibrated workflow run reproducible
// bit for bit (reassociating the credit sums does not), while the 1e5-job
// regime gets the O(log n) structures. tests/sim_oracle.hpp holds the
// O(n)-per-event reference that sim_test checks the virtual regime against.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "sim/engine.hpp"

namespace mfw::sim {

/// Maps the number of concurrently active tasks to the aggregate service
/// rate (demand units per second) the resource delivers.
class ContentionLaw {
 public:
  virtual ~ContentionLaw() = default;
  virtual double aggregate_rate(std::size_t active) const = 0;
  virtual std::string name() const = 0;
};

/// R(n) = min(per_task_rate * n, capacity): classic linear ramp with a hard
/// ceiling (idealised bandwidth sharing).
class LinearCapLaw final : public ContentionLaw {
 public:
  LinearCapLaw(double per_task_rate, double capacity);
  double aggregate_rate(std::size_t active) const override;
  std::string name() const override { return "linear-cap"; }

 private:
  double per_task_rate_;
  double capacity_;
};

/// R(n) = r_max * (1 - exp(-n / tau)): smooth saturation. Calibrated to the
/// paper's Defiant node (r_max ~ 38.5 tiles/s-equivalent, tau ~ 3.1; see
/// DESIGN.md "Calibration note").
class SaturatingExpLaw final : public ContentionLaw {
 public:
  SaturatingExpLaw(double r_max, double tau);
  double aggregate_rate(std::size_t active) const override;
  std::string name() const override { return "saturating-exp"; }

 private:
  double r_max_;
  double tau_;
};

/// R(n) = per_task_rate * min(n, knee): linear then flat at the knee.
class StepCapLaw final : public ContentionLaw {
 public:
  StepCapLaw(double per_task_rate, std::size_t knee);
  double aggregate_rate(std::size_t active) const override;
  std::string name() const override { return "step-cap"; }

 private:
  double per_task_rate_;
  std::size_t knee_;
};

/// Identifies a job admitted to a SharedResource.
struct ResourceJobId {
  std::uint64_t id = 0;
  bool valid() const { return id != 0; }
};

/// Processor-sharing resource on a SimEngine. Jobs carry a service *demand*
/// (abstract units, e.g. "tile-equivalents" or bytes); the resource completes
/// them according to the contention law and invokes their callbacks.
class SharedResource {
 public:
  /// The engine must outlive the resource. The law must be non-null.
  SharedResource(SimEngine& engine, std::unique_ptr<ContentionLaw> law);
  ~SharedResource();

  SharedResource(const SharedResource&) = delete;
  SharedResource& operator=(const SharedResource&) = delete;

  /// Admits a job with `demand` service units (> 0); `on_complete` fires at
  /// the virtual time the job finishes.
  ResourceJobId submit(double demand, std::function<void()> on_complete);

  /// Cancels an in-flight job (its callback never fires). No-op when done.
  void cancel(ResourceJobId id);

  std::size_t active() const { return jobs_.size() + by_finish_.size(); }
  const ContentionLaw& law() const { return *law_; }

  /// Number of jobs completed so far (for telemetry).
  std::size_t completed_jobs() const { return completed_jobs_; }

 private:
  struct Job {
    double remaining;
    std::function<void()> on_complete;
  };
  /// Ordered on (finish credit, id): the front is always the next completion,
  /// and equal-credit ties resolve to the lowest id (matching the exact
  /// regime's id-ordered scan).
  using FinishKey = std::pair<double, std::uint64_t>;

  /// Applies service delivered since last_update_ (exact regime: walks all
  /// jobs; virtual regime: bumps the credit accumulator).
  void advance();
  /// Schedules (or re-schedules) the completion event of the soonest job.
  void reschedule();
  void on_event();
  double per_job_rate(std::size_t active) const;
  /// Moves every resident job from the exact per-job representation into the
  /// virtual-time structures (credit rebased to 0, so residuals are exact).
  void convert_to_virtual();

  SimEngine& engine_;
  std::unique_ptr<ContentionLaw> law_;
  /// True while the virtual-time structures are authoritative; false in the
  /// small-occupancy exact regime.
  bool virtual_mode_ = false;
  std::uint64_t next_id_ = 1;
  double last_update_ = 0.0;
  std::size_t completed_jobs_ = 0;
  EventHandle pending_event_{};

  // -- exact (per-job residual) state ----------------------------------------
  std::map<std::uint64_t, Job> jobs_;

  // -- virtual-service-time state --------------------------------------------
  /// Cumulative per-job service since the virtual regime was entered (the
  /// drain rebases it to 0, bounding cancellation error at large times).
  double credit_ = 0.0;
  std::map<FinishKey, std::function<void()>> by_finish_;
  std::unordered_map<std::uint64_t, double> finish_of_;  // id -> finish credit
};

}  // namespace mfw::sim
