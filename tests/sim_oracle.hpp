// O(n)-per-event reference substrates: the oracles sim_test checks
// sim::SharedResource and sim::FlowLink against, and the baseline
// bench/archive_campaign times them against.
//
// Both keep every job's (flow's) residual and walk all of them on every
// occupancy change, at any occupancy. That is the arithmetic the production
// classes run below their 64-in-flight cutover, so the two agree bit for bit
// there and to rounding above it, where the production classes switch to
// virtual time (DESIGN.md §9). The oracles share no code with the classes
// they check: only the SimEngine that drives them, the ContentionLaw
// interface and the id types.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "sim/engine.hpp"
#include "sim/link.hpp"
#include "sim/resource.hpp"

namespace mfw::sim {

/// Processor sharing by per-job residuals: every occupancy change subtracts
/// the service delivered since the last one from each job, then rescans for
/// the smallest residual.
class NaiveResource {
 public:
  /// The engine must outlive the resource.
  NaiveResource(SimEngine& engine, std::unique_ptr<ContentionLaw> law);
  ~NaiveResource();

  NaiveResource(const NaiveResource&) = delete;
  NaiveResource& operator=(const NaiveResource&) = delete;

  ResourceJobId submit(double demand, std::function<void()> on_complete);
  void cancel(ResourceJobId id);
  std::size_t active() const { return jobs_.size(); }

 private:
  struct Job {
    double remaining;
    std::function<void()> on_complete;
  };

  void advance();
  void reschedule();
  void on_event();
  double per_job_rate(std::size_t active) const;

  SimEngine& engine_;
  std::unique_ptr<ContentionLaw> law_;
  std::uint64_t next_id_ = 1;
  double last_update_ = 0.0;
  EventHandle pending_event_{};
  std::map<std::uint64_t, Job> jobs_;
};

/// Max-min fair link by full water-filling: every occupancy change re-sorts
/// all flows by cap and recomputes every rate.
class NaiveLink {
 public:
  /// The engine must outlive the link. Takes FlowLink's arguments so one
  /// scenario template drives both; the name is not kept.
  NaiveLink(SimEngine& engine, const std::string& name, double capacity_bps);
  ~NaiveLink();

  NaiveLink(const NaiveLink&) = delete;
  NaiveLink& operator=(const NaiveLink&) = delete;

  FlowId start_flow(double bytes, double rate_cap_bps,
                    std::function<void(double mean_bps)> on_complete);
  void cancel(FlowId id);
  std::size_t active_flows() const { return flows_.size(); }

 private:
  struct Flow {
    double remaining;
    double total;
    double cap;
    double started_at;
    std::function<void(double)> on_complete;
  };

  void advance();
  void recompute_rates();
  void reschedule();
  void on_event();

  SimEngine& engine_;
  double capacity_;
  std::uint64_t next_id_ = 1;
  double last_update_ = 0.0;
  EventHandle pending_event_{};
  std::map<std::uint64_t, Flow> flows_;
  std::map<std::uint64_t, double> rates_;  // current per-flow rate
};

}  // namespace mfw::sim
