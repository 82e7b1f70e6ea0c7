// Slurm-like batch scheduler simulation.
//
// Models what the paper's Parsl SlurmProvider interacts with on Defiant:
// a facility partition with a fixed node count, FIFO job granting with a
// configurable scheduling latency (the "Slurm scheduler allocating nodes"
// component of the preprocessing latency in Fig. 7), and walltime-bounded
// allocations that the owner may release early.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/engine.hpp"

namespace mfw::compute {

struct SlurmJobId {
  std::uint64_t id = 0;
  bool valid() const { return id != 0; }
};

struct SlurmAllocation {
  SlurmJobId job;
  std::vector<int> node_ids;
  double granted_at = 0.0;
  double walltime = 0.0;
};

struct SlurmSimConfig {
  int total_nodes = 36;           // Defiant's size
  double scheduling_latency = 1.5;  // seconds from eligible to granted
  /// When true, jobs behind a blocked queue head may start if they fit the
  /// currently free nodes (EASY-flavoured backfill without reservation
  /// bookkeeping — a deliberate simplification; the head keeps priority the
  /// moment enough nodes free up because grants are re-evaluated in queue
  /// order first).
  bool enable_backfill = false;
};

class SlurmSim {
 public:
  SlurmSim(sim::SimEngine& engine, SlurmSimConfig config);

  /// Submits a job needing `nodes` nodes for up to `walltime` seconds.
  /// `on_granted` fires (in virtual time) when the allocation starts; if the
  /// walltime expires before release(), `on_expired` fires and the nodes
  /// return to the pool.
  SlurmJobId submit(int nodes, double walltime,
                    std::function<void(const SlurmAllocation&)> on_granted,
                    std::function<void()> on_expired = nullptr);

  /// Cancels a queued job or releases a running allocation's nodes.
  void release(SlurmJobId job);

  int free_nodes() const { return free_; }
  int total_nodes() const { return config_.total_nodes; }
  std::size_t queued_jobs() const { return queue_.size(); }
  std::size_t running_jobs() const { return running_.size(); }

 private:
  struct PendingJob {
    SlurmJobId id;
    int nodes;
    double walltime;
    double submitted_at = 0.0;
    std::function<void(const SlurmAllocation&)> on_granted;
    std::function<void()> on_expired;
    obs::SpanId queued_span{};  // submit -> grant (invalid when tracing off)
  };
  struct RunningJob {
    std::vector<int> node_ids;
    sim::EventHandle expiry;
    std::function<void()> on_expired;
    obs::SpanId alloc_span{};  // grant -> release/expiry
  };

  void try_schedule();
  void grant(PendingJob job);
  void record_free_nodes_gauge();

  sim::SimEngine& engine_;
  SlurmSimConfig config_;
  int free_;
  std::vector<int> free_node_ids_;
  std::vector<PendingJob> queue_;  // FIFO
  std::map<std::uint64_t, RunningJob> running_;
  std::uint64_t next_id_ = 1;
  bool schedule_pending_ = false;
  /// Resolved on the first update made while metrics are on.
  obs::GaugeHandle free_nodes_series_;
  obs::DistributionHandle queue_wait_series_;
};

}  // namespace mfw::compute
