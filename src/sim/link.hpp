// Bandwidth-shared network link with per-flow rate caps (water-filling).
//
// Models both the WAN between NASA LAADS and the OLCF border (per-connection
// HTTPS throughput caps + shared trunk capacity, Fig. 3) and the
// Defiant -> Frontier/Orion path used by the shipment stage. A flow's rate is
// min(its own cap, its max-min fair share of the link capacity).
//
// The link runs in one of two regimes, picked by occupancy:
//   exact       — rates are recomputed by a full cap-sorted water-filling
//                 pass and every flow's residual is walked on each occupancy
//                 change: O(n log n) per flow event, used while the flow
//                 count stays below a small cutover.
//   incremental — (DESIGN.md §9) flows are partitioned into a *capped* group
//                 (rate = own cap, absolute finish times) and a *shared*
//                 group progressing at the common water level
//                 L = (C - sum of caps in capped) / |shared|. The shared
//                 group uses the virtual-time trick (cumulative credit,
//                 finish credits in an ordered set); occupancy changes move
//                 only the flows that cross the L boundary, O(log n)
//                 amortized per change.
//
// As in SharedResource, the link converts to the incremental structures when
// the flow count reaches the cutover and reverts when it drains, so every
// paper run keeps the exact arithmetic bit for bit. tests/sim_oracle.hpp
// holds the O(n)-per-event reference that sim_test checks the incremental
// regime against.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "sim/engine.hpp"

namespace mfw::sim {

struct FlowId {
  std::uint64_t id = 0;
  bool valid() const { return id != 0; }
};

class FlowLink {
 public:
  /// `capacity_bps`: total link capacity in bytes/second (> 0).
  FlowLink(SimEngine& engine, std::string name, double capacity_bps);
  ~FlowLink();

  FlowLink(const FlowLink&) = delete;
  FlowLink& operator=(const FlowLink&) = delete;

  /// Starts a flow of `bytes` with a per-flow rate ceiling `rate_cap_bps`
  /// (e.g. a single HTTPS connection's achievable throughput). The callback
  /// receives the flow's effective mean throughput (bytes/sec).
  FlowId start_flow(double bytes, double rate_cap_bps,
                    std::function<void(double mean_bps)> on_complete);

  /// Aborts a flow; its callback never fires.
  void cancel(FlowId id);

  std::size_t active_flows() const {
    return flows_.size() + fast_flows_.size();
  }
  double capacity() const { return capacity_; }
  const std::string& name() const { return name_; }

  /// Current max-min fair rate of one flow (0 when idle); for telemetry.
  double rate_of(FlowId id) const;

 private:
  struct Flow {
    double remaining;
    double total;
    double cap;
    double started_at;
    std::function<void(double)> on_complete;
  };

  struct FastFlow {
    double total;
    double cap;
    double started_at;
    bool capped;
    double finish_time;    // capped: absolute completion time at rate = cap
    double finish_credit;  // shared: completion credit on cum_shared_
    std::function<void(double)> on_complete;
  };
  /// (sort key, id): id breaks ties deterministically.
  using OrderKey = std::pair<double, std::uint64_t>;

  void advance();
  void recompute_rates();
  void reschedule();
  void on_event();

  // -- fast-path helpers -----------------------------------------------------
  /// Water level for the shared group; call only when it is non-empty.
  double level() const {
    return (capacity_ - capped_sum_) /
           static_cast<double>(shared_by_cap_.size());
  }
  double remaining_of(const FastFlow& flow) const;
  void insert_shared(std::uint64_t id, FastFlow& flow, double remaining);
  void insert_capped(std::uint64_t id, FastFlow& flow, double remaining);
  void detach(std::uint64_t id, FastFlow& flow);
  /// Moves flows across the capped/shared boundary until the partition is
  /// consistent with the current water level (each flow moves O(1) times, so
  /// the work is amortized O(log n) per occupancy change).
  void fix_partition();
  void erase_flow(std::map<std::uint64_t, FastFlow>::iterator it);
  /// Moves every in-flight flow from the exact per-flow representation into
  /// the incremental structures (credit rebased to 0, residuals exact).
  void convert_to_virtual();

  SimEngine& engine_;
  std::string name_;
  double capacity_;
  /// True while the incremental structures are authoritative; false in the
  /// small-occupancy exact regime.
  bool virtual_mode_ = false;
  std::uint64_t next_id_ = 1;
  double last_update_ = 0.0;
  EventHandle pending_event_{};

  // -- exact (per-flow residual) state ---------------------------------------
  std::map<std::uint64_t, Flow> flows_;
  std::map<std::uint64_t, double> rates_;  // current per-flow rate

  // -- fast (incremental water-filling) state --------------------------------
  std::map<std::uint64_t, FastFlow> fast_flows_;
  /// Cumulative service delivered to one shared flow since the virtual
  /// regime was entered (the drain rebases it to 0, bounding error).
  double cum_shared_ = 0.0;
  double capped_sum_ = 0.0;  // sum of caps over the capped group
  std::set<OrderKey> shared_by_finish_;  // (finish credit, id)
  std::set<OrderKey> shared_by_cap_;     // (cap, id)
  std::set<OrderKey> capped_by_finish_;  // (finish time, id)
  std::set<OrderKey> capped_by_cap_;     // (cap, id)
};

}  // namespace mfw::sim
