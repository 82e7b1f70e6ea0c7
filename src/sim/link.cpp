#include "sim/link.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

namespace mfw::sim {

namespace {
constexpr double kEpsilon = 1e-6;  // bytes
// Occupancy at which the link trades the exact water-filling pass for the
// incremental structures; see SharedResource's
// kVirtualCutover for the rationale.
constexpr std::size_t kVirtualCutover = 64;
}

FlowLink::FlowLink(SimEngine& engine, std::string name, double capacity_bps)
    : engine_(engine),
      name_(std::move(name)),
      capacity_(capacity_bps) {
  if (!(capacity_bps > 0))
    throw std::invalid_argument("FlowLink capacity must be > 0");
  last_update_ = engine_.now();
}

FlowLink::~FlowLink() { engine_.cancel(pending_event_); }

FlowId FlowLink::start_flow(double bytes, double rate_cap_bps,
                            std::function<void(double)> on_complete) {
  if (!(bytes > 0)) throw std::invalid_argument("flow bytes must be > 0");
  if (!(rate_cap_bps > 0))
    throw std::invalid_argument("flow rate cap must be > 0");
  advance();
  const std::uint64_t id = next_id_++;
  if (virtual_mode_) {
    auto [it, inserted] = fast_flows_.emplace(
        id, FastFlow{bytes, rate_cap_bps, engine_.now(), false, 0.0, 0.0,
                     std::move(on_complete)});
    // New flows enter the shared group (safe: keeps the group non-empty
    // during fix-up); the partition fix caps them if cap < level.
    insert_shared(id, it->second, bytes);
    fix_partition();
  } else {
    flows_.emplace(id, Flow{bytes, bytes, rate_cap_bps, engine_.now(),
                            std::move(on_complete)});
    if (flows_.size() >= kVirtualCutover) {
      convert_to_virtual();
    } else {
      recompute_rates();
    }
  }
  reschedule();
  return FlowId{id};
}

void FlowLink::convert_to_virtual() {
  // cum_shared_ rebases to 0, so each shared finish credit starts as the
  // flow's residual, bit-for-bit; rounding only enters once fix_partition
  // caps flows, i.e. after the regimes have already diverged in scale.
  cum_shared_ = 0.0;
  capped_sum_ = 0.0;
  for (auto& [id, flow] : flows_) {
    auto [it, inserted] = fast_flows_.emplace(
        id, FastFlow{flow.total, flow.cap, flow.started_at, false, 0.0, 0.0,
                     std::move(flow.on_complete)});
    insert_shared(id, it->second, flow.remaining);
  }
  flows_.clear();
  rates_.clear();
  virtual_mode_ = true;
  fix_partition();
}

void FlowLink::cancel(FlowId id) {
  if (!id.valid()) return;
  advance();
  if (virtual_mode_) {
    const auto it = fast_flows_.find(id.id);
    if (it != fast_flows_.end()) {
      erase_flow(it);
      fix_partition();
    }
  } else {
    flows_.erase(id.id);
    recompute_rates();
  }
  reschedule();
}


double FlowLink::remaining_of(const FastFlow& flow) const {
  // Valid only right after advance() (last_update_ == now).
  return flow.capped ? flow.cap * (flow.finish_time - engine_.now())
                     : flow.finish_credit - cum_shared_;
}

void FlowLink::insert_shared(std::uint64_t id, FastFlow& flow,
                             double remaining) {
  flow.capped = false;
  flow.finish_credit = cum_shared_ + remaining;
  shared_by_finish_.insert({flow.finish_credit, id});
  shared_by_cap_.insert({flow.cap, id});
}

void FlowLink::insert_capped(std::uint64_t id, FastFlow& flow,
                             double remaining) {
  flow.capped = true;
  flow.finish_time = engine_.now() + remaining / flow.cap;
  capped_by_finish_.insert({flow.finish_time, id});
  capped_by_cap_.insert({flow.cap, id});
  capped_sum_ += flow.cap;
}

void FlowLink::detach(std::uint64_t id, FastFlow& flow) {
  if (flow.capped) {
    capped_by_finish_.erase({flow.finish_time, id});
    capped_by_cap_.erase({flow.cap, id});
    capped_sum_ -= flow.cap;
  } else {
    shared_by_finish_.erase({flow.finish_credit, id});
    shared_by_cap_.erase({flow.cap, id});
  }
}

void FlowLink::erase_flow(std::map<std::uint64_t, FastFlow>::iterator it) {
  detach(it->first, it->second);
  fast_flows_.erase(it);
}

void FlowLink::fix_partition() {
  // Max-min fairness with caps: a flow is rate-limited by its own cap exactly
  // when cap < L, where L = (C - sum of capped caps) / |shared|. Each move
  // below raises (never lowers) L, so a flow crosses the boundary at most
  // twice and the loop terminates. With the shared group empty every flow
  // runs at its own cap, which is optimal whenever sum(caps) <= C — an
  // invariant maintained by only capping flows with cap < L.
  while (!shared_by_cap_.empty()) {
    const double water = level();
    if (!capped_by_cap_.empty() && capped_by_cap_.rbegin()->first >= water) {
      const auto [cap, id] = *capped_by_cap_.rbegin();
      FastFlow& flow = fast_flows_.at(id);
      const double rem = remaining_of(flow);
      detach(id, flow);
      insert_shared(id, flow, rem);
      continue;
    }
    if (shared_by_cap_.begin()->first < water) {
      const auto [cap, id] = *shared_by_cap_.begin();
      FastFlow& flow = fast_flows_.at(id);
      const double rem = remaining_of(flow);
      detach(id, flow);
      insert_capped(id, flow, rem);
      continue;
    }
    break;
  }
}

void FlowLink::advance() {
  const double now = engine_.now();
  const double dt = now - last_update_;
  last_update_ = now;
  if (dt <= 0) return;
  if (!virtual_mode_) {
    for (auto& [id, flow] : flows_) {
      const auto rit = rates_.find(id);
      if (rit != rates_.end()) flow.remaining -= rit->second * dt;
    }
    return;
  }
  // Capped flows carry absolute finish times; only the shared group's common
  // credit accumulates.
  if (!shared_by_cap_.empty()) cum_shared_ += level() * dt;
}

void FlowLink::recompute_rates() {
  // Max-min fair allocation (water-filling): repeatedly give every
  // unsaturated flow an equal share of the leftover capacity; flows whose cap
  // is below the share are frozen at their cap. (Exact regime only; the
  // virtual regime maintains the partition incrementally in fix_partition.)
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

void FlowLink::reschedule() {
  engine_.cancel(pending_event_);
  pending_event_ = EventHandle{};
  if (!virtual_mode_) {
    if (flows_.empty()) return;
    double soonest = std::numeric_limits<double>::infinity();
    for (const auto& [id, flow] : flows_) {
      const double rate = rates_.at(id);
      if (rate <= 0) continue;
      soonest = std::min(soonest, std::max(flow.remaining, 0.0) / rate);
    }
    if (!std::isfinite(soonest)) return;
    pending_event_ = engine_.schedule_after(soonest, [this] { on_event(); });
    return;
  }
  if (fast_flows_.empty()) {
    cum_shared_ = 0.0;  // drained: rebase and fall back to the exact regime
    capped_sum_ = 0.0;
    virtual_mode_ = false;
    return;
  }
  double soonest = std::numeric_limits<double>::infinity();
  if (!shared_by_finish_.empty()) {
    const double water = level();
    if (water > 0) {
      soonest = std::max(shared_by_finish_.begin()->first - cum_shared_, 0.0) /
                water;
    }
  }
  if (!capped_by_finish_.empty()) {
    soonest = std::min(
        soonest,
        std::max(capped_by_finish_.begin()->first - engine_.now(), 0.0));
  }
  if (!std::isfinite(soonest)) return;
  pending_event_ = engine_.schedule_after(soonest, [this] { on_event(); });
}

void FlowLink::on_event() {
  pending_event_ = EventHandle{};
  advance();
  const double now = engine_.now();
  if (!virtual_mode_) {
    std::vector<std::pair<std::function<void(double)>, double>> done;
    for (auto it = flows_.begin(); it != flows_.end();) {
      Flow& flow = it->second;
      // A flow completes when its residual is negligible in bytes OR would
      // finish within a nanosecond at its current rate. The latter guards
      // against floating-point stalls: at large virtual times a sub-quantum
      // dt cannot advance the clock, so byte residuals must not keep the
      // event loop alive.
      const auto rit = rates_.find(it->first);
      const double rate = rit == rates_.end() ? 0.0 : rit->second;
      if (flow.remaining <= std::max(kEpsilon, rate * 1e-9)) {
        const double elapsed = std::max(now - flow.started_at, 1e-12);
        done.emplace_back(std::move(flow.on_complete), flow.total / elapsed);
        it = flows_.erase(it);
      } else {
        ++it;
      }
    }
    if (done.empty() && !flows_.empty()) {
      // This event was scheduled *for* a completion; if rounding left every
      // residual above the epsilons, force the smallest one to preserve
      // progress (the error is bounded by one epsilon of service).
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
    return;
  }

  // Incremental regime. Same per-flow completion rule as above (residual below
  // kEpsilon bytes or below a nanosecond of service at the flow's rate).
  std::vector<std::uint64_t> done_ids;
  if (!shared_by_finish_.empty()) {
    // All shared flows progress at the same rate, so the due set is a prefix
    // of the finish-credit order.
    const double water = level();
    const double threshold = std::max(kEpsilon, water * 1e-9);
    for (auto it = shared_by_finish_.begin();
         it != shared_by_finish_.end() && it->first - cum_shared_ <= threshold;
         ++it) {
      done_ids.push_back(it->second);
    }
  }
  if (!capped_by_finish_.empty()) {
    // Capped flows have per-flow completion windows (kEpsilon/cap differs),
    // so the due set is not exactly a finish-time prefix; scan the prefix
    // that the widest window could reach and test each flow individually.
    const double min_cap = capped_by_cap_.begin()->first;
    const double max_window = std::max(kEpsilon / min_cap, 1e-9);
    for (auto it = capped_by_finish_.begin();
         it != capped_by_finish_.end() && it->first - now <= max_window;
         ++it) {
      const FastFlow& flow = fast_flows_.at(it->second);
      const double residual = flow.cap * (it->first - now);
      if (residual <= std::max(kEpsilon, flow.cap * 1e-9))
        done_ids.push_back(it->second);
    }
  }
  if (done_ids.empty() && !fast_flows_.empty()) {
    // Forced-min fallback (see the exact branch). Rare rounding case, so the
    // O(n) scan is acceptable; the id-ordered map keeps tie-breaks (strictly
    // smaller wins, first id kept) identical to the exact scan.
    auto min_it = fast_flows_.begin();
    double min_rem = remaining_of(min_it->second);
    for (auto it = std::next(fast_flows_.begin()); it != fast_flows_.end();
         ++it) {
      const double rem = remaining_of(it->second);
      if (rem < min_rem) {
        min_rem = rem;
        min_it = it;
      }
    }
    done_ids.push_back(min_it->first);
  }
  std::sort(done_ids.begin(), done_ids.end());
  std::vector<std::pair<std::function<void(double)>, double>> done;
  done.reserve(done_ids.size());
  for (const auto id : done_ids) {
    const auto it = fast_flows_.find(id);
    FastFlow& flow = it->second;
    const double elapsed = std::max(now - flow.started_at, 1e-12);
    done.emplace_back(std::move(flow.on_complete), flow.total / elapsed);
    erase_flow(it);
  }
  fix_partition();
  reschedule();
  for (auto& [fn, mean_bps] : done) {
    if (fn) fn(mean_bps);
  }
}

}  // namespace mfw::sim
