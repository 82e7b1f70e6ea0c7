// Unit tests for the discrete-event engine, contention laws, the
// processor-sharing SharedResource, and the water-filling FlowLink — plus
// randomized equivalence checks of SharedResource and FlowLink against the
// O(n)-per-event oracles in sim_oracle.hpp (DESIGN.md §9).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "sim/clock.hpp"
#include "sim/engine.hpp"
#include "sim/link.hpp"
#include "sim/resource.hpp"
#include "sim_oracle.hpp"
#include "util/rng.hpp"

namespace mfw::sim {
namespace {

TEST(SimEngine, ExecutesInTimeOrder) {
  SimEngine engine;
  std::vector<int> order;
  engine.schedule_at(3.0, [&] { order.push_back(3); });
  engine.schedule_at(1.0, [&] { order.push_back(1); });
  engine.schedule_at(2.0, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
}

TEST(SimEngine, FifoForSimultaneousEvents) {
  SimEngine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    engine.schedule_at(1.0, [&, i] { order.push_back(i); });
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimEngine, CancelPreventsExecution) {
  SimEngine engine;
  bool fired = false;
  const auto handle = engine.schedule_at(1.0, [&] { fired = true; });
  engine.cancel(handle);
  engine.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(engine.processed(), 0u);
}

TEST(SimEngine, EventsScheduleMoreEvents) {
  SimEngine engine;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) engine.schedule_after(1.0, chain);
  };
  engine.schedule_after(1.0, chain);
  engine.run();
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(engine.now(), 5.0);
}

TEST(SimEngine, PastSchedulingClampsToNow) {
  SimEngine engine;
  engine.schedule_at(10.0, [] {});
  engine.run();
  double fired_at = -1;
  engine.schedule_at(5.0, [&] { fired_at = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(fired_at, 10.0);
}

TEST(SimEngine, RunUntilAdvancesExactly) {
  SimEngine engine;
  int fired = 0;
  engine.schedule_at(1.0, [&] { ++fired; });
  engine.schedule_at(5.0, [&] { ++fired; });
  EXPECT_EQ(engine.run_until(2.5), 1u);
  EXPECT_DOUBLE_EQ(engine.now(), 2.5);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.pending(), 1u);
  engine.run();
  EXPECT_EQ(fired, 2);
}

TEST(WallClock, MonotoneNonNegative) {
  WallClock clock;
  const double a = clock.now();
  const double b = clock.now();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
}

TEST(ContentionLaws, Values) {
  LinearCapLaw linear(10.0, 35.0);
  EXPECT_DOUBLE_EQ(linear.aggregate_rate(1), 10.0);
  EXPECT_DOUBLE_EQ(linear.aggregate_rate(3), 30.0);
  EXPECT_DOUBLE_EQ(linear.aggregate_rate(8), 35.0);

  StepCapLaw step(10.0, 4);
  EXPECT_DOUBLE_EQ(step.aggregate_rate(2), 20.0);
  EXPECT_DOUBLE_EQ(step.aggregate_rate(9), 40.0);

  SaturatingExpLaw sat(38.5, 3.1);
  EXPECT_NEAR(sat.aggregate_rate(1), 38.5 * (1 - std::exp(-1 / 3.1)), 1e-9);
  EXPECT_LT(sat.aggregate_rate(8), 38.5);
  EXPECT_GT(sat.aggregate_rate(64), 38.4);
  EXPECT_DOUBLE_EQ(sat.aggregate_rate(0), 0.0);
}

TEST(ContentionLaws, RejectBadParameters) {
  EXPECT_THROW(LinearCapLaw(0, 1), std::invalid_argument);
  EXPECT_THROW(SaturatingExpLaw(1, 0), std::invalid_argument);
  EXPECT_THROW(StepCapLaw(1, 0), std::invalid_argument);
}

TEST(SharedResource, SingleJobTakesDemandOverRate) {
  SimEngine engine;
  SharedResource res(engine, std::make_unique<LinearCapLaw>(2.0, 100.0));
  double done_at = -1;
  res.submit(10.0, [&] { done_at = engine.now(); });
  engine.run();
  EXPECT_NEAR(done_at, 5.0, 1e-9);  // 10 units at 2/s
  EXPECT_EQ(res.completed_jobs(), 1u);
}

TEST(SharedResource, ProcessorSharingSplitsRate) {
  SimEngine engine;
  // Linear law with a huge cap: 2 jobs share 2*per_task = no contention.
  SharedResource res(engine, std::make_unique<LinearCapLaw>(1.0, 1e9));
  std::vector<double> done;
  res.submit(10.0, [&] { done.push_back(engine.now()); });
  res.submit(10.0, [&] { done.push_back(engine.now()); });
  engine.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 10.0, 1e-9);
  EXPECT_NEAR(done[1], 10.0, 1e-9);
}

TEST(SharedResource, CapacitySaturationStretchesService) {
  SimEngine engine;
  // Cap 1.0: two jobs of demand 1 take 2s total (serial capacity).
  SharedResource res(engine, std::make_unique<LinearCapLaw>(1.0, 1.0));
  std::vector<double> done;
  res.submit(1.0, [&] { done.push_back(engine.now()); });
  res.submit(1.0, [&] { done.push_back(engine.now()); });
  engine.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[1], 2.0, 1e-9);
}

TEST(SharedResource, LateArrivalRecomputesCompletion) {
  SimEngine engine;
  SharedResource res(engine, std::make_unique<LinearCapLaw>(1.0, 1.0));
  std::vector<double> done;
  res.submit(2.0, [&] { done.push_back(engine.now()); });
  // At t=1 the first job has 1 unit left; a second job halves its rate.
  engine.schedule_at(1.0, [&] {
    res.submit(2.0, [&] { done.push_back(engine.now()); });
  });
  engine.run();
  ASSERT_EQ(done.size(), 2u);
  // First job: 1 + 1/(0.5) = 3s. Second: remaining 1 unit alone at 1/s -> 4s.
  EXPECT_NEAR(done[0], 3.0, 1e-9);
  EXPECT_NEAR(done[1], 4.0, 1e-9);
}

TEST(SharedResource, CancelRemovesJob) {
  SimEngine engine;
  SharedResource res(engine, std::make_unique<LinearCapLaw>(1.0, 10.0));
  bool fired = false;
  const auto id = res.submit(5.0, [&] { fired = true; });
  engine.schedule_at(1.0, [&] { res.cancel(id); });
  engine.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(res.active(), 0u);
}

TEST(SharedResource, RejectsNonPositiveDemand) {
  SimEngine engine;
  SharedResource res(engine, std::make_unique<LinearCapLaw>(1.0, 1.0));
  EXPECT_THROW(res.submit(0.0, [] {}), std::invalid_argument);
  EXPECT_THROW(res.submit(-1.0, [] {}), std::invalid_argument);
}

TEST(SharedResource, ManyJobsAllComplete) {
  SimEngine engine;
  SharedResource res(engine, std::make_unique<SaturatingExpLaw>(38.5, 3.1));
  int completed = 0;
  for (int i = 0; i < 500; ++i)
    res.submit(1.0 + (i % 7), [&] { ++completed; });
  engine.run();
  EXPECT_EQ(completed, 500);
  EXPECT_EQ(res.active(), 0u);
}

TEST(FlowLink, SingleFlowAtCapRate) {
  SimEngine engine;
  FlowLink link(engine, "wan", 100.0);
  double done_at = -1, reported_bps = 0;
  link.start_flow(50.0, 10.0, [&](double bps) {
    done_at = engine.now();
    reported_bps = bps;
  });
  engine.run();
  EXPECT_NEAR(done_at, 5.0, 1e-9);  // capped by per-flow 10 B/s
  EXPECT_NEAR(reported_bps, 10.0, 1e-6);
}

TEST(FlowLink, CapacitySharedFairly) {
  SimEngine engine;
  FlowLink link(engine, "wan", 10.0);
  std::vector<double> done;
  // Two flows each capped at 10 but sharing 10 total -> 5 each.
  link.start_flow(10.0, 10.0, [&](double) { done.push_back(engine.now()); });
  link.start_flow(10.0, 10.0, [&](double) { done.push_back(engine.now()); });
  engine.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[1], 2.0, 1e-9);
}

TEST(FlowLink, WaterFillingRespectsSmallCaps) {
  SimEngine engine;
  FlowLink link(engine, "wan", 10.0);
  std::vector<std::pair<double, double>> done;  // (time, bps)
  // Flow A capped at 2 B/s; flow B can use the leftover 8 B/s.
  link.start_flow(2.0, 2.0, [&](double bps) { done.emplace_back(engine.now(), bps); });
  link.start_flow(8.0, 100.0, [&](double bps) { done.emplace_back(engine.now(), bps); });
  engine.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0].first, 1.0, 1e-9);
  EXPECT_NEAR(done[0].second, 2.0, 1e-6);
  EXPECT_NEAR(done[1].first, 1.0, 1e-9);
  EXPECT_NEAR(done[1].second, 8.0, 1e-6);
}

TEST(FlowLink, DepartureSpeedsUpRemaining) {
  SimEngine engine;
  FlowLink link(engine, "wan", 10.0);
  std::vector<double> done;
  link.start_flow(5.0, 100.0, [&](double) { done.push_back(engine.now()); });
  link.start_flow(10.0, 100.0, [&](double) { done.push_back(engine.now()); });
  engine.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 1.0, 1e-9);   // 5 B at 5 B/s
  EXPECT_NEAR(done[1], 1.5, 1e-9);   // remaining 5 B at full 10 B/s
}

TEST(FlowLink, CancelledFlowNeverCompletes) {
  SimEngine engine;
  FlowLink link(engine, "wan", 10.0);
  bool fired = false;
  const auto id = link.start_flow(100.0, 10.0, [&](double) { fired = true; });
  engine.schedule_at(1.0, [&] { link.cancel(id); });
  engine.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(link.active_flows(), 0u);
}

TEST(FlowLink, NoFloatingPointStallAtLargeTimes) {
  SimEngine engine;
  // Advance virtual time far out, then run many small flows; the event loop
  // must terminate (regression test for the sub-quantum-dt stall).
  engine.schedule_at(1e7, [] {});
  engine.run();
  FlowLink link(engine, "wan", 1.2e9);
  int completed = 0;
  for (int i = 0; i < 200; ++i)
    link.start_flow(150.0 + i, 3e8, [&](double) { ++completed; });
  const std::size_t events = engine.run();
  EXPECT_EQ(completed, 200);
  EXPECT_LT(events, 100000u);
}

TEST(FlowLink, ManyStaggeredFlowsAllComplete) {
  SimEngine engine;
  FlowLink link(engine, "wan", 120.0 * 1024 * 1024);
  int completed = 0;
  for (int i = 0; i < 100; ++i) {
    engine.schedule_at(i * 0.1, [&, i] {
      link.start_flow(1e6 * (1 + i % 5), 8e6, [&](double) { ++completed; });
    });
  }
  engine.run();
  EXPECT_EQ(completed, 100);
}

// -- slab engine internals ---------------------------------------------------

TEST(SimEngine, FifoPreservedAcrossCompaction) {
  // Cancel enough events to trigger heap compaction while a batch of
  // simultaneous events is still pending; compaction must not perturb the
  // (time, seq) FIFO order of the survivors.
  SimEngine engine;
  std::vector<EventHandle> doomed;
  for (int i = 0; i < 150; ++i)
    doomed.push_back(engine.schedule_at(1.0, [] { FAIL(); }));
  std::vector<int> order;
  for (int i = 0; i < 100; ++i)
    engine.schedule_at(2.0, [&, i] { order.push_back(i); });
  for (const auto& h : doomed) engine.cancel(h);
  EXPECT_GT(engine.compactions(), 0u);
  engine.run();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(engine.dead_entries(), 0u);
}

TEST(SimEngine, DoubleCancelAndStaleHandleAreNoOps) {
  SimEngine engine;
  bool a_fired = false, b_fired = false;
  const auto ha = engine.schedule_at(1.0, [&] { a_fired = true; });
  engine.cancel(ha);
  engine.cancel(ha);  // double cancel: no-op
  // The cancelled slot is recycled; the stale handle carries the old
  // generation and must not be able to cancel the slot's new tenant.
  const auto hb = engine.schedule_at(1.0, [&] { b_fired = true; });
  EXPECT_EQ(ha.id, hb.id);   // slot actually reused (free-list LIFO)
  EXPECT_NE(ha.gen, hb.gen); // ...under a new generation
  engine.cancel(ha);
  engine.run();
  EXPECT_FALSE(a_fired);
  EXPECT_TRUE(b_fired);
}

TEST(SimEngine, StaleHandleAfterFireIsNoOp) {
  SimEngine engine;
  int fired = 0;
  const auto ha = engine.schedule_at(0.5, [&] { ++fired; });
  engine.run_until(1.0);
  EXPECT_EQ(fired, 1);
  const auto hb = engine.schedule_at(2.0, [&] { ++fired; });
  engine.cancel(ha);  // fired long ago; must not touch hb's reused slot
  engine.run();
  EXPECT_EQ(fired, 2);
  (void)hb;
}

TEST(SimEngine, DeadEntriesStayBoundedUnderCancelStorm) {
  // Cancel-heavy stress: two of every three events are cancelled before they
  // fire. Lazy cancellation plus compaction must keep the dead fraction of
  // the heap bounded (dead <= live once the heap is past the minimum
  // compaction size) instead of letting cancelled entries accumulate.
  SimEngine engine;
  util::Rng rng(17);
  for (int round = 0; round < 4; ++round) {
    std::vector<EventHandle> handles;
    for (int i = 0; i < 5000; ++i)
      handles.push_back(engine.schedule_at(rng.uniform(0.0, 1e6), [] {}));
    for (std::size_t i = 0; i < handles.size(); ++i)
      if (i % 3 != 0) engine.cancel(handles[i]);
    EXPECT_LE(engine.dead_entries(), engine.pending() + 64);
  }
  EXPECT_GT(engine.compactions(), 0u);
  engine.run();
  EXPECT_EQ(engine.dead_entries(), 0u);
  EXPECT_EQ(engine.pending(), 0u);
}

// -- equivalence with the O(n) oracles -------------------------------------
// SharedResource and FlowLink must be behaviourally indistinguishable from
// the oracles: identical completion order, timestamps equal to ~1e-9
// relative. Occupancy is pushed past the virtual cutover (64) so the
// virtual-time regime — not just the exact small-occupancy regime — is
// exercised.

struct Completion {
  int index;
  double time;
  double bps;  // FlowLink only
};

struct Scenario {
  std::vector<Completion> done;
  std::size_t peak_active = 0;
};

template <typename Resource>
Scenario run_resource_scenario() {
  SimEngine engine;
  Resource res(engine, std::make_unique<SaturatingExpLaw>(38.5, 3.1));
  util::Rng rng(23);
  constexpr int kJobs = 200;
  Scenario out;
  std::vector<ResourceJobId> ids(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    const double demand = rng.uniform(0.5, 20.0);
    engine.schedule_at(i * 0.05, [&, i, demand] {
      ids[static_cast<std::size_t>(i)] = res.submit(
          demand, [&, i] { out.done.push_back({i, engine.now(), 0.0}); });
      out.peak_active = std::max(out.peak_active, res.active());
    });
    if (i % 9 == 0) {
      // Some cancels land after the job already completed — both substrates
      // must treat those as no-ops.
      engine.schedule_at(i * 0.05 + 0.7, [&, i] {
        res.cancel(ids[static_cast<std::size_t>(i)]);
      });
    }
  }
  engine.run();
  EXPECT_EQ(res.active(), 0u);
  return out;
}

template <typename Link>
Scenario run_link_scenario() {
  SimEngine engine;
  Link link(engine, "wan", 23.5 * 1024 * 1024);
  util::Rng rng(29);
  constexpr int kFlows = 200;
  Scenario out;
  std::vector<FlowId> ids(kFlows);
  for (int i = 0; i < kFlows; ++i) {
    const double bytes = rng.uniform(0.2, 8.0) * 1024 * 1024;
    const double cap = rng.uniform(0.3, 6.0) * 1024 * 1024;
    engine.schedule_at(i * 0.01, [&, i, bytes, cap] {
      ids[static_cast<std::size_t>(i)] =
          link.start_flow(bytes, cap, [&, i](double bps) {
            out.done.push_back({i, engine.now(), bps});
          });
      out.peak_active = std::max(out.peak_active, link.active_flows());
    });
    if (i % 11 == 0) {
      engine.schedule_at(i * 0.01 + 0.05, [&, i] {
        link.cancel(ids[static_cast<std::size_t>(i)]);
      });
    }
  }
  engine.run();
  EXPECT_EQ(link.active_flows(), 0u);
  return out;
}

void expect_equivalent(const std::vector<Completion>& fast,
                       const std::vector<Completion>& naive,
                       double bps_rel_tol) {
  ASSERT_EQ(fast.size(), naive.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i].index, naive[i].index) << "completion order at " << i;
    const double time_tol = 1e-9 * std::max(1.0, std::abs(naive[i].time));
    EXPECT_NEAR(fast[i].time, naive[i].time, time_tol) << "at " << i;
    if (bps_rel_tol > 0) {
      EXPECT_NEAR(fast[i].bps, naive[i].bps,
                  bps_rel_tol * std::max(1.0, std::abs(naive[i].bps)))
          << "at " << i;
    }
  }
}

TEST(SubstrateEquivalence, SharedResourceMatchesNaiveOracle) {
  const auto fast = run_resource_scenario<SharedResource>();
  const auto naive = run_resource_scenario<NaiveResource>();
  ASSERT_GT(fast.done.size(), 150u);  // cancels remove a few of the 200
  ASSERT_GT(fast.peak_active, 64u);   // the virtual regime ran
  expect_equivalent(fast.done, naive.done, 0.0);
}

TEST(SubstrateEquivalence, FlowLinkMatchesNaiveOracle) {
  const auto fast = run_link_scenario<FlowLink>();
  const auto naive = run_link_scenario<NaiveLink>();
  ASSERT_GT(fast.done.size(), 150u);
  ASSERT_GT(fast.peak_active, 64u);
  expect_equivalent(fast.done, naive.done, 1e-6);
}

TEST(SimEngine, ProcessesOnlyUncancelledEvents) {
  SimEngine engine;
  util::Rng rng(31);
  std::vector<EventHandle> handles;
  for (int i = 0; i < 1000; ++i)
    handles.push_back(engine.schedule_at(rng.uniform(0.0, 100.0), [] {}));
  for (std::size_t i = 0; i < handles.size(); i += 2) engine.cancel(handles[i]);
  EXPECT_EQ(engine.run(), 500u);
  EXPECT_EQ(engine.processed(), 500u);
}

}  // namespace
}  // namespace mfw::sim
