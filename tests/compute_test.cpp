// Tests for the compute substrate: SlurmSim scheduling semantics, the
// ClusterExecutor task farm (throughput, stragglers, node drain), and the
// elastic BlockProvider.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <set>

#include "compute/block_provider.hpp"
#include "compute/cluster.hpp"
#include "compute/policy.hpp"
#include "compute/slurm_sim.hpp"
#include "preprocess/tasks.hpp"

namespace mfw::compute {
namespace {

TEST(SlurmSim, GrantsAfterSchedulingLatency) {
  sim::SimEngine engine;
  SlurmSim slurm(engine, SlurmSimConfig{10, 2.0});
  double granted_at = -1;
  std::size_t nodes = 0;
  slurm.submit(4, 100.0, [&](const SlurmAllocation& alloc) {
    granted_at = engine.now();
    nodes = alloc.node_ids.size();
  });
  engine.run_until(50.0);  // before the walltime expires
  EXPECT_DOUBLE_EQ(granted_at, 2.0);
  EXPECT_EQ(nodes, 4u);
  EXPECT_EQ(slurm.free_nodes(), 6);
  engine.run();  // walltime expiry returns the nodes
  EXPECT_EQ(slurm.free_nodes(), 10);
}

TEST(SlurmSim, FifoQueueingWhenFull) {
  sim::SimEngine engine;
  SlurmSim slurm(engine, SlurmSimConfig{4, 1.0});
  std::vector<int> order;
  SlurmJobId first = slurm.submit(4, 50.0, [&](const SlurmAllocation&) {
    order.push_back(1);
  });
  slurm.submit(2, 50.0, [&](const SlurmAllocation&) { order.push_back(2); });
  // Release the first job at t=10; job 2 then becomes eligible.
  engine.schedule_at(10.0, [&] { slurm.release(first); });
  engine.run_until(20.0);  // before job 2's walltime expires
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(slurm.free_nodes(), 2);
  engine.run();
}

TEST(SlurmSim, WalltimeExpiryReturnsNodes) {
  sim::SimEngine engine;
  SlurmSim slurm(engine, SlurmSimConfig{4, 0.5});
  bool expired = false;
  slurm.submit(4, 5.0, [](const SlurmAllocation&) {},
               [&] { expired = true; });
  engine.run();
  EXPECT_TRUE(expired);
  EXPECT_EQ(slurm.free_nodes(), 4);
}

TEST(SlurmSim, CancelQueuedJob) {
  sim::SimEngine engine;
  SlurmSim slurm(engine, SlurmSimConfig{2, 0.5});
  slurm.submit(2, 100.0, [](const SlurmAllocation&) {});
  bool granted = false;
  const auto queued = slurm.submit(
      1, 100.0, [&](const SlurmAllocation&) { granted = true; });
  slurm.release(queued);  // cancel while still queued
  engine.run();
  EXPECT_FALSE(granted);
}

TEST(SlurmSim, BackfillLetsSmallJobsJumpBlockedHead) {
  // Partition of 4; a running 3-node job blocks a queued 4-node head.
  // Without backfill a 1-node job waits behind the head; with backfill it
  // starts immediately on the free node.
  auto small_job_start = [](bool backfill) {
    sim::SimEngine engine;
    SlurmSim slurm(engine, SlurmSimConfig{4, 0.5, backfill});
    SlurmJobId big = slurm.submit(3, 20.0, [](const SlurmAllocation&) {});
    slurm.submit(4, 20.0, [](const SlurmAllocation&) {});  // blocked head
    double small_started = -1.0;
    slurm.submit(1, 5.0, [&](const SlurmAllocation&) {
      small_started = engine.now();
    });
    engine.schedule_at(10.0, [&] { slurm.release(big); });
    engine.run_until(60.0);
    return small_started;
  };
  // Backfilled right away onto the free node; without backfill the small
  // job sits behind the head, which itself runs t=10.5..30.5.
  EXPECT_LT(small_job_start(true), 2.0);
  EXPECT_GT(small_job_start(false), 29.0);
}

TEST(SlurmSim, BackfillPreservesHeadPriorityOnRelease) {
  sim::SimEngine engine;
  SlurmSim slurm(engine, SlurmSimConfig{4, 0.5, true});
  SlurmJobId big = slurm.submit(4, 50.0, [](const SlurmAllocation&) {});
  std::vector<int> order;
  slurm.submit(4, 20.0, [&](const SlurmAllocation&) { order.push_back(1); });
  slurm.submit(4, 20.0, [&](const SlurmAllocation&) { order.push_back(2); });
  engine.schedule_at(5.0, [&] { slurm.release(big); });
  engine.run_until(8.0);
  // Only the head got the nodes (both need the full partition): FIFO held.
  EXPECT_EQ(order, (std::vector<int>{1}));
  engine.run();
}

TEST(SlurmSim, RejectsInvalidRequests) {
  sim::SimEngine engine;
  SlurmSim slurm(engine, SlurmSimConfig{2, 0.5});
  EXPECT_THROW(slurm.submit(0, 1.0, nullptr), std::invalid_argument);
  EXPECT_THROW(slurm.submit(3, 1.0, nullptr), std::invalid_argument);
  EXPECT_THROW(slurm.submit(1, 0.0, nullptr), std::invalid_argument);
}

TEST(Cluster, RunsTasksAndRecordsResults) {
  sim::SimEngine engine;
  ClusterExecutor exec(engine, defiant_law_factory());
  exec.add_node(4);
  int completed = 0;
  for (int i = 0; i < 10; ++i) {
    SimTaskDesc desc;
    desc.cpu_seconds = 0.1;
    desc.shared_demand = 5.0;
    desc.payload = 5.0;
    exec.submit(desc, [&](const SimTaskResult& r) {
      ++completed;
      EXPECT_GE(r.finished_at, r.started_at);
      EXPECT_GE(r.started_at, r.submitted_at);
    });
  }
  engine.run();
  EXPECT_EQ(completed, 10);
  EXPECT_EQ(exec.completed(), 10u);
  EXPECT_DOUBLE_EQ(exec.completed_payload(), 50.0);
  EXPECT_EQ(exec.results().size(), 10u);
}

TEST(Cluster, SingleWorkerThroughputMatchesLawR1) {
  // One worker, sequential tile-unit tasks: aggregate rate must equal the
  // law's R(1) (~10.5 t/s for the Defiant calibration).
  sim::SimEngine engine;
  ClusterExecutor exec(engine, defiant_law_factory());
  exec.add_node(1);
  const int tasks = 50;
  const double tiles_per_task = 20.0;
  for (int i = 0; i < tasks; ++i) {
    SimTaskDesc desc;
    desc.shared_demand = tiles_per_task;
    desc.payload = tiles_per_task;
    exec.submit(desc);
  }
  engine.run();
  const double makespan = exec.results().back().finished_at;
  const double rate = tasks * tiles_per_task / makespan;
  EXPECT_NEAR(rate, 38.5 * (1.0 - std::exp(-1.0 / 3.1)), 0.2);
}

TEST(Cluster, NodeScalingIsNearLinear) {
  auto run_nodes = [](int nodes) {
    sim::SimEngine engine;
    ClusterExecutor exec(engine, defiant_law_factory());
    for (int i = 0; i < nodes; ++i) exec.add_node(8);
    for (int i = 0; i < nodes * 16; ++i) {
      SimTaskDesc desc;
      desc.shared_demand = 30.0;
      desc.payload = 30.0;
      exec.submit(desc);
    }
    engine.run();
    const double makespan = exec.results().back().finished_at;
    return exec.completed_payload() / makespan;
  };
  const double r1 = run_nodes(1);
  const double r4 = run_nodes(4);
  EXPECT_GT(r4, 3.5 * r1);
  EXPECT_LT(r4, 4.5 * r1);
}

TEST(Cluster, OnNodeWorkerScalingSaturates) {
  auto run_workers = [](int workers) {
    sim::SimEngine engine;
    ClusterExecutor exec(engine, defiant_law_factory());
    exec.add_node(workers);
    for (int i = 0; i < 64; ++i) {
      SimTaskDesc desc;
      desc.shared_demand = 20.0;
      desc.payload = 20.0;
      exec.submit(desc);
    }
    engine.run();
    return exec.completed_payload() / exec.results().back().finished_at;
  };
  const double r1 = run_workers(1);
  const double r8 = run_workers(8);
  const double r32 = run_workers(32);
  EXPECT_GT(r8, 2.5 * r1);        // strong initial speedup
  EXPECT_LT(r32, r8 * 1.25);      // saturation beyond ~8 workers
}

TEST(Cluster, LeastLoadedPlacementSpreadsTasks) {
  sim::SimEngine engine;
  ClusterExecutor exec(engine, defiant_law_factory());
  exec.add_node(4);
  exec.add_node(4);
  std::set<int> nodes_used;
  for (int i = 0; i < 8; ++i) {
    SimTaskDesc desc;
    desc.shared_demand = 10.0;
    exec.submit(desc, [&](const SimTaskResult& r) { nodes_used.insert(r.node); });
  }
  engine.run();
  EXPECT_EQ(nodes_used.size(), 2u);
}

TEST(Cluster, DrainNodeRemovesAfterCompletion) {
  sim::SimEngine engine;
  ClusterExecutor exec(engine, defiant_law_factory());
  const int node = exec.add_node(2);
  SimTaskDesc desc;
  desc.shared_demand = 5.0;
  exec.submit(desc);
  EXPECT_TRUE(exec.drain_node(node));
  EXPECT_EQ(exec.node_count(), 1u);  // still busy
  engine.run();
  EXPECT_EQ(exec.node_count(), 0u);
  EXPECT_FALSE(exec.drain_node(999));
}

TEST(Cluster, NotifyIdleFires) {
  sim::SimEngine engine;
  ClusterExecutor exec(engine, defiant_law_factory());
  exec.add_node(1);
  bool idle = false;
  SimTaskDesc desc;
  desc.shared_demand = 3.0;
  exec.submit(desc);
  exec.notify_idle([&] { idle = true; });
  engine.run();
  EXPECT_TRUE(idle);
}

TEST(Cluster, SealWithOutstandingWorkDefersAllComplete) {
  // The streaming scheduler's completion contract: "idle" is ambiguous while
  // the submission stream is open, so all-complete only fires after seal()
  // AND the last outstanding task.
  sim::SimEngine engine;
  ClusterExecutor exec(engine, defiant_law_factory());
  exec.add_node(1);
  int completed = 0;
  double all_complete_at = -1.0;
  for (int i = 0; i < 3; ++i) {
    SimTaskDesc desc;
    desc.shared_demand = 3.0;
    exec.submit(desc, [&](const SimTaskResult&) { ++completed; });
  }
  exec.notify_all_complete([&] { all_complete_at = engine.now(); });
  engine.run_until(1e-6);
  EXPECT_FALSE(exec.sealed());
  EXPECT_LT(all_complete_at, 0.0);  // stream still open
  exec.seal();
  EXPECT_TRUE(exec.sealed());
  EXPECT_LT(all_complete_at, 0.0);  // tasks still outstanding
  engine.run();
  EXPECT_EQ(completed, 3);
  EXPECT_GT(all_complete_at, 0.0);
}

TEST(Cluster, SealWhenAlreadyIdleFiresImmediately) {
  sim::SimEngine engine;
  ClusterExecutor exec(engine, defiant_law_factory());
  exec.add_node(1);
  bool fired = false;
  exec.seal();
  exec.notify_all_complete([&] { fired = true; });
  engine.run();
  EXPECT_TRUE(fired);
}

TEST(Cluster, SubmitAfterSealThrows) {
  sim::SimEngine engine;
  ClusterExecutor exec(engine, defiant_law_factory());
  exec.add_node(1);
  exec.seal();
  exec.seal();  // idempotent
  EXPECT_THROW(exec.submit(SimTaskDesc{}), std::logic_error);
}

TEST(Cluster, SubmitBeforeNodesQueuesUntilAllocation) {
  // Streaming submits granules from t=0, before the Slurm grant adds nodes;
  // tasks must queue and run once capacity appears.
  sim::SimEngine engine;
  ClusterExecutor exec(engine, defiant_law_factory());
  int completed = 0;
  SimTaskDesc desc;
  desc.shared_demand = 3.0;
  exec.submit(desc, [&](const SimTaskResult&) { ++completed; });
  engine.run();
  EXPECT_EQ(completed, 0);  // no nodes yet, nothing can run
  exec.add_node(1);
  engine.run();
  EXPECT_EQ(completed, 1);
}

TEST(Cluster, ActivityTransitionsAreConsistent) {
  sim::SimEngine engine;
  ClusterExecutor exec(engine, defiant_law_factory());
  exec.add_node(3);
  for (int i = 0; i < 9; ++i) {
    SimTaskDesc desc;
    desc.shared_demand = 4.0;
    exec.submit(desc);
  }
  engine.run();
  const auto& activity = exec.activity();
  ASSERT_FALSE(activity.empty());
  int peak = 0;
  double last_t = 0;
  for (const auto& [t, n] : activity) {
    ASSERT_GE(t, last_t);
    last_t = t;
    ASSERT_GE(n, 0);
    ASSERT_LE(n, 3);
    peak = std::max(peak, n);
  }
  EXPECT_EQ(peak, 3);
  EXPECT_EQ(activity.back().second, 0);  // idle at the end
}

TEST(BlockProvider, ScalesOutUnderLoadAndInWhenIdle) {
  sim::SimEngine engine;
  SlurmSim slurm(engine, SlurmSimConfig{36, 0.5});
  ClusterExecutor exec(engine, defiant_law_factory());
  BlockConfig config;
  config.nodes_per_block = 1;
  config.workers_per_node = 4;
  config.init_blocks = 1;
  config.min_blocks = 0;
  config.max_blocks = 4;
  config.idle_timeout = 3.0;
  config.poll_interval = 0.5;
  BlockProvider provider(engine, slurm, exec, config);
  provider.start();
  int completed = 0;
  for (int i = 0; i < 60; ++i) {
    SimTaskDesc desc;
    desc.shared_demand = 20.0;
    exec.submit(desc, [&](const SimTaskResult&) { ++completed; });
  }
  int peak_blocks = 0;
  // Observe scaling while the farm works.
  for (int t = 1; t < 200; ++t) {
    engine.run_until(t * 0.5);
    peak_blocks = std::max(peak_blocks, provider.active_blocks());
    if (completed == 60 && provider.active_blocks() == 0) break;
  }
  engine.run_until(300.0);
  EXPECT_EQ(completed, 60);
  EXPECT_GT(peak_blocks, 1);             // scaled out under queue pressure
  EXPECT_EQ(provider.active_blocks(), 0);  // scaled back in when idle
  provider.stop();
  engine.run();
}

TEST(BlockProvider, StopReleasesEverything) {
  sim::SimEngine engine;
  SlurmSim slurm(engine, SlurmSimConfig{8, 0.5});
  ClusterExecutor exec(engine, defiant_law_factory());
  BlockConfig config;
  config.init_blocks = 2;
  config.max_blocks = 2;
  BlockProvider provider(engine, slurm, exec, config);
  provider.start();
  engine.run_until(5.0);
  EXPECT_EQ(provider.active_blocks(), 2);
  provider.stop();
  engine.run();
  EXPECT_EQ(provider.active_blocks(), 0);
  EXPECT_EQ(slurm.free_nodes(), 8);
}

namespace {

// Queues `labels` as equal-cost tasks before any node exists, then adds one
// node so the installed policy decides the whole admission order. Returns
// labels in completion order.
std::vector<std::string> run_policy_order(
    std::shared_ptr<SchedulerPolicy> policy,
    const std::vector<SimTaskDesc>& tasks, int workers = 1) {
  sim::SimEngine engine;
  ClusterExecutor exec(engine, defiant_law_factory());
  exec.set_policy(std::move(policy));
  for (const auto& desc : tasks) exec.submit(desc);
  exec.add_node(workers);
  engine.run();
  std::vector<std::string> order;
  for (const auto& r : exec.results()) order.push_back(r.label);
  return order;
}

SimTaskDesc policy_task(std::string label, std::string campaign = "",
                        double deadline =
                            std::numeric_limits<double>::infinity()) {
  SimTaskDesc desc;
  desc.cpu_seconds = 1.0;
  desc.label = std::move(label);
  desc.campaign = std::move(campaign);
  desc.deadline = deadline;
  return desc;
}

}  // namespace

TEST(Policy, FifoMatchesSubmissionOrder) {
  const auto order = run_policy_order(
      std::make_shared<FifoPolicy>(),
      {policy_task("t0"), policy_task("t1"), policy_task("t2")});
  EXPECT_EQ(order, (std::vector<std::string>{"t0", "t1", "t2"}));
}

TEST(Policy, FairShareInterleavesCampaigns) {
  // Two workers, four tasks per campaign, campaign A fully queued ahead of
  // B. FIFO would start A,A; fair share must give the second slot to B.
  std::vector<SimTaskDesc> tasks;
  for (int i = 0; i < 4; ++i) tasks.push_back(policy_task("a", "A"));
  for (int i = 0; i < 4; ++i) tasks.push_back(policy_task("b", "B"));
  const auto order =
      run_policy_order(std::make_shared<FairSharePolicy>(), tasks, 2);
  ASSERT_EQ(order.size(), 8u);
  EXPECT_EQ(order[0], "a");
  EXPECT_EQ(order[1], "b");  // B admitted while an A task still runs
}

TEST(Policy, DeadlineRunsEarliestFirst) {
  const auto order = run_policy_order(
      std::make_shared<DeadlinePolicy>(),
      {policy_task("late", "", 30.0), policy_task("none"),
       policy_task("soon", "", 10.0), policy_task("mid", "", 20.0)});
  EXPECT_EQ(order,
            (std::vector<std::string>{"soon", "mid", "late", "none"}));
}

TEST(Policy, WanAwarePrefersCampaignWithIdleWan) {
  auto probe = [](const std::string& campaign) {
    return campaign == "hot" ? 1e9 : 0.0;
  };
  const auto order = run_policy_order(
      std::make_shared<WanAwarePolicy>(probe),
      {policy_task("h1", "hot"), policy_task("c1", "cold"),
       policy_task("h2", "hot")});
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "c1");
}

TEST(Policy, FairShareTracksEvictions) {
  // A failed node must release its campaign's running share, or the
  // campaign is penalised forever.
  sim::SimEngine engine;
  ClusterExecutor exec(engine, defiant_law_factory());
  auto fair = std::make_shared<FairSharePolicy>();
  exec.set_policy(fair);
  const int node = exec.add_node(1);
  exec.submit(policy_task("a", "A"));
  engine.run_until(0.5);
  EXPECT_EQ(fair->running("A"), 1);
  exec.fail_node(node);
  EXPECT_EQ(fair->running("A"), 0);
  exec.add_node(1);
  engine.run();
  EXPECT_EQ(exec.completed(), 1u);
}

TEST(Policy, MakePolicyByName) {
  EXPECT_EQ(make_policy("fifo", nullptr)->name(), "fifo");
  EXPECT_EQ(make_policy("fair_share", nullptr)->name(), "fair_share");
  EXPECT_EQ(make_policy("deadline", nullptr)->name(), "deadline");
  EXPECT_EQ(make_policy("wan_aware", nullptr)->name(), "wan_aware");
  EXPECT_THROW(make_policy("sjf", nullptr), std::invalid_argument);
}

TEST(PreprocessTasks, DescriptorsReflectWorkload) {
  modis::GranuleGenerator gen(2022);
  // Daytime granule: payload tiles > 0.
  modis::GranuleId day{modis::ProductKind::kMod02, modis::Satellite::kTerra,
                       2022, 1, 0};
  while (!modis::is_daytime(day.satellite, day.slot, day.day_of_year)) ++day.slot;
  modis::GranuleStats stats;
  const auto desc = preprocess::make_preprocess_task(gen, day, {}, &stats);
  EXPECT_TRUE(stats.daytime);
  EXPECT_GT(desc.payload, 0.0);
  EXPECT_GT(desc.shared_demand, 0.0);
  EXPECT_EQ(desc.label, day.filename());

  // Night granule: minimum demand, zero payload.
  modis::GranuleId night = day;
  while (modis::is_daytime(night.satellite, night.slot, night.day_of_year))
    ++night.slot;
  const auto night_desc = preprocess::make_preprocess_task(gen, night);
  EXPECT_DOUBLE_EQ(night_desc.payload, 0.0);
  EXPECT_GT(night_desc.shared_demand, 0.0);

  const auto inf = preprocess::make_inference_task(100, "x");
  EXPECT_DOUBLE_EQ(inf.payload, 100.0);
  EXPECT_GT(inf.shared_demand, 0.0);
}

}  // namespace
}  // namespace mfw::compute
