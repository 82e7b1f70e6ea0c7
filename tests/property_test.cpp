// Property-based tests (parameterized sweeps) over the simulation and data
// substrates: conservation laws, monotonicity, and round-trip invariants
// that must hold for any parameter combination.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "compute/cluster.hpp"
#include "util/strings.hpp"
#include "util/yamlite.hpp"
#include "ml/cluster.hpp"
#include "pipeline/eoml_workflow.hpp"
#include "preprocess/tiler.hpp"
#include "sim/link.hpp"
#include "storage/ncl.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace mfw {
namespace {

class QuietEnvironment : public ::testing::Environment {
 public:
  void SetUp() override {
    util::Logger::instance().set_level(util::LogLevel::kError);
  }
};
[[maybe_unused]] const auto* const kQuiet =
    ::testing::AddGlobalTestEnvironment(new QuietEnvironment);

// ---------------------------------------------------------------------------
// Task farm conservation + monotonicity across worker/node shapes.

struct FarmShape {
  int nodes;
  int workers_per_node;
  int tasks;
};

class FarmSweep : public ::testing::TestWithParam<FarmShape> {};

TEST_P(FarmSweep, PayloadConservedAndWorkersBounded) {
  const auto shape = GetParam();
  sim::SimEngine engine;
  compute::ClusterExecutor exec(engine, compute::defiant_law_factory());
  for (int i = 0; i < shape.nodes; ++i) exec.add_node(shape.workers_per_node);
  util::Rng rng(static_cast<std::uint64_t>(shape.tasks * 31 + shape.nodes));
  double submitted_payload = 0.0;
  for (int i = 0; i < shape.tasks; ++i) {
    compute::SimTaskDesc desc;
    desc.cpu_seconds = rng.uniform(0.0, 0.4);
    desc.shared_demand = rng.uniform(1.0, 120.0);
    desc.payload = desc.shared_demand;
    submitted_payload += desc.payload;
    exec.submit(desc);
  }
  engine.run();
  EXPECT_EQ(exec.completed(), static_cast<std::size_t>(shape.tasks));
  EXPECT_NEAR(exec.completed_payload(), submitted_payload, 1e-6);
  EXPECT_EQ(exec.queued(), 0u);
  EXPECT_EQ(exec.running(), 0u);
  const int max_workers = shape.nodes * shape.workers_per_node;
  for (const auto& [t, n] : exec.activity()) {
    ASSERT_GE(n, 0);
    ASSERT_LE(n, max_workers);
  }
  // Every task's spans are sane.
  for (const auto& r : exec.results()) {
    ASSERT_GE(r.started_at, r.submitted_at);
    ASSERT_GT(r.finished_at, r.started_at);
    ASSERT_GE(r.node, 0);
    ASSERT_LT(r.node, shape.nodes);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FarmSweep,
    ::testing::Values(FarmShape{1, 1, 8}, FarmShape{1, 8, 40},
                      FarmShape{2, 4, 40}, FarmShape{4, 8, 100},
                      FarmShape{10, 8, 80}, FarmShape{3, 16, 64}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.nodes) + "w" +
             std::to_string(info.param.workers_per_node) + "t" +
             std::to_string(info.param.tasks);
    });

class NodeMonotonicity : public ::testing::TestWithParam<int> {};

TEST_P(NodeMonotonicity, MoreNodesHelpModuloStragglers) {
  // Task-farm makespans are not strictly monotone in node count: with a
  // fixed discrete task mix, n+1 nodes can lose to n through load imbalance
  // (the paper's own Table I shows the same wiggle at 7 -> 8 weak-scaling
  // nodes). The property that must hold: adding a node never hurts by more
  // than a straggler's worth, and doubling nodes is a clear win.
  const int nodes = GetParam();
  auto makespan_with = [](int n) {
    sim::SimEngine engine;
    compute::ClusterExecutor exec(engine, compute::defiant_law_factory());
    for (int i = 0; i < n; ++i) exec.add_node(8);
    for (int i = 0; i < 64; ++i) {
      compute::SimTaskDesc desc;
      desc.shared_demand = 30.0 + (i % 9) * 10.0;
      exec.submit(desc);
    }
    engine.run();
    return exec.results().back().finished_at;
  };
  EXPECT_LE(makespan_with(nodes + 1), makespan_with(nodes) * 1.30);
  EXPECT_LT(makespan_with(2 * nodes), makespan_with(nodes));
}

INSTANTIATE_TEST_SUITE_P(Nodes, NodeMonotonicity, ::testing::Values(1, 2, 4, 8));

// ---------------------------------------------------------------------------
// Contention laws: monotone non-decreasing aggregate rate.

class LawSweep
    : public ::testing::TestWithParam<std::shared_ptr<sim::ContentionLaw>> {};

TEST_P(LawSweep, AggregateRateMonotone) {
  const auto& law = *GetParam();
  double prev = 0.0;
  for (std::size_t n = 1; n <= 256; ++n) {
    const double rate = law.aggregate_rate(n);
    ASSERT_GE(rate, prev - 1e-12) << law.name() << " at n=" << n;
    prev = rate;
  }
}

TEST_P(LawSweep, PerTaskRateNonIncreasing) {
  const auto& law = *GetParam();
  double prev = std::numeric_limits<double>::infinity();
  for (std::size_t n = 1; n <= 256; ++n) {
    const double per_task = law.aggregate_rate(n) / static_cast<double>(n);
    ASSERT_LE(per_task, prev + 1e-12) << law.name() << " at n=" << n;
    prev = per_task;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Laws, LawSweep,
    ::testing::Values(
        std::make_shared<sim::LinearCapLaw>(10.5, 38.0),
        std::make_shared<sim::SaturatingExpLaw>(38.5, 3.1),
        std::make_shared<sim::StepCapLaw>(10.5, 4)),
    [](const auto& info) { return info.param->name() == "linear-cap" ? "linear"
                           : info.param->name() == "saturating-exp" ? "satexp"
                                                                    : "step"; });

// ---------------------------------------------------------------------------
// FlowLink: byte conservation and capacity bound for random flow sets.

class LinkSweep : public ::testing::TestWithParam<int> {};

TEST_P(LinkSweep, BytesConservedAndCapacityRespected) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  sim::SimEngine engine;
  const double capacity = rng.uniform(50e6, 500e6);
  sim::FlowLink link(engine, "wan", capacity);
  double total_bytes = 0.0;
  int completed = 0;
  const int flows = 40;
  double last_done = 0.0;
  for (int i = 0; i < flows; ++i) {
    const double bytes = rng.uniform(1e5, 5e8);
    const double cap = rng.uniform(2e6, 40e6);
    total_bytes += bytes;
    engine.schedule_at(rng.uniform(0.0, 5.0), [&, bytes, cap] {
      link.start_flow(bytes, cap, [&](double bps) {
        ++completed;
        last_done = engine.now();
        EXPECT_GT(bps, 0.0);
      });
    });
  }
  engine.run();
  EXPECT_EQ(completed, flows);
  // The link cannot move bytes faster than capacity allows.
  EXPECT_GE(last_done, total_bytes / capacity - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinkSweep, ::testing::Range(1, 6));

// ---------------------------------------------------------------------------
// Tiler: accounting identity over tile sizes and thresholds.

struct TilerCase {
  int tile_size;
  double threshold;
};

class TilerSweep : public ::testing::TestWithParam<TilerCase> {};

TEST_P(TilerSweep, AccountingIdentityHolds) {
  const auto param = GetParam();
  modis::GranuleGenerator gen(2022);
  modis::GranuleSpec spec;
  spec.geometry = modis::GranuleGeometry{128, 96, 4};
  while (!modis::is_daytime(spec.satellite, spec.slot, spec.day_of_year))
    ++spec.slot;
  const auto granule = gen.generate(spec);
  preprocess::TilerOptions options;
  options.tile_size = param.tile_size;
  options.channels = 3;
  options.min_cloud_fraction = param.threshold;
  const auto result = preprocess::make_tiles(granule.mod02, granule.mod03,
                                             granule.mod06, options);
  EXPECT_EQ(result.candidate_positions,
            (128 / param.tile_size) * (96 / param.tile_size));
  EXPECT_EQ(static_cast<int>(result.tiles.size()) + result.rejected_land +
                result.rejected_clear,
            result.candidate_positions);
  for (const auto& tile : result.tiles) {
    ASSERT_GE(tile.cloud_fraction, param.threshold - 1e-6f);
    ASSERT_LE(tile.cloud_fraction, 1.0f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, TilerSweep,
    ::testing::Values(TilerCase{16, 0.0}, TilerCase{16, 0.3},
                      TilerCase{32, 0.3}, TilerCase{32, 0.8},
                      TilerCase{8, 0.5}),
    [](const auto& info) {
      return "ts" + std::to_string(info.param.tile_size) + "th" +
             std::to_string(static_cast<int>(info.param.threshold * 100));
    });

// ---------------------------------------------------------------------------
// ncl containers: random round-trips.

class NclSweep : public ::testing::TestWithParam<int> {};

TEST_P(NclSweep, RandomContainersRoundTrip) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  storage::NclFile file;
  const auto dims = static_cast<int>(rng.uniform_int(1, 4));
  std::vector<std::string> dim_names;
  for (int d = 0; d < dims; ++d) {
    dim_names.push_back("d" + std::to_string(d));
    file.add_dim(dim_names.back(),
                 static_cast<std::uint64_t>(rng.uniform_int(1, 9)));
  }
  const auto vars = static_cast<int>(rng.uniform_int(1, 6));
  for (int v = 0; v < vars; ++v) {
    // Random subset of dims (non-empty prefix).
    std::vector<std::string> vdims(
        dim_names.begin(),
        dim_names.begin() +
            static_cast<std::ptrdiff_t>(rng.uniform_int(1, dims)));
    std::size_t count = 1;
    for (const auto& d : vdims) count *= file.dim(d);
    std::vector<float> values(count);
    for (auto& x : values) x = static_cast<float>(rng.normal());
    file.add_f32("v" + std::to_string(v), vdims, values,
                 {{"attr", std::to_string(v)}});
  }
  const auto loaded = storage::NclFile::deserialize(file.serialize());
  EXPECT_EQ(loaded.var_count(), file.var_count());
  for (const auto& name : file.var_names()) {
    const auto& a = file.var(name);
    const auto& b = loaded.var(name);
    ASSERT_EQ(a.dims, b.dims);
    ASSERT_EQ(a.data, b.data);
    ASSERT_EQ(a.attrs, b.attrs);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NclSweep, ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// Ward at any k: every label in range and every cluster non-empty.

class ClusterKSweep : public ::testing::TestWithParam<int> {};

TEST_P(ClusterKSweep, WardLabelsAlwaysCompactAndComplete) {
  const int k = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(k));
  const std::size_t n = 60;
  std::vector<float> data(n * 3);
  for (auto& v : data) v = static_cast<float>(rng.normal());
  const auto result = ml::agglomerative_ward(data, n, 3, k);
  std::vector<int> counts(static_cast<std::size_t>(k), 0);
  for (int label : result.labels) {
    ASSERT_GE(label, 0);
    ASSERT_LT(label, k);
    ++counts[static_cast<std::size_t>(label)];
  }
  for (int c : counts) EXPECT_GT(c, 0);  // every cluster non-empty
}

INSTANTIATE_TEST_SUITE_P(K, ClusterKSweep, ::testing::Values(1, 2, 5, 13, 42));

// ---------------------------------------------------------------------------
// SharedResource conservation: total service delivered equals total demand,
// for any contention law and arrival pattern.

class ResourceConservation : public ::testing::TestWithParam<int> {};

TEST_P(ResourceConservation, ServiceEqualsDemand) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 101);
  sim::SimEngine engine;
  sim::SharedResource resource(
      engine, std::make_unique<sim::SaturatingExpLaw>(38.5, 3.1));
  double total_demand = 0.0;
  int completed = 0;
  const int jobs = 120;
  std::vector<double> completion_times;
  for (int i = 0; i < jobs; ++i) {
    const double demand = rng.uniform(0.5, 60.0);
    total_demand += demand;
    engine.schedule_at(rng.uniform(0.0, 30.0), [&, demand] {
      resource.submit(demand, [&] {
        ++completed;
        completion_times.push_back(engine.now());
      });
    });
  }
  engine.run();
  EXPECT_EQ(completed, jobs);
  // Lower bound: even at the law's peak rate the work cannot finish faster
  // than total_demand / r_max after the last arrival window opens.
  const double last = *std::max_element(completion_times.begin(),
                                        completion_times.end());
  EXPECT_GE(last + 1e-6, total_demand / 38.5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResourceConservation, ::testing::Range(1, 6));

// ---------------------------------------------------------------------------
// Glob matcher agreement with a reference recursive implementation.

namespace {
bool ref_glob(std::string_view p, std::string_view t) {
  if (p.empty()) return t.empty();
  if (p[0] == '*')
    return ref_glob(p.substr(1), t) ||
           (!t.empty() && ref_glob(p, t.substr(1)));
  if (t.empty()) return false;
  if (p[0] == '?' || p[0] == t[0]) return ref_glob(p.substr(1), t.substr(1));
  return false;
}
}  // namespace

class GlobFuzz : public ::testing::TestWithParam<int> {};

TEST_P(GlobFuzz, MatchesReferenceImplementation) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7 + 3);
  const char alphabet[] = {'a', 'b', '/', '.', '*', '?'};
  for (int round = 0; round < 3000; ++round) {
    std::string pattern, text;
    const auto plen = rng.uniform_int(0, 8);
    const auto tlen = rng.uniform_int(0, 10);
    for (int i = 0; i < plen; ++i)
      pattern.push_back(alphabet[rng.uniform_int(0, 5)]);
    for (int i = 0; i < tlen; ++i)
      text.push_back(alphabet[rng.uniform_int(0, 3)]);  // no wildcards in text
    ASSERT_EQ(util::glob_match(pattern, text), ref_glob(pattern, text))
        << "pattern='" << pattern << "' text='" << text << "'";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GlobFuzz, ::testing::Range(1, 4));

// ---------------------------------------------------------------------------
// YAML round trip: parse(dump(parse(x))) == parse(x) for generated docs.

class YamlRoundTrip : public ::testing::TestWithParam<int> {};

namespace {
util::YamlNode random_node(util::Rng& rng, int depth) {
  const auto pick = rng.uniform_int(0, depth >= 2 ? 1 : 3);
  switch (pick) {
    case 0:
      return util::YamlNode::scalar("v" + std::to_string(rng.uniform_int(0, 99)));
    case 1: {
      return rng.bernoulli(0.5)
                 ? util::YamlNode::scalar(std::to_string(rng.uniform_int(-50, 50)))
                 : util::YamlNode{};
    }
    case 2: {
      // Non-empty: the block dump format cannot represent empty lists.
      auto list = util::YamlNode::list();
      const auto n = rng.uniform_int(1, 3);
      for (int i = 0; i < n; ++i) list.push_back(random_node(rng, depth + 1));
      return list;
    }
    default: {
      auto map = util::YamlNode::map();
      const auto n = rng.uniform_int(1, 3);
      for (int i = 0; i < n; ++i)
        map.set("k" + std::to_string(i), random_node(rng, depth + 1));
      return map;
    }
  }
}

void expect_same(const util::YamlNode& a, const util::YamlNode& b) {
  ASSERT_EQ(a.kind(), b.kind());
  switch (a.kind()) {
    case util::YamlNode::Kind::kNull:
      break;
    case util::YamlNode::Kind::kScalar:
      ASSERT_EQ(a.as_string(), b.as_string());
      break;
    case util::YamlNode::Kind::kList:
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) expect_same(a.at(i), b.at(i));
      break;
    case util::YamlNode::Kind::kMap:
      ASSERT_EQ(a.keys(), b.keys());
      for (const auto& key : a.keys()) expect_same(a[key], b[key]);
      break;
  }
}
}  // namespace

TEST_P(YamlRoundTrip, DumpParseIsIdentity) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 1337);
  for (int round = 0; round < 40; ++round) {
    auto map = util::YamlNode::map();
    const auto n = rng.uniform_int(1, 4);
    for (int i = 0; i < n; ++i)
      map.set("top" + std::to_string(i), random_node(rng, 0));
    const auto reparsed = util::parse_yaml(map.dump());
    expect_same(map, reparsed);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, YamlRoundTrip, ::testing::Range(1, 4));

// ---------------------------------------------------------------------------
// End-to-end pipeline invariants across resource shapes.

struct PipelineShape {
  int nodes;
  int workers;
  int files;
};

class PipelineSweep : public ::testing::TestWithParam<PipelineShape> {};

TEST_P(PipelineSweep, ConservationAcrossStages) {
  const auto shape = GetParam();
  pipeline::EomlConfig config;
  config.max_files = static_cast<std::size_t>(shape.files);
  config.daytime_only = true;
  config.preprocess_nodes = shape.nodes;
  config.workers_per_node = shape.workers;
  pipeline::EomlWorkflow workflow(config);
  const auto report = workflow.run();
  EXPECT_EQ(report.granules, static_cast<std::size_t>(shape.files));
  EXPECT_EQ(report.labeled_files, report.granules);
  EXPECT_EQ(report.shipped_files, report.granules);
  EXPECT_EQ(report.labeled_tiles, report.total_tiles);
  EXPECT_GE(report.makespan, report.download_span.duration());
  EXPECT_EQ(workflow.orion_fs().list("aicca/*.ncl").size(), report.granules);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PipelineSweep,
    ::testing::Values(PipelineShape{1, 1, 4}, PipelineShape{1, 8, 8},
                      PipelineShape{4, 8, 16}, PipelineShape{10, 8, 20}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.nodes) + "w" +
             std::to_string(info.param.workers) + "f" +
             std::to_string(info.param.files);
    });

}  // namespace
}  // namespace mfw
