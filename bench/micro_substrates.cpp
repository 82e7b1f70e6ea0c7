// Google-benchmark micro benchmarks for the substrates that sit on the
// workflow's critical path: event engine throughput, processor-sharing
// resource churn, container (de)serialization, noise fBm, granule statistics
// and pixel synthesis, tiler, RICC encode, and Ward clustering.
#include <benchmark/benchmark.h>

#include "compute/cluster.hpp"
#include "ml/ricc.hpp"
#include "modis/catalog.hpp"
#include "modis/noise.hpp"
#include "preprocess/tiler.hpp"
#include "sim/engine.hpp"
#include "sim/link.hpp"
#include "sim/resource.hpp"
#include "storage/ncl.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace {

using namespace mfw;

void BM_EngineScheduleRun(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::SimEngine engine;
    util::Rng rng(1);
    for (std::size_t i = 0; i < events; ++i)
      engine.schedule_at(rng.uniform(0, 1000), [] {});
    benchmark::DoNotOptimize(engine.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events) *
                          state.iterations());
}
BENCHMARK(BM_EngineScheduleRun)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_SharedResourceChurn(benchmark::State& state) {
  const auto jobs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::SimEngine engine;
    sim::SharedResource res(engine,
                            std::make_unique<sim::SaturatingExpLaw>(38.5, 3.1));
    for (std::size_t i = 0; i < jobs; ++i)
      res.submit(1.0 + static_cast<double>(i % 13), [] {});
    engine.run();
    benchmark::DoNotOptimize(res.completed_jobs());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(jobs) * state.iterations());
}
BENCHMARK(BM_SharedResourceChurn)->Arg(64)->Arg(512)->Arg(100000);

void BM_FlowLinkChurn(benchmark::State& state) {
  const auto flows = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::SimEngine engine;
    sim::FlowLink link(engine, "wan", 23.5 * 1024 * 1024);
    util::Rng rng(7);
    for (std::size_t i = 0; i < flows; ++i) {
      // Mixed regime: some flows sit below the fair share (capped), the rest
      // split the trunk — both sides of the water-filling partition churn.
      const double cap = rng.uniform(0.5, 12.0) * 1024 * 1024;
      link.start_flow(rng.uniform(1.0, 64.0) * 1024 * 1024, cap, [](double) {});
    }
    engine.run();
    benchmark::DoNotOptimize(link.active_flows());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(flows) *
                          state.iterations());
}
BENCHMARK(BM_FlowLinkChurn)->Arg(64)->Arg(512)->Arg(100000);

void BM_TaskFarm(benchmark::State& state) {
  const int tasks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::SimEngine engine;
    compute::ClusterExecutor exec(engine, compute::defiant_law_factory());
    for (int i = 0; i < 10; ++i) exec.add_node(8);
    for (int i = 0; i < tasks; ++i) {
      compute::SimTaskDesc desc;
      desc.cpu_seconds = 0.3;
      desc.shared_demand = 50.0;
      exec.submit(desc);
    }
    engine.run();
    benchmark::DoNotOptimize(exec.completed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(tasks) * state.iterations());
}
BENCHMARK(BM_TaskFarm)->Arg(80)->Arg(800);

void BM_Crc32(benchmark::State& state) {
  std::vector<std::byte> data(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::byte>(i * 31);
  for (auto _ : state) benchmark::DoNotOptimize(util::crc32(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(data.size()) *
                          state.iterations());
}
// 63 B stays on the table loop, 64 B is the folding kernel's first block,
// 24,576 B is one 32x32x6 f32 tile.
BENCHMARK(BM_Crc32)->Arg(63)->Arg(64)->Arg(24576)->Arg(1 << 16)->Arg(1 << 20);

void BM_NclSerializeRoundTrip(benchmark::State& state) {
  const auto tiles = static_cast<std::size_t>(state.range(0));
  storage::NclFile file;
  file.add_dim("tile", tiles);
  file.add_dim("ch", 6);
  file.add_dim("y", 32);
  file.add_dim("x", 32);
  std::vector<float> data(tiles * 6 * 32 * 32, 0.5f);
  file.add_f32("tiles", {"tile", "ch", "y", "x"}, data);
  for (auto _ : state) {
    const auto bytes = file.serialize();
    benchmark::DoNotOptimize(storage::NclFile::deserialize(bytes));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(data.size() * sizeof(float)) *
      state.iterations());
}
BENCHMARK(BM_NclSerializeRoundTrip)->Arg(8)->Arg(64);

// A memoised 5-octave walk in is_land's frame (lon / 42, lat / 30), stepping
// ~0.2 degrees along track as the estimator's samples do, so that most
// octaves stay in the cell their memo holds.
void BM_NoiseFbm(benchmark::State& state) {
  const modis::NoiseField field(2022);
  const int samples = static_cast<int>(state.range(0));
  for (auto _ : state) {
    modis::NoiseField::Memo memo;
    double sum = 0.0;
    for (int i = 0; i < samples; ++i)
      sum += field.fbm(0.5 + 1e-3 * i, -1.5 + 0.2 / 30.0 * i, 5, memo);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(samples) *
                          state.iterations());
}
BENCHMARK(BM_NoiseFbm)->Arg(256);

void BM_GranuleStats(benchmark::State& state) {
  modis::GranuleGenerator gen(2022);
  int slot = 0;
  for (auto _ : state) {
    modis::GranuleSpec spec;
    spec.slot = slot = (slot + 7) % modis::kSlotsPerDay;
    spec.geometry = modis::kFullGeometry;
    benchmark::DoNotOptimize(modis::estimate_granule_stats(gen, spec));
  }
}
BENCHMARK(BM_GranuleStats);

// Pixel synthesis of one daytime granule's MOD02, MOD03 and MOD06 at the
// materialized benchmark's reduced geometry.
void BM_GranuleMaterialize(benchmark::State& state) {
  modis::GranuleGenerator gen(2022);
  modis::GranuleSpec spec;
  spec.geometry = modis::GranuleGeometry{512, 340, 6};
  while (!modis::is_daytime(spec.satellite, spec.slot, spec.day_of_year))
    ++spec.slot;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.mod02(spec));
    benchmark::DoNotOptimize(gen.mod03(spec));
    benchmark::DoNotOptimize(gen.mod06(spec));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(spec.geometry.pixels()) *
                          state.iterations());
}
BENCHMARK(BM_GranuleMaterialize)->Unit(benchmark::kMillisecond);

void BM_Tiler(benchmark::State& state) {
  modis::GranuleGenerator gen(2022);
  modis::GranuleSpec spec;
  spec.geometry = modis::GranuleGeometry{128, 96, 6};
  while (!modis::is_daytime(spec.satellite, spec.slot, spec.day_of_year))
    ++spec.slot;
  const auto m02 = gen.mod02(spec);
  const auto m03 = gen.mod03(spec);
  const auto m06 = gen.mod06(spec);
  preprocess::TilerOptions options;
  options.tile_size = 32;
  for (auto _ : state)
    benchmark::DoNotOptimize(preprocess::make_tiles(m02, m03, m06, options));
}
BENCHMARK(BM_Tiler);

void BM_RiccEncode(benchmark::State& state) {
  ml::RiccConfig config;
  config.tile_size = 32;
  config.channels = 6;
  config.base_channels = 8;
  config.conv_blocks = 3;
  config.latent_dim = 32;
  ml::RiccModel model(config);
  util::Rng rng(1);
  ml::Tensor tile({6, 32, 32});
  for (std::size_t i = 0; i < tile.size(); ++i)
    tile[i] = static_cast<float>(rng.uniform());
  for (auto _ : state) benchmark::DoNotOptimize(model.encode(tile));
}
BENCHMARK(BM_RiccEncode);

void BM_WardClustering(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3);
  std::vector<float> data(n * 8);
  for (auto& v : data) v = static_cast<float>(rng.normal());
  for (auto _ : state)
    benchmark::DoNotOptimize(ml::agglomerative_ward(data, n, 8, 42));
}
BENCHMARK(BM_WardClustering)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
