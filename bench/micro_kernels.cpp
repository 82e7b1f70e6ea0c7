// Google-benchmark micro benchmarks for the fast-ML substrate: blocked
// sgemm vs int8 gemm, im2col+GEMM convolution, fused + quantized conv,
// batched RICC encode across paths and pool sizes, and cached-NN Ward
// clustering. `tools/bench_kernels.sh` runs this binary and
// snapshots the numbers into BENCH_kernels.json.
//
// The binary stamps its own build type into the benchmark context
// (mfw_build_type); bench_kernels.sh refuses to record numbers from a
// non-Release binary — a debug-built snapshot once poisoned the perf
// trajectory in BENCH_kernels.json.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "ml/cluster.hpp"
#include "ml/kernels.hpp"
#include "ml/layers.hpp"
#include "ml/quant.hpp"
#include "ml/ricc.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#ifndef MFW_BUILD_TYPE
#define MFW_BUILD_TYPE "unknown"
#endif

namespace {

using namespace mfw;

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

// The shape an im2col'd 3x3 conv over an 8ch 32x32 tile produces:
// [8][72] x [72][1024].
void BM_Sgemm(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  const auto a = random_vec(m * k, 1);
  const auto b = random_vec(k * n, 2);
  std::vector<float> c(m * n);
  for (auto _ : state) {
    ml::kernels::sgemm(m, n, k, a.data(), b.data(), c.data(), false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(2 * m * n * k) *
                          state.iterations());
}
BENCHMARK(BM_Sgemm)->Args({8, 72, 1024})->Args({64, 64, 64})->Args({128, 128, 128});

std::vector<std::int8_t> random_s8(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::int8_t> v(n);
  for (auto& x : v) x = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  return v;
}

// Same shapes as BM_Sgemm so items_per_second (MAC/s) compares directly;
// ci_int8_smoke.sh gates the int8-over-fp32 ratio on the [8][72][1024] shape.
void BM_GemmS8(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto n = static_cast<std::size_t>(state.range(2));
  const auto a = random_s8(m * k, 1);
  const auto b = random_s8(k * n, 2);
  std::vector<std::int32_t> c(m * n);
  for (auto _ : state) {
    ml::kernels::gemm_s8(m, n, k, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(2 * m * n * k) *
                          state.iterations());
}
BENCHMARK(BM_GemmS8)->Args({8, 72, 1024})->Args({64, 64, 64})->Args({128, 128, 128});

void BM_QuantizeS8(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_vec(n, 9);
  std::vector<std::int8_t> q(n);
  for (auto _ : state) {
    ml::kernels::quantize_s8(x.data(), n, 0.031f, q.data());
    benchmark::DoNotOptimize(q.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_QuantizeS8)->Arg(6 * 32 * 32);

void BM_DequantizeS8(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto q = random_s8(n, 9);
  std::vector<float> x(n);
  for (auto _ : state) {
    ml::kernels::dequantize_s8(q.data(), n, 0.031f, x.data());
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_DequantizeS8)->Arg(6 * 32 * 32);

// Fused conv+bias+LeakyReLU vs the layered Conv2d+LeakyReLU pair, same
// 8ch 32x32 shape as BM_Conv2dForwardGemm.
void BM_FusedConvBiasLeaky(benchmark::State& state) {
  util::Rng rng(5);
  ml::Conv2d conv(8, 8, 3, 1, 1, rng);
  ml::Tensor input({8, 32, 32});
  for (std::size_t i = 0; i < input.size(); ++i)
    input[i] = static_cast<float>(rng.uniform());
  std::vector<float> col(ml::kernels::im2col_rows(8, 3) * 32 * 32);
  ml::Tensor out({8, 32, 32});
  for (auto _ : state) {
    ml::kernels::conv2d_bias_leaky_f32(
        input.data(), 8, 32, 32, conv.weight().data(), conv.bias().data(), 8,
        3, 1, 1, 0.1f, col.data(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_FusedConvBiasLeaky);

void BM_Conv2dForwardGemm(benchmark::State& state) {
  util::Rng rng(5);
  ml::Conv2d conv(8, 8, 3, 1, 1, rng);
  ml::Tensor input({8, 32, 32});
  for (std::size_t i = 0; i < input.size(); ++i)
    input[i] = static_cast<float>(rng.uniform());
  for (auto _ : state) benchmark::DoNotOptimize(conv.forward(input));
}
BENCHMARK(BM_Conv2dForwardGemm);

void BM_Conv2dBackwardGemm(benchmark::State& state) {
  util::Rng rng(5);
  ml::Conv2d conv(8, 8, 3, 1, 1, rng);
  ml::Tensor input({8, 32, 32});
  for (std::size_t i = 0; i < input.size(); ++i)
    input[i] = static_cast<float>(rng.uniform());
  const ml::Tensor out = conv.forward(input);
  ml::Tensor grad(out.shape());
  for (std::size_t i = 0; i < grad.size(); ++i)
    grad[i] = static_cast<float>(rng.uniform());
  for (auto _ : state) benchmark::DoNotOptimize(conv.backward(grad));
}
BENCHMARK(BM_Conv2dBackwardGemm);

void BM_RiccEncodeBatch(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  ml::RiccConfig config;
  config.tile_size = 32;
  config.channels = 6;
  config.base_channels = 8;
  config.conv_blocks = 3;
  config.latent_dim = 32;
  ml::RiccModel model(config);
  util::Rng rng(1);
  std::vector<ml::Tensor> tiles;
  for (int t = 0; t < 16; ++t) {
    ml::Tensor tile({6, 32, 32});
    for (std::size_t i = 0; i < tile.size(); ++i)
      tile[i] = static_cast<float>(rng.uniform());
    tiles.push_back(std::move(tile));
  }
  if (threads == 0) {
    for (auto _ : state)
      benchmark::DoNotOptimize(model.encode_batch(tiles, nullptr));
  } else {
    util::ThreadPool pool(threads);
    for (auto _ : state)
      benchmark::DoNotOptimize(model.encode_batch(tiles, &pool));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(tiles.size()) *
                          state.iterations());
}
BENCHMARK(BM_RiccEncodeBatch)->Arg(0)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// End-to-end encode across the three inference paths on the paper's
// 6ch 32x32 tile shape; items_per_second is tiles/sec/core (sequential).
// ci_int8_smoke.sh gates int8 >= 2x the layers path.
void ricc_encode_path(benchmark::State& state,
                      ml::RiccModel::EncodePath path) {
  ml::RiccConfig config;
  config.tile_size = 32;
  config.channels = 6;
  config.base_channels = 8;
  config.conv_blocks = 3;
  config.latent_dim = 32;
  ml::RiccModel model(config);
  util::Rng rng(1);
  std::vector<ml::Tensor> tiles;
  for (int t = 0; t < 16; ++t) {
    ml::Tensor tile({6, 32, 32});
    for (std::size_t i = 0; i < tile.size(); ++i)
      tile[i] = static_cast<float>(rng.uniform());
    tiles.push_back(std::move(tile));
  }
  if (path == ml::RiccModel::EncodePath::kInt8) model.calibrate_int8(tiles);
  model.set_encode_path(path);
  for (auto _ : state)
    benchmark::DoNotOptimize(model.encode_batch(tiles, nullptr));
  state.SetItemsProcessed(static_cast<std::int64_t>(tiles.size()) *
                          state.iterations());
}
void BM_RiccEncodeFp32(benchmark::State& state) {
  ricc_encode_path(state, ml::RiccModel::EncodePath::kLayers);
}
void BM_RiccEncodeFused(benchmark::State& state) {
  ricc_encode_path(state, ml::RiccModel::EncodePath::kFused);
}
void BM_RiccEncodeInt8(benchmark::State& state) {
  ricc_encode_path(state, ml::RiccModel::EncodePath::kInt8);
}
BENCHMARK(BM_RiccEncodeFp32)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RiccEncodeFused)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RiccEncodeInt8)->Unit(benchmark::kMillisecond);

void BM_WardCachedNN(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto data = random_vec(n * 8, 3);
  for (auto _ : state)
    benchmark::DoNotOptimize(ml::agglomerative_ward(data, n, 8, 42));
}
BENCHMARK(BM_WardCachedNN)->Arg(512)->Arg(2048)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Stamp this binary's own build type into the JSON context so recording
  // scripts can reject non-Release numbers (the system benchmark library's
  // library_build_type reflects the library, not this binary).
  benchmark::AddCustomContext("mfw_build_type", MFW_BUILD_TYPE);
  benchmark::AddCustomContext(
      "mfw_gemm_isa",
      mfw::ml::kernels::isa_name(mfw::ml::kernels::host_isa()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
