// Int8 + fused inference substrate tests (DESIGN.md §13): quantize round
// trips, gemm_s8 vs an exact reference, fused fp32 bitwise equivalence with
// the layer path, and int8 cluster-assignment agreement with fp32.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "ml/kernels.hpp"
#include "ml/layers.hpp"
#include "ml/quant.hpp"
#include "ml/ricc.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace mfw::ml {
namespace {

Tensor random_tensor(std::vector<int> shape, std::uint64_t seed) {
  Tensor t(std::move(shape));
  util::Rng rng(seed);
  for (std::size_t i = 0; i < t.size(); ++i)
    t[i] = static_cast<float>(rng.normal());
  return t;
}

std::vector<Tensor> random_tiles(int n, int channels, int size,
                                 std::uint64_t seed) {
  std::vector<Tensor> tiles;
  tiles.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    tiles.push_back(
        random_tensor({channels, size, size}, seed + static_cast<std::uint64_t>(i)));
  return tiles;
}

TEST(QuantKernels, QuantizeDequantizeRoundTripBound) {
  util::Rng rng(11);
  std::vector<float> x(513);
  float maxabs = 0.0f;
  for (auto& v : x) {
    v = static_cast<float>(rng.normal()) * 3.0f;
    maxabs = std::max(maxabs, std::abs(v));
  }
  const float scale = maxabs / 127.0f;
  std::vector<std::int8_t> q(x.size());
  std::vector<float> back(x.size());
  kernels::quantize_s8(x.data(), x.size(), scale, q.data());
  kernels::dequantize_s8(q.data(), q.size(), scale, back.data());
  // Round-to-nearest: |x - q*scale| <= scale/2 for in-range values.
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_GE(q[i], -127);
    EXPECT_LE(q[i], 127);
    EXPECT_LE(std::abs(x[i] - back[i]), scale * 0.5f + 1e-6f) << i;
  }
  // Exact zeros stay exact (padding relies on this).
  const float zero = 0.0f;
  std::int8_t qz = 99;
  kernels::quantize_s8(&zero, 1, scale, &qz);
  EXPECT_EQ(qz, 0);
}

TEST(QuantKernels, GemmS8MatchesExactReference) {
  // Full 4 x 32 tiles (the RICC encoder and micro-bench shapes) first, so
  // the per-thread pack buffers hold stale bytes when the tails run: m % 4
  // row tails, n % 16 and n % 32 column tails, and odd k (B's zero pad).
  const struct {
    std::size_t m, n, k;
  } shapes[] = {{8, 1024, 72}, {8, 1024, 54}, {16, 256, 72}, {32, 64, 144},
                {1, 1, 1},     {2, 3, 5},     {4, 16, 8},    {3, 37, 27},
                {8, 100, 54},  {5, 15, 7},    {1, 64, 150},  {7, 31, 71},
                {5, 33, 9},    {6, 47, 3},    {9, 65, 1},    {3, 17, 2}};
  std::vector<kernels::Isa> tiers;
  for (const kernels::Isa isa : {kernels::Isa::kScalar, kernels::Isa::kAvx2,
                                 kernels::Isa::kAvx512Vnni})
    if (static_cast<int>(isa) <= static_cast<int>(kernels::host_isa()))
      tiers.push_back(isa);
  util::Rng rng(5);
  for (const auto& s : shapes) {
    SCOPED_TRACE("m=" + std::to_string(s.m) + " n=" + std::to_string(s.n) +
                 " k=" + std::to_string(s.k));
    std::vector<std::int8_t> a(s.m * s.k), b(s.k * s.n);
    for (auto& v : a)
      v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
    for (auto& v : b)
      v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
    std::vector<std::int32_t> ref(s.m * s.n, 0);
    for (std::size_t i = 0; i < s.m; ++i)
      for (std::size_t p = 0; p < s.k; ++p)
        for (std::size_t j = 0; j < s.n; ++j)
          ref[i * s.n + j] += static_cast<std::int32_t>(a[i * s.k + p]) *
                              static_cast<std::int32_t>(b[p * s.n + j]);
    for (const kernels::Isa isa : tiers) {
      std::vector<std::int32_t> c(s.m * s.n, -1);
      kernels::gemm_s8(isa, s.m, s.n, s.k, a.data(), b.data(), c.data());
      EXPECT_EQ(c, ref) << kernels::isa_name(isa);
    }
    std::vector<std::int32_t> c(s.m * s.n, -1);
    kernels::gemm_s8(s.m, s.n, s.k, a.data(), b.data(), c.data());
    EXPECT_EQ(c, ref) << "host dispatch";
  }
}

TEST(QuantKernels, Im2colS8MatchesFloatGeometry) {
  const int in_c = 2, in_h = 6, in_w = 5, kernel = 3, stride = 2, pad = 1;
  util::Rng rng(17);
  std::vector<float> xf(static_cast<std::size_t>(in_c) * in_h * in_w);
  std::vector<std::int8_t> xq(xf.size());
  for (std::size_t i = 0; i < xf.size(); ++i) {
    xq[i] = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
    xf[i] = static_cast<float>(xq[i]);
  }
  const int out_h = kernels::conv_out_dim(in_h, kernel, stride, pad);
  const int out_w = kernels::conv_out_dim(in_w, kernel, stride, pad);
  const std::size_t rows = kernels::im2col_rows(in_c, kernel);
  const std::size_t cols = static_cast<std::size_t>(out_h) * out_w;
  std::vector<float> colf(rows * cols);
  std::vector<std::int8_t> colq(rows * cols);
  kernels::im2col(xf.data(), in_c, in_h, in_w, kernel, stride, pad,
                  colf.data());
  kernels::im2col_s8(xq.data(), in_c, in_h, in_w, kernel, stride, pad,
                     colq.data());
  for (std::size_t i = 0; i < colf.size(); ++i)
    EXPECT_EQ(static_cast<float>(colq[i]), colf[i]) << i;
}

TEST(QuantKernels, FusedConvBitwiseMatchesUnfusedAcrossShapes) {
  const int in_c = 3, out_c = 4, in_h = 9, in_w = 11;
  for (int kernel : {1, 3, 5}) {
    for (int stride : {1, 2}) {
      for (int pad : {0, 1, 2}) {
        if (in_h + 2 * pad < kernel) continue;
        SCOPED_TRACE("kernel=" + std::to_string(kernel) +
                     " stride=" + std::to_string(stride) +
                     " pad=" + std::to_string(pad));
        util::Rng rng_a(42), rng_b(42);
        Conv2d conv(in_c, out_c, kernel, stride, pad, rng_a);
        Conv2d conv_ref(in_c, out_c, kernel, stride, pad, rng_b);
        LeakyReLU act(0.1f);
        const Tensor x = random_tensor({in_c, in_h, in_w}, 7);
        const Tensor ref = act.forward(conv_ref.forward(x));

        const int out_h = kernels::conv_out_dim(in_h, kernel, stride, pad);
        const int out_w = kernels::conv_out_dim(in_w, kernel, stride, pad);
        std::vector<float> col(kernels::im2col_rows(in_c, kernel) *
                               static_cast<std::size_t>(out_h) * out_w);
        Tensor out({out_c, out_h, out_w});
        kernels::conv2d_bias_leaky_f32(
            x.data(), in_c, in_h, in_w, conv.weight().data(),
            conv.bias().data(), out_c, kernel, stride, pad, 0.1f, col.data(),
            out.data());
        ASSERT_EQ(out.shape(), ref.shape());
        for (std::size_t i = 0; i < out.size(); ++i)
          ASSERT_EQ(out[i], ref[i]) << "element " << i;  // bitwise
      }
    }
  }
}

RiccConfig small_config() {
  RiccConfig config;
  config.tile_size = 16;
  config.channels = 6;
  config.base_channels = 4;
  config.conv_blocks = 2;
  config.latent_dim = 8;
  config.num_classes = 42;
  return config;
}

TEST(FusedEncoder, BitwiseMatchesLayerPathIncludingBatch) {
  RiccModel model(small_config());
  const auto tiles = random_tiles(9, 6, 16, 100);
  // Reference latents on the default layer path.
  std::vector<Tensor> ref;
  for (const Tensor& t : tiles) ref.push_back(model.encode(t));

  model.set_encode_path(RiccModel::EncodePath::kFused);
  EXPECT_EQ(model.encode_path(), RiccModel::EncodePath::kFused);
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    const Tensor z = model.encode(tiles[i]);
    ASSERT_EQ(z.shape(), ref[i].shape());
    for (std::size_t e = 0; e < z.size(); ++e)
      ASSERT_EQ(z[e], ref[i][e]) << "tile " << i << " element " << e;
  }
  // encode_batch stays bitwise identical across pool sizes on the fused path.
  for (const std::size_t threads : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
    std::optional<util::ThreadPool> pool;
    if (threads > 0) pool.emplace(threads);
    auto zs = model.encode_batch(tiles, pool ? &*pool : nullptr);
    ASSERT_EQ(zs.size(), tiles.size());
    for (std::size_t i = 0; i < tiles.size(); ++i)
      for (std::size_t e = 0; e < zs[i].size(); ++e)
        ASSERT_EQ(zs[i][e], ref[i][e]) << "threads " << threads;
  }
}

TEST(FusedEncoder, RejectsNonRiccPattern) {
  Sequential net;
  util::Rng rng(3);
  net.emplace<Dense>(4, 2, rng);
  EXPECT_THROW(FusedEncoder::build(net, 16), std::invalid_argument);
}

TEST(QuantizedEncoder, RequiresCalibrationBeforeSelection) {
  RiccModel model(small_config());
  EXPECT_FALSE(model.int8_ready());
  EXPECT_THROW(model.set_encode_path(RiccModel::EncodePath::kInt8),
               std::logic_error);
  const auto sample = random_tiles(4, 6, 16, 9);
  model.calibrate_int8(sample);
  EXPECT_TRUE(model.int8_ready());
  model.set_encode_path(RiccModel::EncodePath::kInt8);
  EXPECT_EQ(model.encode_path(), RiccModel::EncodePath::kInt8);
}

TEST(QuantizedEncoder, LatentsCloseToFp32AndBatchDeterministic) {
  RiccModel model(small_config());
  const auto tiles = random_tiles(16, 6, 16, 200);
  model.calibrate_int8(std::span<const Tensor>(tiles).subspan(0, 8));
  std::vector<Tensor> ref;
  for (const Tensor& t : tiles) ref.push_back(model.encode(t));

  model.set_encode_path(RiccModel::EncodePath::kInt8);
  // Latent scale for a relative error bound.
  float ref_norm = 0.0f;
  for (const Tensor& z : ref) ref_norm = std::max(ref_norm, z.norm());
  std::vector<Tensor> q;
  for (const Tensor& t : tiles) q.push_back(model.encode(t));
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    float err = 0.0f;
    for (std::size_t e = 0; e < q[i].size(); ++e)
      err += (q[i][e] - ref[i][e]) * (q[i][e] - ref[i][e]);
    err = std::sqrt(err);
    EXPECT_LT(err, 0.1f * ref_norm) << "tile " << i;
  }
  // Int8 batch encode: same exact integers at any thread count.
  for (const std::size_t threads : {std::size_t{0}, std::size_t{2}}) {
    std::optional<util::ThreadPool> pool;
    if (threads > 0) pool.emplace(threads);
    auto zs = model.encode_batch(tiles, pool ? &*pool : nullptr);
    for (std::size_t i = 0; i < tiles.size(); ++i)
      for (std::size_t e = 0; e < zs[i].size(); ++e)
        ASSERT_EQ(zs[i][e], q[i][e]) << "threads " << threads;
  }
}

TEST(QuantizedEncoder, ClusterAssignmentAgreesWithFp32) {
  // The >= 99% gate on the trained ablation workload is the int8_check smoke
  // check; here an untrained model + random centroids must still agree on
  // the vast majority of tiles.
  RiccModel model(small_config());
  util::Rng rng(77);
  model.set_centroids(Tensor::he_normal({42, 8}, rng));
  const auto tiles = random_tiles(64, 6, 16, 300);
  model.calibrate_int8(std::span<const Tensor>(tiles).subspan(0, 16));

  std::vector<int> fp32_labels;
  for (const Tensor& t : tiles) fp32_labels.push_back(model.predict(t));
  model.set_encode_path(RiccModel::EncodePath::kInt8);
  int agree = 0;
  for (std::size_t i = 0; i < tiles.size(); ++i)
    agree += model.predict(tiles[i]) == fp32_labels[i] ? 1 : 0;
  EXPECT_GE(static_cast<double>(agree) / static_cast<double>(tiles.size()),
            0.95);
}

TEST(QuantizedEncoder, CalibrationRejectsEmptySample) {
  RiccModel model(small_config());
  EXPECT_THROW(model.calibrate_int8({}), std::invalid_argument);
}

}  // namespace
}  // namespace mfw::ml
