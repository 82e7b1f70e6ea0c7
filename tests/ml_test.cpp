// Equivalence and determinism tests for the fast ML substrate: every sgemm
// tier bit for bit against the scalar loop, Conv2d's GEMM lowering against
// direct convolution loops (forward + backward), bitwise-reproducible
// batched encode and data-parallel training across pool sizes, and cached-NN
// Ward clustering against a full-rescan reference. The references live here,
// not in src/: the library has one path per kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "ml/cluster.hpp"
#include "ml/kernels.hpp"
#include "ml/layers.hpp"
#include "ml/ricc.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace mfw::ml {
namespace {

// GEMM and the direct loops accumulate in the same k-order, but FMA
// contraction and ±0.0 padding terms allow tiny drift; compare with a
// relative bound.
void expect_close(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float tol = 1e-4f * std::max(1.0f, std::abs(a[i]));
    ASSERT_NEAR(a[i], b[i], tol) << what << " element " << i;
  }
}

Tensor random_tensor(std::vector<int> shape, std::uint64_t seed) {
  Tensor t(std::move(shape));
  util::Rng rng(seed);
  for (std::size_t i = 0; i < t.size(); ++i)
    t[i] = static_cast<float>(rng.normal());
  return t;
}

// -- direct-loop convolution reference -------------------------------------
// The 7-deep loop nest the GEMM lowering replaced, with the same per-element
// accumulation order.

Tensor reference_conv_forward(const Conv2d& conv, const Tensor& input) {
  const int in_c = conv.in_channels(), out_c = conv.out_channels();
  const int kernel = conv.kernel_size(), stride = conv.stride();
  const int pad = conv.padding();
  const int in_h = input.dim(1), in_w = input.dim(2);
  const int out_h = conv.out_height(in_h), out_w = conv.out_width(in_w);
  Tensor out({out_c, out_h, out_w});
  const float* w = conv.weight().data();
  for (int oc = 0; oc < out_c; ++oc) {
    for (int oh = 0; oh < out_h; ++oh) {
      for (int ow = 0; ow < out_w; ++ow) {
        float acc = conv.bias()[static_cast<std::size_t>(oc)];
        for (int ic = 0; ic < in_c; ++ic) {
          for (int kh = 0; kh < kernel; ++kh) {
            const int ih = oh * stride - pad + kh;
            if (ih < 0 || ih >= in_h) continue;
            for (int kw = 0; kw < kernel; ++kw) {
              const int iw = ow * stride - pad + kw;
              if (iw < 0 || iw >= in_w) continue;
              const std::size_t widx =
                  ((static_cast<std::size_t>(oc) * in_c + ic) * kernel + kh) *
                      kernel +
                  kw;
              acc += w[widx] * input.at3(ic, ih, iw);
            }
          }
        }
        out.at3(oc, oh, ow) = acc;
      }
    }
  }
  return out;
}

struct ConvGrads {
  Tensor input, weight, bias;
};

/// Gradients of one backward pass from zero, as Conv2d accumulates them
/// into a fresh layer.
ConvGrads reference_conv_backward(const Conv2d& conv, const Tensor& input,
                                  const Tensor& grad_output) {
  const int in_c = conv.in_channels(), out_c = conv.out_channels();
  const int kernel = conv.kernel_size(), stride = conv.stride();
  const int pad = conv.padding();
  const int in_h = input.dim(1), in_w = input.dim(2);
  ConvGrads grads{Tensor(input.shape()), Tensor(conv.weight().shape()),
                  Tensor({out_c})};
  const float* w = conv.weight().data();
  float* gw = grads.weight.data();
  for (int oc = 0; oc < out_c; ++oc) {
    for (int oh = 0; oh < grad_output.dim(1); ++oh) {
      for (int ow = 0; ow < grad_output.dim(2); ++ow) {
        const float g = grad_output.at3(oc, oh, ow);
        if (g == 0.0f) continue;
        grads.bias[static_cast<std::size_t>(oc)] += g;
        for (int ic = 0; ic < in_c; ++ic) {
          for (int kh = 0; kh < kernel; ++kh) {
            const int ih = oh * stride - pad + kh;
            if (ih < 0 || ih >= in_h) continue;
            for (int kw = 0; kw < kernel; ++kw) {
              const int iw = ow * stride - pad + kw;
              if (iw < 0 || iw >= in_w) continue;
              const std::size_t widx =
                  ((static_cast<std::size_t>(oc) * in_c + ic) * kernel + kh) *
                      kernel +
                  kw;
              gw[widx] += g * input.at3(ic, ih, iw);
              grads.input.at3(ic, ih, iw) += g * w[widx];
            }
          }
        }
      }
    }
  }
  return grads;
}

TEST(ConvKernels, GemmMatchesDirectLoopsAcrossShapes) {
  const int in_c = 3, out_c = 4, in_h = 9, in_w = 11;
  for (int kernel : {1, 3, 5}) {
    for (int stride : {1, 2}) {
      for (int pad : {0, 1, 2}) {
        if (in_h + 2 * pad < kernel) continue;
        util::Rng rng(42);
        Conv2d conv(in_c, out_c, kernel, stride, pad, rng);
        // He init leaves the bias at zero; give it values so a dropped bias
        // term shows.
        conv.params()[1]->value = random_tensor({out_c}, 5);
        const Tensor x = random_tensor({in_c, in_h, in_w}, 7);
        SCOPED_TRACE("kernel=" + std::to_string(kernel) +
                     " stride=" + std::to_string(stride) +
                     " pad=" + std::to_string(pad));

        const Tensor y_ref = reference_conv_forward(conv, x);
        const Tensor y = conv.forward(x);
        expect_close(y_ref, y, "forward");

        const Tensor gy = random_tensor(y_ref.shape(), 13);
        const ConvGrads ref = reference_conv_backward(conv, x, gy);
        const Tensor gx = conv.backward(gy);
        expect_close(ref.input, gx, "grad_input");
        const auto params = conv.params();
        ASSERT_EQ(params.size(), 2u);
        expect_close(ref.weight, params[0]->grad, "weight");
        expect_close(ref.bias, params[1]->grad, "bias");
      }
    }
  }
}

TEST(ConvKernels, SgemmSmallCase) {
  // 2x3 * 3x2 against hand-computed values, both accumulate modes.
  const float a[] = {1, 2, 3, 4, 5, 6};
  const float b[] = {7, 8, 9, 10, 11, 12};
  float c[] = {1, 1, 1, 1};
  kernels::sgemm(2, 2, 3, a, b, c, false);
  EXPECT_FLOAT_EQ(c[0], 58);
  EXPECT_FLOAT_EQ(c[1], 64);
  EXPECT_FLOAT_EQ(c[2], 139);
  EXPECT_FLOAT_EQ(c[3], 154);
  kernels::sgemm(2, 2, 3, a, b, c, true);
  EXPECT_FLOAT_EQ(c[0], 116);
  EXPECT_FLOAT_EQ(c[3], 308);
}

// -- scalar sgemm reference ------------------------------------------------
// The library's blocked scalar loop, copied verbatim: per element, start
// from C or +0.0f and add each rounded product in ascending k. Every tier
// must return its bytes.

constexpr std::size_t kNBlock = 1024;

void reference_sgemm(std::size_t m, std::size_t n, std::size_t k,
                     const float* a, const float* b, float* c,
                     bool accumulate) {
  for (std::size_t n0 = 0; n0 < n; n0 += kNBlock) {
    const std::size_t nw = std::min(kNBlock, n - n0);
    for (std::size_t i = 0; i < m; ++i) {
      float* __restrict crow = c + i * n + n0;
      if (!accumulate) std::memset(crow, 0, nw * sizeof(float));
      const float* arow = a + i * k;
      for (std::size_t p = 0; p < k; ++p) {
        const float av = arow[p];
        const float* __restrict brow = b + p * n + n0;
        for (std::size_t j = 0; j < nw; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

std::vector<kernels::Isa> host_tiers() {
  std::vector<kernels::Isa> tiers;
  for (const kernels::Isa isa : {kernels::Isa::kScalar, kernels::Isa::kAvx2,
                                 kernels::Isa::kAvx512Vnni})
    if (static_cast<int>(isa) <= static_cast<int>(kernels::host_isa()))
      tiers.push_back(isa);
  return tiers;
}

/// Normal values with every fifth one an exact +0.0f or -0.0f, so products
/// and sums of signed zeros are exercised.
std::vector<float> gemm_operand(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = i % 5 == 3 ? (i % 2 ? -0.0f : 0.0f)
                      : static_cast<float>(rng.normal());
  return v;
}

/// Runs sgemm on every host tier, both accumulate modes, and requires the
/// reference loop's bytes. Without accumulate C starts as NaN, so an
/// unwritten element shows.
void expect_sgemm_bitwise(std::size_t m, std::size_t n, std::size_t k,
                          std::uint64_t seed) {
  SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n) +
               " k=" + std::to_string(k));
  const auto a = gemm_operand(m * k, seed);
  const auto b = gemm_operand(k * n, seed + 1);
  const auto c0 = gemm_operand(m * n, seed + 2);
  for (const bool accumulate : {false, true}) {
    std::vector<float> ref =
        accumulate ? c0
                   : std::vector<float>(
                         m * n, std::numeric_limits<float>::quiet_NaN());
    reference_sgemm(m, n, k, a.data(), b.data(), ref.data(), accumulate);
    for (const kernels::Isa isa : host_tiers()) {
      std::vector<float> c = accumulate
                                 ? c0
                                 : std::vector<float>(
                                       m * n,
                                       std::numeric_limits<float>::quiet_NaN());
      kernels::sgemm(isa, m, n, k, a.data(), b.data(), c.data(), accumulate);
      ASSERT_EQ(std::memcmp(c.data(), ref.data(), c.size() * sizeof(float)),
                0)
          << kernels::isa_name(isa) << " accumulate=" << accumulate;
    }
  }
}

TEST(Sgemm, BitwiseMatchesScalarLoopOnRiccShapes) {
  // (m, n, k) of every gemm the default RICC model runs: per conv stage the
  // forward W*col, the weight grad dY*col^T and the input grad W^T*dY.
  struct Conv {
    std::size_t out_c, patch, out_n;
  };
  const Conv convs[] = {
      {8, 54, 1024}, {16, 72, 256}, {32, 144, 64},   // encoder
      {16, 288, 64}, {8, 144, 256}, {6, 72, 1024}};  // decoder
  std::uint64_t seed = 100;
  for (const Conv& c : convs) {
    expect_sgemm_bitwise(c.out_c, c.out_n, c.patch, seed += 3);
    expect_sgemm_bitwise(c.out_c, c.patch, c.out_n, seed += 3);
    expect_sgemm_bitwise(c.patch, c.out_n, c.out_c, seed += 3);
  }
  // FusedEncoder's Dense: [1 x 512] * [512 x 32].
  expect_sgemm_bitwise(1, 32, 512, seed += 3);
}

TEST(Sgemm, BitwiseMatchesScalarLoopOnTails) {
  // m % 4 row tails, n % 16 and n % 8 column tails, and K short enough that
  // a signed zero can survive to the output.
  std::uint64_t seed = 500;
  for (const std::size_t m : {1, 3, 5})
    for (const std::size_t n : {1, 15, 17, 33})
      for (const std::size_t k : {1, 2})
        expect_sgemm_bitwise(m, n, k, seed += 3);
}

TEST(Sgemm, SignedZeroStartsFromPositiveZero) {
  // -0 * 1 = -0, and +0.0f + -0.0f = +0.0f: a kernel that seeds its
  // accumulator with the first product instead of +0.0f returns -0.0f.
  const float a[] = {-0.0f};
  const float b[] = {1.0f, -0.0f};
  for (const kernels::Isa isa : host_tiers()) {
    float c[] = {7.0f, 7.0f};
    kernels::sgemm(isa, 1, 2, 1, a, b, c, false);
    EXPECT_FALSE(std::signbit(c[0])) << kernels::isa_name(isa);
    EXPECT_FALSE(std::signbit(c[1])) << kernels::isa_name(isa);
  }
}

RiccConfig tiny_config() {
  RiccConfig config;
  config.tile_size = 8;
  config.channels = 2;
  config.base_channels = 4;
  config.conv_blocks = 2;
  config.latent_dim = 6;
  config.num_classes = 4;
  config.seed = 11;
  return config;
}

std::vector<Tensor> random_tiles(const RiccConfig& config, std::size_t n,
                                 std::uint64_t seed) {
  std::vector<Tensor> tiles;
  tiles.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    tiles.push_back(random_tensor(
        {config.channels, config.tile_size, config.tile_size}, seed + i));
  return tiles;
}

TEST(EncodeBatch, BitwiseIdenticalAcrossPoolSizes) {
  RiccModel model(tiny_config());
  const auto tiles = random_tiles(model.config(), 13, 100);
  const auto sequential = model.encode_batch(tiles, nullptr);
  ASSERT_EQ(sequential.size(), tiles.size());
  for (std::size_t threads : {1u, 3u}) {
    util::ThreadPool pool(threads);
    const auto pooled = model.encode_batch(tiles, &pool);
    ASSERT_EQ(pooled.size(), tiles.size());
    for (std::size_t i = 0; i < tiles.size(); ++i) {
      ASSERT_EQ(pooled[i].shape(), sequential[i].shape());
      for (std::size_t e = 0; e < pooled[i].size(); ++e)
        ASSERT_EQ(pooled[i][e], sequential[i][e])
            << "threads=" << threads << " tile=" << i << " elem=" << e;
    }
  }
  // And both agree with the single-tile entry point.
  const Tensor one = model.encode(tiles[0]);
  for (std::size_t e = 0; e < one.size(); ++e)
    ASSERT_EQ(one[e], sequential[0][e]);
}

TEST(ParallelTraining, DeterministicAcrossThreadCounts) {
  const auto config = tiny_config();
  const auto tiles = random_tiles(config, 12, 500);
  RiccTrainOptions options;
  options.epochs = 2;
  options.batch_size = 8;
  options.rotations = 1;

  auto train_with = [&](std::size_t threads) {
    RiccModel model(config);
    util::ThreadPool pool(threads);
    options.pool = &pool;
    train_autoencoder(model, tiles, options);
    std::vector<float> weights;
    for (Param* p : model.encoder().params())
      weights.insert(weights.end(), p->value.data(),
                     p->value.data() + p->value.size());
    for (Param* p : model.decoder().params())
      weights.insert(weights.end(), p->value.data(),
                     p->value.data() + p->value.size());
    return weights;
  };

  const auto w1 = train_with(1);
  const auto w3 = train_with(3);
  ASSERT_EQ(w1.size(), w3.size());
  for (std::size_t i = 0; i < w1.size(); ++i)
    ASSERT_EQ(w1[i], w3[i]) << "weight " << i;
}

TEST(ObsIntegration, EncodeEmitsSpanAndTileCounter) {
  auto& rec = obs::TraceRecorder::instance();
  auto& metrics = obs::MetricsRegistry::instance();
  rec.clear();
  metrics.clear();
  rec.set_enabled(true);
  metrics.set_enabled(true);

  RiccModel model(tiny_config());
  const auto tiles = random_tiles(model.config(), 3, 900);
  model.encode_batch(tiles, nullptr);
  model.encode(tiles[0]);

  rec.set_enabled(false);
  metrics.set_enabled(false);
  EXPECT_DOUBLE_EQ(metrics.counter("mfw.ml.encode_tiles_total"), 4.0);
  bool saw_encode_span = false;
  for (const auto& span : rec.spans())
    if (span.name == "ml.encode" && span.closed()) saw_encode_span = true;
  EXPECT_TRUE(saw_encode_span);
  EXPECT_EQ(rec.open_span_count(), 0u);
  rec.clear();
  metrics.clear();
}

TEST(ObsIntegration, TrainingEmitsEpochSpans) {
  auto& rec = obs::TraceRecorder::instance();
  rec.clear();
  rec.set_enabled(true);

  RiccModel model(tiny_config());
  const auto tiles = random_tiles(model.config(), 6, 950);
  RiccTrainOptions options;
  options.epochs = 2;
  options.batch_size = 4;
  options.rotations = 0;
  train_autoencoder(model, tiles, options);

  rec.set_enabled(false);
  std::size_t epoch_spans = 0;
  for (const auto& span : rec.spans())
    if (span.name == "ml.train.epoch" && span.closed()) ++epoch_spans;
  EXPECT_EQ(epoch_spans, 2u);
  rec.clear();
}

// -- full-rescan Ward reference ---------------------------------------------
// The nearest-neighbour chain with no neighbour cache: every chain step
// rescans the whole row. The dendrogram is cut at k by applying the first
// n - k merges in the order the chain finds them, as agglomerative_ward does.
ClusterResult reference_ward(std::span<const float> data, std::size_t n,
                             std::size_t d, int k) {
  std::vector<double> dist(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double d2 =
          squared_distance(data.subspan(i * d, d), data.subspan(j * d, d));
      dist[i * n + j] = dist[j * n + i] = d2 / 2.0;
    }
  }
  std::vector<std::size_t> size(n, 1);
  std::vector<bool> active(n, true);
  std::vector<std::pair<std::size_t, std::size_t>> merges;  // (into, from)
  const auto nearest = [&](std::size_t c) {
    double best = std::numeric_limits<double>::infinity();
    std::size_t best_j = c;
    for (std::size_t j = 0; j < n; ++j) {
      if (active[j] && j != c && dist[c * n + j] < best) {
        best = dist[c * n + j];
        best_j = j;
      }
    }
    return best_j;
  };
  std::vector<std::size_t> chain;
  for (std::size_t n_active = n; n_active > 1; --n_active) {
    if (chain.empty()) {
      std::size_t first = 0;
      while (!active[first]) ++first;
      chain.push_back(first);
    }
    while (true) {
      const std::size_t a = chain.back();
      const std::size_t b = nearest(a);
      if (chain.size() < 2 || b != chain[chain.size() - 2]) {
        chain.push_back(b);
        continue;
      }
      // Reciprocal nearest neighbours: merge b into a (Lance-Williams).
      chain.resize(chain.size() - 2);
      merges.emplace_back(a, b);
      const double na = static_cast<double>(size[a]);
      const double nb = static_cast<double>(size[b]);
      for (std::size_t j = 0; j < n; ++j) {
        if (!active[j] || j == a || j == b) continue;
        const double nj = static_cast<double>(size[j]);
        dist[a * n + j] = dist[j * n + a] =
            ((na + nj) * dist[a * n + j] + (nb + nj) * dist[b * n + j] -
             nj * dist[a * n + b]) /
            (na + nb + nj);
      }
      active[b] = false;
      size[a] += size[b];
      break;
    }
  }

  std::vector<std::size_t> root(n);
  for (std::size_t i = 0; i < n; ++i) root[i] = i;
  const std::function<std::size_t(std::size_t)> find = [&](std::size_t x) {
    return root[x] == x ? x : find(root[x]);
  };
  for (std::size_t m = 0; m < n - static_cast<std::size_t>(k); ++m)
    root[find(merges[m].second)] = find(merges[m].first);

  ClusterResult result;
  result.k = k;
  result.dim = d;
  std::vector<std::size_t> label_roots;  // labels in order of first row
  std::vector<std::size_t> counts(static_cast<std::size_t>(k), 0);
  result.centroids = Tensor({k, static_cast<int>(d)});
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t r = find(i);
    auto it = std::find(label_roots.begin(), label_roots.end(), r);
    if (it == label_roots.end()) it = label_roots.insert(label_roots.end(), r);
    const auto label = static_cast<std::size_t>(it - label_roots.begin());
    result.labels.push_back(static_cast<int>(label));
    ++counts[label];
    for (std::size_t j = 0; j < d; ++j)
      result.centroids[label * d + j] += data[i * d + j];
  }
  for (std::size_t c = 0; c < counts.size(); ++c)
    for (std::size_t j = 0; j < d; ++j)
      result.centroids[c * d + j] /= static_cast<float>(counts[c]);
  return result;
}

TEST(WardCachedNN, MatchesFullRescan) {
  const std::size_t n = 200, d = 5;
  util::Rng rng(3);
  std::vector<float> data(n * d);
  for (auto& v : data) v = static_cast<float>(rng.normal());

  for (const int k : {7, 42}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    const ClusterResult ref = reference_ward(data, n, d, k);
    const ClusterResult cached = agglomerative_ward(data, n, d, k);
    ASSERT_EQ(ref.labels, cached.labels);
    ASSERT_EQ(ref.centroids.shape(), cached.centroids.shape());
    for (std::size_t i = 0; i < ref.centroids.size(); ++i)
      ASSERT_EQ(ref.centroids[i], cached.centroids[i]);

    // The parallel distance fill changes nothing about the merge sequence.
    util::ThreadPool pool(3);
    const ClusterResult pooled = agglomerative_ward(data, n, d, k, &pool);
    ASSERT_EQ(ref.labels, pooled.labels);
  }
}

}  // namespace
}  // namespace mfw::ml
