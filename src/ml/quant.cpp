#include "ml/quant.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "ml/kernels.hpp"
#include "ml/layers.hpp"

namespace mfw::ml {

namespace {

// The encoder pattern both plans compile: [Conv2d, LeakyReLU, MaxPool2x2]
// x blocks, then Flatten + Dense (see RiccModel's constructor).
struct EncoderLayout {
  struct ConvStage {
    const Conv2d* conv = nullptr;
    float slope = 0.0f;
  };
  std::vector<ConvStage> stages;
  const Dense* dense = nullptr;
};

EncoderLayout parse_encoder(const Sequential& encoder) {
  EncoderLayout layout;
  const std::size_t n = encoder.layer_count();
  std::size_t i = 0;
  while (i < n) {
    const auto* conv = dynamic_cast<const Conv2d*>(&encoder.layer(i));
    if (conv == nullptr) break;
    const auto* act =
        i + 1 < n ? dynamic_cast<const LeakyReLU*>(&encoder.layer(i + 1))
                  : nullptr;
    const auto* pool =
        i + 2 < n ? dynamic_cast<const MaxPool2x2*>(&encoder.layer(i + 2))
                  : nullptr;
    if (act == nullptr || pool == nullptr)
      throw std::invalid_argument(
          "encoder plan: expected [Conv2d, LeakyReLU, MaxPool2x2] blocks");
    layout.stages.push_back({conv, act->slope()});
    i += 3;
  }
  if (layout.stages.empty())
    throw std::invalid_argument("encoder plan: no conv stages found");
  const auto* flat =
      i < n ? dynamic_cast<const Flatten*>(&encoder.layer(i)) : nullptr;
  layout.dense = i + 1 < n
                     ? dynamic_cast<const Dense*>(&encoder.layer(i + 1))
                     : nullptr;
  if (flat == nullptr || layout.dense == nullptr || i + 2 != n)
    throw std::invalid_argument(
        "encoder plan: expected trailing Flatten + Dense");
  return layout;
}

// Walks the stage geometry from the input tile size, throwing on any shape
// the fused pipeline cannot run (odd pre-pool size, dense mismatch).
std::vector<int> stage_in_sizes(const EncoderLayout& layout, int tile_size) {
  std::vector<int> sizes;
  int size = tile_size;
  int ch = layout.stages.front().conv->in_channels();
  for (const auto& st : layout.stages) {
    if (st.conv->in_channels() != ch)
      throw std::invalid_argument("encoder plan: stage channel mismatch");
    sizes.push_back(size);
    const int out = kernels::conv_out_dim(size, st.conv->kernel_size(),
                                          st.conv->stride(),
                                          st.conv->padding());
    if (out <= 0 || out % 2 != 0)
      throw std::invalid_argument(
          "encoder plan: conv output must be positive and even, got " +
          std::to_string(out));
    size = out / 2;
    ch = st.conv->out_channels();
  }
  if (layout.dense->in_features() != ch * size * size)
    throw std::invalid_argument("encoder plan: dense input size mismatch");
  return sizes;
}

float scale_for_maxabs(float maxabs) {
  return maxabs > 0.0f ? maxabs / 127.0f : 1.0f;
}

std::int8_t quantize_one(float x, float inv_scale) {
  long v = std::lrintf(x * inv_scale);
  if (v > 127) v = 127;
  if (v < -127) v = -127;
  return static_cast<std::int8_t>(v);
}

void expect_tile(const Tensor& tile, int channels, int tile_size,
                 const char* who) {
  if (tile.rank() != 3 || tile.dim(0) != channels ||
      tile.dim(1) != tile_size || tile.dim(2) != tile_size)
    throw std::invalid_argument(std::string(who) +
                                ": tile shape mismatch, got " +
                                tile.shape_str());
}

}  // namespace

// ----------------------------------------------------------- FusedEncoder

FusedEncoder FusedEncoder::build(const Sequential& encoder, int tile_size) {
  const EncoderLayout layout = parse_encoder(encoder);
  const std::vector<int> sizes = stage_in_sizes(layout, tile_size);
  FusedEncoder plan;
  plan.tile_size_ = tile_size;
  plan.channels_ = layout.stages.front().conv->in_channels();
  for (std::size_t i = 0; i < layout.stages.size(); ++i) {
    const Conv2d& conv = *layout.stages[i].conv;
    Stage stage;
    stage.in_c = conv.in_channels();
    stage.out_c = conv.out_channels();
    stage.kernel = conv.kernel_size();
    stage.stride = conv.stride();
    stage.pad = conv.padding();
    stage.in_size = sizes[i];
    stage.slope = layout.stages[i].slope;
    const auto w = conv.weight().span();
    stage.weight.assign(w.begin(), w.end());
    const auto b = conv.bias().span();
    stage.bias.assign(b.begin(), b.end());
    plan.stages_.push_back(std::move(stage));
  }
  plan.dense_in_ = layout.dense->in_features();
  plan.dense_out_ = layout.dense->out_features();
  plan.dense_wt_.resize(static_cast<std::size_t>(plan.dense_in_) *
                        plan.dense_out_);
  kernels::transpose(static_cast<std::size_t>(plan.dense_out_),
                     static_cast<std::size_t>(plan.dense_in_),
                     layout.dense->weight().data(), plan.dense_wt_.data());
  const auto db = layout.dense->bias().span();
  plan.dense_b_.assign(db.begin(), db.end());
  return plan;
}

Tensor FusedEncoder::encode(const Tensor& tile, EncodeScratch& scratch) const {
  return encode_impl(tile, scratch, nullptr);
}

Tensor FusedEncoder::encode_calibrating(const Tensor& tile,
                                        EncodeScratch& scratch,
                                        std::span<float> maxabs) const {
  if (maxabs.size() != stages_.size() + 1)
    throw std::invalid_argument("encode_calibrating: maxabs size mismatch");
  return encode_impl(tile, scratch, maxabs.data());
}

Tensor FusedEncoder::encode_impl(const Tensor& tile, EncodeScratch& s,
                                 float* maxabs) const {
  expect_tile(tile, channels_, tile_size_, "FusedEncoder");
  const float* x = tile.data();
  if (maxabs != nullptr) {
    for (std::size_t i = 0; i < tile.size(); ++i)
      maxabs[0] = std::max(maxabs[0], std::fabs(tile[i]));
  }
  for (std::size_t si = 0; si < stages_.size(); ++si) {
    const Stage& st = stages_[si];
    const int out_h = kernels::conv_out_dim(st.in_size, st.kernel, st.stride,
                                            st.pad);
    const std::size_t out_n = static_cast<std::size_t>(out_h) * out_h;
    const std::size_t patch = kernels::im2col_rows(st.in_c, st.kernel);
    s.col.resize(patch * out_n);
    s.y.resize(static_cast<std::size_t>(st.out_c) * out_n);
    kernels::conv2d_bias_leaky_f32(x, st.in_c, st.in_size, st.in_size,
                                   st.weight.data(), st.bias.data(), st.out_c,
                                   st.kernel, st.stride, st.pad, st.slope,
                                   s.col.data(), s.y.data());
    if (maxabs != nullptr) {
      const std::size_t total = static_cast<std::size_t>(st.out_c) * out_n;
      for (std::size_t i = 0; i < total; ++i)
        maxabs[1 + si] = std::max(maxabs[1 + si], std::fabs(s.y[i]));
    }
    // MaxPool2x2, same selection semantics as the layer (−inf start,
    // strictly-greater compare in dh,dw order — the max value either way).
    const int half = out_h / 2;
    s.x.resize(static_cast<std::size_t>(st.out_c) * half * half);
    for (int c = 0; c < st.out_c; ++c) {
      const float* plane = s.y.data() + static_cast<std::size_t>(c) * out_n;
      float* dst = s.x.data() + static_cast<std::size_t>(c) * half * half;
      for (int oh = 0; oh < half; ++oh) {
        for (int ow = 0; ow < half; ++ow) {
          float best = -std::numeric_limits<float>::infinity();
          for (int dh = 0; dh < 2; ++dh) {
            for (int dw = 0; dw < 2; ++dw) {
              const float v =
                  plane[static_cast<std::size_t>(oh * 2 + dh) * out_h +
                        (ow * 2 + dw)];
              if (v > best) best = v;
            }
          }
          dst[static_cast<std::size_t>(oh) * half + ow] = best;
        }
      }
    }
    x = s.x.data();
  }
  // Dense as the [1 x in] * [in x out] gemm onto the bias: each output adds
  // x[i] * w[o][i] in ascending i, Dense::forward's sequence (the operands of
  // a rounded product commute exactly).
  Tensor z(std::vector<int>{dense_out_}, dense_b_);
  kernels::sgemm(1, static_cast<std::size_t>(dense_out_),
                 static_cast<std::size_t>(dense_in_), x, dense_wt_.data(),
                 z.data(), /*accumulate=*/true);
  return z;
}

// ------------------------------------------------------- QuantizedEncoder

QuantizedEncoder QuantizedEncoder::build(const Sequential& encoder,
                                         int tile_size,
                                         std::span<const Tensor> sample) {
  if (sample.empty())
    throw std::invalid_argument(
        "QuantizedEncoder: calibration sample must be non-empty");
  const EncoderLayout layout = parse_encoder(encoder);
  const std::vector<int> sizes = stage_in_sizes(layout, tile_size);

  // Calibrate per-tensor activation ranges with fp32 reference passes. The
  // post-activation max-abs bounds the post-pool values too (pooling only
  // selects), so one scale per stage covers both the requant and the next
  // stage's input.
  const FusedEncoder fused = FusedEncoder::build(encoder, tile_size);
  std::vector<float> maxabs(layout.stages.size() + 1, 0.0f);
  EncodeScratch scratch;
  for (const Tensor& tile : sample)
    fused.encode_calibrating(tile, scratch, maxabs);

  QuantizedEncoder plan;
  plan.tile_size_ = tile_size;
  plan.channels_ = layout.stages.front().conv->in_channels();
  plan.act_scales_.reserve(maxabs.size());
  for (const float m : maxabs) plan.act_scales_.push_back(scale_for_maxabs(m));

  for (std::size_t i = 0; i < layout.stages.size(); ++i) {
    const Conv2d& conv = *layout.stages[i].conv;
    Stage stage;
    stage.in_c = conv.in_channels();
    stage.out_c = conv.out_channels();
    stage.kernel = conv.kernel_size();
    stage.stride = conv.stride();
    stage.pad = conv.padding();
    stage.in_size = sizes[i];
    stage.slope = layout.stages[i].slope;
    const auto b = conv.bias().span();
    stage.bias.assign(b.begin(), b.end());
    // Per-output-channel symmetric weight scales.
    const float* w = conv.weight().data();
    const std::size_t row =
        static_cast<std::size_t>(stage.in_c) * stage.kernel * stage.kernel;
    stage.weight_q.resize(static_cast<std::size_t>(stage.out_c) * row);
    stage.wscale.resize(static_cast<std::size_t>(stage.out_c));
    for (int oc = 0; oc < stage.out_c; ++oc) {
      const float* wrow = w + static_cast<std::size_t>(oc) * row;
      float m = 0.0f;
      for (std::size_t j = 0; j < row; ++j)
        m = std::max(m, std::fabs(wrow[j]));
      const float scale = scale_for_maxabs(m);
      stage.wscale[static_cast<std::size_t>(oc)] = scale;
      const float inv = 1.0f / scale;
      std::int8_t* qrow =
          stage.weight_q.data() + static_cast<std::size_t>(oc) * row;
      for (std::size_t j = 0; j < row; ++j)
        qrow[j] = quantize_one(wrow[j], inv);
    }
    plan.stages_.push_back(std::move(stage));
  }

  plan.dense_in_ = layout.dense->in_features();
  plan.dense_out_ = layout.dense->out_features();
  const auto db = layout.dense->bias().span();
  plan.dense_b_.assign(db.begin(), db.end());
  const float* dw = layout.dense->weight().data();
  plan.dense_wq_.resize(static_cast<std::size_t>(plan.dense_out_) *
                        plan.dense_in_);
  plan.dense_wscale_.resize(static_cast<std::size_t>(plan.dense_out_));
  for (int o = 0; o < plan.dense_out_; ++o) {
    const float* wrow = dw + static_cast<std::size_t>(o) * plan.dense_in_;
    float m = 0.0f;
    for (int i = 0; i < plan.dense_in_; ++i)
      m = std::max(m, std::fabs(wrow[i]));
    const float scale = scale_for_maxabs(m);
    plan.dense_wscale_[static_cast<std::size_t>(o)] = scale;
    const float inv = 1.0f / scale;
    std::int8_t* qrow =
        plan.dense_wq_.data() + static_cast<std::size_t>(o) * plan.dense_in_;
    for (int i = 0; i < plan.dense_in_; ++i)
      qrow[i] = quantize_one(wrow[i], inv);
  }
  return plan;
}

Tensor QuantizedEncoder::encode(const Tensor& tile,
                                EncodeScratch& s) const {
  expect_tile(tile, channels_, tile_size_, "QuantizedEncoder");
  s.qx.resize(tile.size());
  kernels::quantize_s8(tile.data(), tile.size(), act_scales_[0],
                       s.qx.data());
  for (std::size_t si = 0; si < stages_.size(); ++si) {
    const Stage& st = stages_[si];
    const int out_h = kernels::conv_out_dim(st.in_size, st.kernel, st.stride,
                                            st.pad);
    const std::size_t out_n = static_cast<std::size_t>(out_h) * out_h;
    const std::size_t patch = kernels::im2col_rows(st.in_c, st.kernel);
    s.qcol.resize(patch * out_n);
    kernels::im2col_s8(s.qx.data(), st.in_c, st.in_size, st.in_size,
                       st.kernel, st.stride, st.pad, s.qcol.data());
    s.acc.resize(static_cast<std::size_t>(st.out_c) * out_n);
    kernels::gemm_s8(static_cast<std::size_t>(st.out_c), out_n, patch,
                     st.weight_q.data(), s.qcol.data(), s.acc.data());
    // Epilogue: dequant + bias + LeakyReLU into fp32 (a branch-free
    // elementwise map the vectorizer handles), then pool in fp32 and
    // requantize only the pooled quarter. Requantization is monotonic, so
    // max-then-requant equals requant-then-max — same int8, 4x fewer
    // round+clamp operations.
    s.y.resize(static_cast<std::size_t>(st.out_c) * out_n);
    for (int oc = 0; oc < st.out_c; ++oc) {
      kernels::dequant_bias_leaky_s32(
          s.acc.data() + static_cast<std::size_t>(oc) * out_n, out_n,
          act_scales_[si] * st.wscale[static_cast<std::size_t>(oc)],
          st.bias[static_cast<std::size_t>(oc)], st.slope,
          s.y.data() + static_cast<std::size_t>(oc) * out_n);
    }
    const int half = out_h / 2;
    const std::size_t pooled_n =
        static_cast<std::size_t>(st.out_c) * half * half;
    s.x.resize(pooled_n);
    for (int c = 0; c < st.out_c; ++c) {
      const float* plane = s.y.data() + static_cast<std::size_t>(c) * out_n;
      float* dst = s.x.data() + static_cast<std::size_t>(c) * half * half;
      for (int oh = 0; oh < half; ++oh) {
        const float* row0 = plane + static_cast<std::size_t>(oh * 2) * out_h;
        const float* row1 = row0 + out_h;
        for (int ow = 0; ow < half; ++ow) {
          const float top = std::max(row0[ow * 2], row0[ow * 2 + 1]);
          const float bot = std::max(row1[ow * 2], row1[ow * 2 + 1]);
          dst[static_cast<std::size_t>(oh) * half + ow] = std::max(top, bot);
        }
      }
    }
    s.qx.resize(pooled_n);
    kernels::quantize_s8(s.x.data(), pooled_n, act_scales_[si + 1],
                         s.qx.data());
  }
  // Dense: exact int32 dot per output row, dequantized into the latent.
  Tensor z({dense_out_});
  const float in_scale = act_scales_.back();
  for (int o = 0; o < dense_out_; ++o) {
    const std::int8_t* wrow =
        dense_wq_.data() + static_cast<std::size_t>(o) * dense_in_;
    std::int32_t acc = 0;
    for (int i = 0; i < dense_in_; ++i)
      acc += static_cast<std::int32_t>(wrow[i]) *
             static_cast<std::int32_t>(s.qx[static_cast<std::size_t>(i)]);
    z[static_cast<std::size_t>(o)] =
        dense_b_[static_cast<std::size_t>(o)] +
        static_cast<float>(acc) *
            (in_scale * dense_wscale_[static_cast<std::size_t>(o)]);
  }
  return z;
}

}  // namespace mfw::ml
