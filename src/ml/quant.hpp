// Fast inference plans for the RICC encoder (DESIGN.md §13): the fused fp32
// path and the int8 quantized path.
//
// Both plans are compiled once from a (trained) encoder Sequential and are
// immutable afterwards: encode() is const and keeps every mutable buffer in
// a caller-owned EncodeScratch, so one plan instance is safely shared across
// data-parallel workers — unlike Sequential, whose backward caches force a
// clone_net() replica per worker.
//
//   FusedEncoder    — fp32, conv+bias+LeakyReLU+maxpool fused per stage.
//                     Bitwise identical to Sequential::forward on the same
//                     weights (same kernels, same op order); it only removes
//                     the per-layer Tensor allocations and input caches.
//   QuantizedEncoder — int8. Weights carry per-output-channel symmetric
//                     scales (max-abs/127); activations carry per-tensor
//                     scales calibrated from a sample batch run through the
//                     fp32 reference. Each conv stage is int8 im2col →
//                     int32 gemm_s8 → dequant+bias+LeakyReLU in fp32 →
//                     fp32 maxpool → one vectorized requant of the pooled
//                     quarter (requant is monotonic, so pooling before it
//                     changes nothing); the final Dense dequantizes into the
//                     fp32 latent. Accuracy is gated against fp32 (≥99%
//                     42-class assignment agreement) in tests and CI.
//
// Plans snapshot the weights at build time: retrain or reload the model and
// the plan must be rebuilt (RiccModel::set_encode_path handles this).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/tensor.hpp"

namespace mfw::ml {

class Sequential;

/// Reusable per-worker buffers for FusedEncoder / QuantizedEncoder encode
/// calls. Reusing one instance across calls amortizes every allocation in
/// the hot path.
struct EncodeScratch {
  std::vector<float> x;           // fp32 stage input (post-pool)
  std::vector<float> y;           // fp32 conv output (pre-pool)
  std::vector<float> col;         // fp32 patch matrix
  std::vector<std::int8_t> qx;    // int8 stage input
  std::vector<std::int8_t> qcol;  // int8 patch matrix
  std::vector<std::int32_t> acc;  // int32 gemm accumulators
};

/// Fused fp32 encoder plan. Expects the RICC encoder layer pattern
/// ([Conv2d, LeakyReLU, MaxPool2x2] x blocks, Flatten, Dense); build()
/// throws std::invalid_argument on anything else.
class FusedEncoder {
 public:
  struct Stage {
    int in_c = 0, out_c = 0, kernel = 0, stride = 0, pad = 0;
    int in_size = 0;  // square input H == W entering this stage
    float slope = 0.0f;
    std::vector<float> weight;  // [out][in*k*k] snapshot
    std::vector<float> bias;    // [out]
  };

  static FusedEncoder build(const Sequential& encoder, int tile_size);

  /// Encodes one [channels][tile][tile] tile to the [latent_dim] vector,
  /// bitwise identical to the unfused layer path on the same weights.
  Tensor encode(const Tensor& tile, EncodeScratch& scratch) const;

  /// Same fp32 pass, additionally folding per-tensor max-abs values into
  /// `maxabs` (size stage_count()+1): maxabs[0] over the input tile,
  /// maxabs[1+i] over stage i's post-activation (pre-pool) output. This is
  /// the int8 calibration probe.
  Tensor encode_calibrating(const Tensor& tile, EncodeScratch& scratch,
                            std::span<float> maxabs) const;

  std::size_t stage_count() const { return stages_.size(); }
  int tile_size() const { return tile_size_; }
  int channels() const { return channels_; }
  int latent_dim() const { return dense_out_; }

 private:
  Tensor encode_impl(const Tensor& tile, EncodeScratch& scratch,
                     float* maxabs) const;

  std::vector<Stage> stages_;
  int dense_in_ = 0, dense_out_ = 0;
  std::vector<float> dense_wt_;  // [in][out]: the Dense weight transposed
  std::vector<float> dense_b_;
  int tile_size_ = 0, channels_ = 0;
};

/// Int8 quantized encoder plan.
class QuantizedEncoder {
 public:
  /// Quantizes the encoder's weights (per-output-channel scales) and
  /// calibrates per-tensor activation scales by running the fp32 reference
  /// over `sample` (must be non-empty).
  static QuantizedEncoder build(const Sequential& encoder, int tile_size,
                                std::span<const Tensor> sample);

  /// Encodes one tile through the int8 pipeline into the fp32 latent.
  Tensor encode(const Tensor& tile, EncodeScratch& scratch) const;

  /// Per-tensor activation scales: [0] input, [1+i] stage i output.
  std::span<const float> activation_scales() const { return act_scales_; }
  std::size_t stage_count() const { return stages_.size(); }

 private:
  struct Stage {
    int in_c = 0, out_c = 0, kernel = 0, stride = 0, pad = 0;
    int in_size = 0;
    float slope = 0.0f;
    std::vector<std::int8_t> weight_q;  // [out][in*k*k]
    std::vector<float> wscale;          // per output channel
    std::vector<float> bias;            // fp32 (applied at dequant)
  };

  std::vector<Stage> stages_;
  std::vector<float> act_scales_;  // [stage_count()+1]
  int dense_in_ = 0, dense_out_ = 0;
  std::vector<std::int8_t> dense_wq_;
  std::vector<float> dense_wscale_, dense_b_;
  int tile_size_ = 0, channels_ = 0;
};

}  // namespace mfw::ml
