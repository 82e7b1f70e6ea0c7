// Cache-friendly compute kernels for the ML substrate.
//
// The RICC hot paths (Conv2d forward/backward, and through them encode /
// train / predict) lower onto three primitives kept deliberately small:
//
//   - sgemm: row-major single-precision C = A*B (optionally C += A*B). The
//     AVX2 tier is a register-blocked micro-kernel: a 4-row x 16-column tile
//     of C stays in eight ymm accumulators across the whole K loop, and each
//     step is a rounded multiply then a rounded add (never FMA), k
//     ascending. That is the per-element sequence of the scalar loop the
//     non-AVX2 fallback keeps, and of the direct convolution loops GEMM
//     replaced, so every tier, training and inference return the same bits.
//   - im2col / col2im: unfold a [C][H][W] image into the [C*k*k][out_h*out_w]
//     patch matrix (zero-padded, any stride) and the transposed scatter-add
//     for the gradient. Row r = (c, kh, kw) of the patch matrix is contiguous
//     in output position, so the gemm streams it.
//   - transpose: out[j][i] = in[i][j], used to express the backward gemms
//     (dW = dY * col^T, dcol = W^T * dY) as the one nn form.
//
// The int8 inference substrate (DESIGN.md §13) adds four primitives on the
// same im2col+GEMM lowering:
//
//   - quantize_s8 / dequantize_s8: symmetric linear quantization between
//     fp32 and int8 with a single scale (q = round(x/scale), clamped to
//     ±127; -128 is never produced, keeping the code symmetric).
//   - im2col_s8: the int8 twin of im2col (zero padding quantizes to 0
//     exactly, so the patch geometry is shared).
//   - gemm_s8: C[m][n](int32) = A[m][k](int8) * B[k][n](int8) with exact
//     int32 accumulation. B is repacked into interleaved k-pairs and A into
//     broadcast pairs; register-blocked tiles then run vpmaddwd (AVX2,
//     4 x 16) or vpdpwssd (AVX-512 VNNI, 4 x 32) over all k. The sums are
//     exact, so every tier, including the scalar fallback, returns the same
//     integers.
//
//   - conv2d_bias_leaky_f32: the fused fp32 Conv2d+bias+LeakyReLU forward.
//     It composes the exact same im2col / bias-init / accumulating-sgemm /
//     in-place slope multiply the unfused layers perform, so its output is
//     bitwise identical to Conv2d::forward + LeakyReLU::forward — it just
//     skips the per-layer Tensor allocations and input caches.
//
// Dispatch is at run time from the host's CPU features (no global arch
// flags). The Isa overloads pin a tier so tests can hold every tier the host
// runs to one oracle; tests/ml_test.cpp keeps the scalar sgemm loop and the
// direct 7-deep convolution loops as references.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mfw::ml::kernels {

/// Instruction tiers the GEMMs dispatch over, narrowest first. sgemm's
/// widest tier is kAvx2; kAvx512Vnni (avx512bw + avx512vnni) is gemm_s8's.
enum class Isa { kScalar, kAvx2, kAvx512Vnni };

/// The widest tier this host runs.
Isa host_isa();
const char* isa_name(Isa isa);

/// Row-major C[m][n] = A[m][k] * B[k][n] (accumulate=false) or
/// C[m][n] += A[m][k] * B[k][n] (accumulate=true). Per output element the
/// K products are rounded, then added in ascending-k order onto C or +0.0f.
void sgemm(std::size_t m, std::size_t n, std::size_t k, const float* a,
           const float* b, float* c, bool accumulate);
/// sgemm on tier `isa` (kAvx512Vnni runs the kAvx2 kernel); throws
/// std::invalid_argument if the host lacks the tier. Same bits on every tier.
void sgemm(Isa isa, std::size_t m, std::size_t n, std::size_t k,
           const float* a, const float* b, float* c, bool accumulate);

/// out[j][i] = in[i][j] for in[rows][cols].
void transpose(std::size_t rows, std::size_t cols, const float* in, float* out);

/// Patch-matrix geometry for a [channels][*][*] image under a square
/// `kernel` with `stride` and symmetric zero `pad`.
std::size_t im2col_rows(int channels, int kernel);
int conv_out_dim(int in_dim, int kernel, int stride, int pad);

/// Unfolds input [channels][in_h][in_w] into col[channels*kernel*kernel]
/// [out_h*out_w]: col[(c*kernel+kh)*kernel+kw][oh*out_w+ow] =
/// input[c][oh*stride-pad+kh][ow*stride-pad+kw], zero outside the image.
void im2col(const float* input, int channels, int in_h, int in_w, int kernel,
            int stride, int pad, float* col);

/// Transposed scatter-add of im2col: accumulates col back into
/// grad_input[channels][in_h][in_w] (which must be pre-zeroed or carry the
/// values to accumulate onto). Out-of-image taps are dropped.
void col2im(const float* col, int channels, int in_h, int in_w, int kernel,
            int stride, int pad, float* grad_input);

// ------------------------------------------------------- int8 substrate --

/// Symmetric quantization: q[i] = clamp(round(x[i] / scale), -127, 127),
/// round-to-nearest-even. `scale` must be > 0.
void quantize_s8(const float* x, std::size_t n, float scale, std::int8_t* q);

/// Inverse map: x[i] = q[i] * scale.
void dequantize_s8(const std::int8_t* q, std::size_t n, float scale,
                   float* x);

/// int8 twin of im2col: identical patch geometry, zero padding emits 0.
void im2col_s8(const std::int8_t* input, int channels, int in_h, int in_w,
               int kernel, int stride, int pad, std::int8_t* col);

/// Row-major C[m][n] = A[m][k] * B[k][n] with int8 operands and exact int32
/// accumulation (no saturation: |acc| <= k * 127^2 needs k < 2^17 to stay
/// in int32, far above any RICC patch size). The result is the same exact
/// integers on every tier and host.
void gemm_s8(std::size_t m, std::size_t n, std::size_t k,
             const std::int8_t* a, const std::int8_t* b, std::int32_t* c);
/// gemm_s8 on tier `isa`; throws std::invalid_argument if the host lacks it.
void gemm_s8(Isa isa, std::size_t m, std::size_t n, std::size_t k,
             const std::int8_t* a, const std::int8_t* b, std::int32_t* c);

/// Quantized-conv epilogue: out[i] = leaky(float(acc[i]) * scale + bias)
/// where leaky(v) = v < 0 ? v * slope : v. Exactly one float multiply and
/// add per element in both the AVX2 and scalar paths, so the result is
/// bit-identical across hosts (the baseline builds carry no FMA contraction
/// either).
void dequant_bias_leaky_s32(const std::int32_t* acc, std::size_t n,
                            float scale, float bias, float slope, float* out);

// -------------------------------------------------------- fused fp32 op --

/// Fused Conv2d + bias + LeakyReLU forward over input[in_c][in_h][in_w]
/// into out[out_c][out_h][out_w]. `weight` is the layer's [out][in][k][k]
/// tensor, `col` caller scratch of im2col_rows(in_c, kernel) * out_h*out_w
/// floats. Bitwise identical to the unfused Conv2d::forward (GEMM path)
/// followed by LeakyReLU::forward: same im2col, same bias-init +
/// accumulating sgemm, same in-place `x *= slope` on negatives.
void conv2d_bias_leaky_f32(const float* input, int in_c, int in_h, int in_w,
                           const float* weight, const float* bias, int out_c,
                           int kernel, int stride, int pad, float slope,
                           float* col, float* out);

}  // namespace mfw::ml::kernels
