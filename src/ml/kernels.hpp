// Cache-friendly compute kernels for the ML substrate.
//
// The RICC hot paths (Conv2d forward/backward, and through them encode /
// train / predict) lower onto three primitives kept deliberately small:
//
//   - sgemm: row-major single-precision C = A*B (optionally C += A*B),
//     blocked over the N dimension so one C row tile and one B row tile stay
//     in L1, with a K-ascending scalar accumulation per output element. The
//     inner loop is a contiguous saxpy the compiler vectorizes; because K
//     stays ascending per element, the gemm accumulates each output in the
//     same order as the direct convolution loops it replaces.
//   - im2col / col2im: unfold a [C][H][W] image into the [C*k*k][out_h*out_w]
//     patch matrix (zero-padded, any stride) and the transposed scatter-add
//     for the gradient. Row r = (c, kh, kw) of the patch matrix is contiguous
//     in output position, so the gemm streams it.
//   - transpose: out[j][i] = in[i][j], used to express the backward gemms
//     (dW = dY * col^T, dcol = W^T * dY) as the one vector-friendly nn form.
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
//     int32 accumulation. On AVX2 hosts (runtime dispatch — no global arch
//     flags, the fp32 paths keep their baseline codegen) B is repacked into
//     interleaved k-pairs and the inner loop is vpmaddwd: 16 MACs per
//     multiply-add vs the fp32 path's 4-wide SSE saxpy. The scalar fallback
//     computes the same exact integers, so results are host-independent.
//
//   - conv2d_bias_leaky_f32: the fused fp32 Conv2d+bias+LeakyReLU forward.
//     It composes the exact same im2col / bias-init / accumulating-sgemm /
//     in-place slope multiply the unfused layers perform, so its output is
//     bitwise identical to Conv2d::forward + LeakyReLU::forward — it just
//     skips the per-layer Tensor allocations and input caches.
//
// tests/ml_test.cpp keeps the direct 7-deep convolution loops as the
// reference the GEMM lowering is checked against.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mfw::ml::kernels {

/// Row-major C[m][n] = A[m][k] * B[k][n] (accumulate=false) or
/// C[m][n] += A[m][k] * B[k][n] (accumulate=true). Per output element the
/// K products are accumulated in ascending-k order.
void sgemm(std::size_t m, std::size_t n, std::size_t k, const float* a,
           const float* b, float* c, bool accumulate);

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

/// True when gemm_s8 runs its AVX2 vpmaddwd inner loop on this host
/// (runtime dispatch); false on pre-AVX2 / non-x86 hosts, where the scalar
/// fallback computes identical integers.
bool gemm_s8_vectorized();

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
/// in int32, far above any RICC patch size). AVX2 hosts take a vectorized
/// path; the result is the same exact integers on every host.
void gemm_s8(std::size_t m, std::size_t n, std::size_t k,
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
