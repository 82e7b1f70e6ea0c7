#include "ml/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#define MFW_KERNELS_X86 1
#include <immintrin.h>
#endif

namespace mfw::ml::kernels {

namespace {
// One C row tile + one B row tile fit comfortably in a 32 KiB L1 with room
// for the streamed A scalars.
constexpr std::size_t kNBlock = 1024;
}  // namespace

void sgemm(std::size_t m, std::size_t n, std::size_t k, const float* a,
           const float* b, float* c, bool accumulate) {
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

void transpose(std::size_t rows, std::size_t cols, const float* in,
               float* out) {
  // Simple tiled transpose; both matrices here are small enough (K x N of a
  // single convolution) that 32x32 tiles keep each pass in L1.
  constexpr std::size_t kTile = 32;
  for (std::size_t r0 = 0; r0 < rows; r0 += kTile) {
    const std::size_t r1 = std::min(rows, r0 + kTile);
    for (std::size_t c0 = 0; c0 < cols; c0 += kTile) {
      const std::size_t c1 = std::min(cols, c0 + kTile);
      for (std::size_t r = r0; r < r1; ++r)
        for (std::size_t c = c0; c < c1; ++c) out[c * rows + r] = in[r * cols + c];
    }
  }
}

std::size_t im2col_rows(int channels, int kernel) {
  return static_cast<std::size_t>(channels) * kernel * kernel;
}

int conv_out_dim(int in_dim, int kernel, int stride, int pad) {
  return (in_dim + 2 * pad - kernel) / stride + 1;
}

namespace {
// Shared unfold body: the fp32 and int8 patch matrices have identical
// geometry (zero padding is exactly 0 in both domains).
template <typename T>
void im2col_t(const T* input, int channels, int in_h, int in_w, int kernel,
              int stride, int pad, T* col) {
  const int out_h = conv_out_dim(in_h, kernel, stride, pad);
  const int out_w = conv_out_dim(in_w, kernel, stride, pad);
  const std::size_t out_n = static_cast<std::size_t>(out_h) * out_w;
  // "Same" geometry (stride 1, out == in): all in-bounds rows of one
  // (c, kh, kw) patch row are contiguous in both the plane and the patch
  // matrix with equal strides, so they collapse into a single memcpy; the
  // column fringes the copy drags in are re-zeroed after. This replaces
  // out_h tiny per-row memcpys with one large one — the per-call overhead
  // dominated the unfold on RICC's 3x3/s1/p1 stages.
  const bool same_geometry =
      stride == 1 && out_h == in_h && out_w == in_w && pad > 0;
  if (same_geometry) {
    T* row = col;
    for (int c = 0; c < channels; ++c) {
      const T* plane = input + static_cast<std::size_t>(c) * in_h * in_w;
      for (int kh = 0; kh < kernel; ++kh) {
        const int oh0 = std::max(0, pad - kh);           // first in-bounds row
        const int oh1 = std::min(out_h, in_h + pad - kh);  // one past last
        for (int kw = 0; kw < kernel; ++kw, row += out_n) {
          const int iw0 = kw - pad;
          const int lead = std::clamp(-iw0, 0, out_w);
          const int tail_start = std::clamp(in_w - iw0, 0, out_w);
          if (oh0 > 0)
            std::memset(row, 0,
                        static_cast<std::size_t>(oh0) * out_w * sizeof(T));
          if (oh1 < out_h)
            std::memset(row + static_cast<std::size_t>(oh1) * out_w, 0,
                        static_cast<std::size_t>(out_h - oh1) * out_w *
                            sizeof(T));
          if (oh1 > oh0 && tail_start > lead) {
            const std::size_t span =
                static_cast<std::size_t>(oh1 - oh0 - 1) * out_w +
                static_cast<std::size_t>(tail_start - lead);
            std::memcpy(row + static_cast<std::size_t>(oh0) * out_w + lead,
                        plane +
                            static_cast<std::size_t>(oh0 + kh - pad) * in_w +
                            iw0 + lead,
                        span * sizeof(T));
          }
          if (lead > 0 || tail_start < out_w) {
            for (int oh = oh0; oh < oh1; ++oh) {
              T* dst = row + static_cast<std::size_t>(oh) * out_w;
              for (int ow = 0; ow < lead; ++ow) dst[ow] = T{};
              for (int ow = tail_start; ow < out_w; ++ow) dst[ow] = T{};
            }
          }
        }
      }
    }
    return;
  }
  T* row = col;
  for (int c = 0; c < channels; ++c) {
    const T* plane = input + static_cast<std::size_t>(c) * in_h * in_w;
    for (int kh = 0; kh < kernel; ++kh) {
      for (int kw = 0; kw < kernel; ++kw, row += out_n) {
        for (int oh = 0; oh < out_h; ++oh) {
          const int ih = oh * stride - pad + kh;
          T* dst = row + static_cast<std::size_t>(oh) * out_w;
          if (ih < 0 || ih >= in_h) {
            std::memset(dst, 0, static_cast<std::size_t>(out_w) * sizeof(T));
            continue;
          }
          const T* src = plane + static_cast<std::size_t>(ih) * in_w;
          const int iw0 = -pad + kw;
          if (stride == 1) {
            // Contiguous middle segment with zero fringes.
            const int lead = std::clamp(-iw0, 0, out_w);
            const int tail_start = std::clamp(in_w - iw0, 0, out_w);
            for (int ow = 0; ow < lead; ++ow) dst[ow] = T{};
            if (tail_start > lead)
              std::memcpy(dst + lead, src + iw0 + lead,
                          static_cast<std::size_t>(tail_start - lead) *
                              sizeof(T));
            for (int ow = tail_start; ow < out_w; ++ow) dst[ow] = T{};
          } else {
            for (int ow = 0; ow < out_w; ++ow) {
              const int iw = iw0 + ow * stride;
              dst[ow] = (iw < 0 || iw >= in_w) ? T{} : src[iw];
            }
          }
        }
      }
    }
  }
}
}  // namespace

void im2col(const float* input, int channels, int in_h, int in_w, int kernel,
            int stride, int pad, float* col) {
  im2col_t(input, channels, in_h, in_w, kernel, stride, pad, col);
}

void im2col_s8(const std::int8_t* input, int channels, int in_h, int in_w,
               int kernel, int stride, int pad, std::int8_t* col) {
  im2col_t(input, channels, in_h, in_w, kernel, stride, pad, col);
}

// ---------------------------------------------------------- int8 substrate

namespace {

bool detect_avx2() {
#ifdef MFW_KERNELS_X86
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}
const bool kHaveAvx2 = detect_avx2();

#ifdef MFW_KERNELS_X86
// Repacks B's rows into interleaved k-pairs for vpmaddwd: packed row
// pr = p/2 holds (b[p][j], b[p+1][j]) adjacent, so after sign extension to
// int16 each 32-bit lane carries one column's pair and a single madd
// accumulates both k taps. Odd k pads the final pair with 0. 16 columns per
// iteration via byte unpack of the two source rows.
__attribute__((target("avx2"))) void pack_b_pairs_s8_avx2(
    std::size_t n, std::size_t k, const std::int8_t* b, std::int8_t* packed) {
  const std::size_t pairs = (k + 1) / 2;
  const __m128i zero = _mm_setzero_si128();
  for (std::size_t pr = 0; pr < pairs; ++pr) {
    const std::int8_t* b0 = b + (2 * pr) * n;
    const std::int8_t* b1 = (2 * pr + 1 < k) ? b0 + n : nullptr;
    std::int8_t* dst = packed + pr * 2 * n;
    std::size_t j = 0;
    for (; j + 16 <= n; j += 16) {
      const __m128i r0 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(b0 + j));
      const __m128i r1 =
          b1 ? _mm_loadu_si128(reinterpret_cast<const __m128i*>(b1 + j))
             : zero;
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 2 * j),
                       _mm_unpacklo_epi8(r0, r1));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + 2 * j + 16),
                       _mm_unpackhi_epi8(r0, r1));
    }
    for (; j < n; ++j) {
      dst[2 * j] = b0[j];
      dst[2 * j + 1] = b1 ? b1[j] : std::int8_t{0};
    }
  }
}

__attribute__((target("avx2"))) void gemm_s8_avx2(
    std::size_t m, std::size_t n, std::size_t k, const std::int8_t* a,
    const std::int8_t* packed, std::int32_t* c) {
  const std::size_t pairs = (k + 1) / 2;
#define MFW_PAIR_BROADCAST(e0, e1)                                          \
  _mm256_set1_epi32(static_cast<int>(                                       \
      (static_cast<std::uint32_t>(static_cast<std::uint16_t>(e1)) << 16) |  \
      static_cast<std::uint16_t>(e0)))
#define MFW_TAP(idx) ((idx) < k ? std::int16_t{arow[(idx)]} : std::int16_t{0})
  for (std::size_t i = 0; i < m; ++i) {
    const std::int8_t* arow = a + i * k;
    std::int32_t* crow = c + i * n;
    std::memset(crow, 0, n * sizeof(std::int32_t));
    std::size_t pr = 0;
    // Two packed rows (four k taps) per pass over C halves the dominant
    // cost — the accumulator row's load/store traffic.
    for (; pr + 2 <= pairs; pr += 2) {
      const std::int16_t a0 = MFW_TAP(2 * pr);
      const std::int16_t a1 = MFW_TAP(2 * pr + 1);
      const std::int16_t a2 = MFW_TAP(2 * pr + 2);
      const std::int16_t a3 = MFW_TAP(2 * pr + 3);
      if (a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0) continue;
      const __m256i av01 = MFW_PAIR_BROADCAST(a0, a1);
      const __m256i av23 = MFW_PAIR_BROADCAST(a2, a3);
      const std::int8_t* prow0 = packed + pr * 2 * n;
      const std::int8_t* prow1 = prow0 + 2 * n;
      std::size_t j = 0;
      for (; j + 16 <= n; j += 16) {
        const __m256i raw0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(prow0 + 2 * j));
        const __m256i raw1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(prow1 + 2 * j));
        __m256i c0 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(crow + j));
        __m256i c1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(crow + j + 8));
        c0 = _mm256_add_epi32(
            c0, _mm256_madd_epi16(
                    _mm256_cvtepi8_epi16(_mm256_castsi256_si128(raw0)), av01));
        c1 = _mm256_add_epi32(
            c1,
            _mm256_madd_epi16(
                _mm256_cvtepi8_epi16(_mm256_extracti128_si256(raw0, 1)),
                av01));
        c0 = _mm256_add_epi32(
            c0, _mm256_madd_epi16(
                    _mm256_cvtepi8_epi16(_mm256_castsi256_si128(raw1)), av23));
        c1 = _mm256_add_epi32(
            c1,
            _mm256_madd_epi16(
                _mm256_cvtepi8_epi16(_mm256_extracti128_si256(raw1, 1)),
                av23));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow + j), c0);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow + j + 8), c1);
      }
      for (; j < n; ++j)
        crow[j] += static_cast<std::int32_t>(a0) * prow0[2 * j] +
                   static_cast<std::int32_t>(a1) * prow0[2 * j + 1] +
                   static_cast<std::int32_t>(a2) * prow1[2 * j] +
                   static_cast<std::int32_t>(a3) * prow1[2 * j + 1];
    }
    for (; pr < pairs; ++pr) {
      const std::int16_t a0 = MFW_TAP(2 * pr);
      const std::int16_t a1 = MFW_TAP(2 * pr + 1);
      if (a0 == 0 && a1 == 0) continue;  // zero weights contribute nothing
      const __m256i av = MFW_PAIR_BROADCAST(a0, a1);
      const std::int8_t* prow = packed + pr * 2 * n;
      std::size_t j = 0;
      for (; j + 16 <= n; j += 16) {
        const __m256i raw = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(prow + 2 * j));
        const __m256i lo =
            _mm256_cvtepi8_epi16(_mm256_castsi256_si128(raw));
        const __m256i hi =
            _mm256_cvtepi8_epi16(_mm256_extracti128_si256(raw, 1));
        __m256i c0 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(crow + j));
        __m256i c1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(crow + j + 8));
        c0 = _mm256_add_epi32(c0, _mm256_madd_epi16(lo, av));
        c1 = _mm256_add_epi32(c1, _mm256_madd_epi16(hi, av));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow + j), c0);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow + j + 8), c1);
      }
      for (; j < n; ++j)
        crow[j] += static_cast<std::int32_t>(a0) * prow[2 * j] +
                   static_cast<std::int32_t>(a1) * prow[2 * j + 1];
    }
  }
}
#undef MFW_PAIR_BROADCAST
#undef MFW_TAP
// Vectorized symmetric quantization: 32 floats per iteration. vcvtps2dq
// rounds per MXCSR (nearest-even by default), the same mode lrintf uses in
// the scalar tail, so both produce identical int8 for any value the clamp
// keeps (packs saturate to [-128,127]; the explicit ±127 clamp runs first).
__attribute__((target("avx2"))) void quantize_s8_avx2(const float* x,
                                                      std::size_t n, float inv,
                                                      std::int8_t* q) {
  const __m256 vinv = _mm256_set1_ps(inv);
  const __m256i lo = _mm256_set1_epi32(-127);
  const __m256i hi = _mm256_set1_epi32(127);
  // packs interleaves 128-bit lanes; this permutation restores element order.
  const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i q0 = _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(x + i), vinv));
    __m256i q1 =
        _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(x + i + 8), vinv));
    __m256i q2 =
        _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(x + i + 16), vinv));
    __m256i q3 =
        _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(x + i + 24), vinv));
    q0 = _mm256_min_epi32(_mm256_max_epi32(q0, lo), hi);
    q1 = _mm256_min_epi32(_mm256_max_epi32(q1, lo), hi);
    q2 = _mm256_min_epi32(_mm256_max_epi32(q2, lo), hi);
    q3 = _mm256_min_epi32(_mm256_max_epi32(q3, lo), hi);
    const __m256i p16a = _mm256_packs_epi32(q0, q1);
    const __m256i p16b = _mm256_packs_epi32(q2, q3);
    const __m256i p8 =
        _mm256_permutevar8x32_epi32(_mm256_packs_epi16(p16a, p16b), order);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + i), p8);
  }
  for (; i < n; ++i) {
    long v = std::lrintf(x[i] * inv);
    if (v > 127) v = 127;
    if (v < -127) v = -127;
    q[i] = static_cast<std::int8_t>(v);
  }
}

__attribute__((target("avx2"))) void dequant_bias_leaky_s32_avx2(
    const std::int32_t* acc, std::size_t n, float scale, float bias,
    float slope, float* out) {
  const __m256 vscale = _mm256_set1_ps(scale);
  const __m256 vbias = _mm256_set1_ps(bias);
  const __m256 vslope = _mm256_set1_ps(slope);
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_add_ps(
        _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_loadu_si256(
                          reinterpret_cast<const __m256i*>(acc + i))),
                      vscale),
        vbias);
    const __m256 neg = _mm256_mul_ps(v, vslope);
    const __m256 mask = _mm256_cmp_ps(v, zero, _CMP_LT_OQ);
    _mm256_storeu_ps(out + i, _mm256_blendv_ps(v, neg, mask));
  }
  for (; i < n; ++i) {
    const float v = static_cast<float>(acc[i]) * scale + bias;
    out[i] = v < 0.0f ? v * slope : v;
  }
}
#endif  // MFW_KERNELS_X86

}  // namespace

bool gemm_s8_vectorized() { return kHaveAvx2; }

void quantize_s8(const float* x, std::size_t n, float scale, std::int8_t* q) {
  const float inv = 1.0f / scale;
#ifdef MFW_KERNELS_X86
  if (kHaveAvx2) {
    quantize_s8_avx2(x, n, inv, q);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
    long v = std::lrintf(x[i] * inv);
    if (v > 127) v = 127;
    if (v < -127) v = -127;
    q[i] = static_cast<std::int8_t>(v);
  }
}

void dequant_bias_leaky_s32(const std::int32_t* acc, std::size_t n,
                            float scale, float bias, float slope, float* out) {
#ifdef MFW_KERNELS_X86
  if (kHaveAvx2) {
    dequant_bias_leaky_s32_avx2(acc, n, scale, bias, slope, out);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
    const float v = static_cast<float>(acc[i]) * scale + bias;
    out[i] = v < 0.0f ? v * slope : v;
  }
}

void dequantize_s8(const std::int8_t* q, std::size_t n, float scale,
                   float* x) {
  for (std::size_t i = 0; i < n; ++i)
    x[i] = static_cast<float>(q[i]) * scale;
}

void gemm_s8(std::size_t m, std::size_t n, std::size_t k,
             const std::int8_t* a, const std::int8_t* b, std::int32_t* c) {
#ifdef MFW_KERNELS_X86
  if (kHaveAvx2 && n >= 16 && k >= 2) {
    // B is repacked once per call into a per-thread workspace (O(k*n), the
    // same order as the im2col that produced it) and reused for all m rows.
    thread_local std::vector<std::int8_t> packed;
    const std::size_t pairs = (k + 1) / 2;
    packed.resize(pairs * 2 * n);
    pack_b_pairs_s8_avx2(n, k, b, packed.data());
    gemm_s8_avx2(m, n, k, a, packed.data(), c);
    return;
  }
#endif
  // Scalar fallback: blocked like sgemm; integer arithmetic is exact, so
  // this produces the same values as the vector path.
  for (std::size_t n0 = 0; n0 < n; n0 += kNBlock) {
    const std::size_t nw = std::min(kNBlock, n - n0);
    for (std::size_t i = 0; i < m; ++i) {
      std::int32_t* __restrict crow = c + i * n + n0;
      std::memset(crow, 0, nw * sizeof(std::int32_t));
      const std::int8_t* arow = a + i * k;
      for (std::size_t p = 0; p < k; ++p) {
        const std::int32_t av = arow[p];
        if (av == 0) continue;
        const std::int8_t* __restrict brow = b + p * n + n0;
        for (std::size_t j = 0; j < nw; ++j)
          crow[j] += av * static_cast<std::int32_t>(brow[j]);
      }
    }
  }
}

// ----------------------------------------------------------- fused fp32 op

void conv2d_bias_leaky_f32(const float* input, int in_c, int in_h, int in_w,
                           const float* weight, const float* bias, int out_c,
                           int kernel, int stride, int pad, float slope,
                           float* col, float* out) {
  const int out_h = conv_out_dim(in_h, kernel, stride, pad);
  const int out_w = conv_out_dim(in_w, kernel, stride, pad);
  const std::size_t out_n = static_cast<std::size_t>(out_h) * out_w;
  const std::size_t patch = im2col_rows(in_c, kernel);
  im2col(input, in_c, in_h, in_w, kernel, stride, pad, col);
  for (int oc = 0; oc < out_c; ++oc) {
    const float b = bias[oc];
    float* orow = out + static_cast<std::size_t>(oc) * out_n;
    for (std::size_t i = 0; i < out_n; ++i) orow[i] = b;
  }
  sgemm(static_cast<std::size_t>(out_c), out_n, patch, weight, col, out,
        /*accumulate=*/true);
  const std::size_t total = static_cast<std::size_t>(out_c) * out_n;
  for (std::size_t i = 0; i < total; ++i)
    if (out[i] < 0.0f) out[i] *= slope;
}

void col2im(const float* col, int channels, int in_h, int in_w, int kernel,
            int stride, int pad, float* grad_input) {
  const int out_h = conv_out_dim(in_h, kernel, stride, pad);
  const int out_w = conv_out_dim(in_w, kernel, stride, pad);
  const std::size_t out_n = static_cast<std::size_t>(out_h) * out_w;
  const float* row = col;
  for (int c = 0; c < channels; ++c) {
    float* plane = grad_input + static_cast<std::size_t>(c) * in_h * in_w;
    for (int kh = 0; kh < kernel; ++kh) {
      for (int kw = 0; kw < kernel; ++kw, row += out_n) {
        for (int oh = 0; oh < out_h; ++oh) {
          const int ih = oh * stride - pad + kh;
          if (ih < 0 || ih >= in_h) continue;
          const float* src = row + static_cast<std::size_t>(oh) * out_w;
          float* dst = plane + static_cast<std::size_t>(ih) * in_w;
          for (int ow = 0; ow < out_w; ++ow) {
            const int iw = ow * stride - pad + kw;
            if (iw < 0 || iw >= in_w) continue;
            dst[iw] += src[ow];
          }
        }
      }
    }
  }
}

}  // namespace mfw::ml::kernels
