#include "ml/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#define MFW_KERNELS_X86 1
#include <immintrin.h>
#endif

namespace mfw::ml::kernels {

namespace {

Isa detect_isa() {
#ifdef MFW_KERNELS_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512vnni") &&
      __builtin_cpu_supports("avx512bw"))
    return Isa::kAvx512Vnni;
  if (__builtin_cpu_supports("avx2")) return Isa::kAvx2;
#endif
  return Isa::kScalar;
}
const Isa kHostIsa = detect_isa();

void require_isa(Isa isa, const char* who) {
  if (static_cast<int>(isa) > static_cast<int>(kHostIsa))
    throw std::invalid_argument(std::string(who) + ": the host lacks tier " +
                                isa_name(isa));
}

// One C row tile + one B row tile fit comfortably in a 32 KiB L1 with room
// for the streamed A scalars.
constexpr std::size_t kNBlock = 1024;

// The reference loop: per output element, start from C or +0.0f and add
// each rounded product in ascending k. Every tier reproduces these bits.
void sgemm_scalar(std::size_t m, std::size_t n, std::size_t k, const float* a,
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

#ifdef MFW_KERNELS_X86
// One R x (8*V) tile of C, held in R*V ymm accumulators across the whole K
// loop. Each step is a rounded multiply then a rounded add, k ascending,
// starting from C (accumulate) or +0.0f: the scalar loop's per-element
// sequence. The target is "avx2" without "fma" on purpose: with FMA enabled
// GCC would contract the pair into one rounding and change the bits.
// kMasked (V == 1 only) reads and writes the first lanes of `mask`.
template <int R, int V, bool kMasked>
__attribute__((target("avx2"))) inline void sgemm_tile_avx2(
    std::size_t k, const float* a, std::size_t lda, const float* b,
    std::size_t ldb, float* c, std::size_t ldc, bool accumulate,
    __m256i mask) {
  static_assert(!kMasked || V == 1);
  __m256 acc[R][V];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      float* cp = c + r * ldc + 8 * v;
      acc[r][v] = !accumulate ? _mm256_setzero_ps()
                  : kMasked   ? _mm256_maskload_ps(cp, mask)
                              : _mm256_loadu_ps(cp);
    }
  }
  for (std::size_t p = 0; p < k; ++p) {
    __m256 bv[V];
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      const float* bp = b + p * ldb + 8 * v;
      bv[v] = kMasked ? _mm256_maskload_ps(bp, mask) : _mm256_loadu_ps(bp);
    }
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const __m256 av = _mm256_broadcast_ss(a + r * lda + p);
#pragma GCC unroll 2
      for (int v = 0; v < V; ++v)
        acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(av, bv[v]));
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int v = 0; v < V; ++v) {
      float* cp = c + r * ldc + 8 * v;
      if (kMasked)
        _mm256_maskstore_ps(cp, mask, acc[r][v]);
      else
        _mm256_storeu_ps(cp, acc[r][v]);
    }
  }
}

// Columns [j, j + 8*V) (or the masked lanes) of every row: 4-row tiles,
// then one 3-, 2- or 1-row tile for m % 4.
template <int V, bool kMasked>
__attribute__((target("avx2"))) void sgemm_cols_avx2(
    std::size_t m, std::size_t n, std::size_t k, const float* a,
    const float* b, float* c, bool accumulate, std::size_t j, __m256i mask) {
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4)
    sgemm_tile_avx2<4, V, kMasked>(k, a + i * k, k, b + j, n, c + i * n + j,
                                   n, accumulate, mask);
  const float* ai = a + i * k;
  float* ci = c + i * n + j;
  switch (m - i) {
    case 3:
      sgemm_tile_avx2<3, V, kMasked>(k, ai, k, b + j, n, ci, n, accumulate,
                                     mask);
      break;
    case 2:
      sgemm_tile_avx2<2, V, kMasked>(k, ai, k, b + j, n, ci, n, accumulate,
                                     mask);
      break;
    case 1:
      sgemm_tile_avx2<1, V, kMasked>(k, ai, k, b + j, n, ci, n, accumulate,
                                     mask);
      break;
    default:
      break;
  }
}

// 16-column blocks, then one unmasked 8-column block if it fits, then the
// last n % 8 columns under a lane mask. Each B column panel is reused by
// every row tile before the next panel is touched.
__attribute__((target("avx2"))) void sgemm_avx2(std::size_t m, std::size_t n,
                                                std::size_t k, const float* a,
                                                const float* b, float* c,
                                                bool accumulate) {
  const __m256i all = _mm256_set1_epi32(-1);
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16)
    sgemm_cols_avx2<2, false>(m, n, k, a, b, c, accumulate, j, all);
  if (j + 8 <= n) {
    sgemm_cols_avx2<1, false>(m, n, k, a, b, c, accumulate, j, all);
    j += 8;
  }
  if (j < n) {
    const __m256i mask = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(n - j)),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    sgemm_cols_avx2<1, true>(m, n, k, a, b, c, accumulate, j, mask);
  }
}
#endif  // MFW_KERNELS_X86

}  // namespace

Isa host_isa() { return kHostIsa; }

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512Vnni:
      return "avx512vnni";
  }
  return "unknown";
}

void sgemm(std::size_t m, std::size_t n, std::size_t k, const float* a,
           const float* b, float* c, bool accumulate) {
  sgemm(kHostIsa, m, n, k, a, b, c, accumulate);
}

void sgemm(Isa isa, std::size_t m, std::size_t n, std::size_t k,
           const float* a, const float* b, float* c, bool accumulate) {
  require_isa(isa, "sgemm");
#ifdef MFW_KERNELS_X86
  if (isa != Isa::kScalar) {
    sgemm_avx2(m, n, k, a, b, c, accumulate);
    return;
  }
#endif
  sgemm_scalar(m, n, k, a, b, c, accumulate);
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

#ifdef MFW_KERNELS_X86

// Repacks B's rows into interleaved k-pairs: packed row pr = p/2 holds
// (b[p][j], b[p+1][j]) adjacent, so after sign extension to int16 each 32-bit
// lane carries one column's pair and a single vpmaddwd / vpdpwssd accumulates
// both k taps. Odd k pads the final pair with 0 (the one pad: A's pairs do
// not carry one), and the padding columns [n, ldp/2) are 0. 16 columns per
// iteration via byte unpack of the two source rows.
__attribute__((target("avx2"))) void pack_b_pairs_s8_avx2(
    std::size_t n, std::size_t k, const std::int8_t* b, std::int8_t* packed,
    std::size_t ldp) {
  const std::size_t pairs = (k + 1) / 2;
  const __m128i zero = _mm_setzero_si128();
  for (std::size_t pr = 0; pr < pairs; ++pr) {
    const std::int8_t* b0 = b + (2 * pr) * n;
    const std::int8_t* b1 = (2 * pr + 1 < k) ? b0 + n : nullptr;
    std::int8_t* dst = packed + pr * ldp;
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
    std::memset(dst + 2 * n, 0, ldp - 2 * n);
  }
}

// A's rows as broadcastable int32 pairs: low half a[i][2pr], high half
// a[i][2pr+1], each sign-extended to int16. The odd-k tail's high half meets
// B's zero pad row, so it just repeats the last tap.
void pack_a_pairs_s8(std::size_t m, std::size_t k, const std::int8_t* a,
                     std::int32_t* packed) {
  const std::size_t pairs = (k + 1) / 2;
  for (std::size_t i = 0; i < m; ++i) {
    const std::int8_t* arow = a + i * k;
    for (std::size_t pr = 0; pr < pairs; ++pr) {
      const auto lo = static_cast<std::uint16_t>(std::int16_t{arow[2 * pr]});
      const auto hi = static_cast<std::uint16_t>(
          std::int16_t{arow[std::min(2 * pr + 1, k - 1)]});
      packed[i * pairs + pr] = static_cast<std::int32_t>(
          (static_cast<std::uint32_t>(hi) << 16) | lo);
    }
  }
}

// The gemm_s8 tiers. tile<R> computes one R x kCols block of C in R*2
// accumulators across all k pairs, then stores its first w columns (all of
// them when w >= kCols). Integer sums are exact, so the order is free.
//
// AVX2: per pair, sign-extend 16 columns of packed B to int16 and vpmaddwd
// them against each row's broadcast A pair.
struct S8Avx2 {
  static constexpr std::size_t kCols = 16;

  template <int R>
  __attribute__((target("avx2"))) static void tile(
      std::size_t pairs, const std::int32_t* ap, const std::int8_t* bp,
      std::size_t ldp, std::int32_t* c, std::size_t ldc, std::size_t w) {
    __m256i acc[R][2];
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      acc[r][0] = _mm256_setzero_si256();
      acc[r][1] = _mm256_setzero_si256();
    }
    for (std::size_t pr = 0; pr < pairs; ++pr) {
      const std::int8_t* brow = bp + pr * ldp;
      const __m256i b0 = _mm256_cvtepi8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(brow)));
      const __m256i b1 = _mm256_cvtepi8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(brow + 16)));
#pragma GCC unroll 4
      for (int r = 0; r < R; ++r) {
        const __m256i av = _mm256_set1_epi32(ap[r * pairs + pr]);
        acc[r][0] = _mm256_add_epi32(acc[r][0], _mm256_madd_epi16(b0, av));
        acc[r][1] = _mm256_add_epi32(acc[r][1], _mm256_madd_epi16(b1, av));
      }
    }
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      std::int32_t* crow = c + r * ldc;
      if (w >= kCols) {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow), acc[r][0]);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow + 8), acc[r][1]);
      } else {
        alignas(32) std::int32_t row[kCols];
        _mm256_store_si256(reinterpret_cast<__m256i*>(row), acc[r][0]);
        _mm256_store_si256(reinterpret_cast<__m256i*>(row + 8), acc[r][1]);
        std::memcpy(crow, row, w * sizeof(std::int32_t));
      }
    }
  }
};

// AVX-512 VNNI: vpdpwssd fuses the pair multiply-add with the int32
// accumulate, 16 columns per zmm. A column tail goes through a stack row:
// with masked stores GCC 12 copies every accumulator on each k step.
struct S8Vnni {
  static constexpr std::size_t kCols = 32;

  template <int R>
  __attribute__((target("avx512f,avx512bw,avx512vnni"))) static void tile(
      std::size_t pairs, const std::int32_t* ap, const std::int8_t* bp,
      std::size_t ldp, std::int32_t* c, std::size_t ldc, std::size_t w) {
    __m512i acc[R][2];
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      acc[r][0] = _mm512_setzero_si512();
      acc[r][1] = _mm512_setzero_si512();
    }
    for (std::size_t pr = 0; pr < pairs; ++pr) {
      const std::int8_t* brow = bp + pr * ldp;
      const __m512i b0 = _mm512_cvtepi8_epi16(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(brow)));
      const __m512i b1 = _mm512_cvtepi8_epi16(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(brow + 32)));
#pragma GCC unroll 4
      for (int r = 0; r < R; ++r) {
        const __m512i av = _mm512_set1_epi32(ap[r * pairs + pr]);
        acc[r][0] = _mm512_dpwssd_epi32(acc[r][0], av, b0);
        acc[r][1] = _mm512_dpwssd_epi32(acc[r][1], av, b1);
      }
    }
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      std::int32_t* crow = c + r * ldc;
      if (w >= kCols) {
        _mm512_storeu_si512(crow, acc[r][0]);
        _mm512_storeu_si512(crow + 16, acc[r][1]);
      } else {
        alignas(64) std::int32_t row[kCols];
        _mm512_store_si512(row, acc[r][0]);
        _mm512_store_si512(row + 16, acc[r][1]);
        std::memcpy(crow, row, w * sizeof(std::int32_t));
      }
    }
  }
};

// Covers C with tier T's tiles: kCols-wide column blocks, each as 4-row
// tiles and then one 3-, 2- or 1-row tile for m % 4.
template <class T>
void gemm_s8_tiled(std::size_t m, std::size_t n, std::size_t pairs,
                   const std::int32_t* ap, const std::int8_t* bp,
                   std::size_t ldp, std::int32_t* c) {
  for (std::size_t j = 0; j < n; j += T::kCols) {
    const std::size_t w = n - j;
    const std::int8_t* bj = bp + 2 * j;
    std::size_t i = 0;
    for (; i + 4 <= m; i += 4)
      T::template tile<4>(pairs, ap + i * pairs, bj, ldp, c + i * n + j, n,
                          w);
    const std::int32_t* ai = ap + i * pairs;
    std::int32_t* ci = c + i * n + j;
    switch (m - i) {
      case 3:
        T::template tile<3>(pairs, ai, bj, ldp, ci, n, w);
        break;
      case 2:
        T::template tile<2>(pairs, ai, bj, ldp, ci, n, w);
        break;
      case 1:
        T::template tile<1>(pairs, ai, bj, ldp, ci, n, w);
        break;
      default:
        break;
    }
  }
}

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

void quantize_s8(const float* x, std::size_t n, float scale, std::int8_t* q) {
  const float inv = 1.0f / scale;
#ifdef MFW_KERNELS_X86
  if (kHostIsa != Isa::kScalar) {
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
  if (kHostIsa != Isa::kScalar) {
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
  gemm_s8(kHostIsa, m, n, k, a, b, c);
}

void gemm_s8(Isa isa, std::size_t m, std::size_t n, std::size_t k,
             const std::int8_t* a, const std::int8_t* b, std::int32_t* c) {
  require_isa(isa, "gemm_s8");
#ifdef MFW_KERNELS_X86
  if (isa != Isa::kScalar) {
    // Both operands are repacked once per call into per-thread workspaces
    // (O(k*n) for B, the same order as the im2col that produced it).
    thread_local std::vector<std::int8_t> packed_b;
    thread_local std::vector<std::int32_t> packed_a;
    const std::size_t pairs = (k + 1) / 2;
    // Packed rows are padded to the widest tile, so every tier's loads stay
    // in bounds.
    constexpr std::size_t kPad = S8Vnni::kCols;
    const std::size_t ldp = 2 * ((n + kPad - 1) / kPad * kPad);
    packed_b.resize(pairs * ldp);
    packed_a.resize(m * pairs);
    pack_b_pairs_s8_avx2(n, k, b, packed_b.data(), ldp);
    pack_a_pairs_s8(m, k, a, packed_a.data());
    if (isa == Isa::kAvx512Vnni)
      gemm_s8_tiled<S8Vnni>(m, n, pairs, packed_a.data(), packed_b.data(),
                            ldp, c);
    else
      gemm_s8_tiled<S8Avx2>(m, n, pairs, packed_a.data(), packed_b.data(),
                            ldp, c);
    return;
  }
#endif
  // Scalar fallback: blocked like sgemm; integer arithmetic is exact, so
  // this produces the same values as the vector tiers.
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
