#include "util/crc32.hpp"

#include <array>

#if defined(__x86_64__) || defined(__i386__)
#define MFW_CRC32_X86 1
#include <immintrin.h>
#endif

namespace mfw::util {
namespace {

constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

constexpr auto kTable = make_table();

std::uint32_t update_table(std::uint32_t state, const unsigned char* p,
                           std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    state = kTable[(state ^ p[i]) & 0xffu] ^ (state >> 8);
  }
  return state;
}

#ifdef MFW_CRC32_X86
// Shortest buffer the folding kernel takes: one 64-byte block fills its four
// lanes. Shorter buffers stay on the table loop.
constexpr std::size_t kFoldMin = 64;

__m128i load16(const unsigned char* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

// Folds lane `a` onto `next`, the 16 bytes that lie k's distance further on
// (512 bits for k1k2, 128 bits for k3k4): a.lo * k.lo ^ a.hi * k.hi ^ next.
__attribute__((target("pclmul"))) __m128i fold(__m128i a, __m128i k,
                                               __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(a, k, 0x00),
                                     _mm_clmulepi64_si128(a, k, 0x11)),
                       next);
}

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009), in the
// bit-reflected domain of the IEEE polynomial 0xedb88320. Four 128-bit lanes
// take 64 bytes per step, each folded 512 bits forward onto the next block
// (k1, k2); the lanes then fold into one (k3, k4), which is folded to 64 bits
// (k4, k5) and Barrett-reduced to 32 (P', mu). Takes and returns the raw
// register state, like update_table. `size` is a multiple of 16, at least 64.
__attribute__((target("pclmul"))) std::uint32_t update_pclmul(
    std::uint32_t state, const unsigned char* p, std::size_t size) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(load16(p), _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x2 = load16(p + 16);
  __m128i x3 = load16(p + 32);
  __m128i x4 = load16(p + 48);
  p += 64;
  size -= 64;
  for (; size >= 64; p += 64, size -= 64) {
    x1 = fold(x1, k1k2, load16(p));
    x2 = fold(x2, k1k2, load16(p + 16));
    x3 = fold(x3, k1k2, load16(p + 32));
    x4 = fold(x4, k1k2, load16(p + 48));
  }
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; size >= 16; p += 16, size -= 16) x1 = fold(x1, k3k4, load16(p));

  // 128 -> 96 bits (low 64 times k4), then 96 -> 64 bits (low 32 times k5).
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  // Barrett reduction to 32 bits: q = lo32(lo32(x) * mu), crc = x ^ q * P'.
  __m128i q = _mm_and_si128(x1, low32);
  q = _mm_and_si128(_mm_clmulepi64_si128(q, poly, 0x10), low32);
  x1 = _mm_xor_si128(x1, _mm_clmulepi64_si128(q, poly, 0x00));
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x1, 4)));
}
#endif

}  // namespace

void Crc32::update(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
#ifdef MFW_CRC32_X86
  static const bool have_pclmul = __builtin_cpu_supports("pclmul");
  if (size >= kFoldMin && have_pclmul) {
    const std::size_t bulk = size & ~std::size_t{15};
    state_ = update_pclmul(state_, p, bulk);
    p += bulk;
    size -= bulk;
  }
#endif
  state_ = update_table(state_, p, size);
}

std::uint32_t crc32(const void* data, std::size_t size) {
  Crc32 c;
  c.update(data, size);
  return c.value();
}

std::uint32_t crc32(std::span<const std::byte> data) {
  return crc32(data.data(), data.size());
}

}  // namespace mfw::util
