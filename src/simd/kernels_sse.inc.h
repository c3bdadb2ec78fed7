// Shared 16-byte-vector kernel bodies for the SSE tiers. Included by
// kernels_sse2.cc and kernels_sse42.cc, which define
//
//   SMPX_SSE_ISA       the Isa enumerator of the tier
//   SMPX_SSE_ACCESSOR  the accessor function to define (Sse2Kernels, ...)
//
// before inclusion; CMake compiles each includer with the matching -m<isa>
// flags, so the same intrinsics code is scheduled for each feature level.
// No include guard: the file is a template body, included once per tier TU.

#include <emmintrin.h>

#include "simd/kernels.h"

namespace smpx::simd::detail {
namespace {

inline uint64_t MoveMask16(__m128i eq) {
  return static_cast<uint64_t>(static_cast<uint32_t>(_mm_movemask_epi8(eq)));
}

uint64_t Eq64Sse(const unsigned char* p, unsigned char c) {
  const __m128i needle = _mm_set1_epi8(static_cast<char>(c));
  uint64_t mask = 0;
  for (size_t v = 0; v < kBlock / 16; ++v) {
    __m128i block = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(p + 16 * v));
    mask |= MoveMask16(_mm_cmpeq_epi8(block, needle)) << (16 * v);
  }
  return mask;
}

uint64_t Any64Sse(const unsigned char* p, const ByteSet& set) {
  uint64_t mask = 0;
  for (size_t v = 0; v < kBlock / 16; ++v) {
    __m128i block = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(p + 16 * v));
    __m128i hits = _mm_setzero_si128();
    for (unsigned j = 0; j < set.n; ++j) {
      __m128i needle = _mm_set1_epi8(static_cast<char>(set.chars[j]));
      hits = _mm_or_si128(hits, _mm_cmpeq_epi8(block, needle));
    }
    mask |= MoveMask16(hits) << (16 * v);
  }
  return mask;
}

uint64_t Pair64Sse(const unsigned char* p, size_t delta, unsigned char a,
                   unsigned char b) {
  const __m128i na = _mm_set1_epi8(static_cast<char>(a));
  const __m128i nb = _mm_set1_epi8(static_cast<char>(b));
  uint64_t mask = 0;
  for (size_t v = 0; v < kBlock / 16; ++v) {
    __m128i lo = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(p + 16 * v));
    __m128i hi = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(p + 16 * v + delta));
    __m128i hits =
        _mm_and_si128(_mm_cmpeq_epi8(lo, na), _mm_cmpeq_epi8(hi, nb));
    mask |= MoveMask16(hits) << (16 * v);
  }
  return mask;
}

constexpr Kernels kSseTable = {SMPX_SSE_ISA, Eq64Sse, Any64Sse, Pair64Sse};

}  // namespace

const Kernels& SMPX_SSE_ACCESSOR() { return kSseTable; }

}  // namespace smpx::simd::detail
