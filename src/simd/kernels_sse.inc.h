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

inline __m128i Load16(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// The needles of a ByteSet, broadcast once per span.
struct SetNeedlesSse {
  explicit SetNeedlesSse(const ByteSet& set) : n(set.n) {
    for (unsigned j = 0; j < n; ++j) {
      v[j] = _mm_set1_epi8(static_cast<char>(set.chars[j]));
    }
  }
  __m128i Match(__m128i block) const {
    __m128i hits = _mm_setzero_si128();
    for (unsigned j = 0; j < n; ++j) {
      hits = _mm_or_si128(hits, _mm_cmpeq_epi8(block, v[j]));
    }
    return hits;
  }
  __m128i v[8];
  unsigned n;
};

SpanHit EqSpanSse(const unsigned char* p, size_t start, size_t limit,
                  unsigned char c) {
  const __m128i needle = _mm_set1_epi8(static_cast<char>(c));
  return SpanLoop(
      p, start, limit, 0,
      [needle](const unsigned char* lo, const unsigned char* hi) {
        return BlockOfLanes<16>(
            lo, hi, [needle](const unsigned char* l, const unsigned char*) {
              return MoveMask16(_mm_cmpeq_epi8(Load16(l), needle));
            });
      });
}

SpanHit AnySpanSse(const unsigned char* p, size_t start, size_t limit,
                   const ByteSet& set) {
  const SetNeedlesSse needles(set);
  return SpanLoop(
      p, start, limit, 0,
      [&needles](const unsigned char* lo, const unsigned char* hi) {
        return BlockOfLanes<16>(
            lo, hi, [&needles](const unsigned char* l, const unsigned char*) {
              return MoveMask16(needles.Match(Load16(l)));
            });
      });
}

SpanHit PairSpanSse(const unsigned char* p, size_t start, size_t limit,
                    size_t delta, unsigned char a, unsigned char b) {
  const __m128i na = _mm_set1_epi8(static_cast<char>(a));
  const __m128i nb = _mm_set1_epi8(static_cast<char>(b));
  return SpanLoop(
      p, start, limit, delta,
      [na, nb](const unsigned char* lo, const unsigned char* hi) {
        return BlockOfLanes<16>(
            lo, hi, [na, nb](const unsigned char* l, const unsigned char* h) {
              return MoveMask16(_mm_and_si128(_mm_cmpeq_epi8(Load16(l), na),
                                              _mm_cmpeq_epi8(Load16(h), nb)));
            });
      });
}

SpanHit LeadAnySpanSse(const unsigned char* p, size_t start, size_t limit,
                       unsigned char lead, size_t d, const ByteSet& set) {
  const __m128i nl = _mm_set1_epi8(static_cast<char>(lead));
  const SetNeedlesSse needles(set);
  return SpanLoop(
      p, start, limit, d,
      [nl, &needles](const unsigned char* lo, const unsigned char* hi) {
        return BlockOfLanes<16>(
            lo, hi,
            [nl, &needles](const unsigned char* l, const unsigned char* h) {
              return MoveMask16(_mm_and_si128(_mm_cmpeq_epi8(Load16(l), nl),
                                              needles.Match(Load16(h))));
            });
      });
}

constexpr Kernels kSseTable = {SMPX_SSE_ISA, EqSpanSse, AnySpanSse,
                               PairSpanSse, LeadAnySpanSse};

}  // namespace

const Kernels& SMPX_SSE_ACCESSOR() { return kSseTable; }

}  // namespace smpx::simd::detail
