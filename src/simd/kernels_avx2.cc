// AVX2 tier: 32-byte vector classification; two vector compares cover a
// 64-byte block, and SpanLoop (kernels.h) runs the block loop of a span. Compiled with -mavx2 (CMake per-file flags); only ever
// called after the dispatcher verified AVX2 support at runtime.

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include "simd/kernels.h"

// Normally this TU is compiled with -mavx2 (CMake per-file flags); if the
// flag is unavailable, fall back to per-function target attributes so the
// intrinsics still compile.
#if defined(__AVX2__)
#define SMPX_TARGET_AVX2
#else
#define SMPX_TARGET_AVX2 __attribute__((target("avx2")))
#endif

namespace smpx::simd::detail {
namespace {

SMPX_TARGET_AVX2 inline uint64_t MoveMask32(__m256i eq) {
  return static_cast<uint64_t>(
      static_cast<uint32_t>(_mm256_movemask_epi8(eq)));
}

SMPX_TARGET_AVX2 inline __m256i Load32(const unsigned char* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

/// The needles of a ByteSet, broadcast once per span.
struct SetNeedlesAvx2 {
  SMPX_TARGET_AVX2 explicit SetNeedlesAvx2(const ByteSet& set) : n(set.n) {
    for (unsigned j = 0; j < n; ++j) {
      v[j] = _mm256_set1_epi8(static_cast<char>(set.chars[j]));
    }
  }
  SMPX_TARGET_AVX2 __m256i Match(__m256i block) const {
    __m256i hits = _mm256_setzero_si256();
    for (unsigned j = 0; j < n; ++j) {
      hits = _mm256_or_si256(hits, _mm256_cmpeq_epi8(block, v[j]));
    }
    return hits;
  }
  __m256i v[8];
  unsigned n;
};

// The block ops below are function objects rather than lambdas so that each
// can carry the AVX2 target attribute when the TU lacks -mavx2.

struct EqOpAvx2 {
  __m256i needle;
  SMPX_TARGET_AVX2 uint64_t operator()(const unsigned char* lo,
                                       const unsigned char*) const {
    return MoveMask32(_mm256_cmpeq_epi8(Load32(lo), needle)) |
           (MoveMask32(_mm256_cmpeq_epi8(Load32(lo + 32), needle)) << 32);
  }
};

struct AnyOpAvx2 {
  const SetNeedlesAvx2& needles;
  SMPX_TARGET_AVX2 uint64_t operator()(const unsigned char* lo,
                                       const unsigned char*) const {
    return MoveMask32(needles.Match(Load32(lo))) |
           (MoveMask32(needles.Match(Load32(lo + 32))) << 32);
  }
};

struct PairOpAvx2 {
  __m256i na;
  __m256i nb;
  SMPX_TARGET_AVX2 uint64_t operator()(const unsigned char* lo,
                                       const unsigned char* hi) const {
    return MoveMask32(_mm256_and_si256(_mm256_cmpeq_epi8(Load32(lo), na),
                                       _mm256_cmpeq_epi8(Load32(hi), nb))) |
           (MoveMask32(
                _mm256_and_si256(_mm256_cmpeq_epi8(Load32(lo + 32), na),
                                 _mm256_cmpeq_epi8(Load32(hi + 32), nb)))
            << 32);
  }
};

struct LeadAnyOpAvx2 {
  __m256i nl;
  const SetNeedlesAvx2& needles;
  SMPX_TARGET_AVX2 uint64_t operator()(const unsigned char* lo,
                                       const unsigned char* hi) const {
    return MoveMask32(_mm256_and_si256(_mm256_cmpeq_epi8(Load32(lo), nl),
                                       needles.Match(Load32(hi)))) |
           (MoveMask32(_mm256_and_si256(
                _mm256_cmpeq_epi8(Load32(lo + 32), nl),
                needles.Match(Load32(hi + 32))))
            << 32);
  }
};

SMPX_TARGET_AVX2 SpanHit EqSpanAvx2(const unsigned char* p, size_t start,
                                    size_t limit, unsigned char c) {
  return SpanLoop(p, start, limit, 0,
                  EqOpAvx2{_mm256_set1_epi8(static_cast<char>(c))});
}

SMPX_TARGET_AVX2 SpanHit AnySpanAvx2(const unsigned char* p, size_t start,
                                     size_t limit, const ByteSet& set) {
  const SetNeedlesAvx2 needles(set);
  return SpanLoop(p, start, limit, 0, AnyOpAvx2{needles});
}

SMPX_TARGET_AVX2 SpanHit PairSpanAvx2(const unsigned char* p, size_t start,
                                      size_t limit, size_t delta,
                                      unsigned char a, unsigned char b) {
  return SpanLoop(p, start, limit, delta,
                  PairOpAvx2{_mm256_set1_epi8(static_cast<char>(a)),
                             _mm256_set1_epi8(static_cast<char>(b))});
}

SMPX_TARGET_AVX2 SpanHit LeadAnySpanAvx2(const unsigned char* p,
                                         size_t start, size_t limit,
                                         unsigned char lead, size_t d,
                                         const ByteSet& set) {
  const SetNeedlesAvx2 needles(set);
  return SpanLoop(p, start, limit, d,
                  LeadAnyOpAvx2{_mm256_set1_epi8(static_cast<char>(lead)),
                                needles});
}

constexpr Kernels kAvx2 = {Isa::kAvx2, EqSpanAvx2, AnySpanAvx2, PairSpanAvx2,
                           LeadAnySpanAvx2};

}  // namespace

const Kernels& Avx2Kernels() { return kAvx2; }

}  // namespace smpx::simd::detail

#endif
