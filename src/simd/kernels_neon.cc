// NEON tier (aarch64 baseline): 16-byte vector classification. NEON has no
// movemask; the compare result is ANDed with per-lane bit weights
// (1,2,4,...,128 repeating) and each 8-lane half is summed horizontally
// (vaddv_u8) into one LSB-first byte of the block mask.

#if defined(__aarch64__) || defined(_M_ARM64)

#include <arm_neon.h>

#include "simd/kernels.h"

namespace smpx::simd::detail {
namespace {

inline uint64_t MoveMask16Neon(uint8x16_t eq) {
  const uint8x16_t weights = {1, 2, 4, 8, 16, 32, 64, 128,
                              1, 2, 4, 8, 16, 32, 64, 128};
  uint8x16_t bits = vandq_u8(eq, weights);
  return static_cast<uint64_t>(vaddv_u8(vget_low_u8(bits))) |
         (static_cast<uint64_t>(vaddv_u8(vget_high_u8(bits))) << 8);
}

/// The needles of a ByteSet, broadcast once per span.
struct SetNeedlesNeon {
  explicit SetNeedlesNeon(const ByteSet& set) : n(set.n) {
    for (unsigned j = 0; j < n; ++j) v[j] = vdupq_n_u8(set.chars[j]);
  }
  uint8x16_t Match(uint8x16_t block) const {
    uint8x16_t hits = vdupq_n_u8(0);
    for (unsigned j = 0; j < n; ++j) {
      hits = vorrq_u8(hits, vceqq_u8(block, v[j]));
    }
    return hits;
  }
  uint8x16_t v[8];
  unsigned n;
};

SpanHit EqSpanNeon(const unsigned char* p, size_t start, size_t limit,
                   unsigned char c) {
  const uint8x16_t needle = vdupq_n_u8(c);
  return SpanLoop(
      p, start, limit, 0,
      [needle](const unsigned char* lo, const unsigned char* hi) {
        return BlockOfLanes<16>(
            lo, hi, [needle](const unsigned char* l, const unsigned char*) {
              return MoveMask16Neon(vceqq_u8(vld1q_u8(l), needle));
            });
      });
}

SpanHit AnySpanNeon(const unsigned char* p, size_t start, size_t limit,
                    const ByteSet& set) {
  const SetNeedlesNeon needles(set);
  return SpanLoop(
      p, start, limit, 0,
      [&needles](const unsigned char* lo, const unsigned char* hi) {
        return BlockOfLanes<16>(
            lo, hi, [&needles](const unsigned char* l, const unsigned char*) {
              return MoveMask16Neon(needles.Match(vld1q_u8(l)));
            });
      });
}

SpanHit PairSpanNeon(const unsigned char* p, size_t start, size_t limit,
                     size_t delta, unsigned char a, unsigned char b) {
  const uint8x16_t na = vdupq_n_u8(a);
  const uint8x16_t nb = vdupq_n_u8(b);
  return SpanLoop(
      p, start, limit, delta,
      [na, nb](const unsigned char* lo, const unsigned char* hi) {
        return BlockOfLanes<16>(
            lo, hi, [na, nb](const unsigned char* l, const unsigned char* h) {
              return MoveMask16Neon(vandq_u8(vceqq_u8(vld1q_u8(l), na),
                                             vceqq_u8(vld1q_u8(h), nb)));
            });
      });
}

SpanHit LeadAnySpanNeon(const unsigned char* p, size_t start, size_t limit,
                        unsigned char lead, size_t d, const ByteSet& set) {
  const uint8x16_t nl = vdupq_n_u8(lead);
  const SetNeedlesNeon needles(set);
  return SpanLoop(
      p, start, limit, d,
      [nl, &needles](const unsigned char* lo, const unsigned char* hi) {
        return BlockOfLanes<16>(
            lo, hi,
            [nl, &needles](const unsigned char* l, const unsigned char* h) {
              return MoveMask16Neon(vandq_u8(vceqq_u8(vld1q_u8(l), nl),
                                             needles.Match(vld1q_u8(h))));
            });
      });
}

constexpr Kernels kNeon = {Isa::kNeon, EqSpanNeon, AnySpanNeon, PairSpanNeon,
                           LeadAnySpanNeon};

}  // namespace

const Kernels& NeonKernels() { return kNeon; }

}  // namespace smpx::simd::detail

#endif
