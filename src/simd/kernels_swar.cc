// SWAR tier: 8-bytes-per-word classification. Always available on any
// host; the portable performance fallback when no vector unit is usable.
//
// ByteEqMask yields 0x80 in every matching byte; the multiply-compaction
// below gathers those per-byte flags into 8 LSB-first bits. The gather is
// exact: with x holding only 0/1 per byte, x * 0x0102040810204080 places
// byte k's bit at position 7k+7 + ... -- each product bit position has at
// most one (k, weight) contribution (k + j = 7 uniquely), so no carries.

#include <cstring>

#include "simd/kernels.h"

namespace smpx::simd::detail {
namespace {

constexpr uint64_t kOnes = 0x0101010101010101ull;
constexpr uint64_t kHighs = 0x8080808080808080ull;

/// Returns a word with bit 7 set in every byte of `w` equal to `c`. Uses
/// the exact (carry-free) zero-byte detector: the cheaper
/// `(x - ones) & ~x & highs` variant has false positives in bytes above a
/// true hit, which would set bits for bytes that do not match.
inline uint64_t ByteEqMask(uint64_t w, unsigned char c) {
  uint64_t x = w ^ (kOnes * c);
  // High bit of each byte is 0 iff the byte is zero.
  uint64_t nonzero = ((x & ~kHighs) + ~kHighs) | x;
  return ~nonzero & kHighs;
}

/// Loads 8 bytes unaligned, normalized so that the byte at `p` is the
/// least significant one (text order == bit order regardless of host
/// endianness).
inline uint64_t LoadWord(const unsigned char* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof(w));
#if defined(__BYTE_ORDER__) && defined(__ORDER_BIG_ENDIAN__) && \
    __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  w = __builtin_bswap64(w);
#endif
  return w;
}

/// 0x80-per-byte mask -> 8 LSB-first bits (byte k of w -> bit k).
inline uint64_t Compact(uint64_t high_mask) {
  return ((high_mask >> 7) * 0x0102040810204080ull) >> 56;
}

/// Bit 7 of each byte of `w` that is a member of `set`.
inline uint64_t ByteInSetMask(uint64_t w, const ByteSet& set) {
  uint64_t hits = 0;
  for (unsigned j = 0; j < set.n; ++j) hits |= ByteEqMask(w, set.chars[j]);
  return hits;
}

SpanHit EqSpanSwar(const unsigned char* p, size_t start, size_t limit,
                   unsigned char c) {
  return SpanLoop(p, start, limit, 0,
                  [c](const unsigned char* lo, const unsigned char* hi) {
                    return BlockOfLanes<8>(
                        lo, hi, [c](const unsigned char* l,
                                    const unsigned char*) {
                          return Compact(ByteEqMask(LoadWord(l), c));
                        });
                  });
}

SpanHit AnySpanSwar(const unsigned char* p, size_t start, size_t limit,
                    const ByteSet& set) {
  return SpanLoop(p, start, limit, 0,
                  [&set](const unsigned char* lo, const unsigned char* hi) {
                    return BlockOfLanes<8>(
                        lo, hi, [&set](const unsigned char* l,
                                       const unsigned char*) {
                          return Compact(ByteInSetMask(LoadWord(l), set));
                        });
                  });
}

SpanHit PairSpanSwar(const unsigned char* p, size_t start, size_t limit,
                     size_t delta, unsigned char a, unsigned char b) {
  return SpanLoop(p, start, limit, delta,
                  [a, b](const unsigned char* lo, const unsigned char* hi) {
                    return BlockOfLanes<8>(
                        lo, hi, [a, b](const unsigned char* l,
                                       const unsigned char* h) {
                          return Compact(ByteEqMask(LoadWord(l), a) &
                                         ByteEqMask(LoadWord(h), b));
                        });
                  });
}

SpanHit LeadAnySpanSwar(const unsigned char* p, size_t start, size_t limit,
                        unsigned char lead, size_t d, const ByteSet& set) {
  return SpanLoop(
      p, start, limit, d,
      [lead, &set](const unsigned char* lo, const unsigned char* hi) {
        return BlockOfLanes<8>(
            lo, hi, [lead, &set](const unsigned char* l,
                                 const unsigned char* h) {
              const uint64_t lead_hits = ByteEqMask(LoadWord(l), lead);
              if (lead_hits == 0) return uint64_t{0};
              return Compact(lead_hits & ByteInSetMask(LoadWord(h), set));
            });
      });
}

constexpr Kernels kSwar = {Isa::kSwar, EqSpanSwar, AnySpanSwar, PairSpanSwar,
                           LeadAnySpanSwar};

}  // namespace

const Kernels& SwarKernels() { return kSwar; }

}  // namespace smpx::simd::detail
