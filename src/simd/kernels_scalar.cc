// Scalar reference tier: straight per-byte loops with no word or vector
// tricks. Deliberately the simplest possible implementation -- it is the
// oracle the SWAR and vector tiers are differentially verified against
// (tests/simd_test.cc, dispatch_diff_test, fuzz_diff_test), so its
// correctness must be evident by inspection.

#include "simd/kernels.h"

namespace smpx::simd::detail {
namespace {

bool InSet(unsigned char c, const ByteSet& set) {
  for (unsigned j = 0; j < set.n; ++j) {
    if (c == set.chars[j]) return true;
  }
  return false;
}

SpanHit EqSpanScalar(const unsigned char* p, size_t start, size_t limit,
                     unsigned char c) {
  return SpanLoop(p, start, limit, 0,
                  [c](const unsigned char* lo, const unsigned char*) {
                    uint64_t mask = 0;
                    for (size_t i = 0; i < kBlock; ++i) {
                      mask |= static_cast<uint64_t>(lo[i] == c) << i;
                    }
                    return mask;
                  });
}

SpanHit AnySpanScalar(const unsigned char* p, size_t start, size_t limit,
                      const ByteSet& set) {
  return SpanLoop(p, start, limit, 0,
                  [&set](const unsigned char* lo, const unsigned char*) {
                    uint64_t mask = 0;
                    for (size_t i = 0; i < kBlock; ++i) {
                      mask |= static_cast<uint64_t>(InSet(lo[i], set)) << i;
                    }
                    return mask;
                  });
}

SpanHit PairSpanScalar(const unsigned char* p, size_t start, size_t limit,
                       size_t delta, unsigned char a, unsigned char b) {
  return SpanLoop(p, start, limit, delta,
                  [a, b](const unsigned char* lo, const unsigned char* hi) {
                    uint64_t mask = 0;
                    for (size_t i = 0; i < kBlock; ++i) {
                      mask |= static_cast<uint64_t>(lo[i] == a && hi[i] == b)
                              << i;
                    }
                    return mask;
                  });
}

SpanHit LeadAnySpanScalar(const unsigned char* p, size_t start, size_t limit,
                          unsigned char lead, size_t d, const ByteSet& set) {
  return SpanLoop(
      p, start, limit, d,
      [lead, &set](const unsigned char* lo, const unsigned char* hi) {
        uint64_t mask = 0;
        for (size_t i = 0; i < kBlock; ++i) {
          mask |= static_cast<uint64_t>(lo[i] == lead && InSet(hi[i], set))
                  << i;
        }
        return mask;
      });
}

constexpr Kernels kScalar = {Isa::kScalar, EqSpanScalar, AnySpanScalar,
                             PairSpanScalar, LeadAnySpanScalar};

}  // namespace

const Kernels& ScalarKernels() { return kScalar; }

}  // namespace smpx::simd::detail
