// Scalar reference tier: straight per-byte loops with no word or vector
// tricks. Deliberately the simplest possible implementation -- it is the
// oracle the SWAR and vector tiers are differentially verified against
// (tests/simd_test.cc, dispatch_diff_test, fuzz_diff_test), so its
// correctness must be evident by inspection.

#include "simd/kernels.h"

namespace smpx::simd::detail {
namespace {

uint64_t Eq64Scalar(const unsigned char* p, unsigned char c) {
  uint64_t mask = 0;
  for (size_t i = 0; i < kBlock; ++i) {
    mask |= static_cast<uint64_t>(p[i] == c) << i;
  }
  return mask;
}

uint64_t Any64Scalar(const unsigned char* p, const ByteSet& set) {
  uint64_t mask = 0;
  for (size_t i = 0; i < kBlock; ++i) {
    for (unsigned j = 0; j < set.n; ++j) {
      if (p[i] == set.chars[j]) {
        mask |= uint64_t{1} << i;
        break;
      }
    }
  }
  return mask;
}

uint64_t Pair64Scalar(const unsigned char* p, size_t delta, unsigned char a,
                      unsigned char b) {
  uint64_t mask = 0;
  for (size_t i = 0; i < kBlock; ++i) {
    mask |= static_cast<uint64_t>(p[i] == a && p[i + delta] == b) << i;
  }
  return mask;
}

constexpr Kernels kScalar = {Isa::kScalar, Eq64Scalar, Any64Scalar,
                             Pair64Scalar};

}  // namespace

const Kernels& ScalarKernels() { return kScalar; }

}  // namespace smpx::simd::detail
