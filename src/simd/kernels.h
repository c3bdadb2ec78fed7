// Internal: per-tier kernel table accessors for the dispatcher, and the span
// loop every tier wraps around its block ops. Each tier lives in its own
// translation unit so CMake can compile it with the matching -m<isa> flags;
// tiers that do not exist for the host architecture are simply not compiled
// (and not declared here).

#ifndef SMPX_SIMD_KERNELS_H_
#define SMPX_SIMD_KERNELS_H_

#include <cstdint>
#include <cstring>

#include "simd/simd.h"

namespace smpx::simd::detail {

const Kernels& ScalarKernels();
const Kernels& SwarKernels();

#if defined(__x86_64__) || defined(__i386__) || defined(_M_X64)
#define SMPX_SIMD_X86 1
const Kernels& Sse2Kernels();
const Kernels& Sse42Kernels();
const Kernels& Avx2Kernels();
#endif

#if defined(__aarch64__) || defined(_M_ARM64)
#define SMPX_SIMD_NEON 1
const Kernels& NeonKernels();
#endif

/// How far ahead of the current block a span scan prefetches: one 4 KiB
/// page. The hardware stream prefetchers stop at page boundaries, and a
/// document scan (a page-cache mapping larger than the last-level cache)
/// otherwise stalls on every new page; on the 64 MiB XMark workload this
/// distance beat 1, 2 and 8 KiB.
inline constexpr size_t kPrefetchAhead = 4096;

/// The block loop of one span scan. `op(lo, hi)` is the tier's inline block
/// op: the bitmap of the 64 candidates at lo[0..64), with hi pointing
/// `delta` bytes further on (the second probe of the pair/lead kernels).
/// The last partial block is staged through zeroed locals and its bits at
/// and past `limit` cleared, so nothing at or past limit + delta is read
/// (a prefetch is a hint: it never faults, whatever the address).
template <typename BlockOp>
inline SpanHit SpanLoop(const unsigned char* p, size_t start, size_t limit,
                        size_t delta, const BlockOp& op) {
  if (start >= limit) return {limit, 0};
  size_t b = start;
  for (; limit - b >= kBlock; b += kBlock) {
    // Integer arithmetic: the address may lie past the end of the object.
    __builtin_prefetch(reinterpret_cast<const void*>(
        reinterpret_cast<uintptr_t>(p + b) + kPrefetchAhead));
    const uint64_t m = op(p + b, p + b + delta);
    if (m != 0) return {b, m};
  }
  if (b < limit) {
    const size_t len = limit - b;
    alignas(64) unsigned char lo[kBlock] = {0};
    alignas(64) unsigned char hi[kBlock] = {0};
    std::memcpy(lo, p + b, len);
    if (delta != 0) std::memcpy(hi, p + b + delta, len);
    const uint64_t m = op(lo, delta != 0 ? hi : lo) & TakeMask(len);
    if (m != 0) return {b, m};
  }
  return {limit, 0};
}

/// One 64-bit block bitmap assembled from lanes of kLane bytes (a word or a
/// vector): lane_op(lo, hi) returns the kLane LSB-first candidate bits of
/// the lane at lo, with hi the lane `delta` bytes further on.
template <size_t kLane, typename LaneOp>
inline uint64_t BlockOfLanes(const unsigned char* lo, const unsigned char* hi,
                             const LaneOp& lane_op) {
  uint64_t mask = 0;
  for (size_t l = 0; l < kBlock / kLane; ++l) {
    mask |= lane_op(lo + kLane * l, hi + kLane * l) << (kLane * l);
  }
  return mask;
}

}  // namespace smpx::simd::detail

#endif  // SMPX_SIMD_KERNELS_H_
