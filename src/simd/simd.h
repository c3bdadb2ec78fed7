// Vectorized structural byte classification with runtime CPU dispatch.
//
// The prefilter's remaining serial ceiling is its byte-scanning loops: the
// engine's tag/attribute span scans, the sharder's top-level boundary scan,
// and the BM/CW candidate probes. All of them reduce to the same primitive:
// "where is the next position holding one of a handful of structural bytes
// ('<', '>', quotes, '-', ']', '?'), or a byte pair at a fixed distance?"
// This layer answers that question simdjson-style -- 64-bit bitmaps per
// 64-byte block, one vector pass per block -- through a table of span
// kernels selected once at startup. A span kernel runs the whole block loop
// of one scan inside the tier: the probe's needles are broadcast and the
// indirect call is paid once per span, not once per block, and it returns
// the first block whose candidate bitmap is non-zero. Tiers:
//
//   scalar  per-byte reference loops; the oracle every other tier is
//           differentially verified against (bit-identical by construction)
//   swar    8-bytes-per-word scans; always available, the portable
//           performance fallback
//   sse2    16-byte vectors (x86-64 baseline)
//   sse42   the same 16-byte kernels compiled for the SSE4.2 feature level
//   avx2    32-byte vectors
//   neon    16-byte vectors on aarch64
//
// Selection: best available tier by CPUID (x86) / architecture (aarch64),
// overridable with SMPX_FORCE_ISA=scalar|swar|sse2|sse42|avx2|neon (an
// unavailable forced tier falls back to the best available at or below it).
// SetIsa() re-selects in-process for tests and benchmarks.
//
// Bitmap convention: bit i (LSB first) of a mask corresponds to byte p[i],
// so text order equals bit-scan order on every host. Span kernels never
// read past the bytes their probe needs (guard-page safe): the last partial
// block is staged through zeroed locals.

#ifndef SMPX_SIMD_SIMD_H_
#define SMPX_SIMD_SIMD_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

namespace smpx::simd {

inline constexpr size_t kBlock = 64;   ///< bytes per bitmap block
inline constexpr size_t kNpos = ~size_t{0};

enum class Isa : int {
  kScalar = 0,
  kSwar = 1,
  kSse2 = 2,
  kSse42 = 3,
  kAvx2 = 4,
  kNeon = 5,
};

/// A small byte class (at most 8 members) for the any-of kernels.
struct ByteSet {
  unsigned char chars[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  unsigned n = 0;

  constexpr ByteSet() = default;
  constexpr explicit ByteSet(std::string_view members) {
    for (char c : members) {
      chars[n++] = static_cast<unsigned char>(c);
    }
  }
};

/// Result of a span scan: the first 64-byte block holding a candidate.
/// Bit i of `mask` is the candidate at p[pos + i]. When the span holds no
/// candidate, `mask` is 0 and `pos` equals the limit.
struct SpanHit {
  size_t pos;
  uint64_t mask;
};

/// One dispatch tier: span-granular classification kernels. Each scans the
/// blocks at start, start + 64, ... over the candidate positions
/// [start, limit) (requires start <= limit) and returns the first block
/// whose bitmap is non-zero; bits at and past `limit` are 0. All function
/// pointers are non-null in every registered tier.
struct Kernels {
  Isa isa;
  /// Candidates i with p[i] == c; reads [start, limit).
  SpanHit (*eq_span)(const unsigned char* p, size_t start, size_t limit,
                     unsigned char c);
  /// Candidates i with p[i] a member of `set`; reads [start, limit).
  SpanHit (*any_span)(const unsigned char* p, size_t start, size_t limit,
                      const ByteSet& set);
  /// Candidates i with p[i] == a && p[i + delta] == b; reads
  /// [start, limit + delta).
  SpanHit (*pair_span)(const unsigned char* p, size_t start, size_t limit,
                       size_t delta, unsigned char a, unsigned char b);
  /// Candidates i with p[i] == lead && p[i + d] a member of `set`; reads
  /// [start, limit + d).
  SpanHit (*lead_any_span)(const unsigned char* p, size_t start,
                           size_t limit, unsigned char lead, size_t d,
                           const ByteSet& set);
};

namespace detail {
extern std::atomic<const Kernels*> g_active;
/// Slow path: runs CPU detection + SMPX_FORCE_ISA once, publishes the tier.
const Kernels& Init();
}  // namespace detail

/// The active kernel tier. Cheap enough for per-span use.
inline const Kernels& Active() {
  const Kernels* k = detail::g_active.load(std::memory_order_relaxed);
  return k != nullptr ? *k : detail::Init();
}

inline Isa ActiveIsa() { return Active().isa; }

const char* IsaName(Isa isa);
bool IsaAvailable(Isa isa);
/// Every available tier, ascending (kScalar and kSwar always included).
std::vector<Isa> AvailableIsas();
/// Test/bench hook: re-selects the tier in-process (not thread-safe against
/// concurrent scans). An unavailable tier falls back to the best available
/// at or below it. Returns the tier actually installed.
Isa SetIsa(Isa isa);
/// Parses an SMPX_FORCE_ISA-style name; false on unknown names.
bool ParseIsa(std::string_view name, Isa* out);

// --- bit-scan helpers --------------------------------------------------------

/// Index (0-63) of the lowest set bit; `mask` must be non-zero.
inline unsigned NextSetBit(uint64_t mask) {
#if defined(__GNUC__) || defined(__clang__)
  return static_cast<unsigned>(__builtin_ctzll(mask));
#else
  unsigned i = 0;
  while ((mask & 1) == 0) {
    mask >>= 1;
    ++i;
  }
  return i;
#endif
}

/// Clears the lowest set bit (advance to the next hit in the block).
inline uint64_t ClearLowestBit(uint64_t mask) { return mask & (mask - 1); }

/// Mask of the low `take` bits (all 64 when take >= 64).
inline uint64_t TakeMask(size_t take) {
  return take >= 64 ? ~uint64_t{0} : ((uint64_t{1} << take) - 1);
}

// --- span scans --------------------------------------------------------------

/// First index in [0, n) with data[i] == c; n when absent.
inline size_t FindByte(const char* data, size_t n, unsigned char c) {
  const SpanHit h =
      Active().eq_span(reinterpret_cast<const unsigned char*>(data), 0, n, c);
  return h.mask != 0 ? h.pos + NextSetBit(h.mask) : n;
}

/// First index in [0, n) whose byte is a member of `set`; n when absent.
inline size_t FindAny(const char* data, size_t n, const ByteSet& set) {
  const SpanHit h = Active().any_span(
      reinterpret_cast<const unsigned char*>(data), 0, n, set);
  return h.mask != 0 ? h.pos + NextSetBit(h.mask) : n;
}

/// First start position of `term` in [0, n); n when absent. Candidates are
/// alignments where the first AND last term byte match (the pair scan);
/// longer terms verify the middle bytes per candidate.
inline size_t FindPattern(const char* data, size_t n, std::string_view term) {
  const size_t tn = term.size();
  if (tn == 0 || n < tn) return tn == 0 ? 0 : n;
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
  const unsigned char t0 = static_cast<unsigned char>(term[0]);
  const unsigned char tl = static_cast<unsigned char>(term[tn - 1]);
  const Kernels& k = Active();
  const size_t n_align = n - tn + 1;
  const unsigned char* tmid =
      reinterpret_cast<const unsigned char*>(term.data()) + 1;
  const size_t mid_len = tn > 2 ? tn - 2 : 0;
  for (size_t i = 0; i < n_align;) {
    const SpanHit h = k.pair_span(p, i, n_align, tn - 1, t0, tl);
    for (uint64_t hits = h.mask; hits != 0; hits = ClearLowestBit(hits)) {
      const size_t at = h.pos + NextSetBit(hits);
      if (mid_len == 0 || std::memcmp(p + at + 1, tmid, mid_len) == 0) {
        return at;
      }
    }
    if (h.mask == 0) break;
    i = h.pos + kBlock;
  }
  return n;
}

/// Bitmap-driven byte iterator: serves "next occurrence of c at or after
/// pos" queries over a fixed buffer, keeping the bitmap of the last block a
/// span scan returned and bit-scanning within it. In tag-dense XML ('<'
/// every ~15 bytes) this amortizes to one classification per block instead
/// of one scan call per structural byte.
class MaskScanner {
 public:
  MaskScanner(const char* data, size_t n, unsigned char c)
      : p_(reinterpret_cast<const unsigned char*>(data)),
        n_(n),
        c_(c),
        kernels_(Active()),
        base_(n) {}

  /// First index >= from with data[i] == c_; n when absent.
  size_t Next(size_t from) {
    if (from >= n_) return n_;
    size_t scan_from = from;
    // Inside the cached block? (from < base_ wraps to a huge difference.)
    if (from - base_ < kBlock) {
      const uint64_t m = mask_ & ~TakeMask(from - base_);
      if (m != 0) return base_ + NextSetBit(m);
      scan_from = base_ + kBlock;  // nothing left in the cached block
      if (scan_from >= n_) return n_;
    }
    const SpanHit h = kernels_.eq_span(p_, scan_from, n_, c_);
    base_ = h.pos;
    mask_ = h.mask;
    return h.mask != 0 ? h.pos + NextSetBit(h.mask) : n_;
  }

 private:
  const unsigned char* p_;
  size_t n_;
  unsigned char c_;
  const Kernels& kernels_;
  size_t base_;  // start of the cached block (n_ before the first scan)
  uint64_t mask_ = 0;
};

}  // namespace smpx::simd

#endif  // SMPX_SIMD_SIMD_H_
