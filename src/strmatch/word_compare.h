// Internal: fixed-width word compares for candidate verification. Both
// helpers compare [a, a + len) with [b, b + len) through 8-byte (len >= 8)
// or 4-byte (len >= 4) loads that overlap at the ends instead of running
// past them, so they never read outside either range (a text end or a page
// end), and they report the same mismatch index a byte loop would.

#ifndef SMPX_STRMATCH_WORD_COMPARE_H_
#define SMPX_STRMATCH_WORD_COMPARE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace smpx::strmatch::detail {

/// Loads 8 / 4 bytes so that the byte at `p` is the least significant one
/// (text order == significance order regardless of host endianness).
inline uint64_t LoadLe64(const unsigned char* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof(w));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  w = __builtin_bswap64(w);
#endif
  return w;
}

inline uint32_t LoadLe32(const unsigned char* p) {
  uint32_t w;
  std::memcpy(&w, p, sizeof(w));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  w = __builtin_bswap32(w);
#endif
  return w;
}

/// Byte index of the lowest / highest non-zero byte of a non-zero word.
inline size_t LowByte(uint64_t x) {
  return static_cast<size_t>(__builtin_ctzll(x)) >> 3;
}
inline size_t HighByte64(uint64_t x) {
  return 7 - (static_cast<size_t>(__builtin_clzll(x)) >> 3);
}
inline size_t HighByte32(uint32_t x) {
  return 3 - (static_cast<size_t>(__builtin_clz(x)) >> 3);
}

/// Index of the first i < len with a[i] != b[i]; len when the ranges are
/// equal. The overlapping final load re-reads bytes already known equal,
/// whose XOR is zero, so the lowest set byte is still the first mismatch.
inline size_t FirstMismatch(const unsigned char* a, const unsigned char* b,
                            size_t len) {
  if (len >= 8) {
    size_t i = 0;
    for (; i + 8 <= len; i += 8) {
      const uint64_t x = LoadLe64(a + i) ^ LoadLe64(b + i);
      if (x != 0) return i + LowByte(x);
    }
    if (i < len) {
      const size_t at = len - 8;
      const uint64_t x = LoadLe64(a + at) ^ LoadLe64(b + at);
      if (x != 0) return at + LowByte(x);
    }
    return len;
  }
  if (len >= 4) {
    uint32_t x = LoadLe32(a) ^ LoadLe32(b);
    if (x != 0) return LowByte(x);
    x = LoadLe32(a + len - 4) ^ LoadLe32(b + len - 4);
    if (x != 0) return len - 4 + LowByte(x);
    return len;
  }
  for (size_t i = 0; i < len; ++i) {
    if (a[i] != b[i]) return i;
  }
  return len;
}

/// Index of the last i < len with a[i] != b[i]; len when the ranges are
/// equal. Scans right to left, mirroring FirstMismatch.
inline size_t LastMismatch(const unsigned char* a, const unsigned char* b,
                           size_t len) {
  if (len >= 8) {
    size_t e = len;
    for (; e >= 8; e -= 8) {
      const uint64_t x = LoadLe64(a + e - 8) ^ LoadLe64(b + e - 8);
      if (x != 0) return e - 8 + HighByte64(x);
    }
    if (e > 0) {
      const uint64_t x = LoadLe64(a) ^ LoadLe64(b);
      if (x != 0) return HighByte64(x);
    }
    return len;
  }
  if (len >= 4) {
    uint32_t x = LoadLe32(a + len - 4) ^ LoadLe32(b + len - 4);
    if (x != 0) return len - 4 + HighByte32(x);
    x = LoadLe32(a) ^ LoadLe32(b);
    if (x != 0) return HighByte32(x);
    return len;
  }
  for (size_t i = len; i-- > 0;) {
    if (a[i] != b[i]) return i;
  }
  return len;
}

}  // namespace smpx::strmatch::detail

#endif  // SMPX_STRMATCH_WORD_COMPARE_H_
