#include "strmatch/boyer_moore.h"

#include <algorithm>
#include <cassert>

#include "simd/simd.h"
#include "strmatch/word_compare.h"

namespace smpx::strmatch {
namespace {

// Computes, for each position i, the length of the longest suffix of the
// pattern that ends at i (the classical "suffixes" array of the good-suffix
// preprocessing). Signed arithmetic follows the textbook formulation.
std::vector<int> ComputeSuffixes(const std::string& p) {
  const int m = static_cast<int>(p.size());
  std::vector<int> suf(m, 0);
  suf[m - 1] = m;
  int g = m - 1;
  int f = m - 1;
  for (int i = m - 2; i >= 0; --i) {
    if (i > g && suf[i + m - 1 - f] < i - g) {
      suf[i] = suf[i + m - 1 - f];
    } else {
      if (i < g) g = i;
      f = i;
      while (g >= 0 && p[g] == p[g + m - 1 - f]) --g;
      suf[i] = f - g;
    }
  }
  return suf;
}

/// Rough rarity ranking of bytes in XML-shaped text (markup + English
/// prose); smaller = rarer. Used to pick the memchr probe byte: probing the
/// rarest pattern byte minimizes candidate verifications. For the
/// prefilter's "<t"/"</t" keywords this always selects '<'.
int XmlByteRarity(unsigned char c) {
  switch (c) {
    case '<':
      return 0;
    case '>':
      return 10;
    case '/':
      return 15;
    case '=':
    case '"':
    case '\'':
      return 25;
    default:
      break;
  }
  if (c >= 'A' && c <= 'Z') return 30;
  if (c >= '0' && c <= '9') return 40;
  switch (c) {
    case 'j':
    case 'k':
    case 'q':
    case 'x':
    case 'z':
      return 45;
    case 'b':
    case 'g':
    case 'v':
    case 'w':
      return 55;
    case 'c':
    case 'd':
    case 'f':
    case 'h':
    case 'l':
    case 'm':
    case 'p':
    case 'u':
    case 'y':
      return 65;
    case 'a':
    case 'e':
    case 'i':
    case 'n':
    case 'o':
    case 'r':
    case 's':
    case 't':
      return 80;
    case ' ':
    case '\t':
    case '\n':
    case '\r':
      return 90;
    default:
      return 35;  // other punctuation / non-ASCII
  }
}

}  // namespace

BoyerMooreMatcher::BoyerMooreMatcher(std::string pattern) {
  assert(!pattern.empty());
  patterns_.push_back(std::move(pattern));
  const std::string& p = patterns_[0];
  const size_t m = p.size();

  bad_char_.fill(-1);
  for (size_t i = 0; i < m; ++i) {
    bad_char_[static_cast<unsigned char>(p[i])] = static_cast<int>(i);
  }

  // Strong good-suffix shift table (textbook preBmGs).
  const int im = static_cast<int>(m);
  good_suffix_.assign(m, m);
  std::vector<int> suf = ComputeSuffixes(p);
  int j = 0;
  for (int i = im - 1; i >= 0; --i) {
    // Case 2: a prefix of p equals the matched suffix.
    if (suf[i] == i + 1) {
      for (; j < im - 1 - i; ++j) {
        if (good_suffix_[j] == m) good_suffix_[j] = im - 1 - i;
      }
    }
  }
  for (int i = 0; i <= im - 2; ++i) {
    // Case 1: the matched suffix reoccurs elsewhere in the pattern.
    good_suffix_[im - 1 - suf[i]] = im - 1 - i;
  }

  // Probe byte for the memchr skip loop: the rarest byte of the pattern
  // (ties go to the rightmost occurrence).
  for (size_t i = 1; i < m; ++i) {
    if (XmlByteRarity(static_cast<unsigned char>(p[i])) <=
        XmlByteRarity(static_cast<unsigned char>(p[probe_pos_]))) {
      probe_pos_ = i;
    }
  }
  // Second probe for the pair scan: the rarest byte at any other position.
  // Requiring both bytes to match multiplies the two densities, which is
  // what keeps verify counts low on text-heavy input where even the rarest
  // single byte still occurs every few hundred characters. A tag keyword
  // ("<t...", "</t...") pairs its '<' with the rarest NAME byte: '/' ranks
  // rarer than any letter, yet "</" starts every closing tag, so pairing
  // '<' with it would verify every closing tag of the document.
  const size_t name_begin = m > 1 && p[1] == '/' ? 2 : 1;
  if (p[0] == '<' && name_begin < m) {
    probe_pos_ = 0;
    probe2_pos_ = name_begin;
    for (size_t i = name_begin + 1; i < m; ++i) {
      if (XmlByteRarity(static_cast<unsigned char>(p[i])) <=
          XmlByteRarity(static_cast<unsigned char>(p[probe2_pos_]))) {
        probe2_pos_ = i;
      }
    }
    pair_probe_ = true;
  } else if (m >= 4) {
    pair_probe_ = true;
    probe2_pos_ = probe_pos_ == 0 ? 1 : 0;
    for (size_t i = 1; i < m; ++i) {
      if (i == probe_pos_) continue;
      if (XmlByteRarity(static_cast<unsigned char>(p[i])) <=
          XmlByteRarity(static_cast<unsigned char>(p[probe2_pos_]))) {
        probe2_pos_ = i;
      }
    }
  }
}

Match BoyerMooreMatcher::Search(std::string_view text, size_t from,
                                SearchStats* stats) const {
  const std::string& p = patterns_[0];
  const size_t m = p.size();
  const size_t n = text.size();
  if (from > n || n - from < m) return {};
  if (skip_loops_) return SearchSkip(text, from, stats);

  size_t i = from;  // current alignment: pattern start at text position i
  while (i + m <= n) {
    size_t j = m;  // compare right to left; j is 1 + index to compare
    while (j > 0) {
      if (stats != nullptr) ++stats->comparisons;
      if (text[i + j - 1] != p[j - 1]) break;
      --j;
    }
    if (j == 0) return {i, 0};
    const size_t jm1 = j - 1;
    int bc = bad_char_[static_cast<unsigned char>(text[i + jm1])];
    ptrdiff_t bad_shift = static_cast<ptrdiff_t>(jm1) - bc;
    size_t shift = std::max<ptrdiff_t>(
        static_cast<ptrdiff_t>(good_suffix_[jm1]), bad_shift);
    if (shift == 0) shift = 1;  // defensive; strong tables never yield 0
    if (stats != nullptr) {
      ++stats->shifts;
      stats->shift_chars += shift;
    }
    i += shift;
  }
  return {};
}

Match BoyerMooreMatcher::SearchSkip(std::string_view text, size_t from,
                                    SearchStats* stats) const {
  const std::string& p = patterns_[0];
  const size_t m = p.size();
  const size_t n = text.size();
  const unsigned char* ud = reinterpret_cast<const unsigned char*>(text.data());
  const unsigned char* up = reinterpret_cast<const unsigned char*>(p.data());

  // Skip loop: no occurrence can align unless its probe byte (the rarest
  // pattern byte, '<' for tag keywords) matches, so only probe-byte hits
  // become candidate alignments. Each span scan (simd/simd.h) returns the
  // next block holding hits, whose bits pop in ascending text order under
  // every tier, so matches AND stats are tier-independent. Candidates below
  // the BM-shift frontier `i` are dropped without a verify.
  size_t i = from;  // minimal admissible alignment (the shift frontier)

  // Verify at alignment `a`: the rightmost mismatching byte, found by word
  // compares, is the byte the classical right-to-left loop stops at, so
  // the shift and the counts (m - index compares, m on a match) are the
  // classical ones. Advances `i` past `a` on a mismatch.
  auto verify = [&](size_t a) -> bool {
    if (stats != nullptr && a > i) {
      ++stats->shifts;
      stats->shift_chars += a - i;
    }
    i = a;
    const size_t jm1 = detail::LastMismatch(ud + a, up, m);
    if (stats != nullptr) stats->comparisons += jm1 == m ? m : m - jm1;
    if (jm1 == m) return true;
    int bc = bad_char_[ud[a + jm1]];
    ptrdiff_t bad_shift = static_cast<ptrdiff_t>(jm1) - bc;
    size_t shift = std::max<ptrdiff_t>(
        static_cast<ptrdiff_t>(good_suffix_[jm1]), bad_shift);
    if (shift == 0) shift = 1;  // defensive; strong tables never yield 0
    if (stats != nullptr) {
      ++stats->shifts;
      stats->shift_chars += shift;
    }
    i += shift;
    return false;
  };

  // Probe positions k in [from + lo, n - m + lo]; alignment a = k - lo.
  // The pair probe (tag keywords, other long patterns) keeps a candidate
  // only when BOTH probe bytes match, which multiplies the two densities.
  // Its second probe reads up to scan_end + delta = n - m + hi + 1 <= n.
  const size_t lo = pair_probe_ ? std::min(probe_pos_, probe2_pos_)
                                : probe_pos_;
  const size_t hi = pair_probe_ ? std::max(probe_pos_, probe2_pos_)
                                : probe_pos_;
  const unsigned char b_lo = up[lo];
  const unsigned char b_hi = up[hi];
  const size_t delta = hi - lo;
  const size_t scan_end = n - m + lo + 1;
  const simd::Kernels& kn = simd::Active();
  for (size_t k = from + lo; k < scan_end;) {
    const simd::SpanHit h =
        pair_probe_ ? kn.pair_span(ud, k, scan_end, delta, b_lo, b_hi)
                    : kn.eq_span(ud, k, scan_end, b_lo);
    if (h.mask == 0) break;
    for (uint64_t hits = h.mask; hits != 0;
         hits = simd::ClearLowestBit(hits)) {
      const size_t a = h.pos + simd::NextSetBit(hits) - lo;
      if (a < i) continue;  // below the shift frontier
      if (verify(a)) return {a, 0};
    }
    // Resume past this block, or past the shift frontier when it is
    // further on (every hit below it would be dropped anyway).
    k = std::max(h.pos + simd::kBlock, i + lo);
  }
  if (stats != nullptr && n - m + 1 > i) {
    ++stats->shifts;
    stats->shift_chars += n - m + 1 - i;
  }
  return {};
}

HorspoolMatcher::HorspoolMatcher(std::string pattern) {
  assert(!pattern.empty());
  patterns_.push_back(std::move(pattern));
  const std::string& p = patterns_[0];
  const size_t m = p.size();
  shift_.fill(m);
  for (size_t i = 0; i + 1 < m; ++i) {
    shift_[static_cast<unsigned char>(p[i])] = m - 1 - i;
  }
}

Match HorspoolMatcher::Search(std::string_view text, size_t from,
                              SearchStats* stats) const {
  const std::string& p = patterns_[0];
  const size_t m = p.size();
  const size_t n = text.size();
  if (from > n || n - from < m) return {};

  size_t i = from;
  while (i + m <= n) {
    size_t j = m;
    while (j > 0) {
      if (stats != nullptr) ++stats->comparisons;
      if (text[i + j - 1] != p[j - 1]) break;
      --j;
    }
    if (j == 0) return {i, 0};
    size_t shift = shift_[static_cast<unsigned char>(text[i + m - 1])];
    if (stats != nullptr) {
      ++stats->shifts;
      stats->shift_chars += shift;
    }
    i += shift;
  }
  return {};
}

}  // namespace smpx::strmatch
