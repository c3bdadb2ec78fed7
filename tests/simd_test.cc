// Differential tests for the SIMD structural-classification layer
// (src/simd/): every available dispatch tier's span kernels must agree with
// a span oracle (and so with the scalar tier) for every start and limit
// around the block boundaries, and must never read past the bytes their
// probe needs (verified with guard-page allocations).

#include "simd/simd.h"

#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "guarded_buffer.h"

namespace smpx::simd {
namespace {

// Deterministic byte soup dense in the structural bytes the prefilter
// classifies, so bitmaps are non-trivial at every offset.
std::vector<unsigned char> MakeCorpus(size_t n, uint32_t seed) {
  static constexpr char kAlphabet[] = "<>\"'-]?ab <<>>x-]'\"?";
  std::mt19937 rng(seed);
  std::vector<unsigned char> buf(n);
  for (size_t i = 0; i < n; ++i) {
    buf[i] = static_cast<unsigned char>(
        kAlphabet[rng() % (sizeof(kAlphabet) - 1)]);
  }
  return buf;
}

/// RAII restore of the dispatch tier around a test body.
class IsaGuard {
 public:
  IsaGuard() : saved_(ActiveIsa()) {}
  ~IsaGuard() { SetIsa(saved_); }

 private:
  Isa saved_;
};

using smpx::testing::GuardedBuffer;

/// The span oracle: the first block start+64k (k >= 0) below `limit` whose
/// candidates i in [block, min(block + 64, limit)) satisfy `pred`.
template <typename Pred>
SpanHit NaiveSpan(size_t start, size_t limit, const Pred& pred) {
  for (size_t b = start; b < limit; b += 64) {
    uint64_t m = 0;
    for (size_t i = b; i < limit && i < b + 64; ++i) {
      if (pred(i)) m |= uint64_t{1} << (i - b);
    }
    if (m != 0) return {b, m};
  }
  return {limit, 0};
}

void ExpectSameHit(SpanHit got, SpanHit want, const std::string& what) {
  EXPECT_EQ(got.pos, want.pos) << what;
  EXPECT_EQ(got.mask, want.mask) << what;
}

bool InSet(unsigned char c, const ByteSet& set) {
  for (unsigned j = 0; j < set.n; ++j) {
    if (c == set.chars[j]) return true;
  }
  return false;
}

/// Every span kernel of the active tier at (start, limit) against the
/// oracle. `p` must be readable through limit + 7.
void ExpectSpansMatchOracle(const unsigned char* p, size_t start,
                            size_t limit, const std::string& what) {
  // NUL probes catch a partial block whose zeroed staging bytes leak bits.
  static constexpr ByteSet kSet(std::string_view("<>\"'-]?\0", 8));
  static constexpr ByteSet kFilter(std::string_view("ab\0", 3));
  const Kernels& k = Active();
  auto same = [&](SpanHit got, SpanHit want, const char* kernel) {
    ExpectSameHit(got, want, std::string(kernel) + " " + what);
  };
  for (unsigned char c : {'<', '-', 'z', '\0'}) {
    same(k.eq_span(p, start, limit, c),
         NaiveSpan(start, limit, [&](size_t i) { return p[i] == c; }),
         "eq_span");
  }
  same(k.any_span(p, start, limit, kSet),
       NaiveSpan(start, limit, [&](size_t i) { return InSet(p[i], kSet); }),
       "any_span");
  for (size_t delta : {0u, 1u, 2u, 7u}) {
    same(k.pair_span(p, start, limit, delta, '<', '>'),
         NaiveSpan(start, limit,
                   [&](size_t i) {
                     return p[i] == '<' && p[i + delta] == '>';
                   }),
         "pair_span");
    same(k.pair_span(p, start, limit, delta, '\0', '\0'), SpanHit{limit, 0},
         "pair_span NUL");
    same(k.lead_any_span(p, start, limit, '<', delta, kFilter),
         NaiveSpan(start, limit,
                   [&](size_t i) {
                     return p[i] == '<' && InSet(p[i + delta], kFilter);
                   }),
         "lead_any_span");
  }
}

TEST(SimdDispatchTest, ScalarAndSwarAlwaysAvailable) {
  EXPECT_TRUE(IsaAvailable(Isa::kScalar));
  EXPECT_TRUE(IsaAvailable(Isa::kSwar));
  std::vector<Isa> isas = AvailableIsas();
  ASSERT_GE(isas.size(), 2u);
  EXPECT_EQ(isas[0], Isa::kScalar);
  EXPECT_EQ(isas[1], Isa::kSwar);
}

TEST(SimdDispatchTest, SetIsaInstallsRequestedTierWhenAvailable) {
  IsaGuard guard;
  for (Isa isa : AvailableIsas()) {
    EXPECT_EQ(SetIsa(isa), isa);
    EXPECT_EQ(ActiveIsa(), isa);
  }
}

TEST(SimdDispatchTest, SetIsaFallsBackAtOrBelow) {
  IsaGuard guard;
  // Whatever the host, requesting the top tier must install an available
  // tier at or below it, never something above.
  Isa got = SetIsa(Isa::kNeon);
  EXPECT_TRUE(IsaAvailable(got));
  EXPECT_LE(static_cast<int>(got), static_cast<int>(Isa::kNeon));
  got = SetIsa(Isa::kScalar);
  EXPECT_EQ(got, Isa::kScalar);
}

TEST(SimdDispatchTest, ParseIsaRoundTrips) {
  for (Isa isa : {Isa::kScalar, Isa::kSwar, Isa::kSse2, Isa::kSse42,
                  Isa::kAvx2, Isa::kNeon}) {
    Isa parsed;
    ASSERT_TRUE(ParseIsa(IsaName(isa), &parsed)) << IsaName(isa);
    EXPECT_EQ(parsed, isa);
  }
  Isa parsed;
  EXPECT_FALSE(ParseIsa("avx512", &parsed));
  EXPECT_FALSE(ParseIsa("", &parsed));
}

// Every tier's span kernels agree with the oracle (and so with the scalar
// tier) for every start and every limit 0..200, on a corpus dense in probe
// bytes (the first block hits) and on a sparse one (the loop runs several
// empty blocks first, and the staged partial block decides).
TEST(SimdKernelTest, SpanKernelsMatchOracleForEveryStartAndLimit) {
  IsaGuard guard;
  std::vector<unsigned char> sparse(200 + 8, 'x');
  for (size_t i = 37; i + 2 < sparse.size(); i += 61) {
    sparse[i] = '<';
    sparse[i + 2] = i % 2 ? 'a' : '>';
  }
  sparse[150] = '-';
  const std::vector<std::vector<unsigned char>> corpora = {
      MakeCorpus(200 + 8, 1), sparse};
  for (Isa isa : AvailableIsas()) {
    ASSERT_EQ(SetIsa(isa), isa);
    for (size_t c = 0; c < corpora.size(); ++c) {
      for (size_t limit = 0; limit <= 200; ++limit) {
        for (size_t start = 0; start <= limit; ++start) {
          ExpectSpansMatchOracle(corpora[c].data(), start, limit,
                                 std::string(IsaName(isa)) + " corpus=" +
                                     std::to_string(c) +
                                     " start=" + std::to_string(start) +
                                     " limit=" + std::to_string(limit));
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
  }
}

// Span kernels, and the helpers built on them, must not read past what
// their probe needs: run them flush against a PROT_NONE page for every
// length 0..129. A single over-read segfaults.
TEST(SimdKernelTest, SpanScansNeverReadPastEndGuardPage) {
  IsaGuard guard;
  GuardedBuffer gb;
  static constexpr ByteSet kSet(">\"'");
  for (Isa isa : AvailableIsas()) {
    ASSERT_EQ(SetIsa(isa), isa);
    for (size_t len = 0; len <= 129; ++len) {
      unsigned char* p = gb.EndMinus(len);
      for (size_t i = 0; i < len; ++i) {
        p[i] = static_cast<unsigned char>("<x>'"[i % 4]);
      }
      const std::string what =
          std::string(IsaName(isa)) + " len=" + std::to_string(len);
      const Kernels& k = Active();
      for (size_t start = 0; start <= len; start += 13) {
        ExpectSameHit(k.eq_span(p, start, len, '<'),
                      NaiveSpan(start, len,
                                [&](size_t i) { return p[i] == '<'; }),
                      "eq_span " + what);
        ExpectSameHit(k.any_span(p, start, len, kSet),
                      NaiveSpan(start, len,
                                [&](size_t i) { return InSet(p[i], kSet); }),
                      "any_span " + what);
        for (size_t delta : {1u, 5u}) {
          if (len < delta) continue;
          const size_t limit = len - delta;  // the second probe ends at len
          const size_t from = start < limit ? start : limit;
          ExpectSameHit(k.pair_span(p, from, limit, delta, '<', '>'),
                        NaiveSpan(from, limit,
                                  [&](size_t i) {
                                    return p[i] == '<' && p[i + delta] == '>';
                                  }),
                        "pair_span " + what);
          ExpectSameHit(k.lead_any_span(p, from, limit, '<', delta, kSet),
                        NaiveSpan(from, limit,
                                  [&](size_t i) {
                                    return p[i] == '<' &&
                                           InSet(p[i + delta], kSet);
                                  }),
                        "lead_any_span " + what);
        }
      }
      const char* d = reinterpret_cast<const char*>(p);
      (void)FindByte(d, len, 'q');
      (void)FindAny(d, len, kSet);
      (void)FindPattern(d, len, "-->");
      MaskScanner ms(d, len, '<');
      for (size_t q = ms.Next(0); q < len; q = ms.Next(q + 1)) {
      }
    }
  }
}

// FindByte/FindAny/FindPattern agree with straightforward scalar searches
// on random soup, on every tier, across lengths spanning block boundaries.
TEST(SimdFindTest, FindHelpersMatchNaiveSearches) {
  IsaGuard guard;
  const std::vector<unsigned char> corpus = MakeCorpus(4096, 3);
  const char* d = reinterpret_cast<const char*>(corpus.data());
  static constexpr ByteSet kSet("[]>\"'");
  for (Isa isa : AvailableIsas()) {
    ASSERT_EQ(SetIsa(isa), isa);
    for (size_t n : {0u, 1u, 5u, 63u, 64u, 65u, 127u, 128u, 1000u, 4096u}) {
      // FindByte vs memchr.
      const void* want = std::memchr(d, '<', n);
      size_t got = FindByte(d, n, '<');
      EXPECT_EQ(got, want == nullptr
                         ? n
                         : static_cast<size_t>(
                               static_cast<const char*>(want) - d))
          << IsaName(isa) << " n=" << n;
      // FindAny vs a scalar loop.
      size_t naive = n;
      for (size_t i = 0; i < n; ++i) {
        if (std::memchr("[]>\"'", d[i], 5) != nullptr) {
          naive = i;
          break;
        }
      }
      EXPECT_EQ(FindAny(d, n, kSet), naive) << IsaName(isa) << " n=" << n;
      // FindPattern vs string_view::find for 2- and 3-byte terms.
      for (std::string_view term : {std::string_view("?>"),
                                    std::string_view("-->"),
                                    std::string_view("]]>")}) {
        size_t ref = std::string_view(d, n).find(term);
        if (ref == std::string_view::npos) ref = n;
        EXPECT_EQ(FindPattern(d, n, term), ref)
            << IsaName(isa) << " n=" << n << " term=" << term;
      }
    }
  }
}

// MaskScanner enumerates exactly the memchr hit sequence, including
// re-query patterns (repeat Next at the same position, jumps forward).
TEST(SimdFindTest, MaskScannerMatchesMemchrEnumeration) {
  IsaGuard guard;
  const std::vector<unsigned char> corpus = MakeCorpus(2048, 4);
  const char* d = reinterpret_cast<const char*>(corpus.data());
  const size_t n = corpus.size();
  for (Isa isa : AvailableIsas()) {
    ASSERT_EQ(SetIsa(isa), isa);
    MaskScanner ms(d, n, '<');
    size_t pos = 0;
    while (true) {
      const void* hit = std::memchr(d + pos, '<', n - pos);
      size_t want =
          hit == nullptr
              ? n
              : static_cast<size_t>(static_cast<const char*>(hit) - d);
      EXPECT_EQ(ms.Next(pos), want) << IsaName(isa) << " pos=" << pos;
      // Re-query at the same position must be stable.
      EXPECT_EQ(ms.Next(pos), want) << IsaName(isa);
      if (want == n) break;
      // Alternate between stepping one past the hit and jumping ahead, to
      // exercise both the cached-block and fresh-block paths.
      pos = (want % 3 == 0) ? want + 17 : want + 1;
      if (pos > n) break;
    }
    EXPECT_EQ(ms.Next(n), n) << IsaName(isa);
    EXPECT_EQ(ms.Next(n + 100), n) << IsaName(isa);
  }
}

// Fuzz: all tiers produce bitwise-identical span hits on random inputs at
// random starts/limits, with scalar as the oracle.
TEST(SimdKernelTest, FuzzAllTiersAgainstScalar) {
  IsaGuard guard;
  std::mt19937 rng(99);
  const std::vector<Isa> isas = AvailableIsas();
  for (int round = 0; round < 200; ++round) {
    // 63 (max align) + 7 (max delta) + 130 (max limit) < 256, so every
    // probe stays inside the corpus.
    const std::vector<unsigned char> corpus =
        MakeCorpus(256, 1000 + static_cast<uint32_t>(round));
    const size_t align = rng() % 64;
    const size_t len = rng() % 130;
    const size_t start = len == 0 ? 0 : rng() % len;
    const unsigned char c =
        static_cast<unsigned char>("<>\"'-]?x"[rng() % 8]);
    const size_t delta = 1 + rng() % 7;
    const unsigned char* p = corpus.data() + align;
    static constexpr ByteSet kSet("<>\"'-]?");
    static constexpr ByteSet kFilter("]?x");

    auto run = [&] {
      const Kernels& k = Active();
      const SpanHit hits[] = {
          k.eq_span(p, start, len, c), k.any_span(p, start, len, kSet),
          k.pair_span(p, start, len, delta, c, '>'),
          k.lead_any_span(p, start, len, c, delta, kFilter)};
      std::vector<uint64_t> out;
      for (const SpanHit& h : hits) {
        out.push_back(h.pos);
        out.push_back(h.mask);
      }
      return out;
    };
    SetIsa(Isa::kScalar);
    const std::vector<uint64_t> want = run();
    for (Isa isa : isas) {
      SetIsa(isa);
      EXPECT_EQ(run(), want) << IsaName(isa) << " round=" << round;
    }
  }
}

// An unrecognized SMPX_FORCE_ISA value must abort loudly at dispatch init
// instead of silently running a default tier.
TEST(SimdDispatchDeathTest, UnrecognizedForceIsaAbortsLoudly) {
  EXPECT_DEATH(
      {
        setenv("SMPX_FORCE_ISA", "avx9000", 1);
        detail::Init();
      },
      "unrecognized SMPX_FORCE_ISA");
}

}  // namespace
}  // namespace smpx::simd
