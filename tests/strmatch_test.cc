// Unit and property tests for the string matching substrate: every skip
// algorithm must agree with the naive oracle on occurrence positions, and
// the skip algorithms must actually skip (fewer comparisons than text size
// on representative inputs).

#include <algorithm>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "strmatch/aho_corasick.h"
#include "strmatch/boyer_moore.h"
#include "strmatch/commentz_walter.h"
#include "strmatch/matcher.h"
#include "strmatch/naive.h"
#include "simd/simd.h"
#include "strmatch/word_compare.h"

#include "guarded_buffer.h"

namespace smpx::strmatch {
namespace {

TEST(BoyerMooreTest, FindsSingleOccurrence) {
  BoyerMooreMatcher m("ICDE");
  Match r = m.Search("we will meet at ICDE in Cancun", 0, nullptr);
  ASSERT_TRUE(r.found());
  EXPECT_EQ(r.pos, 16u);
  EXPECT_EQ(r.pattern, 0);
}

TEST(BoyerMooreTest, RespectsFromOffset) {
  BoyerMooreMatcher m("ab");
  EXPECT_EQ(m.Search("ab..ab", 0, nullptr).pos, 0u);
  EXPECT_EQ(m.Search("ab..ab", 1, nullptr).pos, 4u);
  EXPECT_EQ(m.Search("ab..ab", 4, nullptr).pos, 4u);
  EXPECT_FALSE(m.Search("ab..ab", 5, nullptr).found());
}

TEST(BoyerMooreTest, NoMatchReturnsNpos) {
  BoyerMooreMatcher m("xyz");
  EXPECT_FALSE(m.Search("aaaaaaaaaa", 0, nullptr).found());
  EXPECT_FALSE(m.Search("", 0, nullptr).found());
  EXPECT_FALSE(m.Search("xy", 0, nullptr).found());
}

TEST(BoyerMooreTest, MatchAtTextStartAndEnd) {
  BoyerMooreMatcher m("abc");
  EXPECT_EQ(m.Search("abc", 0, nullptr).pos, 0u);
  EXPECT_EQ(m.Search("zzabc", 0, nullptr).pos, 2u);
}

TEST(BoyerMooreTest, PeriodicPattern) {
  BoyerMooreMatcher m("aaa");
  EXPECT_EQ(m.Search("baaaa", 0, nullptr).pos, 1u);
  EXPECT_EQ(m.Search("aabaa", 0, nullptr).found(), false);
}

TEST(BoyerMooreTest, SkipsCharactersOnRandomText) {
  // On text without pattern characters, BM inspects roughly n/m characters.
  std::string text(10000, 'x');
  BoyerMooreMatcher m("<description");
  SearchStats stats;
  EXPECT_FALSE(m.Search(text, 0, &stats).found());
  EXPECT_LT(stats.comparisons, text.size() / 4);
  EXPECT_GT(stats.AvgShift(), 4.0);
}

TEST(BoyerMooreTest, CountsComparisons) {
  BoyerMooreMatcher m("ab");
  SearchStats stats;
  m.Search("ab", 0, &stats);
  EXPECT_EQ(stats.comparisons, 2u);  // matched 'b' then 'a'
}

TEST(HorspoolTest, AgreesWithBoyerMooreOnPositions) {
  std::string text = "abracadabra abracadabra";
  BoyerMooreMatcher bm("cadab");
  HorspoolMatcher hp("cadab");
  EXPECT_EQ(bm.Search(text, 0, nullptr).pos, hp.Search(text, 0, nullptr).pos);
}

TEST(CommentzWalterTest, FindsClosestOfMultipleKeywords) {
  CommentzWalterMatcher m({"<b", "<c", "</a"});
  std::string text = "<a>text<c><b/></c></a>";
  Match r = m.Search(text, 0, nullptr);
  ASSERT_TRUE(r.found());
  EXPECT_EQ(r.pos, 7u);
  EXPECT_EQ(m.patterns()[static_cast<size_t>(r.pattern)], "<c");
}

TEST(CommentzWalterTest, SingleKeywordDegeneratesGracefully) {
  CommentzWalterMatcher m({"needle"});
  EXPECT_EQ(m.Search("hay needle hay", 0, nullptr).pos, 4u);
}

TEST(CommentzWalterTest, PrefixPatternsReportLongestAtSameStart) {
  // "<Abstract" and "<AbstractText" both occur at position 0; the contract
  // requires reporting by minimal end, so the shorter keyword wins here.
  CommentzWalterMatcher m({"<Abstract", "<AbstractText"});
  Match r = m.Search("<AbstractText>", 0, nullptr);
  ASSERT_TRUE(r.found());
  EXPECT_EQ(r.pos, 0u);
  EXPECT_EQ(m.patterns()[static_cast<size_t>(r.pattern)], "<Abstract");
}

TEST(CommentzWalterTest, OverlappingAlphabetKeywords) {
  CommentzWalterMatcher m({"abcde", "cde", "e"});
  Match r = m.Search("xxabcdexx", 0, nullptr);
  ASSERT_TRUE(r.found());
  // First end position with a match is 6 ('e' of abcde); longest pattern
  // ending there that starts >= 0 is "abcde" at position 2.
  EXPECT_EQ(r.pos, 2u);
  EXPECT_EQ(m.patterns()[static_cast<size_t>(r.pattern)], "abcde");
}

TEST(CommentzWalterTest, SkipsOnLongKeywords) {
  std::string text(20000, '.');
  CommentzWalterMatcher m({"<description", "<annotation", "<emailaddress"});
  SearchStats stats;
  EXPECT_FALSE(m.Search(text, 0, &stats).found());
  // wmin = 11, so at most ~n/11 inspections plus slack.
  EXPECT_LT(stats.comparisons, text.size() / 5);
}

TEST(AhoCorasickTest, FindsFirstOfMultipleKeywords) {
  AhoCorasickMatcher m({"he", "she", "his", "hers"});
  Match r = m.Search("xxhersxx", 0, nullptr);
  ASSERT_TRUE(r.found());
  EXPECT_EQ(r.pos, 2u);
  EXPECT_EQ(m.patterns()[static_cast<size_t>(r.pattern)], "he");
}

TEST(AhoCorasickTest, ReportsLongestAtSameEnd) {
  AhoCorasickMatcher m({"she", "he"});
  Match r = m.Search("ushers", 0, nullptr);
  ASSERT_TRUE(r.found());
  // "she" and "he" both end at index 4; longest ("she", start 1) wins.
  EXPECT_EQ(r.pos, 1u);
  EXPECT_EQ(m.patterns()[static_cast<size_t>(r.pattern)], "she");
}

TEST(AhoCorasickTest, InspectsEveryCharacter) {
  std::string text(1000, 'z');
  AhoCorasickMatcher m({"<a", "<b"});
  SearchStats stats;
  EXPECT_FALSE(m.Search(text, 0, &stats).found());
  EXPECT_EQ(stats.comparisons, text.size());
}

TEST(MemchrTest, RequiresSharedLeadCharacter) {
  EXPECT_EQ(MakeMatcher({"<a", "b"}, Algorithm::kMemchr), nullptr);
  EXPECT_NE(MakeMatcher({"<a", "<b"}, Algorithm::kMemchr), nullptr);
}

TEST(FactoryTest, AutoSelectsBmForSingleAndCwForMulti) {
  EXPECT_EQ(MakeMatcher({"<site"})->name(), "BM");
  EXPECT_EQ(MakeMatcher({"<a", "<b"})->name(), "CW");
}

TEST(FactoryTest, RejectsEmptyInput) {
  EXPECT_EQ(MakeMatcher({}), nullptr);
  EXPECT_EQ(MakeMatcher({""}), nullptr);
  EXPECT_EQ(MakeMatcher({"ok", ""}), nullptr);
}

TEST(FactoryTest, BmRejectsMultiplePatterns) {
  EXPECT_EQ(MakeMatcher({"a", "b"}, Algorithm::kBoyerMoore), nullptr);
  EXPECT_EQ(MakeMatcher({"a", "b"}, Algorithm::kHorspool), nullptr);
}

// ---------------------------------------------------------------------------
// Property tests: every algorithm agrees with the naive oracle on random
// texts and random pattern sets -- under every simd tier, and (for BM/CW)
// with the classical textbook loops as a second oracle.
// ---------------------------------------------------------------------------

struct DifferentialCase {
  Algorithm algo;
  int alphabet;    // alphabet size for text and patterns
  bool tag_style;  // patterns shaped like XML tag prefixes, "<t" and "</t"
};

class DifferentialTest : public ::testing::TestWithParam<DifferentialCase> {};

std::string RandomString(std::mt19937* rng, int alphabet, size_t min_len,
                         size_t max_len) {
  std::uniform_int_distribution<size_t> len_dist(min_len, max_len);
  std::uniform_int_distribution<int> char_dist(0, alphabet - 1);
  std::string s(len_dist(*rng), '\0');
  for (char& c : s) c = static_cast<char>('a' + char_dist(*rng));
  return s;
}

/// A text spanning several 64-byte blocks: random bytes, tag openings
/// ("<" and "</") sprinkled in for tag-style cases, and one pattern planted
/// at a block edge or within a pattern length of the text end -- where the
/// block kernels hand over to the masked tails.
std::string DifferentialText(std::mt19937* rng, const DifferentialCase& param,
                             const std::vector<std::string>& patterns) {
  std::string text = RandomString(rng, param.alphabet, 0, 700);
  if (param.tag_style) {
    std::uniform_int_distribution<int> coin(0, 1);
    for (size_t i = 0; i < text.size(); i += 13) {
      text[i] = '<';
      if (i + 1 < text.size() && coin(*rng) == 1) text[i + 1] = '/';
    }
  }
  const std::string& p =
      patterns[std::uniform_int_distribution<size_t>(0, patterns.size() - 1)(
          *rng)];
  if (text.size() < p.size()) return text;
  const size_t last = text.size() - p.size();
  const size_t spots[] = {0, 62, 63, 64, 65, 127, 128, 191, 192,
                          last, last > 0 ? last - 1 : 0,
                          last > 2 ? last - 2 : 0};
  size_t at = spots[std::uniform_int_distribution<size_t>(
      0, sizeof(spots) / sizeof(spots[0]) - 1)(*rng)];
  if (at > last) at = last;
  text.replace(at, p.size(), p);
  return text;
}

void ExpectSameMatch(const Match& actual, const Match& expected,
                     const std::vector<std::string>& patterns,
                     const std::string& what) {
  ASSERT_EQ(actual.found(), expected.found()) << what;
  if (!expected.found()) return;
  ASSERT_EQ(actual.pos, expected.pos) << what;
  ASSERT_EQ(patterns[static_cast<size_t>(actual.pattern)],
            patterns[static_cast<size_t>(expected.pattern)])
      << what;
}

TEST_P(DifferentialTest, AgreesWithNaiveOracleAndClassicalLoops) {
  const DifferentialCase& param = GetParam();
  const simd::Isa saved = simd::ActiveIsa();
  std::mt19937 rng(42);
  for (int round = 0; round < 200; ++round) {
    std::uniform_int_distribution<int> npat_dist(1, 5);
    int npat = param.algo == Algorithm::kBoyerMoore ||
                       param.algo == Algorithm::kHorspool
                   ? 1
                   : npat_dist(rng);
    std::vector<std::string> patterns;
    for (int i = 0; i < npat; ++i) {
      std::string p = RandomString(&rng, param.alphabet, 1, 8);
      if (param.tag_style) {
        p = (std::uniform_int_distribution<int>(0, 1)(rng) == 1 ? "</" : "<") +
            p;
      }
      patterns.push_back(p);
    }
    const std::string text = DifferentialText(&rng, param, patterns);
    const size_t froms[] = {
        0, std::uniform_int_distribution<size_t>(0, text.size())(rng)};

    std::unique_ptr<Matcher> subject = MakeMatcher(patterns, param.algo);
    ASSERT_NE(subject, nullptr);
    std::unique_ptr<Matcher> classical = MakeMatcher(patterns, param.algo);
    classical->set_skip_loops(false);
    NaiveMatcher oracle(patterns);

    for (size_t from : froms) {
      const std::string what = std::string(subject->name()) + " round " +
                               std::to_string(round) + " from " +
                               std::to_string(from) + " text=" + text;
      Match expected = oracle.Search(text, from, nullptr);
      ExpectSameMatch(classical->Search(text, from, nullptr), expected,
                      patterns, "classical " + what);
      // Every tier must find the same match with the same stats.
      SearchStats first_stats;
      for (simd::Isa isa : simd::AvailableIsas()) {
        simd::SetIsa(isa);
        SearchStats stats;
        ExpectSameMatch(subject->Search(text, from, &stats), expected,
                        patterns,
                        std::string(simd::IsaName(isa)) + " " + what);
        if (isa == simd::Isa::kScalar) first_stats = stats;
        EXPECT_EQ(stats.comparisons, first_stats.comparisons) << what;
        EXPECT_EQ(stats.shifts, first_stats.shifts) << what;
        EXPECT_EQ(stats.shift_chars, first_stats.shift_chars) << what;
      }
      simd::SetIsa(saved);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, DifferentialTest,
    ::testing::Values(
        DifferentialCase{Algorithm::kBoyerMoore, 2, false},
        DifferentialCase{Algorithm::kBoyerMoore, 4, false},
        DifferentialCase{Algorithm::kBoyerMoore, 26, false},
        DifferentialCase{Algorithm::kBoyerMoore, 2, true},
        DifferentialCase{Algorithm::kBoyerMoore, 4, true},
        DifferentialCase{Algorithm::kBoyerMoore, 26, true},
        DifferentialCase{Algorithm::kHorspool, 2, false},
        DifferentialCase{Algorithm::kHorspool, 26, false},
        DifferentialCase{Algorithm::kCommentzWalter, 2, false},
        DifferentialCase{Algorithm::kCommentzWalter, 4, false},
        DifferentialCase{Algorithm::kCommentzWalter, 26, false},
        DifferentialCase{Algorithm::kCommentzWalter, 2, true},
        DifferentialCase{Algorithm::kCommentzWalter, 4, true},
        DifferentialCase{Algorithm::kCommentzWalter, 26, true},
        DifferentialCase{Algorithm::kSetHorspool, 2, false},
        DifferentialCase{Algorithm::kSetHorspool, 26, false},
        DifferentialCase{Algorithm::kSetHorspool, 4, true},
        DifferentialCase{Algorithm::kAhoCorasick, 2, false},
        DifferentialCase{Algorithm::kAhoCorasick, 26, false},
        DifferentialCase{Algorithm::kMemchr, 4, true}),
    [](const ::testing::TestParamInfo<DifferentialCase>& info) {
      std::string name(AlgorithmName(info.param.algo));
      name += "_a" + std::to_string(info.param.alphabet);
      if (info.param.tag_style) name += "_tags";
      return name;
    });

/// Comparisons a fast-path search spends on `text`, where no candidate is
/// an occurrence: 0 when the candidate filter drops every lead byte.
uint64_t ComparisonsOnMissText(const Matcher& m, const std::string& text) {
  SearchStats stats;
  EXPECT_FALSE(m.Search(text, 0, &stats).found()) << text;
  return stats.comparisons;
}

std::string Repeat(const std::string& unit, size_t times) {
  std::string out;
  for (size_t i = 0; i < times; ++i) out += unit;
  return out;
}

TEST(BoyerMooreTest, TagKeywordsPairTheLeadWithANameByte) {
  // Closing tags of other names: a '<'+'/' pair probe would verify each;
  // the '<'+name-byte probe verifies none.
  const std::string closing = Repeat("</itex", 40);
  EXPECT_EQ(ComparisonsOnMissText(BoyerMooreMatcher("</item"), closing), 0u);
  EXPECT_EQ(ComparisonsOnMissText(BoyerMooreMatcher("<item"), closing), 0u);
  // Short keywords pair '<' with their only name byte.
  EXPECT_EQ(ComparisonsOnMissText(BoyerMooreMatcher("</a"), Repeat("</b", 50)),
            0u);
  EXPECT_EQ(ComparisonsOnMissText(BoyerMooreMatcher("<a"), Repeat("<b", 50)),
            0u);
}

TEST(CommentzWalterTest, CandidateFilterDropsImpossibleLeadBytes) {
  // Offset 1 holds {a}; "<x" can start no occurrence.
  CommentzWalterMatcher opening({"<ab", "<ac"});
  EXPECT_EQ(ComparisonsOnMissText(opening, Repeat("<xy", 50)), 0u);
  // Mixed open/close vocabulary: offset 1 holds '/', so the filter takes
  // offset 2 ({b, c}); closing tags of other names cost nothing.
  CommentzWalterMatcher mixed({"<bc", "</c"});
  EXPECT_EQ(ComparisonsOnMissText(mixed, Repeat("</x<y", 40)), 0u);
}

TEST(CommentzWalterTest, CandidateFilterStaysOffWithoutAValidOffset) {
  const std::vector<std::vector<std::string>> vocabularies = {
      {"<a", "</b"},  // wmin 2: the only offset holds '/'
      {"</", "</a"},  // only '/' before wmin
      // More than 8 distinct bytes at every offset.
      {"<a1", "<b2", "<c3", "<d4", "<e5", "<f6", "<g7", "<h8", "<i9"},
  };
  for (const std::vector<std::string>& vocabulary : vocabularies) {
    CommentzWalterMatcher m(vocabulary);
    // Without a filter every lead byte is verified.
    EXPECT_GT(ComparisonsOnMissText(m, Repeat("<z", 50)), 0u)
        << vocabulary[0];
    // And matching stays exact, at block edges and at the text end.
    for (const std::string& p : vocabulary) {
      for (size_t at : {size_t{0}, size_t{63}, size_t{64}, size_t{200}}) {
        std::string text = Repeat("<z", 100).substr(0, at) + p;
        Match r = m.Search(text, 0, nullptr);
        ASSERT_TRUE(r.found()) << p << " at " << at;
        EXPECT_EQ(r.pos, at) << p;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Verify parity: the word-wise verifiers must report exactly what the
// per-byte loops they replaced report -- the match, and the comparisons,
// shifts and shift characters that feed the paper's measurement columns.
// Every text ends in one planted keyword (with byte j replaced, for every
// j, or intact) whose last byte sits just before a PROT_NONE page, so an
// over-read faults; it runs under every simd tier.
// ---------------------------------------------------------------------------

constexpr char kFiller = '\x01';  // in no keyword: starts no candidate

/// "<" followed by len - 1 name letters (cycling a..z).
std::string TagKeyword(size_t len, size_t salt = 0) {
  std::string kw = "<";
  for (size_t i = 1; i < len; ++i) {
    kw.push_back(static_cast<char>('a' + (i * 7 + salt) % 26));
  }
  return kw;
}

/// Per-byte reference of one Boyer-Moore verification: the compares of
/// the right-to-left loop.
uint64_t RefBmCompares(std::string_view window, std::string_view kw) {
  uint64_t compares = 0;
  for (size_t j = kw.size(); j > 0; --j) {
    ++compares;
    if (window[j - 1] != kw[j - 1]) break;
  }
  return compares;
}

/// Per-byte reference of one Commentz-Walter verification at `s`: a
/// forward trie walk, one compare per byte; the first keyword completed
/// (earliest index among equals) is the match.
int RefCwVerify(const std::vector<std::string>& kws, std::string_view text,
                size_t s, uint64_t* compares) {
  for (size_t d = 0; s + d < text.size(); ++d) {
    ++*compares;
    bool alive = false;
    for (size_t i = 0; i < kws.size(); ++i) {
      if (kws[i].size() <= d ||
          text.substr(s, d + 1) != std::string_view(kws[i]).substr(0, d + 1)) {
        continue;
      }
      if (kws[i].size() == d + 1) return static_cast<int>(i);
      alive = true;
    }
    if (!alive) return -1;
  }
  return -1;
}

/// Copies `text` flush against the guard page and searches it from 0
/// under every tier; every tier must report the same match and stats.
Match GuardedSearch(const Matcher& m, const std::string& text,
                    SearchStats* stats) {
  testing::GuardedBuffer gb((text.size() >> 12) + 1);
  unsigned char* p = gb.EndMinus(text.size());
  std::memcpy(p, text.data(), text.size());
  const std::string_view view(reinterpret_cast<const char*>(p), text.size());
  const simd::Isa saved = simd::ActiveIsa();
  Match first;
  for (simd::Isa isa : simd::AvailableIsas()) {
    simd::SetIsa(isa);
    SearchStats st;
    const Match r = m.Search(view, 0, &st);
    if (isa == simd::Isa::kScalar) {
      first = r;
      *stats = st;
    }
    EXPECT_EQ(r.pos, first.pos) << simd::IsaName(isa);
    EXPECT_EQ(r.pattern, first.pattern) << simd::IsaName(isa);
    EXPECT_EQ(st.comparisons, stats->comparisons) << simd::IsaName(isa);
    EXPECT_EQ(st.shifts, stats->shifts) << simd::IsaName(isa);
    EXPECT_EQ(st.shift_chars, stats->shift_chars) << simd::IsaName(isa);
  }
  simd::SetIsa(saved);
  return first;
}

TEST(WordCompareTest, MismatchIndicesMatchByteLoops) {
  for (size_t len = 0; len <= 40; ++len) {
    const std::string a = TagKeyword(len + 1).substr(1);
    for (size_t j = 0; j <= len; ++j) {  // j == len: equal ranges
      for (size_t k = j; k <= len; ++k) {  // a second mismatch at k
        std::string b = a;
        if (j < len) b[j] = kFiller;
        if (k < len) b[k] = kFiller;
        const auto* ua = reinterpret_cast<const unsigned char*>(a.data());
        const auto* ub = reinterpret_cast<const unsigned char*>(b.data());
        size_t first = len;
        size_t last = len;
        for (size_t i = 0; i < len; ++i) {
          if (a[i] != b[i]) {
            if (first == len) first = i;
            last = i;
          }
        }
        EXPECT_EQ(detail::FirstMismatch(ua, ub, len), first)
            << "len=" << len << " j=" << j << " k=" << k;
        EXPECT_EQ(detail::LastMismatch(ua, ub, len), last)
            << "len=" << len << " j=" << j << " k=" << k;
      }
    }
  }
}

TEST(VerifyParityTest, BoyerMooreMatchesPerByteVerify) {
  for (size_t m = 1; m <= 40; ++m) {
    const std::string kw = TagKeyword(m);
    BoyerMooreMatcher bm(kw);
    BoyerMooreMatcher classical(kw);
    classical.set_skip_loops(false);
    for (size_t lead : {size_t{0}, size_t{37}}) {
      int filtered = 0;
      for (size_t j = 0; j <= m; ++j) {  // j == m: the intact keyword
        std::string planted = kw;
        if (j < m) planted[j] = kFiller;
        const std::string text = std::string(lead, kFiller) + planted;
        const std::string what =
            kw + " j=" + std::to_string(j) + " lead=" + std::to_string(lead);
        SearchStats st;
        const Match r = GuardedSearch(bm, text, &st);
        if (j == m) {
          EXPECT_EQ(r.pos, lead) << what;
          EXPECT_EQ(st.comparisons, m) << what;
          EXPECT_EQ(st.shifts, lead > 0 ? 1u : 0u) << what;
          EXPECT_EQ(st.shift_chars, lead) << what;
          continue;
        }
        EXPECT_FALSE(r.found()) << what;
        if (st.comparisons == 0) {  // a probe byte was replaced
          ++filtered;
          EXPECT_EQ(st.shifts, 1u) << what;
          EXPECT_EQ(st.shift_chars, lead + 1) << what;
          continue;
        }
        // The shift after the mismatch is the classical one: measure it
        // on the planted keyword alone, where the classical loop makes
        // exactly that one verification.
        SearchStats one;
        EXPECT_FALSE(classical.Search(planted, 0, &one).found());
        EXPECT_EQ(st.comparisons, RefBmCompares(planted, kw)) << what;
        EXPECT_EQ(one.comparisons, RefBmCompares(planted, kw)) << what;
        EXPECT_EQ(st.shifts, (lead > 0 ? 1u : 0u) + one.shifts) << what;
        EXPECT_EQ(st.shift_chars, lead + one.shift_chars) << what;
      }
      EXPECT_LE(filtered, 2) << kw << ": at most the two probe bytes filter";
    }
  }
}

/// Searches texts ending in `kw` (intact and with each byte replaced)
/// with a CW matcher over `vocabulary` and checks them against the
/// per-byte reference walk.
void ExpectCwMatchesPerByteVerify(const std::vector<std::string>& vocabulary,
                                  const std::string& kw) {
  CommentzWalterMatcher cw(vocabulary);
  for (size_t lead : {size_t{0}, size_t{37}}) {
    int filtered = 0;
    for (size_t j = 0; j <= kw.size(); ++j) {
      std::string planted = kw;
      if (j < kw.size()) planted[j] = kFiller;
      const std::string text = std::string(lead, kFiller) + planted;
      const std::string what = kw + " of " + std::to_string(vocabulary.size()) +
                               " j=" + std::to_string(j) +
                               " lead=" + std::to_string(lead);
      SearchStats st;
      const Match r = GuardedSearch(cw, text, &st);
      if (text.size() < cw.min_length()) {  // no search at all
        EXPECT_FALSE(r.found()) << what;
        EXPECT_EQ(st.shifts + st.comparisons, 0u) << what;
        continue;
      }
      if (st.comparisons == 0) {  // the lead or the filter byte replaced
        ++filtered;
        EXPECT_FALSE(r.found()) << what;
        EXPECT_EQ(st.shifts, 1u) << what;
        EXPECT_EQ(st.shift_chars, text.size()) << what;
        continue;
      }
      uint64_t compares = 0;
      const int want = RefCwVerify(vocabulary, text, lead, &compares);
      EXPECT_EQ(r.pattern, want) << what;
      EXPECT_EQ(r.found(), want >= 0) << what;
      if (want >= 0) {
        EXPECT_EQ(r.pos, lead) << what;
      }
      EXPECT_EQ(st.comparisons, compares) << what;
      const bool tail_shift = want < 0 && text.size() > lead + 1;
      EXPECT_EQ(st.shifts, (lead > 0 ? 1u : 0u) + (tail_shift ? 1u : 0u))
          << what;
      EXPECT_EQ(st.shift_chars, want >= 0 ? lead : text.size() - 1) << what;
    }
    EXPECT_LE(filtered, 2) << kw << ": at most the lead and the filter byte";
  }
}

TEST(VerifyParityTest, CommentzWalterMatchesPerByteVerify) {
  for (size_t m = 1; m <= 40; ++m) {
    const std::string kw = TagKeyword(m);
    // Single keyword, and a closing twin sharing the lead.
    ExpectCwMatchesPerByteVerify({kw}, kw);
    if (m >= 2) {
      const std::string closing = "</" + kw.substr(1);
      ExpectCwMatchesPerByteVerify({kw, closing}, closing);
    }
  }
  // Prefix-sharing: the shorter keyword wins at the anchor.
  ExpectCwMatchesPerByteVerify({"<item", "<itemref"}, "<itemref");
  ExpectCwMatchesPerByteVerify({"<itemref", "<item", "</item"}, "<item");
  // Duplicates resolve to the earliest index.
  ExpectCwMatchesPerByteVerify({"<name", "<item", "<name"}, "<name");
  // The text ends inside the only keyword it starts.
  ExpectCwMatchesPerByteVerify({"<itemref", "<name"}, "<item");
  // A wide vocabulary (>= 64 keywords, lengths 3..41, opening and
  // closing): keywords of one salt share long prefixes and branch where
  // the shorter one ends (its last letter is upper case), so mismatches
  // land inside labels and at branch points at every depth.
  std::vector<std::string> wide;
  for (size_t i = 0; i < 70; ++i) {
    std::string kw = TagKeyword(2 + i % 39, i / 13) + "A";
    kw.back() = static_cast<char>('A' + i % 26);
    wide.push_back(i % 3 == 0 ? "</" + kw.substr(1) : kw);
  }
  for (size_t i = 0; i < wide.size(); i += 5) {
    ExpectCwMatchesPerByteVerify(wide, wide[i]);
    ExpectCwMatchesPerByteVerify(wide, wide[i].substr(0, wide[i].size() - 1));
  }
}

// Exhaustive sweep over all alignments: the match must be found wherever it
// is planted, including at text boundaries.
class PlantedMatchTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(PlantedMatchTest, FindsPlantedOccurrenceAtEveryOffset) {
  std::vector<std::string> patterns = {"<item", "<name", "</item"};
  if (GetParam() == Algorithm::kBoyerMoore ||
      GetParam() == Algorithm::kHorspool) {
    patterns = {"<item"};
  }
  std::unique_ptr<Matcher> m = MakeMatcher(patterns, GetParam());
  ASSERT_NE(m, nullptr);
  for (size_t offset = 0; offset < 64; ++offset) {
    std::string text(offset, 'x');
    text += "<item";
    text += std::string(17, 'y');
    Match r = m->Search(text, 0, nullptr);
    ASSERT_TRUE(r.found()) << "offset " << offset;
    EXPECT_EQ(r.pos, offset);
    // And it must be invisible when the search starts past it.
    EXPECT_FALSE(m->Search(text, offset + 1, nullptr).found());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, PlantedMatchTest,
    ::testing::Values(Algorithm::kBoyerMoore, Algorithm::kHorspool,
                      Algorithm::kCommentzWalter, Algorithm::kSetHorspool,
                      Algorithm::kAhoCorasick, Algorithm::kMemchr,
                      Algorithm::kNaive),
    [](const ::testing::TestParamInfo<Algorithm>& info) {
      return std::string(AlgorithmName(info.param));
    });

}  // namespace
}  // namespace smpx::strmatch
