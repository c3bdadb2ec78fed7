// Unit and property tests for the string matching substrate: every skip
// algorithm must agree with the naive oracle on occurrence positions, and
// the skip algorithms must actually skip (fewer comparisons than text size
// on representative inputs).

#include <algorithm>
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
