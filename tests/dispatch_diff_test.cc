// Differential tests for the engine's tag-dispatch hot path (span scanning,
// interned tag ids, flat transition arrays): over generator output the
// projection must equal the independent tokenizing reference
// (baselines::SaxProjector), and over generator output and hand-built edge
// documents every run must agree with the same run on the scalar kernel
// tier and with a run whose window holds the whole document -- output
// byte-for-byte and the semantic counters exactly.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/sax_projector.h"
#include "core/engine.h"
#include "core/prefilter.h"
#include "simd/simd.h"
#include "xml/tokenizer.h"
#include "xmlgen/medline.h"
#include "xmlgen/xmark.h"

namespace smpx::core {
namespace {

Prefilter MustCompile(dtd::Dtd dtd, std::string_view path_list,
                      bool allow_recursion = false) {
  auto paths = paths::ProjectionPath::ParseList(path_list);
  EXPECT_TRUE(paths.ok()) << paths.status().ToString();
  CompileOptions opts;
  opts.allow_recursion = allow_recursion;
  auto pf = Prefilter::Compile(std::move(dtd), *paths, opts);
  EXPECT_TRUE(pf.ok()) << pf.status().ToString();
  return std::move(*pf);
}

/// Window-independent counters: everything but the search-effort ones,
/// which depend on where refills cut the keyword searches.
void ExpectSameSemanticCounters(const RunStats& a, const RunStats& b) {
  EXPECT_EQ(a.matches, b.matches);
  EXPECT_EQ(a.false_matches, b.false_matches);
  EXPECT_EQ(a.initial_jumps, b.initial_jumps);
  EXPECT_EQ(a.initial_jump_chars, b.initial_jump_chars);
  EXPECT_EQ(a.output_bytes, b.output_bytes);
  EXPECT_EQ(a.states_visited, b.states_visited);
}

/// Runs `pf` over `doc` with a `window`-byte sliding window and returns the
/// projection, after asserting that (a) the scalar kernel tier at the same
/// window reproduces it with every counter identical, and (b) a run with
/// the whole document resident reproduces it with identical semantic
/// counters.
std::string RunChecked(const Prefilter& pf, std::string_view doc,
                       size_t window = SlidingWindow::kDefaultCapacity) {
  EngineOptions opts;
  opts.window_capacity = window;
  RunStats stats;
  auto out = pf.RunOnBuffer(doc, &stats, opts);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  if (!out.ok()) return std::string();

  const simd::Isa saved = simd::ActiveIsa();
  simd::SetIsa(simd::Isa::kScalar);
  RunStats scalar_stats;
  auto scalar = pf.RunOnBuffer(doc, &scalar_stats, opts);
  simd::SetIsa(saved);
  EXPECT_TRUE(scalar.ok()) << scalar.status().ToString();
  EXPECT_EQ(*scalar, *out) << "scalar tier diverged";
  ExpectSameSemanticCounters(scalar_stats, stats);
  EXPECT_EQ(scalar_stats.input_bytes, stats.input_bytes);
  EXPECT_EQ(scalar_stats.scan_chars, stats.scan_chars);
  EXPECT_EQ(scalar_stats.search.comparisons, stats.search.comparisons);
  EXPECT_EQ(scalar_stats.search.shifts, stats.search.shifts);
  EXPECT_EQ(scalar_stats.bm_searches, stats.bm_searches);
  EXPECT_EQ(scalar_stats.cw_searches, stats.cw_searches);

  EngineOptions full;
  full.window_capacity = std::max<size_t>(doc.size() + 1, window);
  RunStats full_stats;
  auto whole = pf.RunOnBuffer(doc, &full_stats, full);
  EXPECT_TRUE(whole.ok()) << whole.status().ToString();
  EXPECT_EQ(*whole, *out) << "full-window run diverged";
  ExpectSameSemanticCounters(full_stats, stats);
  return *out;
}

/// The independent reference projection of `doc`.
std::string SaxProject(std::string_view path_list, std::string_view doc) {
  auto paths = paths::ProjectionPath::ParseList(path_list);
  EXPECT_TRUE(paths.ok()) << paths.status().ToString();
  baselines::SaxProjector projector(*paths);
  StringSink sink;
  Status s = projector.Project(doc, &sink);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return sink.TakeString();
}

TEST(DispatchDiffTest, XmarkGeneratorOutputMatchesSaxProjector) {
  xmlgen::XmarkOptions gen;
  gen.target_bytes = 1 << 20;
  std::string doc = xmlgen::GenerateXmark(gen);
  const char* workloads[] = {
      "/site/people/person@ /site/people/person/name#",
      "/site/open_auctions/open_auction/bidder/increase#",
      "/site/regions//item@",
      "//description //annotation //emailaddress",
      "/site/closed_auctions/closed_auction/price#",
  };
  for (const char* paths : workloads) {
    SCOPED_TRACE(paths);
    Prefilter pf = MustCompile(xmlgen::XmarkDtd(), paths);
    ASSERT_EQ(RunChecked(pf, doc), SaxProject(paths, doc));
  }
}

TEST(DispatchDiffTest, MedlineGeneratorOutputMatchesSaxProjector) {
  xmlgen::MedlineOptions gen;
  gen.target_bytes = 1 << 20;
  std::string doc = xmlgen::GenerateMedline(gen);
  const char* workloads[] = {
      "/MedlineCitationSet//CollectionTitle#",
      "/MedlineCitationSet//DataBank/DataBankName# "
      "/MedlineCitationSet//DataBank/AccessionNumberList#",
      "/MedlineCitationSet/MedlineCitation/MedlineJournalInfo# "
      "/MedlineCitationSet/MedlineCitation/DateCompleted#",
  };
  for (const char* paths : workloads) {
    SCOPED_TRACE(paths);
    Prefilter pf = MustCompile(xmlgen::MedlineDtd(), paths);
    ASSERT_EQ(RunChecked(pf, doc), SaxProject(paths, doc));
  }
}

TEST(DispatchDiffTest, SmallWindowStreamingStaysIdentical) {
  // Window refills hit the span-boundary fallbacks of the bulk scanner;
  // a tiny window forces them constantly.
  xmlgen::XmarkOptions gen;
  gen.target_bytes = 200 << 10;
  std::string doc = xmlgen::GenerateXmark(gen);
  const char kPaths[] = "/site/regions//item/name#";
  Prefilter pf = MustCompile(xmlgen::XmarkDtd(), kPaths);
  const std::string expected = SaxProject(kPaths, doc);
  for (size_t window : {64u, 256u, 4096u}) {
    SCOPED_TRACE(window);
    EXPECT_EQ(RunChecked(pf, doc, window), expected);
  }
}

constexpr char kBachelorDtd[] =
    "<!DOCTYPE a [ <!ELEMENT a (b|c)*>"
    " <!ELEMENT b (#PCDATA)> <!ELEMENT c (b,b?)> ]>";

TEST(DispatchDiffTest, BachelorTagsUnderSpanScanner) {
  Prefilter pf = MustCompile(*dtd::Dtd::Parse(kBachelorDtd), "/a/b#");
  // Bachelor forms in every position the Fig. 4 bachelor case covers:
  // entry tag, shielded region, whitespace before the slash, attributes.
  for (const char* doc : {
           "<a><b/><c><b/></c></a>",
           "<a/>",
           "<a><b    /><b>x</b></a>",
           "<a><c><b/><b/></c><b/></a>",
       }) {
    SCOPED_TRACE(doc);
    EXPECT_EQ(RunChecked(pf, doc, 64), SaxProject("/a/b#", doc));
  }
}

TEST(DispatchDiffTest, QuotedAttributeEdgeCases) {
  const char dtd[] =
      "<!DOCTYPE a [ <!ELEMENT a (b*)> <!ELEMENT b (#PCDATA|c)*>"
      " <!ELEMENT c (#PCDATA)>"
      " <!ATTLIST b note CDATA #IMPLIED other CDATA #IMPLIED> ]>";
  // "/a/b@" emits each b tag with its attributes but not its (mixed)
  // content, so a '>' inside a quoted value must not end the tag early.
  for (const char* paths : {"/a/b#@", "/a/b@"}) {
    SCOPED_TRACE(paths);
    Prefilter pf = MustCompile(*dtd::Dtd::Parse(dtd), paths);
    for (const char* doc : {
             "<a><b note='x>y'>t<c>u</c></b></a>",
             "<a><b note=\"a'b>c\" other='d\"e>f'>t</b></a>",
             "<a><b note='' other=\"\">t</b></a>",
             "<a><b note='>>>/>'/></a>",
         }) {
      SCOPED_TRACE(doc);
      const std::string out = RunChecked(pf, doc, 64);
      EXPECT_EQ(out, SaxProject(paths, doc));
      EXPECT_TRUE(xml::CheckWellFormed(out).ok()) << out;
    }
  }
}

constexpr char kRecursiveDtd[] = R"(<!DOCTYPE site [
<!ELEMENT site (regions)>
<!ELEMENT regions (australia)>
<!ELEMENT australia (item*)>
<!ELEMENT item (name, description, shipping)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT description (text | parlist)>
<!ELEMENT text (#PCDATA)>
<!ELEMENT parlist (listitem*)>
<!ELEMENT listitem (text | parlist)>
<!ELEMENT shipping (#PCDATA)>
]>)";

constexpr char kRecursiveDoc[] =
    "<site><regions><australia>"
    "<item><name>alpha</name><description><parlist>"
    "<listitem><text>a1</text></listitem>"
    "<listitem><parlist><listitem><text>deep</text></listitem></parlist>"
    "</listitem></parlist></description><shipping>fast</shipping></item>"
    "<item><name>beta</name><description><text>flat</text></description>"
    "<shipping>slow</shipping></item>"
    "</australia></regions></site>";

TEST(DispatchDiffTest, CountNestingRecursionUnderSpanScanner) {
  // Opaque recursive regions: the balance counter must see nested opening
  // tags through the interned id comparison, also through a tiny window
  // where the balance spans many refills. The tokenizing reference has no
  // opaque regions, so the expected projections are literal.
  struct Case {
    const char* paths;
    const char* expected;
  };
  for (const Case& c : {
           Case{"//description#",
                "<site><description><parlist><listitem><text>a1</text>"
                "</listitem><listitem><parlist><listitem><text>deep</text>"
                "</listitem></parlist></listitem></parlist></description>"
                "<description><text>flat</text></description></site>"},
           Case{"//shipping#",
                "<site><shipping>fast</shipping><shipping>slow</shipping>"
                "</site>"},
           Case{"//name#", "<site><name>alpha</name><name>beta</name></site>"},
           // The only one whose opaque region nests its own tag.
           Case{"//parlist#",
                "<site><parlist><listitem><text>a1</text></listitem>"
                "<listitem><parlist><listitem><text>deep</text></listitem>"
                "</parlist></listitem></parlist></site>"},
       }) {
    SCOPED_TRACE(c.paths);
    Prefilter pf = MustCompile(*dtd::Dtd::Parse(kRecursiveDtd), c.paths,
                               /*allow_recursion=*/true);
    EXPECT_EQ(RunChecked(pf, kRecursiveDoc, 64), c.expected);
  }
}

// --- Keyword-indexed tag resolution -----------------------------------------
// A matched keyword names the tag by its index unless the next byte
// continues the name; these documents put that byte test on every edge:
// prefixes of longer vocabulary and out-of-vocabulary names, names ending
// at end of input and at push-mode chunk ends, bachelor, attribute and
// whitespace terminators, and the balance of an opaque region.

/// RunChecked, plus the push-mode session over the same tables fed in
/// chunks as small as one byte (every keyword then ends at a chunk end):
/// same bytes, same semantic counters.
std::string RunCheckedPushed(const Prefilter& pf, std::string_view doc) {
  const std::string out = RunChecked(pf, doc, 64);
  RunStats ref;
  EXPECT_TRUE(pf.RunOnBuffer(doc, &ref).ok());
  for (size_t chunk : {1u, 2u, 3u, 5u}) {
    SCOPED_TRACE("chunk " + std::to_string(chunk));
    StringSink sink;
    RunStats stats;
    PrefilterSession session(pf.tables(), &sink, &stats);
    Status s;
    for (size_t off = 0; off < doc.size() && s.ok(); off += chunk) {
      s = session.Resume(doc.substr(off, chunk));
    }
    if (s.ok()) s = session.Finish();
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(sink.str(), out);
    ExpectSameSemanticCounters(stats, ref);
    EXPECT_EQ(stats.scan_chars, ref.scan_chars);
  }
  return out;
}

TEST(DispatchDiffTest, KeywordThatPrefixesALongerVocabularyTag) {
  // "<item" is found inside every "<itemref" (and "<person" inside
  // "<personref"): the shorter keyword ends first, and the byte after it
  // must send the name on to the interner.
  const char dtd[] =
      "<!DOCTYPE a [ <!ELEMENT a (item|itemref|person|personref)*>"
      " <!ELEMENT item (#PCDATA)> <!ELEMENT itemref (#PCDATA)>"
      " <!ELEMENT person (#PCDATA)> <!ELEMENT personref (#PCDATA)> ]>";
  const std::string doc =
      "<a><itemref>r1</itemref><item>i1</item><personref>p1</personref>"
      "<person>p2</person><itemref/><item/><personref>p3</personref></a>";
  for (const char* paths :
       {"/a/item#", "/a/itemref#", "/a/item# /a/itemref", "/a/person#",
        "/a/personref# /a/item", "/a/item# /a/itemref# /a/person#"}) {
    SCOPED_TRACE(paths);
    Prefilter pf = MustCompile(*dtd::Dtd::Parse(dtd), paths);
    EXPECT_EQ(RunCheckedPushed(pf, doc), SaxProject(paths, doc));
  }

  // The same collisions in generator output: XMark has item/itemref and
  // person/personref.
  xmlgen::XmarkOptions gen;
  gen.target_bytes = 256 << 10;
  const std::string xmark = xmlgen::GenerateXmark(gen);
  for (const char* paths :
       {"/site/regions//item@ //itemref@",
        "/site/people/person@ //personref@ /site/people/person/name#"}) {
    SCOPED_TRACE(paths);
    Prefilter pf = MustCompile(xmlgen::XmarkDtd(), paths);
    EXPECT_EQ(RunChecked(pf, xmark), SaxProject(paths, xmark));
  }
}

TEST(DispatchDiffTest, KeywordThatPrefixesAnOutOfVocabularyName) {
  // Only "<b" is a keyword; "<bc" and "<b-x" are not in the vocabulary of
  // the state that finds them and must be rejected as false matches.
  const char dtd[] =
      "<!DOCTYPE a [ <!ELEMENT a (b|bc|b-x)*> <!ELEMENT b (#PCDATA)>"
      " <!ELEMENT bc (#PCDATA)> <!ELEMENT b-x (#PCDATA)> ]>";
  const std::string doc =
      "<a><bc>no</bc><b>yes</b><b-x>no</b-x><bc/><b>again</b></a>";
  Prefilter pf = MustCompile(*dtd::Dtd::Parse(dtd), "/a/b#");
  RunStats stats;
  ASSERT_TRUE(pf.RunOnBuffer(doc, &stats).ok());
  EXPECT_GT(stats.false_matches, 0u);
  EXPECT_EQ(RunCheckedPushed(pf, doc), SaxProject("/a/b#", doc));
  EXPECT_EQ(RunCheckedPushed(pf, doc), "<a><b>yes</b><b>again</b></a>");
}

TEST(DispatchDiffTest, KeywordEndingAtEndOfInput) {
  // Nothing follows the keyword: a truncated tag, which fails with
  // ParseError in pull mode and at Finish in push mode.
  Prefilter pf = MustCompile(*dtd::Dtd::Parse(kBachelorDtd), "/a/b#");
  for (const char* doc : {"<a><b>x</b></a", "<a><b", "<a><c><b", "<a"}) {
    SCOPED_TRACE(doc);
    auto out = pf.RunOnBuffer(doc);
    EXPECT_EQ(out.status().code(), StatusCode::kParseError);
    StringSink sink;
    PrefilterSession session(pf.tables(), &sink, nullptr);
    ASSERT_TRUE(session.Resume(doc).ok());
    EXPECT_EQ(session.Finish().code(), StatusCode::kParseError);
  }
  // The complete document, ending right after the root's closing tag.
  EXPECT_EQ(RunCheckedPushed(pf, "<a><b>x</b></a>"), "<a><b>x</b></a>");
}

TEST(DispatchDiffTest, KeywordFollowedByEveryTagTerminator) {
  // '>', '/', attribute whitespace, tab and newline all end the name.
  const char dtd[] =
      "<!DOCTYPE a [ <!ELEMENT a (t|tt)*> <!ELEMENT t (#PCDATA)>"
      " <!ELEMENT tt (#PCDATA)> <!ATTLIST t a CDATA #IMPLIED> ]>";
  for (const char* paths : {"/a/t#", "/a/t@", "/a/tt#"}) {
    SCOPED_TRACE(paths);
    Prefilter pf = MustCompile(*dtd::Dtd::Parse(dtd), paths);
    for (const char* doc : {
             "<a><t/><tt>x</tt></a>",
             "<a><t a='>'>v</t><tt/></a>",
             "<a><t>v</t ><tt>w</tt ></a>",
             "<a><t\ta='1'>v</t\t><t\n>w</t\n><tt\n/></a>",
             "<a\n><t\n/><t\ta=\"/>\"\n/></a\t>",
         }) {
      SCOPED_TRACE(doc);
      EXPECT_EQ(RunCheckedPushed(pf, doc), SaxProject(paths, doc));
    }
  }
}

TEST(DispatchDiffTest, KeywordPrefixInsideACountNestingRegion) {
  // kRecursiveDtd with listitem renamed parlistitem: inside the opaque
  // parlist region the engine balances "<parlist" against "</parlist",
  // and "<parlistitem" / "</parlistitem" contain those keywords but are
  // neither nesting steps nor matches. Opening and closing such tags would
  // keep the balance even if they were miscounted, so the match count is
  // checked against the original names, which contain no keyword.
  std::string dtd = kRecursiveDtd;
  std::string doc = kRecursiveDoc;
  for (std::string* text : {&dtd, &doc}) {
    for (size_t p = text->find("listitem"); p != std::string::npos;
         p = text->find("listitem", p + 11)) {
      text->replace(p, 8, "parlistitem");
    }
  }
  Prefilter pf = MustCompile(*dtd::Dtd::Parse(dtd), "//parlist#",
                             /*allow_recursion=*/true);
  bool counting = false;
  for (const DfaState& st : pf.tables().states) counting |= st.count_nesting;
  ASSERT_TRUE(counting);
  EXPECT_EQ(RunCheckedPushed(pf, doc),
            "<site><parlist><parlistitem><text>a1</text></parlistitem>"
            "<parlistitem><parlist><parlistitem><text>deep</text>"
            "</parlistitem></parlist></parlistitem></parlist></site>");

  Prefilter plain = MustCompile(*dtd::Dtd::Parse(kRecursiveDtd), "//parlist#",
                                /*allow_recursion=*/true);
  RunStats colliding, reference;
  ASSERT_TRUE(pf.RunOnBuffer(doc, &colliding).ok());
  ASSERT_TRUE(plain.RunOnBuffer(kRecursiveDoc, &reference).ok());
  EXPECT_EQ(colliding.matches, reference.matches);
  EXPECT_GT(colliding.false_matches, reference.false_matches);
}

// --- SIMD tier replay --------------------------------------------------------
// The same compiled prefilter replayed under every available dispatch tier
// (SetIsa) must produce byte-identical output AND identical statistics --
// including matcher comparisons/shifts and scan_chars -- with the scalar
// tier as the oracle. Tiers only change how fast structural bytes are
// found, never which bytes are found.

TEST(DispatchDiffTest, EveryIsaTierMatchesScalarByteForByte) {
  const simd::Isa saved = simd::ActiveIsa();
  xmlgen::XmarkOptions gen;
  gen.target_bytes = 512 << 10;
  std::string doc = xmlgen::GenerateXmark(gen);
  auto paths = paths::ProjectionPath::ParseList(
      "/site/people/person@ /site/people/person/name# //description");
  ASSERT_TRUE(paths.ok());
  auto pf = Prefilter::Compile(xmlgen::XmarkDtd(), *paths, {});
  ASSERT_TRUE(pf.ok()) << pf.status().ToString();

  simd::SetIsa(simd::Isa::kScalar);
  RunStats ref_stats;
  auto ref = pf->RunOnBuffer(doc, &ref_stats);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();

  for (simd::Isa isa : simd::AvailableIsas()) {
    SCOPED_TRACE(simd::IsaName(isa));
    ASSERT_EQ(simd::SetIsa(isa), isa);
    RunStats stats;
    auto out = pf->RunOnBuffer(doc, &stats);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ASSERT_EQ(*out, *ref);
    EXPECT_EQ(stats.matches, ref_stats.matches);
    EXPECT_EQ(stats.false_matches, ref_stats.false_matches);
    EXPECT_EQ(stats.scan_chars, ref_stats.scan_chars);
    EXPECT_EQ(stats.search.comparisons, ref_stats.search.comparisons);
    EXPECT_EQ(stats.search.shifts, ref_stats.search.shifts);
    EXPECT_EQ(stats.search.shift_chars, ref_stats.search.shift_chars);
    EXPECT_EQ(stats.bm_searches, ref_stats.bm_searches);
    EXPECT_EQ(stats.cw_searches, ref_stats.cw_searches);
    EXPECT_EQ(stats.initial_jump_chars, ref_stats.initial_jump_chars);
  }
  simd::SetIsa(saved);
}

// The matchers' candidate skip loops read the dispatched bitmaps, so every
// simd tier enumerates the identical candidate sequence: output and all
// search stats must match the best tier exactly. The classical loops (skip
// loops disabled) must still agree on output and semantic counters (their
// shift accounting legitimately differs).
TEST(DispatchDiffTest, MatcherSkipModeTiersAgree) {
  const simd::Isa saved = simd::ActiveIsa();
  xmlgen::MedlineOptions gen;
  gen.target_bytes = 512 << 10;
  std::string doc = xmlgen::GenerateMedline(gen);
  auto paths = paths::ProjectionPath::ParseList(
      "/MedlineCitationSet//DataBank/DataBankName# "
      "/MedlineCitationSet/MedlineCitation/DateCompleted#");
  ASSERT_TRUE(paths.ok());

  auto compile = [&](bool disable) {
    CompileOptions opts;
    opts.tables.disable_matcher_skip_loops = disable;
    auto pf = Prefilter::Compile(xmlgen::MedlineDtd(), *paths, opts);
    EXPECT_TRUE(pf.ok()) << pf.status().ToString();
    return std::move(*pf);
  };
  Prefilter skip_pf = compile(false);
  Prefilter classic_pf = compile(true);

  const std::vector<simd::Isa> isas = simd::AvailableIsas();
  ASSERT_EQ(simd::SetIsa(isas.back()), isas.back());
  RunStats best_stats;
  auto best = skip_pf.RunOnBuffer(doc, &best_stats);
  ASSERT_TRUE(best.ok()) << best.status().ToString();
  for (simd::Isa isa : isas) {
    SCOPED_TRACE(simd::IsaName(isa));
    ASSERT_EQ(simd::SetIsa(isa), isa);
    RunStats stats;
    auto out = skip_pf.RunOnBuffer(doc, &stats);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ASSERT_EQ(*out, *best);
    EXPECT_EQ(stats.search.comparisons, best_stats.search.comparisons);
    EXPECT_EQ(stats.search.shifts, best_stats.search.shifts);
    EXPECT_EQ(stats.search.shift_chars, best_stats.search.shift_chars);
    EXPECT_EQ(stats.matches, best_stats.matches);
    EXPECT_EQ(stats.false_matches, best_stats.false_matches);
    EXPECT_EQ(stats.bm_searches, best_stats.bm_searches);
    EXPECT_EQ(stats.cw_searches, best_stats.cw_searches);
  }
  simd::SetIsa(saved);

  RunStats classic_stats;
  auto out_classic = classic_pf.RunOnBuffer(doc, &classic_stats);
  ASSERT_TRUE(out_classic.ok()) << out_classic.status().ToString();
  ASSERT_EQ(*out_classic, *best);
  EXPECT_EQ(classic_stats.matches, best_stats.matches);
  EXPECT_EQ(classic_stats.false_matches, best_stats.false_matches);
}

TEST(DispatchDiffTest, PrologAndDoctypeUnderSpanScanner) {
  Prefilter pf = MustCompile(*dtd::Dtd::Parse(kBachelorDtd), "/a/b#");
  std::string long_comment(5000, 'x');
  for (const std::string& prolog : {
           std::string("<?xml version=\"1.0\"?>\n"),
           std::string("<?xml version=\"1.0\"?>\n<!-- c --->\n"),
           std::string("<!-- ") + long_comment + " -->\n",
           std::string("<!DOCTYPE a [ <!ELEMENT a (b|c)*> ]>\n"),
           std::string("<?pi data?><!-- x --><!DOCTYPE a []>"),
       }) {
    SCOPED_TRACE(prolog);
    EXPECT_EQ(RunChecked(pf, prolog + "<a><b>x</b></a>", 64),
              "<a><b>x</b></a>");
  }
}

}  // namespace
}  // namespace smpx::core
