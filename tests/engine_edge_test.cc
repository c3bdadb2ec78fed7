// Edge-case and robustness tests for the runtime engine beyond the happy
// paths of core_test: markup oddities, file-based streaming, deep nesting,
// truncation fuzzing, and cross-API property checks.

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/io.h"
#include "core/prefilter.h"
#include "paths/relevance.h"
#include "paths/xquery_extract.h"
#include "query/equivalence.h"
#include "query/multiquery.h"
#include "xml/tokenizer.h"
#include "xmlgen/dtd_sampler.h"
#include "xmlgen/xmark.h"

namespace smpx {
namespace {

constexpr char kPaperDtd[] =
    "<!DOCTYPE a [ <!ELEMENT a (b|c)*>"
    " <!ELEMENT b (#PCDATA)> <!ELEMENT c (b,b?)> ]>";

core::Prefilter Compile(std::string_view dtd_text, std::string_view paths) {
  auto dtd = dtd::Dtd::Parse(dtd_text);
  EXPECT_TRUE(dtd.ok()) << dtd.status().ToString();
  auto parsed = paths::ProjectionPath::ParseList(paths);
  EXPECT_TRUE(parsed.ok());
  auto pf = core::Prefilter::Compile(std::move(*dtd), std::move(*parsed));
  EXPECT_TRUE(pf.ok()) << pf.status().ToString();
  return std::move(*pf);
}

TEST(EngineEdgeTest, CommentsInsideCopiedRegionsPassThrough) {
  core::Prefilter pf = Compile(kPaperDtd, "/a/b#");
  auto out = pf.RunOnBuffer("<a><b>x<!-- keep me -->y</b></a>");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "<a><b>x<!-- keep me -->y</b></a>");
}

TEST(EngineEdgeTest, EntitiesInCopiedTextPassThroughVerbatim) {
  core::Prefilter pf = Compile(kPaperDtd, "/a/b#");
  auto out = pf.RunOnBuffer("<a><b>x &amp; y &lt; z</b></a>");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "<a><b>x &amp; y &lt; z</b></a>");
}

TEST(EngineEdgeTest, GtInsideAttributeValues) {
  const char dtd[] =
      "<!DOCTYPE a [ <!ELEMENT a (b*)> <!ELEMENT b (#PCDATA)>"
      " <!ATTLIST b note CDATA #IMPLIED> ]>";
  core::Prefilter pf = Compile(dtd, "/a/b#@");
  auto out = pf.RunOnBuffer("<a><b note='x>y'>t</b></a>");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "<a><b note='x>y'>t</b></a>")
      << "the tag-end scan must respect quoted values";
}

TEST(EngineEdgeTest, WhitespaceInClosingTags) {
  core::Prefilter pf = Compile(kPaperDtd, "/a/b#");
  auto out = pf.RunOnBuffer("<a><b >x</b ></a >");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "<a><b >x</b ></a>")
      << "copied regions keep raw bytes; reconstructed tags are canonical";
}

TEST(EngineEdgeTest, SingleCharacterTagNames) {
  core::Prefilter pf = Compile(kPaperDtd, "/a/b");
  auto out = pf.RunOnBuffer("<a><b></b><c><b></b></c></a>");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "<a><b></b></a>");
}

TEST(EngineEdgeTest, DeeplyNestedDtdChain) {
  // e0 > e1 > ... > e29, project the innermost.
  std::string dtd = "<!DOCTYPE e0 [";
  std::string doc;
  std::string close;
  std::string path = "/";
  for (int i = 0; i < 30; ++i) {
    std::string name = "e" + std::to_string(i);
    if (i < 29) {
      dtd += "<!ELEMENT " + name + " (e" + std::to_string(i + 1) + ")>";
    } else {
      dtd += "<!ELEMENT " + name + " (#PCDATA)>";
    }
    doc += "<" + name + ">";
    close = "</" + name + ">" + close;
    path += (i ? "/" : "") + name;
  }
  dtd += "]>";
  doc += "payload" + close;
  core::Prefilter pf = Compile(dtd, path + "#");
  auto out = pf.RunOnBuffer(doc);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, doc) << "whole chain is relevant (prefix paths)";
}

TEST(EngineEdgeTest, FileBasedStreamingRun) {
  std::string in_path = testing::TempDir() + "/smpx_edge_in.xml";
  std::string doc = "<a><b>file payload</b><c><b>no</b></c></a>";
  ASSERT_TRUE(WriteStringToFile(in_path, doc).ok());
  core::Prefilter pf = Compile(kPaperDtd, "/a/b#");

  auto in = FileInputStream::Open(in_path);
  ASSERT_TRUE(in.ok());
  StringSink out;
  ASSERT_TRUE(pf.Run(in->get(), &out).ok());
  EXPECT_EQ(out.str(), "<a><b>file payload</b></a>");
  std::remove(in_path.c_str());
}

TEST(EngineEdgeTest, TruncationFuzzNeverCrashes) {
  // Every prefix of a valid document must either project fine (if the
  // relevant part survived) or fail cleanly with ParseError.
  core::Prefilter pf = Compile(kPaperDtd, "/a/b#");
  std::string doc = "<a><b>one</b><c><b>x</b><b>y</b></c><b>two</b></a>";
  for (size_t cut = 0; cut <= doc.size(); ++cut) {
    auto out = pf.RunOnBuffer(doc.substr(0, cut));
    if (!out.ok()) {
      EXPECT_EQ(out.status().code(), StatusCode::kParseError) << cut;
    }
  }
}

TEST(EngineEdgeTest, GarbageFuzzNeverCrashes) {
  core::Prefilter pf = Compile(kPaperDtd, "/a/b#");
  xmlgen::Rng rng(99);
  std::string doc = "<a><b>one</b><c><b>x</b></c></a>";
  for (int round = 0; round < 300; ++round) {
    std::string mutated = doc;
    size_t pos = static_cast<size_t>(xmlgen::Uniform(
        &rng, 0, static_cast<int64_t>(doc.size()) - 1));
    mutated[pos] = static_cast<char>(xmlgen::Uniform(&rng, 32, 126));
    auto out = pf.RunOnBuffer(mutated);  // must not crash or hang
    (void)out;
  }
}

TEST(EngineEdgeTest, RunIsReusableAndDeterministic) {
  core::Prefilter pf = Compile(kPaperDtd, "/a/b#");
  std::string doc = "<a><b>v</b></a>";
  auto a = pf.RunOnBuffer(doc);
  auto b = pf.RunOnBuffer(doc);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  // And the same compiled prefilter works on a different document.
  auto c = pf.RunOnBuffer("<a><c><b>skip</b></c></a>");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, "<a></a>");
}

// --- cross-API property tests ----------------------------------------------

TEST(RelevancePropertyTest, IncrementalMatchesBatchAnalyze) {
  xmlgen::Rng rng(31);
  for (int round = 0; round < 30; ++round) {
    dtd::Dtd dtd = xmlgen::RandomDtd(&rng);
    std::vector<paths::ProjectionPath> ps = xmlgen::RandomPaths(dtd, &rng);
    std::vector<std::string> alphabet;
    for (const auto& d : dtd.elements()) alphabet.push_back(d.name);
    paths::RelevanceAnalyzer analyzer(ps, alphabet);
    paths::IncrementalRelevance inc(&analyzer);

    // Walk a random document, comparing verdicts at every element.
    std::string doc = xmlgen::RandomDocument(dtd, &rng);
    auto tokens = xml::TokenizeAll(doc);
    ASSERT_TRUE(tokens.ok());
    std::vector<std::string> branch;
    for (const xml::Token& t : *tokens) {
      if (t.type == xml::TokenType::kStartTag ||
          t.type == xml::TokenType::kEmptyTag) {
        branch.emplace_back(t.name);
        inc.Push(t.name);
        paths::BranchRelevance batch = analyzer.Analyze(branch);
        paths::BranchRelevance fast = inc.Current();
        ASSERT_EQ(batch.relevant(), fast.relevant()) << doc;
        ASSERT_EQ(batch.leaf_hash, fast.leaf_hash) << doc;
        ASSERT_EQ(batch.leaf_attrs, fast.leaf_attrs) << doc;
        ASSERT_EQ(analyzer.TextRelevant(branch), inc.TextRelevantHere());
        if (t.type == xml::TokenType::kEmptyTag) {
          branch.pop_back();
          inc.Pop();
        }
      } else if (t.type == xml::TokenType::kEndTag) {
        branch.pop_back();
        inc.Pop();
      }
    }
  }
}

TEST(EnginePropertyTest, WindowSizeNeverChangesOutput) {
  xmlgen::Rng rng(47);
  for (int round = 0; round < 15; ++round) {
    dtd::Dtd dtd = xmlgen::RandomDtd(&rng);
    std::vector<paths::ProjectionPath> ps = xmlgen::RandomPaths(dtd, &rng);
    auto pf = core::Prefilter::Compile(dtd, ps);
    ASSERT_TRUE(pf.ok());
    std::string doc = xmlgen::RandomDocument(dtd, &rng);
    std::string reference;
    for (size_t window : {64u, 256u, 4096u, 1u << 20}) {
      core::EngineOptions opts;
      opts.window_capacity = window;
      auto out = pf->RunOnBuffer(doc, nullptr, opts);
      ASSERT_TRUE(out.ok()) << out.status().ToString() << " window "
                            << window << "\n" << dtd.ToString() << "\n"
                            << doc;
      if (reference.empty()) {
        reference = *out;
      } else {
        ASSERT_EQ(*out, reference) << "window " << window;
      }
    }
  }
}

// Resident vs streamed input: a run over a MemoryInputStream scans a view
// of the caller's bytes, a run over a SourceStream copies them into the
// window buffer. Everything observable must be identical: status, every
// Append boundary, the output bytes, and every RunStats counter including
// window_peak.

/// Keeps every Append, so the parity checks see the flush boundaries.
class RecordingSink : public OutputSink {
 public:
  Status Append(std::string_view data) override {
    appends.push_back(data.size());
    bytes.append(data);
    bytes_written_ += data.size();
    return Status::Ok();
  }
  std::vector<size_t> appends;
  std::string bytes;
};

void ExpectSameRunStats(const core::RunStats& a, const core::RunStats& b,
                        const std::string& what) {
  EXPECT_EQ(a.input_bytes, b.input_bytes) << what;
  EXPECT_EQ(a.output_bytes, b.output_bytes) << what;
  EXPECT_EQ(a.search.comparisons, b.search.comparisons) << what;
  EXPECT_EQ(a.search.shifts, b.search.shifts) << what;
  EXPECT_EQ(a.search.shift_chars, b.search.shift_chars) << what;
  EXPECT_EQ(a.scan_chars, b.scan_chars) << what;
  EXPECT_EQ(a.initial_jumps, b.initial_jumps) << what;
  EXPECT_EQ(a.initial_jump_chars, b.initial_jump_chars) << what;
  EXPECT_EQ(a.matches, b.matches) << what;
  EXPECT_EQ(a.false_matches, b.false_matches) << what;
  EXPECT_EQ(a.states_visited, b.states_visited) << what;
  EXPECT_EQ(a.bm_searches, b.bm_searches) << what;
  EXPECT_EQ(a.cw_searches, b.cw_searches) << what;
  EXPECT_EQ(a.window_peak, b.window_peak) << what;
}

struct ParityRun {
  Status status;
  core::RunStats stats;
  RecordingSink sink;
};

/// Runs `pf` over `doc` resident and streamed; returns the resident run's
/// window_peak after checking the two runs are identical.
size_t ExpectResidentMatchesStreamed(const core::Prefilter& pf,
                                     std::string_view doc, size_t capacity,
                                     const std::string& what) {
  core::EngineOptions opts;
  opts.window_capacity = capacity;
  ParityRun resident;
  MemoryInputStream resident_in(doc);
  resident.status =
      pf.Run(&resident_in, &resident.sink, &resident.stats, opts);
  ParityRun streamed;
  MemorySource source(doc);
  SourceStream streamed_in(&source);
  streamed.status =
      pf.Run(&streamed_in, &streamed.sink, &streamed.stats, opts);
  const std::string where = what + " window " + std::to_string(capacity);
  EXPECT_EQ(resident.status.ToString(), streamed.status.ToString()) << where;
  EXPECT_EQ(resident.sink.appends, streamed.sink.appends) << where;
  EXPECT_EQ(resident.sink.bytes, streamed.sink.bytes) << where;
  ExpectSameRunStats(resident.stats, streamed.stats, where);
  return resident.stats.window_peak;
}

constexpr size_t kParityCapacities[] = {64, 100, 4096, 32768};

TEST(WindowParityTest, ResidentRunMatchesStreamedRun) {
  xmlgen::XmarkOptions gen;
  gen.target_bytes = 256 << 10;
  const std::string doc = xmlgen::GenerateXmark(gen);
  const char* queries[] = {
      "/site/people/person@ /site/people/person/name#",
      "/site/regions//item@",
      "//description //annotation //emailaddress",
      "/site//item/name# /site//item/description#",
      "/*",
  };
  for (const char* q : queries) {
    auto parsed = paths::ProjectionPath::ParseList(q);
    ASSERT_TRUE(parsed.ok());
    auto pf = core::Prefilter::Compile(xmlgen::XmarkDtd(), *parsed);
    ASSERT_TRUE(pf.ok()) << pf.status().ToString();
    for (size_t capacity : kParityCapacities) {
      ExpectResidentMatchesStreamed(*pf, doc, capacity, q);
      // A truncated document fails the same way on both paths.
      ExpectResidentMatchesStreamed(*pf, doc.substr(0, doc.size() / 2),
                                    capacity, std::string("truncated ") + q);
    }
  }
}

TEST(WindowParityTest, EmptyInputFailsTheSameWay) {
  core::Prefilter pf = Compile(kPaperDtd, "/a/b#");
  for (size_t capacity : kParityCapacities) {
    ExpectResidentMatchesStreamed(pf, "", capacity, "empty");
  }
}

TEST(WindowParityTest, GrowthPathMatches) {
  // A keyword longer than the window must be resident as one piece, so
  // the window grows past its capacity.
  const std::string name(200, 'n');
  const std::string dtd = "<!DOCTYPE a [ <!ELEMENT a (b | " + name +
                          ")*> <!ELEMENT b (#PCDATA)> <!ELEMENT " + name +
                          " (#PCDATA)> ]>";
  core::Prefilter pf = Compile(dtd, "/a/" + name + "#");
  std::string doc = "<a>";
  for (int i = 0; i < 30; ++i) {
    doc += "<b>x</b><" + name + ">t</" + name + ">";
  }
  doc += "</a>";
  for (size_t capacity : kParityCapacities) {
    size_t peak = ExpectResidentMatchesStreamed(pf, doc, capacity, "growth");
    if (capacity < name.size()) {
      EXPECT_GT(peak, capacity) << "growth not reached";
    }
  }
}

TEST(WindowParityTest, InitialJumpPastTheWindowMatches) {
  // Eight required <dddddddddd> children: each initial jump over <b> is
  // longer than the smaller windows, so it slides across a gap.
  const char dtd[] =
      "<!DOCTYPE a [ <!ELEMENT a (r*)> <!ELEMENT r (b, c)>"
      " <!ELEMENT b (dddddddddd, dddddddddd, dddddddddd, dddddddddd,"
      " dddddddddd, dddddddddd, dddddddddd, dddddddddd)>"
      " <!ELEMENT dddddddddd (#PCDATA)> <!ELEMENT c (#PCDATA)> ]>";
  core::Prefilter pf = Compile(dtd, "/a/r/c#");
  std::string record = "<r><b>";
  for (int i = 0; i < 8; ++i) record += "<dddddddddd>text</dddddddddd>";
  record += "</b><c>keep</c></r>";
  std::string doc = "<a>";
  for (int i = 0; i < 20; ++i) doc += record;
  doc += "</a>";
  for (size_t capacity : kParityCapacities) {
    ExpectResidentMatchesStreamed(pf, doc, capacity, "jump");
  }
  core::RunStats stats;
  ASSERT_TRUE(pf.RunOnBuffer(doc, &stats).ok());
  ASSERT_EQ(stats.initial_jumps, 20u);
  EXPECT_GT(stats.initial_jump_chars / stats.initial_jumps, 100u)
      << "the jumps must be longer than the 64- and 100-byte windows";
}

TEST(WindowParityTest, MultiQueryRunOnBufferMatchesStreamedRun) {
  xmlgen::XmarkOptions gen;
  gen.target_bytes = 256 << 10;
  const std::string doc = xmlgen::GenerateXmark(gen);
  std::vector<std::vector<paths::ProjectionPath>> mix;
  for (const char* q : {"/site/people/person@ /site/people/person/name#",
                        "/site/regions//item@", "//description",
                        "/site/open_auctions/open_auction/initial#"}) {
    auto parsed = paths::ProjectionPath::ParseList(q);
    ASSERT_TRUE(parsed.ok());
    mix.push_back(*parsed);
  }
  auto mq = query::MultiQuery::Compile(xmlgen::XmarkDtd(), mix);
  ASSERT_TRUE(mq.ok()) << mq.status().ToString();
  const size_t n = static_cast<size_t>(mq->num_queries());
  for (size_t capacity : kParityCapacities) {
    for (std::string_view input :
         {std::string_view(doc), std::string_view(doc).substr(0, 100000)}) {
      core::EngineOptions opts;
      opts.window_capacity = capacity;
      std::vector<RecordingSink> resident(n);
      std::vector<RecordingSink> streamed(n);
      std::vector<OutputSink*> resident_ptrs;
      std::vector<OutputSink*> streamed_ptrs;
      for (size_t q = 0; q < n; ++q) {
        resident_ptrs.push_back(&resident[q]);
        streamed_ptrs.push_back(&streamed[q]);
      }
      std::vector<core::QueryRunStats> resident_q;
      std::vector<core::QueryRunStats> streamed_q;
      core::RunStats resident_stats;
      core::RunStats streamed_stats;
      Status rs = mq->RunOnBuffer(input, resident_ptrs, &resident_q,
                                  &resident_stats, opts);
      MemorySource source(input);
      SourceStream streamed_in(&source);
      Status ss = mq->Run(&streamed_in, streamed_ptrs, &streamed_q,
                          &streamed_stats, opts);
      const std::string what = "multi window " + std::to_string(capacity) +
                               " input " + std::to_string(input.size());
      EXPECT_EQ(rs.ToString(), ss.ToString()) << what;
      ExpectSameRunStats(resident_stats, streamed_stats, what);
      for (size_t q = 0; q < n; ++q) {
        EXPECT_EQ(resident[q].appends, streamed[q].appends) << what;
        EXPECT_EQ(resident[q].bytes, streamed[q].bytes) << what;
      }
      // Per-query stats are filled only by a successful run.
      ASSERT_EQ(resident_q.size(), rs.ok() ? n : 0) << what;
      ASSERT_EQ(streamed_q.size(), resident_q.size()) << what;
      for (size_t q = 0; q < resident_q.size(); ++q) {
        EXPECT_EQ(resident_q[q].matches, streamed_q[q].matches) << what;
        EXPECT_EQ(resident_q[q].output_bytes, streamed_q[q].output_bytes)
            << what;
      }
    }
  }
}

TEST(XQueryEndToEndTest, ExtractCompileRun) {
  // Full pipeline: XQuery text -> projection paths -> prefilter -> output,
  // then verify the query result is preserved (projection safety).
  const char* query =
      "for $i in /site/regions/australia/item "
      "return <r>{$i/name/text()}</r>";
  auto extracted = paths::ExtractProjectionPaths(query);
  ASSERT_TRUE(extracted.ok()) << extracted.status().ToString();

  xmlgen::XmarkOptions gen;
  gen.target_bytes = 256 << 10;
  std::string doc = xmlgen::GenerateXmark(gen);

  auto pf = core::Prefilter::Compile(xmlgen::XmarkDtd(), *extracted);
  ASSERT_TRUE(pf.ok()) << pf.status().ToString();
  auto out = pf->RunOnBuffer(doc);
  ASSERT_TRUE(out.ok());
  EXPECT_LT(out->size(), doc.size() / 4) << "projection should shrink a lot";

  auto report = query::CheckProjectionSafety(doc, *out, pf->paths());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->safe) << report->first_violation;
}

}  // namespace
}  // namespace smpx
