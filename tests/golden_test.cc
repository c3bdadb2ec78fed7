// Golden-corpus regression tests: tiny XMark/MEDLINE/protein documents,
// their DTDs, and their expected projections are CHECKED IN under
// tests/data/ and compared byte-for-byte. Unlike the generator-driven
// suites, nothing here is recomputed from src/xmlgen at test time, so an
// engine regression is caught even if the generators (or their seeds)
// drift in the same commit. The corpus also exercises the boundary index
// against frozen inputs: every projection suffix served by a cursor must
// match a substring of the checked-in projection.
//
// Regenerating the corpus (only when the projection SEMANTICS change
// intentionally): rebuild the three documents with xmlgen seed 42 at
// target_bytes 4096, re-run the serial engine, and replace the files --
// then justify the diff in review like any other golden-file change.

#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/io.h"
#include "core/prefilter.h"
#include "index/boundary_index.h"
#include "index/cursor.h"
#include "parallel/shard.h"
#include "parallel/thread_pool.h"
#include "query/multiquery.h"
#include "xmlgen/medline.h"
#include "xmlgen/xmark.h"

namespace smpx {
namespace {

#ifndef SMPX_TEST_DATA_DIR
#define SMPX_TEST_DATA_DIR "tests/data"
#endif

struct GoldenCase {
  const char* name;
  const char* paths;
};

const GoldenCase kCases[] = {
    {"xmark", "/site/people/person@ /site/people/person/name#"},
    {"medline",
     "/MedlineCitationSet/MedlineCitation/MedlineJournalInfo# "
     "/MedlineCitationSet/MedlineCitation/DateCompleted#"},
    {"protein",
     "/ProteinDatabase/ProteinEntry/protein/name# "
     "/ProteinDatabase/ProteinEntry/header@"},
};

std::string DataFile(const std::string& name) {
  auto content = ReadFileToString(std::string(SMPX_TEST_DATA_DIR) + "/" +
                                  name);
  EXPECT_TRUE(content.ok()) << "missing corpus file " << name << ": "
                            << content.status().ToString();
  return content.ok() ? *content : std::string();
}

core::Prefilter CompileGolden(const GoldenCase& c) {
  auto dtd = dtd::Dtd::Parse(DataFile(std::string(c.name) + ".dtd"));
  EXPECT_TRUE(dtd.ok()) << dtd.status().ToString();
  auto paths = paths::ProjectionPath::ParseList(c.paths);
  EXPECT_TRUE(paths.ok());
  auto pf = core::Prefilter::Compile(std::move(*dtd), std::move(*paths));
  EXPECT_TRUE(pf.ok()) << pf.status().ToString();
  return std::move(*pf);
}

TEST(GoldenCorpusTest, SerialProjectionsMatchCheckedInFiles) {
  for (const GoldenCase& c : kCases) {
    SCOPED_TRACE(c.name);
    core::Prefilter pf = CompileGolden(c);
    std::string doc = DataFile(std::string(c.name) + "_tiny.xml");
    std::string expected = DataFile(std::string(c.name) + "_tiny.proj.xml");
    ASSERT_FALSE(doc.empty());
    auto out = pf.RunOnBuffer(doc);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(*out, expected)
        << "projection of the frozen " << c.name
        << " document changed -- engine regression, or an intentional "
           "semantics change that must regenerate tests/data/";
  }
}

TEST(GoldenCorpusTest, ShardedRunsMatchCheckedInFiles) {
  for (const GoldenCase& c : kCases) {
    SCOPED_TRACE(c.name);
    core::Prefilter pf = CompileGolden(c);
    std::string doc = DataFile(std::string(c.name) + "_tiny.xml");
    std::string expected = DataFile(std::string(c.name) + "_tiny.proj.xml");
    for (int threads : {2, 4}) {
      parallel::ThreadPool pool(threads);
      StringSink sink;
      Status s = parallel::ShardedRun(pf.tables(), doc, &sink, nullptr,
                                      &pool);
      ASSERT_TRUE(s.ok()) << s.ToString();
      EXPECT_EQ(sink.str(), expected) << "threads=" << threads;
    }
  }
}

TEST(GoldenCorpusTest, IndexedCursorsServeCheckedInSuffixes) {
  for (const GoldenCase& c : kCases) {
    SCOPED_TRACE(c.name);
    core::Prefilter pf = CompileGolden(c);
    std::string doc = DataFile(std::string(c.name) + "_tiny.xml");
    std::string expected = DataFile(std::string(c.name) + "_tiny.proj.xml");
    parallel::ThreadPool pool(2);
    index::BoundaryIndexOptions opts;
    opts.granularity_bytes = 1;
    auto idx = index::BoundaryIndex::Build(pf.tables(), doc, &pool, opts);
    ASSERT_TRUE(idx.ok()) << idx.status().ToString();
    for (const index::IndexEntry& e : idx->entries()) {
      auto cur = index::Cursor::OpenAt(*idx, pf.tables(), doc, e.offset);
      ASSERT_TRUE(cur.ok()) << cur.status().ToString();
      ASSERT_LE(e.out_offset, expected.size());
      StringSink sink;
      ASSERT_TRUE(cur->Drain(&sink).ok());
      EXPECT_EQ(sink.str(),
                expected.substr(static_cast<size_t>(e.out_offset)))
          << "cursor at frozen boundary " << e.offset << " diverged";
    }
  }
}

// The multi-query corpus: tests/data/xmark_mix.queries holds a frozen
// 4-query mix (one exact duplicate), and xmark_tiny.mqN.proj.xml holds
// query N's expected projection as produced by an INDEPENDENT single-query
// serial run -- so this test pins the product engine's differential
// contract against frozen bytes, not against the current engine.
// Regenerate with `smpx --dtd xmark.dtd --paths "<line N>" --out
// xmark_tiny.mqN.proj.xml xmark_tiny.xml` per non-comment line.
TEST(GoldenCorpusTest, MultiQueryMixMatchesCheckedInProjections) {
  std::string mix = DataFile("xmark_mix.queries");
  ASSERT_FALSE(mix.empty());
  std::vector<std::vector<paths::ProjectionPath>> queries;
  for (size_t pos = 0; pos < mix.size();) {
    size_t eol = mix.find('\n', pos);
    if (eol == std::string::npos) eol = mix.size();
    std::string line = mix.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    auto paths = paths::ProjectionPath::ParseList(line);
    ASSERT_TRUE(paths.ok()) << line;
    queries.push_back(std::move(*paths));
  }
  ASSERT_EQ(queries.size(), 4u);

  std::vector<std::string> expected;
  for (size_t q = 0; q < queries.size(); ++q) {
    expected.push_back(
        DataFile("xmark_tiny.mq" + std::to_string(q + 1) + ".proj.xml"));
  }

  auto dtd = dtd::Dtd::Parse(DataFile("xmark.dtd"));
  ASSERT_TRUE(dtd.ok()) << dtd.status().ToString();
  auto mq = query::MultiQuery::Compile(std::move(*dtd), queries);
  ASSERT_TRUE(mq.ok()) << mq.status().ToString();
  EXPECT_EQ(mq->num_queries(), 4);
  EXPECT_EQ(mq->num_unique(), 3);  // the duplicate collapses

  std::string doc = DataFile("xmark_tiny.xml");
  ASSERT_FALSE(doc.empty());

  {
    std::vector<StringSink> sinks(queries.size());
    std::vector<OutputSink*> ptrs;
    for (StringSink& s : sinks) ptrs.push_back(&s);
    std::vector<core::QueryRunStats> qstats;
    Status s = mq->RunOnBuffer(doc, ptrs, &qstats, nullptr);
    ASSERT_TRUE(s.ok()) << s.ToString();
    for (size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(sinks[q].str(), expected[q])
          << "one-pass projection of frozen query " << (q + 1)
          << " diverged from its independent single-query golden";
    }
  }

  for (int threads : {2, 4}) {
    parallel::ThreadPool pool(threads);
    std::vector<StringSink> sinks(queries.size());
    std::vector<OutputSink*> ptrs;
    for (StringSink& s : sinks) ptrs.push_back(&s);
    std::vector<std::unique_ptr<FanoutSink>> owned;
    std::vector<OutputSink*> unique_sinks;
    mq->RouteSinks(ptrs, &owned, &unique_sinks);
    Status s = parallel::ShardedRun(*mq->shared_tables(), doc, unique_sinks,
                                    nullptr, nullptr, &pool);
    ASSERT_TRUE(s.ok()) << s.ToString();
    for (size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(sinks[q].str(), expected[q])
          << "sharded (threads=" << threads << ") projection of frozen query "
          << (q + 1) << " diverged";
    }
  }
}

// The counter goldens: the deterministic work counters of a query
// workload on one fixed-seed generated document -- each query as a
// single-query run, and all of them as one multi-query product run --
// pinned in tests/data/<workload>_counters.golden. Unlike wall time,
// these counters are exact on every host and kernel tier, so any change in
// the work the prefilter does -- a matcher probe, a scan, a jump, a window
// refill -- shows up here as an exact diff. An intended change regenerates
// the file: on mismatch the test prints the complete actual table, which
// replaces the file verbatim.
struct CounterQuery {
  const char* name;
  const char* paths;
};

const CounterQuery kCounterQueries[] = {
    {"XM1", "/site/people/person@ /site/people/person/name#"},
    {"XM2", "/site/open_auctions/open_auction/bidder/increase#"},
    {"XM3", "/site/open_auctions/open_auction/bidder/increase#"},
    {"XM4",
     "/site/open_auctions/open_auction/bidder/personref@ "
     "/site/open_auctions/open_auction/reserve#"},
    {"XM5", "/site/closed_auctions/closed_auction/price#"},
    {"XM6", "/site/regions//item@"},
    {"XM7", "//description //annotation //emailaddress"},
    {"XM8",
     "/site/people/person@ /site/people/person/name# "
     "/site/closed_auctions/closed_auction/buyer@"},
    {"XM9",
     "/site/people/person@ /site/people/person/name# "
     "/site/closed_auctions/closed_auction/buyer@ "
     "/site/closed_auctions/closed_auction/itemref@ "
     "/site/regions/europe/item@ /site/regions/europe/item/name#"},
    {"XM10",
     "/site/categories/category@ /site/categories/category/name# "
     "/site/people/person@ /site/people/person/name# "
     "/site/people/person/emailaddress# /site/people/person/homepage# "
     "/site/people/person/creditcard# /site/people/person/address# "
     "/site/people/person/profile#"},
    {"XM11",
     "/site/people/person/name# /site/people/person/profile@ "
     "/site/open_auctions/open_auction/initial#"},
    {"XM12",
     "/site/people/person/profile@ "
     "/site/open_auctions/open_auction/initial#"},
    {"XM13",
     "/site/regions/australia/item/name# "
     "/site/regions/australia/item/description#"},
    {"XM14", "/site//item/name# /site//item/description#"},
    {"XM17", "/site/people/person/name# /site/people/person/homepage"},
    {"XM18", "/site/open_auctions/open_auction/initial#"},
    {"XM19", "/site/regions//item/location# /site/regions//item/name#"},
    {"XM20", "/site/people/person/profile@"},
};

std::string CounterLine(const std::string& name, const core::RunStats& st) {
  std::ostringstream line;
  line << name << ' ' << st.matches << ' ' << st.output_bytes << ' '
       << st.search.comparisons << ' ' << st.scan_chars << ' '
       << st.initial_jump_chars << ' ' << st.bm_searches << ' '
       << st.cw_searches << ' ' << st.window_peak << '\n';
  return line.str();
}

/// The counter table of one workload: each query as a single-query run,
/// then all of them as one multi-query product run named `mix_name`.
void ExpectCountersMatchGolden(dtd::Dtd (*make_dtd)(), const std::string& doc,
                               const CounterQuery* queries, size_t count,
                               const char* mix_name, const char* golden) {
  std::string actual =
      "# name matches output_bytes search_comparisons scan_chars "
      "initial_jump_chars bm_searches cw_searches window_peak\n";
  std::vector<std::vector<paths::ProjectionPath>> mix;
  for (size_t i = 0; i < count; ++i) {
    const CounterQuery& q = queries[i];
    auto paths = paths::ProjectionPath::ParseList(q.paths);
    ASSERT_TRUE(paths.ok()) << q.name;
    mix.push_back(*paths);
    auto pf = core::Prefilter::Compile(make_dtd(), std::move(*paths));
    ASSERT_TRUE(pf.ok()) << q.name << ": " << pf.status().ToString();
    core::RunStats st;
    auto out = pf->RunOnBuffer(doc, &st);
    ASSERT_TRUE(out.ok()) << q.name << ": " << out.status().ToString();
    actual += CounterLine(q.name, st);
  }

  auto mq = query::MultiQuery::Compile(make_dtd(), std::move(mix));
  ASSERT_TRUE(mq.ok()) << mq.status().ToString();
  std::vector<CountingSink> sinks(static_cast<size_t>(mq->num_queries()));
  std::vector<OutputSink*> ptrs;
  for (CountingSink& s : sinks) ptrs.push_back(&s);
  core::RunStats st;
  Status s = mq->RunOnBuffer(doc, ptrs, nullptr, &st);
  ASSERT_TRUE(s.ok()) << s.ToString();
  actual += CounterLine(mix_name, st);

  EXPECT_EQ(actual, DataFile(golden))
      << "deterministic work counters moved; if intended, replace "
         "tests/data/"
      << golden << " with:\n"
      << actual;
}

// XMark: XM1-XM14 and XM17-XM20.
TEST(CounterGoldenTest, XmarkWorkloadCountersMatchCheckedInGolden) {
  xmlgen::XmarkOptions gen;
  gen.target_bytes = 2 << 20;
  gen.seed = 16;
  ExpectCountersMatchGolden(&xmlgen::XmarkDtd, xmlgen::GenerateXmark(gen),
                            kCounterQueries, std::size(kCounterQueries),
                            "XM-mix", "xmark_counters.golden");
}

// The MEDLINE workload (M1-M5, the paths of bench/bench_util.cc). Its long
// keywords ("</MedlineJournalInfo", "<DateCompleted") reach the matchers'
// multi-word verification, which XMark's short tag names rarely do.
const CounterQuery kMedlineCounterQueries[] = {
    {"M1", "/MedlineCitationSet//CollectionTitle#"},
    {"M2",
     "/MedlineCitationSet//DataBank/DataBankName# "
     "/MedlineCitationSet//DataBank/AccessionNumberList#"},
    {"M3",
     "/MedlineCitationSet//PersonalNameSubjectList/PersonalNameSubject#"},
    {"M4", "/MedlineCitationSet//CopyrightInformation#"},
    {"M5",
     "/MedlineCitationSet/MedlineCitation/MedlineJournalInfo# "
     "/MedlineCitationSet/MedlineCitation/DateCompleted#"},
};

TEST(CounterGoldenTest, MedlineWorkloadCountersMatchCheckedInGolden) {
  xmlgen::MedlineOptions gen;
  gen.target_bytes = 2 << 20;
  gen.seed = 23;
  ExpectCountersMatchGolden(&xmlgen::MedlineDtd, xmlgen::GenerateMedline(gen),
                            kMedlineCounterQueries,
                            std::size(kMedlineCounterQueries), "M-mix",
                            "medline_counters.golden");
}

}  // namespace
}  // namespace smpx
