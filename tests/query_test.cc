// Tests for the XPath subset, the memory-budgeted engine (QizX substitute),
// the record-streaming engine (SPEX substitute), and the top-level
// equality / projection-safety oracle.

#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/io.h"
#include "paths/path_nfa.h"
#include "query/equivalence.h"
#include "query/mem_engine.h"
#include "query/stream_engine.h"
#include "query/xpath.h"
#include "xml/dom.h"
#include "xmlgen/dtd_sampler.h"

namespace smpx::query {
namespace {

constexpr char kDoc[] =
    "<site><people>"
    "<person id=\"p0\"><name>Ada</name><age>36</age></person>"
    "<person id=\"p1\"><name>Bob</name></person>"
    "</people><regions><asia><item id=\"i0\"><name>lamp</name>"
    "<description>old <bold>brass</bold> lamp</description></item></asia>"
    "</regions></site>";

std::vector<std::string> Names(const xml::Document& doc,
                               const std::vector<xml::NodeId>& ids) {
  std::vector<std::string> out;
  for (xml::NodeId id : ids) {
    const xml::DomNode& n = doc.node(id);
    out.push_back(n.kind == xml::DomNode::Kind::kText ? "#text" : n.name);
  }
  return out;
}

std::vector<xml::NodeId> Eval(std::string_view q, const xml::Document& doc) {
  auto p = XPath::Parse(q);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return Evaluate(*p, doc);
}

class XPathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto d = xml::ParseDocument(kDoc);
    ASSERT_TRUE(d.ok());
    doc_ = std::move(*d);
  }
  xml::Document doc_;
};

TEST_F(XPathTest, ChildPaths) {
  EXPECT_EQ(Eval("/site/people/person", doc_).size(), 2u);
  EXPECT_EQ(Eval("/site/people", doc_).size(), 1u);
  EXPECT_EQ(Eval("/wrong/people", doc_).size(), 0u);
  EXPECT_EQ(Eval("/site", doc_).size(), 1u);
}

TEST_F(XPathTest, DescendantPaths) {
  EXPECT_EQ(Eval("//name", doc_).size(), 3u);
  EXPECT_EQ(Eval("//person/name", doc_).size(), 2u);
  EXPECT_EQ(Eval("/site//item//bold", doc_).size(), 1u);
  EXPECT_EQ(Eval("//site", doc_).size(), 1u) << "root is a descendant-or-self";
}

TEST_F(XPathTest, Wildcards) {
  EXPECT_EQ(Eval("/site/*", doc_).size(), 2u);
  EXPECT_EQ(Eval("/*", doc_).size(), 1u);
  EXPECT_EQ(Eval("/site/people/person/*", doc_).size(), 3u);
}

TEST_F(XPathTest, TextNodes) {
  auto r = Eval("/site/people/person/name/text()", doc_);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(doc_.node(r[0]).text, "Ada");
  EXPECT_EQ(doc_.node(r[1]).text, "Bob");
}

TEST_F(XPathTest, AttributeSelection) {
  // '@id' selects owner elements having the attribute.
  EXPECT_EQ(Names(doc_, Eval("/site/people/person/@id", doc_)),
            (std::vector<std::string>{"person", "person"}));
  EXPECT_EQ(Eval("//item/@id", doc_).size(), 1u);
  EXPECT_EQ(Eval("//item/@missing", doc_).size(), 0u);
}

TEST_F(XPathTest, ExistencePredicates) {
  EXPECT_EQ(Eval("/site/people/person[age]", doc_).size(), 1u);
  EXPECT_EQ(Eval("/site/people/person[@id]", doc_).size(), 2u);
  EXPECT_EQ(Eval("/site/people/person[not(age)]", doc_).size(), 1u);
}

TEST_F(XPathTest, ValuePredicates) {
  EXPECT_EQ(Eval("/site/people/person[name = 'Ada']", doc_).size(), 1u);
  EXPECT_EQ(Eval("/site/people/person[name = 'Eve']", doc_).size(), 0u);
  EXPECT_EQ(Eval("/site/people/person[@id = 'p1']", doc_).size(), 1u);
  EXPECT_EQ(Eval("//item[contains(description, 'brass')]", doc_).size(), 1u);
  EXPECT_EQ(Eval("//item[contains(description, 'copper')]", doc_).size(), 0u);
  EXPECT_EQ(Eval("//person[name/text() = 'Bob']", doc_).size(), 1u);
}

TEST_F(XPathTest, DocumentOrderAndDedup) {
  auto r = Eval("//person", doc_);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_LT(r[0], r[1]);
}

TEST_F(XPathTest, ParserRejectsMalformed) {
  EXPECT_FALSE(XPath::Parse("").ok());
  EXPECT_FALSE(XPath::Parse("site/name").ok());  // relative at top level
  EXPECT_FALSE(XPath::Parse("/a[").ok());
  EXPECT_FALSE(XPath::Parse("/a[b=]").ok());
  EXPECT_FALSE(XPath::Parse("/a/position()").ok());
}

TEST(MemEngineTest, EvaluatesAndSerializes) {
  auto r = EvaluateInMemory("/site/people/person/name", kDoc);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->result_count, 2u);
  EXPECT_EQ(r->output, "<name>Ada</name><name>Bob</name>");
}

TEST(MemEngineTest, BudgetExhaustionFails) {
  MemEngineOptions opts;
  opts.memory_budget = 64;
  auto r = EvaluateInMemory("/site//name", kDoc, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(StreamEngineTest, MatchesMemEngineOnRecords) {
  for (const char* q :
       {"/site/people/person/name", "//name", "/site/regions//item",
        "/site/people/person[name = 'Ada']/age"}) {
    auto mem = EvaluateInMemory(q, kDoc);
    ASSERT_TRUE(mem.ok()) << q;
    StringSink sink;
    StreamStats stats;
    ASSERT_TRUE(EvaluateStreaming(q, kDoc, &sink, &stats).ok()) << q;
    EXPECT_EQ(sink.str(), mem->output) << q;
    EXPECT_EQ(stats.records, 2u) << "two children of <site>";
  }
}

TEST(StreamEngineTest, MemoryBoundedByRecord) {
  // 50 records; peak record footprint must be far below total input.
  std::string doc = "<root>";
  for (int i = 0; i < 50; ++i) {
    doc += "<rec><val>" + std::to_string(i) + "</val>" +
           std::string(200, 'x') + "</rec>";
  }
  doc += "</root>";
  StringSink sink;
  StreamStats stats;
  ASSERT_TRUE(EvaluateStreaming("/root/rec/val", doc, &sink, &stats).ok());
  EXPECT_EQ(stats.records, 50u);
  EXPECT_LT(stats.peak_record_bytes, doc.size() / 10);
}

TEST(StreamEngineTest, EmptyRootAndErrors) {
  StringSink sink;
  EXPECT_TRUE(EvaluateStreaming("/a/b", "<a/>", &sink).ok());
  EXPECT_TRUE(sink.str().empty());
  EXPECT_FALSE(EvaluateStreaming("/a/b", "<a><b>", &sink).ok());
  EXPECT_FALSE(EvaluateStreaming("/a/b", "no xml", &sink).ok());
}

// --- Definition 1 / 2 oracle ----------------------------------------------

paths::ProjectionPath PP(std::string_view s) {
  auto r = paths::ProjectionPath::Parse(s);
  EXPECT_TRUE(r.ok());
  return *r;
}

TEST(TopLevelEqualTest, Definition1Examples) {
  // Example 5: [<a>b</a>, s], [<a>c</a>, s], [<a></a>, s] pairwise equal.
  auto doc1 = xml::ParseDocument("<a>b</a>");
  auto doc2 = xml::ParseDocument("<a>c</a>");
  auto doc3 = xml::ParseDocument("<a></a>");
  ASSERT_TRUE(doc1.ok() && doc2.ok() && doc3.ok());
  auto items1 = EvaluateForEquality(PP("/a"), *doc1);
  auto items2 = EvaluateForEquality(PP("/a"), *doc2);
  auto items3 = EvaluateForEquality(PP("/a"), *doc3);
  EXPECT_TRUE(TopLevelEqual(items1, items2));
  EXPECT_TRUE(TopLevelEqual(items1, items3));
  EXPECT_TRUE(TopLevelEqual(items2, items3));
}

TEST(TopLevelEqualTest, DiffersOnLengthLabelAndText) {
  auto doc1 = xml::ParseDocument("<a><b>t</b><b>t</b></a>");
  auto doc2 = xml::ParseDocument("<a><b>t</b></a>");
  ASSERT_TRUE(doc1.ok() && doc2.ok());
  EXPECT_FALSE(TopLevelEqual(EvaluateForEquality(PP("/a/b"), *doc1),
                             EvaluateForEquality(PP("/a/b"), *doc2)));
  // '#' makes text differences visible.
  auto doc3 = xml::ParseDocument("<a><b>t</b></a>");
  auto doc4 = xml::ParseDocument("<a><b>u</b></a>");
  ASSERT_TRUE(doc3.ok() && doc4.ok());
  EXPECT_TRUE(TopLevelEqual(EvaluateForEquality(PP("/a/b"), *doc3),
                            EvaluateForEquality(PP("/a/b"), *doc4)));
  EXPECT_FALSE(TopLevelEqual(EvaluateForEquality(PP("/a/b#"), *doc3),
                             EvaluateForEquality(PP("/a/b#"), *doc4)));
}

TEST(ProjectionSafetyTest, DetectsSafeAndUnsafeProjections) {
  std::string original = "<a><c><b>T</b></c><d>x</d></a>";
  // Keeping c and b: safe for {/a, //b#}.
  auto r1 = CheckProjectionSafety(original, "<a><c><b>T</b></c></a>",
                                  {PP("/a"), PP("//b#")});
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(r1->safe) << r1->first_violation;
  // Dropping c while keeping b changes /a/c/b matches: unsafe for /a/c/b.
  auto r2 = CheckProjectionSafety(original, "<a><b>T</b></a>",
                                  {PP("/a/c/b")});
  ASSERT_TRUE(r2.ok());
  EXPECT_FALSE(r2->safe);
  // Dropping b's text: unsafe under '#', safe without.
  auto r3 = CheckProjectionSafety(original, "<a><c><b/></c></a>",
                                  {PP("//b#")});
  ASSERT_TRUE(r3.ok());
  EXPECT_FALSE(r3->safe);
  auto r4 = CheckProjectionSafety(original, "<a><c><b/></c></a>",
                                  {PP("//b")});
  ASSERT_TRUE(r4.ok());
  EXPECT_TRUE(r4->safe);
}

// --- Projection-query equivalence against the full-alphabet walk ----------

/// The product walk of EquivalentProjectionQueries over every label of the
/// alphabet from every reachable state pair, with the same budget rule.
bool FullAlphabetEquivalent(const std::vector<paths::ProjectionPath>& a,
                            const std::vector<paths::ProjectionPath>& b,
                            const std::vector<std::string>& alphabet,
                            size_t max_states) {
  paths::PathSetEvaluator ea(&a);
  paths::PathSetEvaluator eb(&b);
  using State = paths::PathSetEvaluator::State;
  auto key = [](const State& sa, const State& sb) {
    std::vector<std::vector<bool>> k = sa.sets;
    k.emplace_back();  // separator: both shapes are fixed
    k.insert(k.end(), sb.sets.begin(), sb.sets.end());
    return k;
  };
  std::set<std::vector<std::vector<bool>>> seen;
  std::vector<std::pair<State, State>> work;
  seen.insert(key(ea.Initial(), eb.Initial()));
  work.emplace_back(ea.Initial(), eb.Initial());
  while (!work.empty()) {
    if (seen.size() > max_states) return false;
    auto [sa, sb] = std::move(work.back());
    work.pop_back();
    if (ea.Flags(sa) != eb.Flags(sb)) return false;
    for (const std::string& label : alphabet) {
      State na = sa;
      State nb = sb;
      ea.Step(label, &na);
      eb.Step(label, &nb);
      if (seen.insert(key(na, nb)).second) {
        work.emplace_back(std::move(na), std::move(nb));
      }
    }
  }
  return true;
}

/// A path set selecting exactly what `a` selects, with the same flags:
/// `a` reversed, one path repeated, and narrowed copies added -- a '//'
/// step made '/' or a wildcard given a name selects a subset of nodes.
std::vector<paths::ProjectionPath> EquivalentByConstruction(
    std::vector<paths::ProjectionPath> a, const std::string& some_name) {
  std::vector<paths::ProjectionPath> b(a.rbegin(), a.rend());
  b.push_back(a.front());
  for (const paths::ProjectionPath& p : a) {
    for (size_t s = 0; s < p.steps.size(); ++s) {
      paths::ProjectionPath narrow = p;
      if (p.steps[s].axis == paths::PathStep::Axis::kDescendant) {
        narrow.steps[s].axis = paths::PathStep::Axis::kChild;
      } else if (p.steps[s].wildcard) {
        narrow.steps[s].wildcard = false;
        narrow.steps[s].name = some_name;
      } else {
        continue;
      }
      b.push_back(std::move(narrow));
      break;
    }
  }
  return b;
}

/// `a` with its first wildcard step spelled out as one copy per name the
/// set's steps use: the two sets differ only on labels no step names.
std::vector<paths::ProjectionPath> WildcardOverNamedLabels(
    std::vector<paths::ProjectionPath> a) {
  std::set<std::string> named;
  for (const paths::ProjectionPath& p : a) {
    for (const paths::PathStep& step : p.steps) {
      if (!step.wildcard) named.insert(step.name);
    }
  }
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t s = 0; s < a[i].steps.size(); ++s) {
      if (!a[i].steps[s].wildcard) continue;
      const paths::ProjectionPath wild = a[i];
      a.erase(a.begin() + static_cast<long>(i));
      for (const std::string& name : named) {
        paths::ProjectionPath copy = wild;
        copy.steps[s].wildcard = false;
        copy.steps[s].name = name;
        a.push_back(std::move(copy));
      }
      return a;
    }
  }
  return a;
}

TEST(EquivalenceTest, VerdictMatchesFullAlphabetWalk) {
  xmlgen::Rng rng(29);
  xmlgen::RandomPathsOptions popts;
  popts.num_paths = 3;
  popts.max_steps = 3;
  popts.wildcard_ratio = 0.25;
  int equivalent = 0;
  int different = 0;
  for (int round = 0; round < 150; ++round) {
    dtd::Dtd dtd = xmlgen::RandomDtd(&rng);
    std::vector<std::string> alphabet;
    for (const dtd::ElementDecl& d : dtd.elements()) {
      alphabet.push_back(d.name);
    }
    std::vector<paths::ProjectionPath> a =
        xmlgen::RandomPaths(dtd, &rng, popts);
    std::vector<paths::ProjectionPath> b =
        round % 3 == 0   ? EquivalentByConstruction(a, alphabet.back())
        : round % 3 == 1 ? WildcardOverNamedLabels(a)
                         : xmlgen::RandomPaths(dtd, &rng, popts);
    for (size_t budget : {size_t{1} << 14, size_t{3}}) {
      const bool want = FullAlphabetEquivalent(a, b, alphabet, budget);
      EXPECT_EQ(EquivalentProjectionQueries(a, b, alphabet, budget), want)
          << "round " << round << " budget " << budget;
      if (budget > 3) (want ? equivalent : different) += 1;
    }
    if (round % 3 == 0) {
      EXPECT_TRUE(FullAlphabetEquivalent(a, b, alphabet, 1 << 14))
          << "round " << round;
    }
  }
  EXPECT_GE(equivalent, 50);
  EXPECT_GT(different, 20);
}

TEST(EquivalenceTest, LabelsNoStepNamesStillSeparateQueries) {
  // "/*" and "/a /b" agree on every label either set names; only a third
  // label "c" tells them apart.
  auto star = paths::ProjectionPath::ParseList("/*");
  auto ab = paths::ProjectionPath::ParseList("/a /b");
  auto abc = paths::ProjectionPath::ParseList("/a /b /c");
  ASSERT_TRUE(star.ok() && ab.ok() && abc.ok());
  EXPECT_FALSE(EquivalentProjectionQueries(*star, *ab, {"a", "b", "c"}));
  EXPECT_TRUE(EquivalentProjectionQueries(*star, *ab, {"a", "b"}));
  EXPECT_TRUE(EquivalentProjectionQueries(*star, *abc, {"a", "b", "c"}));
}

TEST(EquivalenceTest, ExceedingTheBudgetIsNeverEquivalent) {
  // One query against itself: equivalent, but its walk reaches more state
  // pairs than a budget of 4 allows, so the verdict must be "no".
  auto a = paths::ProjectionPath::ParseList("/a//b/c# //d/*/e@ /a/*//c");
  ASSERT_TRUE(a.ok());
  const std::vector<std::string> alphabet = {"a", "b", "c", "d",
                                             "e", "f", "g", "h"};
  ASSERT_TRUE(FullAlphabetEquivalent(*a, *a, alphabet, 1 << 14));
  ASSERT_FALSE(FullAlphabetEquivalent(*a, *a, alphabet, 4));
  EXPECT_TRUE(EquivalentProjectionQueries(*a, *a, alphabet));
  EXPECT_FALSE(EquivalentProjectionQueries(*a, *a, alphabet, 4));
}

}  // namespace
}  // namespace smpx::query
