// End-to-end tests for the smpx command-line tool's batch mode: per-input
// output naming (in.xml -> in.proj.xml), document-order per-input stats,
// per-document error isolation with a nonzero exit code, and the --out
// concatenation mode's argument-order merge. The binary path is injected
// by CMake as SMPX_CLI_PATH; expected outputs come from the library's
// serial engine over the same inputs.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/io.h"
#include "common/timer.h"
#include "core/prefilter.h"
#include "index/boundary_index.h"
#include "index/cursor.h"
#include "parallel/thread_pool.h"

namespace smpx {
namespace {

constexpr char kDtdText[] =
    "<!DOCTYPE a [ <!ELEMENT a (b|c)*>"
    " <!ELEMENT b (#PCDATA)> <!ELEMENT c (#PCDATA)> ]>";
constexpr char kPaths[] = "/a/b#";

TEST(ProjectedOutputPathTest, NamesFollowTheInputPath) {
  EXPECT_EQ(ProjectedOutputPath("in.xml"), "in.proj.xml");
  EXPECT_EQ(ProjectedOutputPath("dir/sub/in.xml"), "dir/sub/in.proj.xml");
  EXPECT_EQ(ProjectedOutputPath("data.bin"), "data.bin.proj.xml");
  EXPECT_EQ(ProjectedOutputPath(".xml"), ".xml.proj.xml");
}

#ifndef SMPX_CLI_PATH
TEST(CliBatchTest, DISABLED_BinaryUnavailable) {}
#else

struct CliResult {
  int exit_code = -1;
  std::string err;
};

/// Runs the CLI with `args`, capturing stderr. `shell_prefix` is prepended
/// inside the shell command (e.g. "ulimit -n 32; " for the fd-limit test).
CliResult RunCli(const std::string& args,
                 const std::string& shell_prefix = std::string()) {
  std::string err_file = ::testing::TempDir() + "/smpx_cli_stderr.txt";
  std::string cmd = shell_prefix + "\"" + SMPX_CLI_PATH + "\" " + args +
                    " 2>\"" + err_file + "\"";
  int rc = std::system(cmd.c_str());
  CliResult r;
  r.exit_code = rc == -1 ? -1 : WEXITSTATUS(rc);
  auto err = ReadFileToString(err_file);
  r.err = err.ok() ? *err : std::string();
  std::remove(err_file.c_str());
  return r;
}

std::string SerialExpected(const std::string& doc) {
  auto dtd = dtd::Dtd::Parse(kDtdText);
  EXPECT_TRUE(dtd.ok());
  if (!dtd.ok()) return std::string();
  auto paths = paths::ProjectionPath::ParseList(kPaths);
  EXPECT_TRUE(paths.ok());
  if (!paths.ok()) return std::string();
  auto pf = core::Prefilter::Compile(std::move(*dtd), *paths);
  EXPECT_TRUE(pf.ok());
  if (!pf.ok()) return std::string();
  auto out = pf->RunOnBuffer(doc);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? *out : std::string();
}

struct Fixture {
  std::string dtd_path;
  std::vector<std::string> inputs;
  std::vector<std::string> docs;

  explicit Fixture(const std::vector<std::string>& contents) {
    const std::string dir = ::testing::TempDir();
    dtd_path = dir + "/smpx_cli_test.dtd";
    EXPECT_TRUE(WriteStringToFile(dtd_path, kDtdText).ok());
    for (size_t i = 0; i < contents.size(); ++i) {
      std::string path =
          dir + "/smpx_cli_in" + std::to_string(i) + ".xml";
      EXPECT_TRUE(WriteStringToFile(path, contents[i]).ok());
      inputs.push_back(path);
      docs.push_back(contents[i]);
    }
  }
  ~Fixture() {
    std::remove(dtd_path.c_str());
    for (const std::string& p : inputs) {
      std::remove(p.c_str());
      std::remove(ProjectedOutputPath(p).c_str());
    }
  }
  std::string InputArgs() const {
    std::string args;
    for (const std::string& p : inputs) args += " \"" + p + "\"";
    return args;
  }
};

TEST(CliBatchTest, PerInputOutputFilesWithDocumentOrderStats) {
  Fixture fx({"<a><b>first</b><c>x</c></a>",
              "<a><c>y</c><b>second</b><b>again</b></a>",
              "<a><b>third</b></a>"});
  CliResult r = RunCli("--dtd \"" + fx.dtd_path + "\" --paths \"" + kPaths +
                       "\" --batch --stats --threads 3" + fx.InputArgs());
  ASSERT_EQ(r.exit_code, 0) << r.err;
  size_t prev_pos = 0;
  for (size_t i = 0; i < fx.inputs.size(); ++i) {
    std::string out_path = ProjectedOutputPath(fx.inputs[i]);
    auto content = ReadFileToString(out_path);
    ASSERT_TRUE(content.ok()) << out_path;
    EXPECT_EQ(*content, SerialExpected(fx.docs[i])) << out_path;
    // The per-input stats lines must appear in document (argument) order.
    std::string marker = fx.inputs[i] + " -> " + out_path + ":";
    size_t pos = r.err.find(marker);
    ASSERT_NE(pos, std::string::npos) << r.err;
    EXPECT_GE(pos, prev_pos) << "stats lines out of document order:\n"
                             << r.err;
    prev_pos = pos;
  }
}

TEST(CliBatchTest, SingleInputBatchStillWritesPerInputFile) {
  // Regression: batch mode with one input used to fall through to the
  // single-document path (stdout instead of in.proj.xml).
  Fixture fx({"<a><b>solo</b><c>no</c></a>"});
  CliResult r = RunCli("--dtd \"" + fx.dtd_path + "\" --paths \"" + kPaths +
                       "\" --batch" + fx.InputArgs());
  ASSERT_EQ(r.exit_code, 0) << r.err;
  auto content = ReadFileToString(ProjectedOutputPath(fx.inputs[0]));
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, SerialExpected(fx.docs[0]));
}

TEST(CliBatchTest, PerDocumentErrorsAreIsolated) {
  Fixture fx({"<a><b>good one</b></a>",
              "<a><b>truncated",  // invalid: never closed
              "<a><b>good two</b></a>"});
  CliResult r = RunCli("--dtd \"" + fx.dtd_path + "\" --paths \"" + kPaths +
                       "\" --batch --threads 2" + fx.InputArgs());
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find(fx.inputs[1]), std::string::npos) << r.err;
  for (size_t i : {size_t{0}, size_t{2}}) {
    auto content = ReadFileToString(ProjectedOutputPath(fx.inputs[i]));
    ASSERT_TRUE(content.ok());
    EXPECT_EQ(*content, SerialExpected(fx.docs[i]));
  }
}

TEST(CliBatchTest, DuplicateInputsAreRejected) {
  // Two identical input paths would race on one output file; the CLI must
  // refuse instead of silently corrupting it.
  Fixture fx({"<a><b>dup</b></a>"});
  CliResult r =
      RunCli("--dtd \"" + fx.dtd_path + "\" --paths \"" + kPaths +
             "\" --batch \"" + fx.inputs[0] + "\" \"" + fx.inputs[0] + "\"");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.err.find("duplicate"), std::string::npos) << r.err;
}

TEST(CliBatchTest, MaxBufferBudgetKeepsOutputsByteIdentical) {
  // A 1-byte budget forces every shard segment and batch document through
  // the spill + ordered-commit path; outputs must not change. Also covers
  // the suffixed size spelling and stdout through the buffered sink.
  std::string big = "<a>";
  for (int i = 0; i < 200; ++i) {
    big += "<b>payload " + std::to_string(i) + "</b><c>drop</c>";
  }
  big += "</a>";
  Fixture fx({big, "<a><b>two</b></a>"});
  std::string expected0 = SerialExpected(fx.docs[0]);

  // Sharded single document, tiny budget, explicit output file.
  std::string out = ::testing::TempDir() + "/smpx_cli_budget.xml";
  CliResult r = RunCli("--dtd \"" + fx.dtd_path + "\" --paths \"" + kPaths +
                       "\" --threads 4 --max-buffer 1 \"" + fx.inputs[0] +
                       "\" \"" + out + "\"");
  ASSERT_EQ(r.exit_code, 0) << r.err;
  auto content = ReadFileToString(out);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, expected0);
  std::remove(out.c_str());

  // Batch --out through the streaming merged driver with a suffixed size.
  std::string merged = ::testing::TempDir() + "/smpx_cli_budget_merged.xml";
  r = RunCli("--dtd \"" + fx.dtd_path + "\" --paths \"" + kPaths +
             "\" --batch --threads 2 --max-buffer 1KiB --chunk 64 --out \"" +
             merged + "\"" + fx.InputArgs());
  ASSERT_EQ(r.exit_code, 0) << r.err;
  content = ReadFileToString(merged);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, expected0 + SerialExpected(fx.docs[1]));
  std::remove(merged.c_str());

  // Malformed sizes are usage errors, not silent zeros.
  r = RunCli("--dtd \"" + fx.dtd_path + "\" --paths \"" + kPaths +
             "\" --max-buffer nonsense \"" + fx.inputs[1] + "\"");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.err.find("byte size"), std::string::npos) << r.err;
}

TEST(CliBatchTest, OutFlagConcatenatesInArgumentOrder) {
  Fixture fx({"<a><b>one</b></a>", "<a><b>two</b><c>z</c></a>",
              "<a><c>q</c><b>three</b></a>"});
  std::string merged = ::testing::TempDir() + "/smpx_cli_merged.xml";
  CliResult r = RunCli("--dtd \"" + fx.dtd_path + "\" --paths \"" + kPaths +
                       "\" --batch --threads 2 --out \"" + merged + "\"" +
                       fx.InputArgs());
  ASSERT_EQ(r.exit_code, 0) << r.err;
  auto content = ReadFileToString(merged);
  ASSERT_TRUE(content.ok());
  std::string expected;
  for (const std::string& d : fx.docs) expected += SerialExpected(d);
  EXPECT_EQ(*content, expected);
  std::remove(merged.c_str());
}

TEST(CliBatchTest, LowFdLimitBatchStillWritesEveryOutputFile) {
  // 60 documents under a 32-fd limit: the per-input batch driver must not
  // hold every output file open at once (the pre-ordered-commit driver
  // did exactly that and died here), and budgeted segments must not cost
  // one spill tmpfile fd each (the pre-SpillArena driver did: every
  // overflowing or parked segment opened its own tmpfile). With the batch
  // sharing a single spill-arena file, both the in-memory and the
  // spill-everything extremes fit the same tight fd budget.
  std::vector<std::string> contents;
  for (int i = 0; i < 60; ++i) {
    contents.push_back("<a><b>doc " + std::to_string(i) +
                       "</b><c>drop</c></a>");
  }
  Fixture fx(contents);
  // --max-buffer 0: segments stay in memory; only output files cost fds.
  // --max-buffer 1: every segment overflows into the shared arena, and
  // out-of-order completions park there too -- still one spill fd total.
  for (const char* budget : {"0", "1"}) {
    SCOPED_TRACE(budget);
    CliResult r = RunCli("--dtd \"" + fx.dtd_path + "\" --paths \"" + kPaths +
                             "\" --batch --threads 4 --max-buffer " + budget +
                             fx.InputArgs(),
                         "ulimit -n 32; ");
    ASSERT_EQ(r.exit_code, 0) << r.err;
    for (size_t i = 0; i < fx.inputs.size(); ++i) {
      auto content = ReadFileToString(ProjectedOutputPath(fx.inputs[i]));
      ASSERT_TRUE(content.ok()) << fx.inputs[i];
      EXPECT_EQ(*content, SerialExpected(fx.docs[i])) << fx.inputs[i];
    }
  }
}

/// Seconds printed in the first ` field=` of `err`; -1 when absent.
double StatsSeconds(const std::string& err, const std::string& field) {
  const std::string key = " " + field + "=";
  const size_t p = err.find(key);
  if (p == std::string::npos) return -1;
  return std::strtod(err.c_str() + p + key.size(), nullptr);
}

TEST(CliStatsTest, TimeIsAtMostTheWallTimeAroundTheExec) {
  // --stats time= is the one timer enclosing compile and run. Adding a
  // separate run timer to it counted the run twice.
  std::string big = "<a>";
  for (int i = 0; i < 400000; ++i) big += "<b>payload</b><c>drop</c>";
  big += "</a>";
  Fixture fx({big});
  const std::string dir = ::testing::TempDir();
  const std::string out = dir + "/smpx_cli_stats.xml";
  const std::string queries = dir + "/smpx_cli_stats.queries";
  ASSERT_TRUE(WriteStringToFile(queries, "/a/b#\n/a/c#\n").ok());
  const std::string modes[] = {std::string("--paths \"") + kPaths + "\"",
                               "--query-file \"" + queries + "\""};
  for (const std::string& mode : modes) {
    SCOPED_TRACE(mode);
    WallTimer wall;
    CliResult r = RunCli("--dtd \"" + fx.dtd_path + "\" --stats " + mode +
                         fx.InputArgs() + " \"" + out + "\"");
    const double wall_s = wall.Seconds();
    ASSERT_EQ(r.exit_code, 0) << r.err;
    const double t = StatsSeconds(r.err, "time");
    ASSERT_GT(t, 0) << r.err;
    // time= prints three decimals; allow its rounding and nothing more.
    EXPECT_LE(t - 0.0005, wall_s) << r.err;
    // compile= is the compile share of that same timer.
    const double compile = StatsSeconds(r.err, "compile");
    EXPECT_GE(compile, 0) << r.err;
    EXPECT_LE(compile, t) << r.err;
  }
  for (const char* suffix : {".xml", ".q1.xml", ".q2.xml", ".queries"}) {
    std::remove((dir + "/smpx_cli_stats" + suffix).c_str());
  }
}

/// The --stats line of `err` that starts with `prefix` ("" for the first).
std::string StatsLine(const std::string& err, const std::string& prefix) {
  for (size_t b = 0; b < err.size();) {
    size_t e = err.find('\n', b);
    if (e == std::string::npos) e = err.size();
    if (err.compare(b, prefix.size(), prefix) == 0) {
      return err.substr(b, e - b);
    }
    b = e + 1;
  }
  return std::string();
}

TEST(CliStatsTest, SingleQueryFileReportsTheSameCountersAsPaths) {
  // An N=1 --query-file run is the --paths run through product tables: the
  // multi: line carries the same RunStats fields and agrees on the
  // projection's matches and output bytes.
  std::string big = "<a>";
  for (int i = 0; i < 2000; ++i) big += "<b>payload</b><c>drop</c>";
  big += "</a>";
  Fixture fx({big});
  const std::string dir = ::testing::TempDir();
  const std::string out = dir + "/smpx_cli_n1.xml";
  const std::string queries = dir + "/smpx_cli_n1.queries";
  ASSERT_TRUE(WriteStringToFile(queries, std::string(kPaths) + "\n").ok());
  CliResult single = RunCli("--dtd \"" + fx.dtd_path + "\" --stats --paths \"" +
                            kPaths + "\"" + fx.InputArgs() + " \"" + out +
                            "\"");
  ASSERT_EQ(single.exit_code, 0) << single.err;
  CliResult multi = RunCli("--dtd \"" + fx.dtd_path +
                           "\" --stats --query-file \"" + queries + "\"" +
                           fx.InputArgs() + " \"" + out + "\"");
  ASSERT_EQ(multi.exit_code, 0) << multi.err;
  const std::string paths_line = StatsLine(single.err, "states=");
  const std::string multi_line = StatsLine(multi.err, "multi:");
  ASSERT_FALSE(paths_line.empty()) << single.err;
  ASSERT_FALSE(multi_line.empty()) << multi.err;
  for (const char* field : {"charcomp", "avg_shift", "initial_jumps",
                            "matches", "false_matches", "window_peak"}) {
    SCOPED_TRACE(field);
    EXPECT_GE(StatsSeconds(multi_line, field), 0) << multi_line;
  }
  for (const char* field : {"matches", "output"}) {
    SCOPED_TRACE(field);
    EXPECT_EQ(StatsSeconds(multi_line, field),
              StatsSeconds(paths_line, field));
  }
  EXPECT_EQ(StatsSeconds(paths_line, "output"),
            static_cast<double>(SerialExpected(big).size()));
  for (const char* suffix : {".xml", ".q1.xml", ".queries"}) {
    std::remove((dir + "/smpx_cli_n1" + suffix).c_str());
  }
}

TEST(CliIndexTest, IndexBuildThenSeekServesByteIdenticalSlices) {
  // A document large enough for several granularity-64 boundaries.
  std::string big = "<a>";
  for (int i = 0; i < 120; ++i) {
    big += "<b>keep " + std::to_string(i) + "</b><c>drop " +
           std::to_string(i) + "</c>";
  }
  big += "</a>";
  Fixture fx({big});
  std::string idx_path = ::testing::TempDir() + "/smpx_cli_test.idx";
  CliResult r = RunCli("--dtd \"" + fx.dtd_path + "\" --paths \"" + kPaths +
                       "\" --index-build \"" + idx_path +
                       "\" --index-granularity 64 --threads 2 \"" +
                       fx.inputs[0] + "\"");
  ASSERT_EQ(r.exit_code, 0) << r.err;

  // The saved index must load and agree with a library-built one; the
  // library index then provides the expected projection offsets.
  auto loaded = index::BoundaryIndex::LoadFromFile(idx_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_FALSE(loaded->entries().empty());
  std::string serial = SerialExpected(big);

  for (size_t i : {size_t{0}, loaded->entries().size() / 2,
                   loaded->entries().size() - 1}) {
    const index::IndexEntry& e = loaded->entries()[i];
    std::string out = ::testing::TempDir() + "/smpx_cli_seek.xml";
    r = RunCli("--dtd \"" + fx.dtd_path + "\" --paths \"" + kPaths +
               "\" --index \"" + idx_path + "\" --seek " +
               std::to_string(e.offset) + " \"" + fx.inputs[0] + "\" \"" +
               out + "\"");
    ASSERT_EQ(r.exit_code, 0) << r.err;
    auto content = ReadFileToString(out);
    ASSERT_TRUE(content.ok());
    EXPECT_EQ(*content, serial.substr(static_cast<size_t>(e.out_offset)))
        << "CLI seek to boundary " << e.offset
        << " is not the serial projection's suffix";
    std::remove(out.c_str());
  }

  // --count limits the emission to whole records.
  {
    const index::IndexEntry& e = loaded->entries()[0];
    std::string out = ::testing::TempDir() + "/smpx_cli_count.xml";
    r = RunCli("--dtd \"" + fx.dtd_path + "\" --paths \"" + kPaths +
               "\" --index \"" + idx_path + "\" --seek " +
               std::to_string(e.offset) + " --count 2 \"" + fx.inputs[0] +
               "\" \"" + out + "\"");
    ASSERT_EQ(r.exit_code, 0) << r.err;
    auto content = ReadFileToString(out);
    ASSERT_TRUE(content.ok());
    uint64_t end = loaded->entries().size() > 2
                       ? loaded->entries()[2].out_offset
                       : serial.size();
    EXPECT_EQ(*content,
              serial.substr(static_cast<size_t>(e.out_offset),
                            static_cast<size_t>(end - e.out_offset)));
    std::remove(out.c_str());
  }

  // A stale index (document changed since indexing) must fail closed.
  {
    std::string tampered = big;
    tampered[tampered.find("keep 7") + 5] = '9';
    ASSERT_TRUE(WriteStringToFile(fx.inputs[0], tampered).ok());
    r = RunCli("--dtd \"" + fx.dtd_path + "\" --paths \"" + kPaths +
               "\" --index \"" + idx_path + "\" --seek 100 \"" +
               fx.inputs[0] + "\"");
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_NE(r.err.find("stale"), std::string::npos) << r.err;
  }

  // A truncated index file must fail closed, not serve wrong bytes.
  {
    auto bytes = ReadFileToString(idx_path);
    ASSERT_TRUE(bytes.ok());
    ASSERT_TRUE(
        WriteStringToFile(idx_path, bytes->substr(0, bytes->size() / 2))
            .ok());
    r = RunCli("--dtd \"" + fx.dtd_path + "\" --paths \"" + kPaths +
               "\" --index \"" + idx_path + "\" --seek 100 \"" +
               fx.inputs[0] + "\"");
    EXPECT_EQ(r.exit_code, 1);
    EXPECT_NE(r.err.find("corrupt"), std::string::npos) << r.err;
  }
  std::remove(idx_path.c_str());
}

#endif  // SMPX_CLI_PATH

}  // namespace
}  // namespace smpx
