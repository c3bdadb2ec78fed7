// Hot-path micro-benchmark: the per-tag pipeline layer by layer, on XMark
// generator output.
//
//   classic   span-scanned, interned tag dispatch with the classical
//             textbook BM/CW scan loops (disable_matcher_skip_loops) --
//             isolates the matchers' candidate skip loops.
//   scalar/swar/simd
//             the full default pipeline (span scanning + interned dispatch
//             + matcher skip loops), measured under a forced structural-
//             classification tier (simd::SetIsa): per-byte scalar kernels,
//             8-byte SWAR word kernels, and the best vector tier the host
//             offers (the `isa` column names it). Same code path, same
//             output, same stats -- the columns isolate the kernel tier.
//
// Reports tags/sec and bytes/sec per workload plus the full/classic and
// simd/swar ratios; the outputs of all paths (and all tiers) are
// cross-checked byte-for-byte before timing, and a disagreement exits 1.
// A last row, XM-mix, runs all the workloads as ONE pass over product
// tables (query::MultiQuery::RunOnBuffer, same columns); each of its
// outputs must equal that workload's single-query projection.
//
//   SMPX_SCALE_MB=64 ./bench_hotpath_micro
//   SMPX_REPS=5      best-of-N timing (default 3)
//   SMPX_CSV=1 / SMPX_JSON=1 for machine-readable output
//   SMPX_FORCE_ISA=  caps the tier the `simd` column selects

#include <cstdio>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/io.h"
#include "common/timer.h"
#include "core/prefilter.h"
#include "query/multiquery.h"
#include "simd/simd.h"
#include "xmlgen/xmark.h"

namespace smpx::bench {
namespace {

int Reps() {
  const char* env = std::getenv("SMPX_REPS");
  int reps = env != nullptr ? std::atoi(env) : 0;
  return reps > 0 ? reps : 3;
}

struct Measurement {
  double seconds = 0;
  uint64_t tags = 0;
  uint64_t bytes = 0;

  double TagsPerSec() const { return static_cast<double>(tags) / seconds; }
  double MbPerSec() const {
    return static_cast<double>(bytes) / (1 << 20) / seconds;
  }
};

/// Best-of-`reps` wall time of `run(stats)`, one full pass over the document.
template <typename RunFn>
Measurement Measure(RunFn run, int reps) {
  Measurement best;
  for (int r = 0; r < reps; ++r) {
    core::RunStats stats;
    WallTimer timer;
    Status s = run(&stats);
    double seconds = timer.Seconds();
    if (!s.ok()) {
      std::fprintf(stderr, "run failed: %s\n", s.ToString().c_str());
      std::abort();
    }
    if (best.seconds == 0 || seconds < best.seconds) {
      best.seconds = seconds;
      best.tags = stats.matches;
      best.bytes = stats.input_bytes;
    }
  }
  return best;
}

Measurement Measure(const core::Prefilter& pf, const std::string& doc,
                    int reps) {
  return Measure(
      [&](core::RunStats* stats) {
        MemoryInputStream in(doc);
        CountingSink sink;
        return pf.Run(&in, &sink, stats);
      },
      reps);
}

/// One pass of the whole mix, every query into its own counting sink.
Measurement Measure(const query::MultiQuery& mq, const std::string& doc,
                    int reps) {
  return Measure(
      [&](core::RunStats* stats) {
        std::vector<CountingSink> sinks(static_cast<size_t>(mq.num_queries()));
        std::vector<OutputSink*> ptrs;
        for (CountingSink& sink : sinks) ptrs.push_back(&sink);
        return mq.RunOnBuffer(doc, ptrs, nullptr, stats);
      },
      reps);
}

/// Per-query outputs of one pass of the mix, or an empty vector on error.
std::vector<std::string> MixOutputs(const query::MultiQuery& mq,
                                    const std::string& doc) {
  std::vector<StringSink> sinks(static_cast<size_t>(mq.num_queries()));
  std::vector<OutputSink*> ptrs;
  for (StringSink& sink : sinks) ptrs.push_back(&sink);
  if (!mq.RunOnBuffer(doc, ptrs).ok()) return {};
  std::vector<std::string> outs;
  for (StringSink& sink : sinks) outs.push_back(sink.TakeString());
  return outs;
}

std::string Rate(double v) {
  char buf[32];
  if (v >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fM", v / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fk", v / 1e3);
  }
  return buf;
}

std::string Fmt(const char* fmt, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

core::Prefilter MustCompile(const Workload& w,
                            const core::CompileOptions& opts) {
  auto pf = core::Prefilter::Compile(xmlgen::XmarkDtd(),
                                     MustPaths(w.projection_paths), opts);
  if (!pf.ok()) {
    std::fprintf(stderr, "%s: compile failed: %s\n", w.id,
                 pf.status().ToString().c_str());
    std::abort();
  }
  return std::move(*pf);
}

query::MultiQuery MustCompileMix(const core::CompileOptions& opts) {
  std::vector<std::vector<paths::ProjectionPath>> queries;
  for (const Workload& w : XmarkWorkloads()) {
    queries.push_back(MustPaths(w.projection_paths));
  }
  query::MultiQueryOptions mopts;
  mopts.compile = opts;
  auto mq = query::MultiQuery::Compile(xmlgen::XmarkDtd(), std::move(queries),
                                       mopts);
  if (!mq.ok()) {
    std::fprintf(stderr, "XM-mix: compile failed: %s\n",
                 mq.status().ToString().c_str());
    std::abort();
  }
  return std::move(*mq);
}

int Run() {
  const uint64_t bytes = ScaleBytes();
  const std::string& doc = Dataset("xmark", bytes);
  const int reps = Reps();
  const simd::Isa best = simd::ActiveIsa();
  const char* isa = simd::IsaName(best);
  std::printf(
      "== Hot path: classical BM/CW loops vs full pipeline under "
      "scalar/swar/%s kernels (XMark %s, best of %d) ==\n",
      isa, Mb(static_cast<double>(doc.size())).c_str(), reps);

  TablePrinter table({"query", "tags/s(classic)", "tags/s(scalar)",
                      "tags/s(swar)", "tags/s(simd)", "full/classic",
                      "simd/swar", "MB/s(simd)", "isa", "tags"});

  double worst_full = 0;
  double geomean_full = 1;
  double geomean_tier = 1;
  double worst_tier = 0;
  int rows = 0;
  std::vector<std::string> singles;  // single-query projections, in order
  for (const Workload& w : XmarkWorkloads()) {
    core::CompileOptions classic_opts;
    classic_opts.tables.disable_matcher_skip_loops = true;
    core::Prefilter classic = MustCompile(w, classic_opts);
    core::Prefilter full = MustCompile(w, core::CompileOptions{});

    // Cross-check before timing: no path -- and no kernel tier -- may
    // change the output.
    auto out_classic = classic.RunOnBuffer(doc);
    auto out_full = full.RunOnBuffer(doc);
    simd::SetIsa(simd::Isa::kScalar);
    auto out_scalar = full.RunOnBuffer(doc);
    simd::SetIsa(simd::Isa::kSwar);
    auto out_swar = full.RunOnBuffer(doc);
    simd::SetIsa(best);
    if (!out_classic.ok() || !out_full.ok() || !out_scalar.ok() ||
        !out_swar.ok() || *out_classic != *out_full ||
        *out_classic != *out_scalar || *out_classic != *out_swar) {
      std::fprintf(stderr, "%s: hot-path variants disagree!\n", w.id);
      return 1;
    }
    singles.push_back(std::move(*out_full));

    Measurement m_classic = Measure(classic, doc, reps);
    simd::SetIsa(simd::Isa::kScalar);
    Measurement m_scalar = Measure(full, doc, reps);
    simd::SetIsa(simd::Isa::kSwar);
    Measurement m_swar = Measure(full, doc, reps);
    simd::SetIsa(best);
    Measurement m_simd = Measure(full, doc, reps);
    double speedup_full = m_classic.seconds / m_simd.seconds;
    double speedup_tier = m_swar.seconds / m_simd.seconds;
    if (rows == 0 || speedup_full < worst_full) worst_full = speedup_full;
    if (rows == 0 || speedup_tier < worst_tier) worst_tier = speedup_tier;
    geomean_full *= speedup_full;
    geomean_tier *= speedup_tier;
    ++rows;

    table.AddRow({w.id, Rate(m_classic.TagsPerSec()),
                  Rate(m_scalar.TagsPerSec()), Rate(m_swar.TagsPerSec()),
                  Rate(m_simd.TagsPerSec()), Fmt("%.2fx", speedup_full),
                  Fmt("%.2fx", speedup_tier), Fmt("%.1f", m_simd.MbPerSec()),
                  isa, std::to_string(m_simd.tags)});
  }

  // The mix in one pass over product tables: every query's output must be
  // its single-query projection, under every path and tier.
  core::CompileOptions classic_opts;
  classic_opts.tables.disable_matcher_skip_loops = true;
  query::MultiQuery mix_classic = MustCompileMix(classic_opts);
  query::MultiQuery mix = MustCompileMix(core::CompileOptions{});
  bool mix_ok = MixOutputs(mix_classic, doc) == singles &&
                MixOutputs(mix, doc) == singles;
  simd::SetIsa(simd::Isa::kScalar);
  mix_ok = mix_ok && MixOutputs(mix, doc) == singles;
  simd::SetIsa(simd::Isa::kSwar);
  mix_ok = mix_ok && MixOutputs(mix, doc) == singles;
  simd::SetIsa(best);
  if (!mix_ok) {
    std::fprintf(stderr, "XM-mix: one-pass outputs disagree with the "
                         "single-query projections!\n");
    return 1;
  }
  Measurement x_classic = Measure(mix_classic, doc, reps);
  simd::SetIsa(simd::Isa::kScalar);
  Measurement x_scalar = Measure(mix, doc, reps);
  simd::SetIsa(simd::Isa::kSwar);
  Measurement x_swar = Measure(mix, doc, reps);
  simd::SetIsa(best);
  Measurement x_simd = Measure(mix, doc, reps);
  table.AddRow({"XM-mix", Rate(x_classic.TagsPerSec()),
                Rate(x_scalar.TagsPerSec()), Rate(x_swar.TagsPerSec()),
                Rate(x_simd.TagsPerSec()),
                Fmt("%.2fx", x_classic.seconds / x_simd.seconds),
                Fmt("%.2fx", x_swar.seconds / x_simd.seconds),
                Fmt("%.1f", x_simd.MbPerSec()), isa,
                std::to_string(x_simd.tags)});
  table.Print("hotpath_micro");
  std::printf(
      "single-query rows, full pipeline vs classical loops: worst %.2fx, "
      "geomean %.2fx; %s kernels vs swar kernels: worst %.2fx, geomean "
      "%.2fx\n",
      worst_full, rows > 0 ? std::pow(geomean_full, 1.0 / rows) : 0.0, isa,
      worst_tier, rows > 0 ? std::pow(geomean_tier, 1.0 / rows) : 0.0);
  return 0;
}

}  // namespace
}  // namespace smpx::bench

int main() { return smpx::bench::Run(); }
