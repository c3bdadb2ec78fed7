// Micro-benchmarks of the string matching substrate (google-benchmark):
// the paper's core enabling claim is that Boyer-Moore/Commentz-Walter scan
// XML-shaped text far below one inspected character per input byte. We
// sweep algorithms x keyword lengths x keyword-set sizes on XMark text.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "simd/simd.h"
#include "strmatch/matcher.h"

namespace smpx::bench {
namespace {

using strmatch::Algorithm;
using strmatch::Matcher;
using strmatch::SearchStats;

const std::string& Text() {
  static const std::string* text = new std::string(
      Dataset("xmark", std::min<uint64_t>(ScaleBytes(), 8 << 20)));
  return *text;
}

std::vector<std::string> Keywords(int count, bool long_names) {
  std::vector<std::string> all =
      long_names ? std::vector<std::string>{"<description", "<annotation",
                                            "<emailaddress", "<incategory",
                                            "<open_auction"}
                 : std::vector<std::string>{"<name", "<date", "<from", "<to",
                                            "<age"};
  all.resize(static_cast<size_t>(count));
  return all;
}

void RunSearch(benchmark::State& state, Algorithm algo, int keywords,
               bool long_names) {
  std::unique_ptr<Matcher> m =
      strmatch::MakeMatcher(Keywords(keywords, long_names), algo);
  if (m == nullptr) {
    state.SkipWithError("algorithm cannot handle this pattern set");
    return;
  }
  const std::string& text = Text();
  SearchStats stats;
  for (auto _ : state) {
    size_t from = 0;
    int found = 0;
    for (;;) {
      strmatch::Match r = m->Search(text, from, &stats);
      if (!r.found()) break;
      ++found;
      from = r.pos + 1;
    }
    benchmark::DoNotOptimize(found);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
  state.counters["inspect%"] =
      100.0 * static_cast<double>(stats.comparisons) /
      (static_cast<double>(text.size()) *
       static_cast<double>(state.iterations()));
  state.counters["avg_shift"] = stats.AvgShift();
}

void BM_Single(benchmark::State& state) {
  RunSearch(state, Algorithm::kBoyerMoore, 1, state.range(0) != 0);
}
BENCHMARK(BM_Single)->Arg(0)->Arg(1);

void BM_Horspool(benchmark::State& state) {
  RunSearch(state, Algorithm::kHorspool, 1, state.range(0) != 0);
}
BENCHMARK(BM_Horspool)->Arg(0)->Arg(1);

void BM_CommentzWalter(benchmark::State& state) {
  RunSearch(state, Algorithm::kCommentzWalter,
            static_cast<int>(state.range(0)), state.range(1) != 0);
}
BENCHMARK(BM_CommentzWalter)
    ->Args({1, 1})
    ->Args({3, 0})
    ->Args({3, 1})
    ->Args({5, 1});

void BM_SetHorspool(benchmark::State& state) {
  RunSearch(state, Algorithm::kSetHorspool, static_cast<int>(state.range(0)),
            state.range(1) != 0);
}
BENCHMARK(BM_SetHorspool)->Args({3, 1})->Args({5, 1});

void BM_AhoCorasick(benchmark::State& state) {
  RunSearch(state, Algorithm::kAhoCorasick, static_cast<int>(state.range(0)),
            state.range(1) != 0);
}
BENCHMARK(BM_AhoCorasick)->Args({3, 1})->Args({5, 1});

void BM_Memchr(benchmark::State& state) {
  RunSearch(state, Algorithm::kMemchr, static_cast<int>(state.range(0)),
            state.range(1) != 0);
}
BENCHMARK(BM_Memchr)->Args({3, 1});

/// Pre-benchmark correctness gate: every algorithm must enumerate the
/// exact same (pos, pattern) match sequence on the bench text -- the
/// minimal-end contract all speed tricks (skip loops, bitmap probes, the
/// hoisted FindPattern memcmp verify) must preserve. A silent candidate
/// reorder would make the timing columns compare different work.
void CrossCheckMatchSequences() {
  const std::string& text = Text();
  const std::string_view probe(text.data(),
                               std::min<size_t>(text.size(), 1 << 20));
  for (int count : {1, 3, 5}) {
    const std::vector<std::string> keywords = Keywords(count, true);
    std::vector<std::vector<std::pair<size_t, int>>> seqs;
    std::vector<Algorithm> algos = {Algorithm::kCommentzWalter,
                                    Algorithm::kSetHorspool,
                                    Algorithm::kAhoCorasick};
    if (count == 1) {
      algos.push_back(Algorithm::kBoyerMoore);
      algos.push_back(Algorithm::kHorspool);
    }
    for (Algorithm algo : algos) {
      std::unique_ptr<Matcher> m = strmatch::MakeMatcher(keywords, algo);
      if (m == nullptr) continue;
      std::vector<std::pair<size_t, int>> seq;
      for (size_t from = 0;;) {
        strmatch::Match r = m->Search(probe, from, nullptr);
        if (!r.found()) break;
        seq.emplace_back(r.pos, r.pattern);
        from = r.pos + 1;
      }
      seqs.push_back(std::move(seq));
      if (seqs.size() > 1 && seqs.back() != seqs.front()) {
        std::fprintf(stderr,
                     "strmatch_micro: match sequences diverge "
                     "(keywords=%d, algo=%d)\n",
                     count, static_cast<int>(algo));
        std::abort();
      }
    }
  }
  // And the structural FindPattern primitive against the library oracle:
  // the hoisted middle-bytes memcmp must not shift reported positions.
  for (std::string_view term : {std::string_view("?>"),
                                std::string_view("-->"),
                                std::string_view("<description")}) {
    size_t want = probe.find(term);
    if (want == std::string_view::npos) want = probe.size();
    const size_t got = simd::FindPattern(probe.data(), probe.size(), term);
    if (got != want) {
      std::fprintf(stderr,
                   "strmatch_micro: FindPattern position mismatch "
                   "(term=%.*s, got=%zu, want=%zu)\n",
                   static_cast<int>(term.size()), term.data(), got, want);
      std::abort();
    }
  }
}

}  // namespace
}  // namespace smpx::bench

int main(int argc, char** argv) {
  smpx::bench::CrossCheckMatchSequences();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
