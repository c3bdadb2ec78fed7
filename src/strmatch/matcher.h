// Common interface for the string matching algorithms that power the
// prefilter's frontier-vocabulary searches (paper Section II): Boyer-Moore
// for single keywords, Commentz-Walter for keyword sets, plus comparators
// (Aho-Corasick, Horspool variants, naive) used by baselines and ablations.

#ifndef SMPX_STRMATCH_MATCHER_H_
#define SMPX_STRMATCH_MATCHER_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace smpx::strmatch {

/// Counters reproducing the paper's per-query measurement columns:
/// `comparisons` backs "Char Comp. %" and `shifts`/`shift_chars` back
/// "∅ Shift Size" (Table I/II).
struct SearchStats {
  uint64_t comparisons = 0;  ///< text characters inspected
  uint64_t shifts = 0;       ///< number of forward window shifts
  uint64_t shift_chars = 0;  ///< total characters shifted forward

  void Add(const SearchStats& o) {
    comparisons += o.comparisons;
    shifts += o.shifts;
    shift_chars += o.shift_chars;
  }
  /// Average forward shift in characters (0 when no shift happened).
  double AvgShift() const {
    return shifts == 0 ? 0.0
                       : static_cast<double>(shift_chars) /
                             static_cast<double>(shifts);
  }
};

/// Result of a search: position of the occurrence and which pattern matched.
struct Match {
  static constexpr size_t npos = std::numeric_limits<size_t>::max();

  size_t pos = npos;  ///< start offset of the occurrence in the text
  int pattern = -1;   ///< index into patterns(), -1 if no match

  bool found() const { return pos != npos; }
};

/// A compiled set of patterns searchable in a text.
///
/// Contract: Search returns an occurrence with the minimal *end* position
/// among all occurrences starting at or after `from`; among occurrences
/// ending there, the one with the smallest start (i.e. the longest pattern)
/// is reported. For the prefilter's vocabularies -- where every keyword
/// starts with '<' and contains no further '<' -- occurrences at distinct
/// positions cannot overlap, so minimal-end equals minimal-start order.
class Matcher {
 public:
  virtual ~Matcher() = default;

  /// Searches `text` for the first occurrence starting at or after `from`.
  /// `stats` may be null.
  virtual Match Search(std::string_view text, size_t from,
                       SearchStats* stats) const = 0;

  /// Shortest / longest pattern lengths.
  virtual size_t min_length() const = 0;
  virtual size_t max_length() const = 0;

  virtual const std::vector<std::string>& patterns() const = 0;

  /// Algorithm name for reports ("BM", "CW", ...).
  virtual std::string_view name() const = 0;

  /// Selects the candidate scan (BM, CW). Default true: candidates come
  /// from the dispatched 64-byte bitmap probes (simd/simd.h), so the active
  /// simd tier decides how fast they are enumerated. `false` restores the
  /// classical textbook scan loops (ablation and differential-testing
  /// baseline), which find the same matches but account shifts
  /// differently. Across simd tiers, matches AND SearchStats are
  /// identical. No-op for algorithms without a fast path.
  virtual void set_skip_loops(bool enabled) { (void)enabled; }
};

/// Algorithm selector for MakeMatcher.
enum class Algorithm {
  kAuto,         ///< BM for one pattern, CW otherwise (the paper's policy)
  kBoyerMoore,   ///< single pattern only
  kHorspool,     ///< single pattern only
  kCommentzWalter,
  kSetHorspool,
  kAhoCorasick,
  kNaive,
  kMemchr,       ///< memchr('<')-driven candidate scan
};

/// Builds a matcher for `patterns` (all non-empty) with `algo`.
/// Returns nullptr if the algorithm cannot handle the pattern count
/// (e.g. Boyer-Moore with two patterns).
std::unique_ptr<Matcher> MakeMatcher(std::vector<std::string> patterns,
                                     Algorithm algo = Algorithm::kAuto);

/// Human-readable algorithm name.
std::string_view AlgorithmName(Algorithm algo);

}  // namespace smpx::strmatch

#endif  // SMPX_STRMATCH_MATCHER_H_
