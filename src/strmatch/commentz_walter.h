// Commentz-Walter multi-keyword search [13]: a Boyer-Moore-style skip
// algorithm over a trie of reversed patterns. Used by the prefilter whenever
// a frontier vocabulary holds more than one keyword. Also provides the
// Set-Horspool simplification used as an ablation comparator.

#ifndef SMPX_STRMATCH_COMMENTZ_WALTER_H_
#define SMPX_STRMATCH_COMMENTZ_WALTER_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "simd/simd.h"
#include "strmatch/matcher.h"

namespace smpx::strmatch {

namespace detail {

/// Trie over the *reversed* patterns; node 0 is the root. Matching walks the
/// text right-to-left from a window end, so trie depth equals distance from
/// the occurrence end.
struct ReverseTrie {
  struct Node {
    std::array<int, 256> next;  // -1 when absent
    int parent = -1;
    int depth = 0;
    int pattern = -1;  // index of the pattern ending here, -1 otherwise
    unsigned char in_char = 0;

    Node() { next.fill(-1); }
  };

  explicit ReverseTrie(const std::vector<std::string>& patterns);

  int Child(int node, unsigned char c) const { return nodes[node].next[c]; }

  std::vector<Node> nodes;
  size_t wmin = 0;  // shortest pattern length
  size_t wmax = 0;  // longest pattern length
};

/// Path-compressed forward trie over a keyword set, for anchored
/// verification at a candidate position. Each node holds an edge label
/// compared by word loads (strmatch/word_compare.h) and its children's
/// first label bytes side by side, so a verification visits at most one
/// node per keyword byte and never touches nodes off its path; the
/// per-candidate cost is bounded by keyword length, not vocabulary size.
/// A keyword that extends a shorter one is unreachable (the walk stops at
/// the shorter one) and is not stored.
class AnchoredTrie {
 public:
  /// All patterns non-empty; at least one pattern.
  explicit AnchoredTrie(const std::vector<std::string>& patterns);

  /// The shortest keyword occurring at text[s..n) -- the earliest pattern
  /// index among duplicates -- or -1. `*inspected` receives the bytes a
  /// byte-at-a-time trie walk inspects: the keyword's length on a match,
  /// else min(1 + the longest common prefix with any keyword, n - s).
  int Match(const unsigned char* text, size_t n, size_t s,
            size_t* inspected) const;

 private:
  struct Node {
    uint32_t label = 0;         // offset of the edge label in labels_
    uint32_t label_len = 0;
    int32_t pattern = -1;       // keyword ending at the label's end
    uint32_t first_child = 0;   // children: nodes_[first_child, +num_children)
    uint32_t num_children = 0;
  };

  struct Key {
    std::string_view word;
    int32_t index;
  };

  void Build(uint32_t v, const std::vector<Key>& keys, size_t lo, size_t hi,
             size_t depth);

  std::vector<Node> nodes_;           // nodes_[0] is the root
  std::vector<unsigned char> first_;  // first label byte of each node
  std::string labels_;
};

}  // namespace detail

/// Commentz-Walter algorithm B: combines per-character shifts with the
/// trie-structural shift1/shift2 functions.
class CommentzWalterMatcher : public Matcher {
 public:
  /// All patterns must be non-empty; at least one pattern.
  explicit CommentzWalterMatcher(std::vector<std::string> patterns);

  Match Search(std::string_view text, size_t from,
               SearchStats* stats) const override;

  size_t min_length() const override { return trie_.wmin; }
  size_t max_length() const override { return trie_.wmax; }
  const std::vector<std::string>& patterns() const override {
    return patterns_;
  }
  std::string_view name() const override { return "CW"; }
  void set_skip_loops(bool enabled) override { skip_loops_ = enabled; }

 private:
  Match SearchFast(std::string_view text, size_t from,
                   SearchStats* stats) const;

  std::vector<std::string> patterns_;
  detail::ReverseTrie trie_;
  std::array<size_t, 256> char_shift_;  // min end-distance of c, else wmin+1
  std::vector<size_t> shift1_;          // per trie node
  std::vector<size_t> shift2_;          // per trie node

  // Bitmap fast path: usable when every pattern starts with the same
  // byte and that byte never recurs inside any pattern (always true for
  // the prefilter's "<t"/"</t" vocabularies). Occurrences then cannot
  // overlap, so a lead-byte candidate scan with anchored verification is
  // exact under the minimal-end contract. Verification matches the
  // shortest keyword at the anchor (the minimal-end occurrence) in a
  // path-compressed forward trie, and counts the bytes a byte-at-a-time
  // walk of the full forward trie would inspect, so SearchStats stay those
  // of the byte walk.
  bool fast_path_ = false;
  bool skip_loops_ = true;  // bitmap candidate scan (see set_skip_loops)
  char lead_ = 0;
  std::optional<detail::AnchoredTrie> anchored_;  // fast path only

  // Exact candidate filter of the fast path: an occurrence at s has
  // text[s + d] == p[d] for every d < wmin, so a lead byte whose byte at
  // filter_offset_ is no vocabulary byte at that offset cannot start one
  // and is dropped without a verify. The offset is the d in [1, wmin)
  // with the fewest distinct vocabulary bytes that fit a ByteSet and
  // include no '/' ('/' follows '<' in every closing tag, so a set holding
  // it filters nothing there); 0 when no offset qualifies (filter off).
  size_t filter_offset_ = 0;
  simd::ByteSet filter_set_;
};

/// Set-Horspool: same reversed trie, but shifts only by the bad-character
/// rule keyed on the window-end character.
class SetHorspoolMatcher : public Matcher {
 public:
  explicit SetHorspoolMatcher(std::vector<std::string> patterns);

  Match Search(std::string_view text, size_t from,
               SearchStats* stats) const override;

  size_t min_length() const override { return trie_.wmin; }
  size_t max_length() const override { return trie_.wmax; }
  const std::vector<std::string>& patterns() const override {
    return patterns_;
  }
  std::string_view name() const override { return "SetHorspool"; }

 private:
  std::vector<std::string> patterns_;
  detail::ReverseTrie trie_;
  std::array<size_t, 256> shift_;
};

}  // namespace smpx::strmatch

#endif  // SMPX_STRMATCH_COMMENTZ_WALTER_H_
