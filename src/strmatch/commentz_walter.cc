#include "strmatch/commentz_walter.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <queue>

#include "simd/simd.h"
#include "strmatch/word_compare.h"

namespace smpx::strmatch {

namespace detail {

ReverseTrie::ReverseTrie(const std::vector<std::string>& patterns) {
  assert(!patterns.empty());
  nodes.emplace_back();  // root
  wmin = patterns[0].size();
  wmax = 0;
  for (size_t pi = 0; pi < patterns.size(); ++pi) {
    const std::string& p = patterns[pi];
    assert(!p.empty());
    wmin = std::min(wmin, p.size());
    wmax = std::max(wmax, p.size());
    int node = 0;
    for (size_t k = p.size(); k-- > 0;) {  // insert reversed
      unsigned char c = static_cast<unsigned char>(p[k]);
      int child = nodes[node].next[c];
      if (child < 0) {
        child = static_cast<int>(nodes.size());
        nodes[node].next[c] = child;
        Node n;
        n.parent = node;
        n.depth = nodes[node].depth + 1;
        n.in_char = c;
        nodes.push_back(n);
      }
      node = child;
    }
    // Keep the first pattern index on duplicates.
    if (nodes[node].pattern < 0) nodes[node].pattern = static_cast<int>(pi);
  }
}

namespace {

/// Aho-Corasick failure links over the reverse trie: fail(u) is the deepest
/// node whose word is a proper suffix of word(u). Used to compute the
/// Commentz-Walter shift1/shift2 functions ("word(v) is a proper suffix of
/// word(u)" iff v lies on u's failure chain).
std::vector<int> ComputeFailureLinks(const ReverseTrie& trie) {
  std::vector<int> fail(trie.nodes.size(), 0);
  std::queue<int> bfs;
  for (int c = 0; c < 256; ++c) {
    int child = trie.nodes[0].next[c];
    if (child >= 0) bfs.push(child);
  }
  while (!bfs.empty()) {
    int u = bfs.front();
    bfs.pop();
    for (int c = 0; c < 256; ++c) {
      int child = trie.nodes[u].next[c];
      if (child < 0) continue;
      int f = fail[u];
      while (f != 0 && trie.nodes[f].next[c] < 0) f = fail[f];
      int fc = trie.nodes[f].next[c];
      fail[child] = (fc >= 0 && fc != child) ? fc : 0;
      bfs.push(child);
    }
  }
  return fail;
}

}  // namespace

AnchoredTrie::AnchoredTrie(const std::vector<std::string>& patterns) {
  // Sorted by word, then index, with duplicates collapsed onto the earliest
  // index: a range of keys sharing a prefix is then contiguous, and a key
  // equal to the range's common prefix sorts first.
  std::vector<Key> keys;
  keys.reserve(patterns.size());
  for (size_t i = 0; i < patterns.size(); ++i) {
    keys.push_back({patterns[i], static_cast<int32_t>(i)});
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    return a.word != b.word ? a.word < b.word : a.index < b.index;
  });
  keys.erase(std::unique(keys.begin(), keys.end(),
                         [](const Key& a, const Key& b) {
                           return a.word == b.word;
                         }),
             keys.end());
  nodes_.emplace_back();
  first_.push_back(static_cast<unsigned char>(keys[0].word[0]));
  Build(0, keys, 0, keys.size(), 0);
}

void AnchoredTrie::Build(uint32_t v, const std::vector<Key>& keys, size_t lo,
                         size_t hi, size_t depth) {
  // keys[lo, hi) share their first `depth` bytes; being sorted, they share
  // as many bytes as their first and last key do.
  const std::string_view first = keys[lo].word;
  const std::string_view last = keys[hi - 1].word;
  size_t common = depth;
  while (common < first.size() && common < last.size() &&
         first[common] == last[common]) {
    ++common;
  }
  nodes_[v].label = static_cast<uint32_t>(labels_.size());
  nodes_[v].label_len = static_cast<uint32_t>(common - depth);
  labels_.append(first.substr(depth, common - depth));
  if (first.size() == common) {
    nodes_[v].pattern = keys[lo].index;  // longer keys here are unreachable
    return;
  }
  // One child per distinct byte at `common`, allocated side by side.
  std::vector<size_t> group_starts;
  for (size_t k = lo; k < hi; ++k) {
    if (k == lo || keys[k].word[common] != keys[k - 1].word[common]) {
      group_starts.push_back(k);
    }
  }
  group_starts.push_back(hi);
  const uint32_t first_child = static_cast<uint32_t>(nodes_.size());
  const size_t groups = group_starts.size() - 1;
  nodes_[v].first_child = first_child;
  nodes_[v].num_children = static_cast<uint32_t>(groups);
  nodes_.resize(nodes_.size() + groups);
  for (size_t g = 0; g < groups; ++g) {
    first_.push_back(
        static_cast<unsigned char>(keys[group_starts[g]].word[common]));
  }
  for (size_t g = 0; g < groups; ++g) {
    Build(first_child + static_cast<uint32_t>(g), keys, group_starts[g],
          group_starts[g + 1], common);
  }
}

int AnchoredTrie::Match(const unsigned char* text, size_t n, size_t s,
                        size_t* inspected) const {
  const unsigned char* t = text + s;
  const size_t left = n - s;
  const unsigned char* labels =
      reinterpret_cast<const unsigned char*>(labels_.data());
  size_t depth = 0;  // bytes of t matched so far
  uint32_t v = 0;
  for (;;) {
    const Node& node = nodes_[v];
    const size_t len = std::min<size_t>(node.label_len, left - depth);
    const size_t mm = FirstMismatch(t + depth, labels + node.label, len);
    if (mm < len) {
      *inspected = depth + mm + 1;
      return -1;
    }
    if (len < node.label_len) {  // the text ends inside the label
      *inspected = left;
      return -1;
    }
    depth += len;
    if (node.pattern >= 0) {
      *inspected = depth;
      return node.pattern;
    }
    if (depth == left) {
      *inspected = left;
      return -1;
    }
    const unsigned char c = t[depth];
    const uint32_t end = node.first_child + node.num_children;
    v = node.first_child;
    while (v < end && first_[v] != c) ++v;
    if (v == end) {
      *inspected = depth + 1;
      return -1;
    }
  }
}

}  // namespace detail

CommentzWalterMatcher::CommentzWalterMatcher(
    std::vector<std::string> patterns)
    : patterns_(std::move(patterns)), trie_(patterns_) {
  const size_t wmin = trie_.wmin;
  const size_t num_nodes = trie_.nodes.size();

  // char table: minimal distance (>= 1) of each character from a pattern
  // end, looking at most wmin characters deep; wmin + 1 when absent.
  char_shift_.fill(wmin + 1);
  for (const std::string& p : patterns_) {
    for (size_t d = 1; d <= std::min(wmin, p.size() - 1); ++d) {
      unsigned char c = static_cast<unsigned char>(p[p.size() - 1 - d]);
      char_shift_[c] = std::min(char_shift_[c], d);
    }
  }

  // shift1 / shift2 via failure chains.
  std::vector<int> fail = detail::ComputeFailureLinks(trie_);
  shift1_.assign(num_nodes, wmin);
  shift1_[0] = 1;
  shift2_.assign(num_nodes, wmin);
  for (size_t u = 1; u < num_nodes; ++u) {
    bool terminal = trie_.nodes[u].pattern >= 0;
    for (int v = fail[u]; v != 0; v = fail[v]) {
      size_t diff = static_cast<size_t>(trie_.nodes[u].depth -
                                        trie_.nodes[v].depth);
      shift1_[v] = std::min(shift1_[v], diff);
      if (terminal) shift2_[v] = std::min(shift2_[v], diff);
    }
    if (terminal) {
      // Root: any terminal at depth d caps shift2(root) at d... but the
      // classical definition keeps shift2(root) = wmin; depths are >= wmin
      // only for the shortest pattern, so min(d) == wmin is already tight.
      shift2_[0] = std::min(shift2_[0], static_cast<size_t>(
                                            trie_.nodes[u].depth));
      shift1_[0] = 1;
    }
  }
  // shift2 is monotone along trie edges: a node inherits its parent's bound.
  for (size_t u = 1; u < num_nodes; ++u) {
    shift2_[u] = std::min(shift2_[u],
                          shift2_[static_cast<size_t>(trie_.nodes[u].parent)]);
  }

  // memchr fast path precomputation (see header).
  lead_ = patterns_[0][0];
  fast_path_ = true;
  for (const std::string& p : patterns_) {
    if (p[0] != lead_ ||
        p.find(lead_, 1) != std::string::npos) {
      fast_path_ = false;
      break;
    }
  }
  if (fast_path_) {
    anchored_.emplace(patterns_);
    // Candidate filter offset (see header).
    size_t best = sizeof(filter_set_.chars) + 1;
    for (size_t d = 1; d < wmin; ++d) {
      std::array<bool, 256> seen{};
      std::string members;
      for (const std::string& p : patterns_) {
        unsigned char c = static_cast<unsigned char>(p[d]);
        if (!seen[c]) {
          seen[c] = true;
          members.push_back(static_cast<char>(c));
        }
      }
      if (seen['/'] || members.size() >= best) continue;
      best = members.size();
      filter_offset_ = d;
      filter_set_ = simd::ByteSet(members);
    }
  }
}

Match CommentzWalterMatcher::SearchFast(std::string_view text, size_t from,
                                        SearchStats* stats) const {
  const size_t n = text.size();
  const unsigned char* ud = reinterpret_cast<const unsigned char*>(text.data());
  const unsigned char lead = static_cast<unsigned char>(lead_);

  // Anchored verification: the shortest keyword at the anchor is, as
  // occurrences cannot overlap, the minimal-end occurrence.
  size_t prev = from;  // one past the previous candidate (shift stats)
  auto verify = [&](size_t s) -> Match {
    size_t inspected = 0;
    const int pat = anchored_->Match(ud, n, s, &inspected);
    if (stats != nullptr) {
      if (s > prev) {
        ++stats->shifts;
        stats->shift_chars += s - prev;
      }
      prev = s + 1;
      stats->comparisons += inspected;
    }
    return pat >= 0 ? Match{s, pat} : Match{};
  };

  // Candidate scan: lead-byte hits whose byte filter_offset_ further on is
  // in the filter set, one span scan (simd/simd.h) per block holding hits.
  // A lead byte within fd bytes of the end starts no occurrence (fd <
  // wmin), so candidates stop at n - fd. Hits pop in ascending text order
  // under every tier, so matches and stats are tier-independent.
  const simd::Kernels& kn = simd::Active();
  const size_t fd = filter_offset_;
  const size_t limit = n - fd;
  for (size_t k = from; k < limit;) {
    const simd::SpanHit h =
        fd == 0 ? kn.eq_span(ud, k, limit, lead)
                : kn.lead_any_span(ud, k, limit, lead, fd, filter_set_);
    if (h.mask == 0) break;
    for (uint64_t hits = h.mask; hits != 0;
         hits = simd::ClearLowestBit(hits)) {
      Match m = verify(h.pos + simd::NextSetBit(hits));
      if (m.found()) return m;
    }
    k = h.pos + simd::kBlock;
  }
  if (stats != nullptr && n > prev) {
    ++stats->shifts;
    stats->shift_chars += n - prev;
  }
  return {};
}

Match CommentzWalterMatcher::Search(std::string_view text, size_t from,
                                    SearchStats* stats) const {
  const size_t n = text.size();
  const size_t wmin = trie_.wmin;
  if (wmin == 0 || from > n || n - from < wmin) return {};
  if (fast_path_ && skip_loops_) return SearchFast(text, from, stats);

  size_t i = from + wmin - 1;  // window end position in text
  while (i < n) {
    int v = 0;
    size_t j = 0;  // characters matched walking right-to-left
    Match best;    // deepest admissible terminal on the walk
    for (;;) {
      if (j > i) break;  // reached text start
      unsigned char c = static_cast<unsigned char>(text[i - j]);
      if (stats != nullptr) ++stats->comparisons;
      int child = trie_.Child(v, c);
      if (child < 0) break;
      v = child;
      ++j;
      int pat = trie_.nodes[v].pattern;
      if (pat >= 0) {
        size_t start = i - j + 1;
        if (start >= from) best = Match{start, pat};
      }
    }
    if (best.found()) return best;

    // Shift: min(max(shift1(v), char(c) - j - 1), shift2(v)). shift1 and the
    // bad-character rule give consistency lower bounds; shift2 caps the
    // shift so that no full-pattern end position can be stepped over.
    size_t cs = 0;  // bad-character contribution; 0 when text start reached
    if (j <= i) {
      unsigned char c = static_cast<unsigned char>(text[i - j]);
      size_t ch = char_shift_[c];
      cs = ch > j + 1 ? ch - j - 1 : 0;
    }
    size_t shift = std::min(std::max(shift1_[static_cast<size_t>(v)], cs),
                            shift2_[static_cast<size_t>(v)]);
    if (shift == 0) shift = 1;
    if (stats != nullptr) {
      ++stats->shifts;
      stats->shift_chars += shift;
    }
    i += shift;
  }
  return {};
}

SetHorspoolMatcher::SetHorspoolMatcher(std::vector<std::string> patterns)
    : patterns_(std::move(patterns)), trie_(patterns_) {
  const size_t wmin = trie_.wmin;
  shift_.fill(wmin);
  for (const std::string& p : patterns_) {
    for (size_t d = 1; d <= std::min(wmin - 1, p.size() - 1); ++d) {
      unsigned char c = static_cast<unsigned char>(p[p.size() - 1 - d]);
      shift_[c] = std::min(shift_[c], d);
    }
  }
}

Match SetHorspoolMatcher::Search(std::string_view text, size_t from,
                                 SearchStats* stats) const {
  const size_t n = text.size();
  const size_t wmin = trie_.wmin;
  if (wmin == 0 || from > n || n - from < wmin) return {};

  size_t i = from + wmin - 1;
  while (i < n) {
    unsigned char last = static_cast<unsigned char>(text[i]);
    int v = 0;
    size_t j = 0;
    Match best;
    for (;;) {
      if (j > i) break;
      unsigned char c = static_cast<unsigned char>(text[i - j]);
      if (stats != nullptr) ++stats->comparisons;
      int child = trie_.Child(v, c);
      if (child < 0) break;
      v = child;
      ++j;
      int pat = trie_.nodes[v].pattern;
      if (pat >= 0) {
        size_t start = i - j + 1;
        if (start >= from) best = Match{start, pat};
      }
    }
    if (best.found()) return best;
    size_t shift = shift_[last];
    if (shift == 0) shift = 1;
    if (stats != nullptr) {
      ++stats->shifts;
      stats->shift_chars += shift;
    }
    i += shift;
  }
  return {};
}

}  // namespace smpx::strmatch
