#include "strmatch/naive.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace smpx::strmatch {
namespace {

/// Scans candidate ends in increasing order; at each end returns the longest
/// pattern matching there (the Matcher contract).
Match ScanByEnd(const std::vector<std::string>& patterns,
                std::string_view text, size_t from, size_t min_len,
                SearchStats* stats) {
  if (text.size() < min_len || from + min_len > text.size()) return {};
  for (size_t end = from + min_len - 1; end < text.size(); ++end) {
    Match best;
    for (size_t pi = 0; pi < patterns.size(); ++pi) {
      const std::string& p = patterns[pi];
      if (end + 1 < p.size()) continue;
      size_t start = end + 1 - p.size();
      if (start < from) continue;
      bool ok = true;
      for (size_t k = 0; k < p.size(); ++k) {
        if (stats != nullptr) ++stats->comparisons;
        if (text[start + k] != p[k]) {
          ok = false;
          break;
        }
      }
      if (ok && (!best.found() || start < best.pos)) {
        best = Match{start, static_cast<int>(pi)};
      }
    }
    if (best.found()) return best;
  }
  return {};
}

}  // namespace

NaiveMatcher::NaiveMatcher(std::vector<std::string> patterns)
    : patterns_(std::move(patterns)) {
  assert(!patterns_.empty());
  min_len_ = patterns_[0].size();
  for (const std::string& p : patterns_) {
    assert(!p.empty());
    min_len_ = std::min(min_len_, p.size());
    max_len_ = std::max(max_len_, p.size());
  }
}

Match NaiveMatcher::Search(std::string_view text, size_t from,
                           SearchStats* stats) const {
  return ScanByEnd(patterns_, text, from, min_len_, stats);
}

MemchrMatcher::MemchrMatcher(std::vector<std::string> patterns)
    : patterns_(std::move(patterns)) {
  assert(!patterns_.empty());
  lead_ = patterns_[0][0];
  min_len_ = patterns_[0].size();
  for (const std::string& p : patterns_) {
    assert(!p.empty());
    assert(p[0] == lead_ && "MemchrMatcher requires a shared lead character");
    min_len_ = std::min(min_len_, p.size());
    max_len_ = std::max(max_len_, p.size());
  }
}

Match MemchrMatcher::Search(std::string_view text, size_t from,
                            SearchStats* stats) const {
  size_t pos = from;
  while (pos < text.size()) {
    const void* hit =
        std::memchr(text.data() + pos, lead_, text.size() - pos);
    if (hit == nullptr) return {};
    size_t cand = static_cast<size_t>(static_cast<const char*>(hit) -
                                      text.data());
    // memchr inspected every byte up to and including the hit.
    if (stats != nullptr) stats->comparisons += cand - pos + 1;
    Match best;
    for (size_t pi = 0; pi < patterns_.size(); ++pi) {
      const std::string& p = patterns_[pi];
      if (cand + p.size() > text.size()) continue;
      bool ok = true;
      for (size_t k = 1; k < p.size(); ++k) {
        if (stats != nullptr) ++stats->comparisons;
        if (text[cand + k] != p[k]) {
          ok = false;
          break;
        }
      }
      // The shortest pattern at the candidate ends first (minimal end).
      if (ok && (!best.found() ||
                 p.size() < patterns_[static_cast<size_t>(best.pattern)]
                                .size())) {
        best = Match{cand, static_cast<int>(pi)};
      }
    }
    if (best.found()) return best;
    pos = cand + 1;
  }
  return {};
}

}  // namespace smpx::strmatch
