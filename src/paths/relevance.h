// Relevance of document branches according to Definition 3 of the paper:
//   C1 -- the leaf is matched by a path in P+ (prefix closure of P),
//   C2 -- some node of the branch is matched by a '#'-flagged path,
//   C3 -- substituting some tag t at the leaf, both a child-form path
//         (.../t) and a descendant-form path (...//t) match; such nodes
//         shield vital ancestor-descendant relationships (Example 6).

#ifndef SMPX_PATHS_RELEVANCE_H_
#define SMPX_PATHS_RELEVANCE_H_

#include <string>
#include <vector>

#include "paths/path_nfa.h"
#include "paths/projection_path.h"

namespace smpx::paths {

/// Computes P+ -- `paths` plus every proper step-prefix (flags dropped on
/// prefixes), deduplicated. The result contains the originals first.
std::vector<ProjectionPath> PrefixClosure(
    const std::vector<ProjectionPath>& paths);

/// Per-branch relevance verdict.
struct BranchRelevance {
  bool c1 = false;
  bool c2 = false;
  bool c3 = false;
  /// The leaf itself is matched by a '#'-flagged path: the state pair gets
  /// the copy on / copy off action (the whole subtree is required).
  bool leaf_hash = false;
  /// The leaf is matched by an '@'-flagged path: copy the attributes.
  bool leaf_attrs = false;

  bool relevant() const { return c1 || c2 || c3; }
};

/// Evaluates Definition 3 for document branches. `alphabet` is the set of
/// candidate tags for C3 (all element names of the DTD); the constructor
/// keeps the tags some last step of P+ names plus one stand-in for the
/// rest, which all give the same C3 verdict.
class RelevanceAnalyzer {
 public:
  RelevanceAnalyzer(std::vector<ProjectionPath> paths,
                    std::vector<std::string> alphabet);

  /// Relevance of the element node with this branch (root..self labels).
  /// The empty branch is the document node, always relevant via "/".
  BranchRelevance Analyze(const std::vector<std::string>& branch) const;

  /// Relevance of a text token whose parent element has this branch:
  /// text nodes carry no label, so only C2 over the parent branch applies.
  bool TextRelevant(const std::vector<std::string>& parent_branch) const;

  /// The closure P+ in use.
  const std::vector<ProjectionPath>& closure() const { return closure_; }
  /// The original paths P.
  const std::vector<ProjectionPath>& paths() const { return paths_; }

  // --- low-level hooks for DFA-caching traversals --------------------------

  /// The evaluator over P+ (state sets map 1:1 to closure()).
  const PathSetEvaluator& evaluator() const { return evaluator_; }
  /// True iff some '#'-flagged path accepts in `state`.
  bool AnyHashAccepting(const PathSetEvaluator::State& state) const;
  /// Classifies a node given its post-label state, the parent's state (for
  /// C3 substitution) and the C2 flag accumulated so far (which must
  /// already include `state` itself).
  BranchRelevance Classify(const PathSetEvaluator::State& state,
                           const PathSetEvaluator::State& parent_state,
                           bool c2_so_far, bool at_document_node) const;

 private:
  std::vector<ProjectionPath> paths_;
  std::vector<ProjectionPath> closure_;
  std::vector<std::string> alphabet_;
  PathSetEvaluator evaluator_;        // over closure_
  std::vector<bool> is_hash_;         // per closure entry
  std::vector<bool> is_attr_;         // per closure entry
  // Last-step form per closure entry; empty paths have neither form.
  std::vector<bool> child_form_;
  std::vector<bool> desc_form_;
};

/// Derives a sufficient C3 candidate alphabet from the paths themselves:
/// the last-step names of all paths plus a fresh sentinel covering
/// wildcard-ending forms. Useful when no DTD is at hand (the tokenizing
/// projector baseline).
std::vector<std::string> DeriveC3Alphabet(
    const std::vector<ProjectionPath>& paths);

/// Stack-shaped incremental interface to RelevanceAnalyzer for document
/// traversals: Push/Pop element labels as the document is walked; Current()
/// gives the relevance of the node on top of the stack in O(paths * C3
/// alphabet) instead of re-walking the branch.
class IncrementalRelevance {
 public:
  /// `analyzer` must outlive this object.
  explicit IncrementalRelevance(const RelevanceAnalyzer* analyzer);

  void Push(std::string_view label);
  void Pop();
  /// Depth of the stack (0 = document node).
  size_t depth() const { return states_.size() - 1; }

  /// Relevance of the current node (document node at depth 0).
  BranchRelevance Current() const;
  /// C2 for text children of the current node.
  bool TextRelevantHere() const { return c2_stack_.back(); }

 private:
  const RelevanceAnalyzer* analyzer_;
  std::vector<PathSetEvaluator::State> states_;
  std::vector<bool> c2_stack_;  // C2 accumulated up to each depth
};

}  // namespace smpx::paths

#endif  // SMPX_PATHS_RELEVANCE_H_
