#include "paths/relevance.h"

#include <algorithm>
#include <set>

namespace smpx::paths {

std::vector<ProjectionPath> PrefixClosure(
    const std::vector<ProjectionPath>& paths) {
  std::vector<ProjectionPath> out;
  auto add = [&out](const ProjectionPath& p) {
    if (std::find(out.begin(), out.end(), p) == out.end()) out.push_back(p);
  };
  for (const ProjectionPath& p : paths) add(p);
  for (const ProjectionPath& p : paths) {
    ProjectionPath cur = p;
    while (!cur.steps.empty()) {
      cur = cur.Parent();
      add(cur);
    }
  }
  return out;
}

RelevanceAnalyzer::RelevanceAnalyzer(std::vector<ProjectionPath> paths,
                                     std::vector<std::string> alphabet)
    : paths_(std::move(paths)),
      closure_(PrefixClosure(paths_)),
      evaluator_(&closure_) {
  is_hash_.reserve(closure_.size());
  std::set<std::string, std::less<>> last_names;
  for (const ProjectionPath& p : closure_) {
    is_hash_.push_back(p.descendants);
    is_attr_.push_back(p.attributes);
    bool child = false;
    bool desc = false;
    if (!p.steps.empty()) {
      const PathStep& last = p.steps.back();
      child = last.axis == PathStep::Axis::kChild;
      desc = last.axis == PathStep::Axis::kDescendant;
      if (!last.wildcard) last_names.insert(last.name);
    }
    child_form_.push_back(child);
    desc_form_.push_back(desc);
  }
  // C3 asks which paths accept right after the substituted tag, and that
  // depends on the tag only through each path's last step.
  alphabet_ = RepresentativeLabels(std::move(alphabet), last_names);
}

BranchRelevance RelevanceAnalyzer::Analyze(
    const std::vector<std::string>& branch) const {
  PathSetEvaluator::State state = evaluator_.Initial();
  PathSetEvaluator::State parent = state;
  bool c2 = false;
  for (const std::string& label : branch) {
    parent = state;
    evaluator_.Step(label, &state);
    c2 = c2 || AnyHashAccepting(state);
  }
  return Classify(state, parent, c2, branch.empty());
}

std::vector<std::string> DeriveC3Alphabet(
    const std::vector<ProjectionPath>& paths) {
  std::vector<std::string> out;
  bool any_wildcard_last = false;
  for (const ProjectionPath& p : PrefixClosure(paths)) {
    if (p.steps.empty()) continue;
    const PathStep& last = p.steps.back();
    if (last.wildcard) {
      any_wildcard_last = true;
    } else if (std::find(out.begin(), out.end(), last.name) == out.end()) {
      out.push_back(last.name);
    }
  }
  if (any_wildcard_last) {
    out.push_back("__smpx_c3_fresh__");  // a tag matched only by wildcards
  }
  return out;
}

IncrementalRelevance::IncrementalRelevance(const RelevanceAnalyzer* analyzer)
    : analyzer_(analyzer) {
  states_.push_back(analyzer_->evaluator().Initial());
  c2_stack_.push_back(false);
}

void IncrementalRelevance::Push(std::string_view label) {
  PathSetEvaluator::State next = states_.back();
  analyzer_->evaluator().Step(label, &next);
  bool c2 = c2_stack_.back() || analyzer_->AnyHashAccepting(next);
  states_.push_back(std::move(next));
  c2_stack_.push_back(c2);
}

void IncrementalRelevance::Pop() {
  states_.pop_back();
  c2_stack_.pop_back();
}

BranchRelevance IncrementalRelevance::Current() const {
  if (states_.size() == 1) {
    return analyzer_->Classify(states_.back(), states_.back(),
                               c2_stack_.back(), /*at_document_node=*/true);
  }
  return analyzer_->Classify(states_.back(), states_[states_.size() - 2],
                             c2_stack_.back(), /*at_document_node=*/false);
}

bool RelevanceAnalyzer::AnyHashAccepting(
    const PathSetEvaluator::State& state) const {
  for (size_t p = 0; p < closure_.size(); ++p) {
    if (is_hash_[p] && evaluator_.PathAccepts(p, state)) return true;
  }
  return false;
}

BranchRelevance RelevanceAnalyzer::Classify(
    const PathSetEvaluator::State& state,
    const PathSetEvaluator::State& parent_state, bool c2_so_far,
    bool at_document_node) const {
  BranchRelevance out;
  out.c2 = c2_so_far;
  if (at_document_node) {
    // Only the empty path "/" selects the document node; "/#" keeps it all.
    out.c1 = true;
    if (AnyHashAccepting(state)) {
      out.c2 = true;
      out.leaf_hash = true;
    }
    return out;
  }
  for (size_t p = 0; p < closure_.size(); ++p) {
    if (!evaluator_.PathAccepts(p, state)) continue;
    out.c1 = true;
    if (is_hash_[p]) out.leaf_hash = true;
    if (is_attr_[p]) out.leaf_attrs = true;
  }
  // C3: substitute each candidate tag t at the leaf; require a child-form
  // and a descendant-form path to both match.
  if (!out.c1) {
    for (const std::string& t : alphabet_) {
      PathSetEvaluator::State sub = parent_state;
      evaluator_.Step(t, &sub);
      bool child = false;
      bool desc = false;
      for (size_t p = 0; p < closure_.size() && !(child && desc); ++p) {
        if (!evaluator_.PathAccepts(p, sub)) continue;
        child = child || child_form_[p];
        desc = desc || desc_form_[p];
      }
      if (child && desc) {
        out.c3 = true;
        break;
      }
    }
  }
  return out;
}

bool RelevanceAnalyzer::TextRelevant(
    const std::vector<std::string>& parent_branch) const {
  PathSetEvaluator::State state = evaluator_.Initial();
  for (size_t i = 0; i < parent_branch.size(); ++i) {
    evaluator_.Step(parent_branch[i], &state);
    if (AnyHashAccepting(state)) return true;
  }
  return false;
}

}  // namespace smpx::paths
