#include "core/selection.h"

#include <algorithm>
#include <map>
#include <queue>
#include <set>

namespace smpx::core {

using dtd::DtdAutomaton;

std::string_view ActionName(Action a) {
  switch (a) {
    case Action::kNop:
      return "nop";
    case Action::kCopyTag:
      return "copy tag";
    case Action::kCopyTagAtts:
      return "copy tag+atts";
    case Action::kCopyOn:
      return "copy on";
    case Action::kCopyOff:
      return "copy off";
  }
  return "?";
}

Action JoinActions(Action a, Action b) {
  return static_cast<Action>(
      std::max(static_cast<unsigned char>(a), static_cast<unsigned char>(b)));
}

namespace {

/// Collects all states lying strictly inside the subtree of instance `inst`
/// (= on some path from open(inst) to close(inst)): exactly the states of
/// its descendant instances.
void CollectInterior(const DtdAutomaton& aut, int inst,
                     std::vector<int>* out) {
  std::vector<int> work = {inst};
  while (!work.empty()) {
    int cur = work.back();
    work.pop_back();
    for (int child : aut.ChildrenOf(cur)) {
      if (child < 0) continue;
      out->push_back(DtdAutomaton::OpenState(child));
      out->push_back(DtdAutomaton::CloseState(child));
      work.push_back(child);
    }
  }
}

}  // namespace

Selection SelectStates(const dtd::DtdAutomaton& aut,
                       const paths::RelevanceAnalyzer& analyzer) {
  Selection sel;
  const size_t num_states = static_cast<size_t>(aut.num_states());
  sel.in_s.assign(num_states, false);
  sel.action.assign(num_states, Action::kNop);
  sel.in_s[0] = true;  // q0

  // Step (a): relevance per instance (open and close share a branch).
  // An instance's evaluator state is its parent's stepped once by its own
  // label, and its C2 flag extends the parent's, so a depth-first walk of
  // the instance tree classifies every instance from its parent's state
  // instead of re-walking the branch from the root.
  struct Visit {
    int inst;
    paths::PathSetEvaluator::State state;
    bool c2;
  };
  const paths::PathSetEvaluator& ev = analyzer.evaluator();
  sel.relevance.resize(aut.instances().size());
  std::vector<Visit> stack;
  auto enter = [&](int inst, const paths::PathSetEvaluator::State& parent,
                   bool parent_c2) {
    Visit v{inst, parent, parent_c2};
    ev.Step(aut.instance(inst).label, &v.state);
    v.c2 = v.c2 || analyzer.AnyHashAccepting(v.state);
    sel.relevance[static_cast<size_t>(inst)] = analyzer.Classify(
        v.state, parent, v.c2, /*at_document_node=*/false);
    stack.push_back(std::move(v));
  };
  enter(0, ev.Initial(), false);
  while (!stack.empty()) {
    Visit v = std::move(stack.back());
    stack.pop_back();
    for (int child : aut.ChildrenOf(v.inst)) enter(child, v.state, v.c2);
  }
  for (size_t i = 0; i < aut.instances().size(); ++i) {
    if (!sel.relevance[i].relevant()) continue;
    int open = DtdAutomaton::OpenState(static_cast<int>(i));
    sel.in_s[static_cast<size_t>(open)] = true;
    sel.in_s[static_cast<size_t>(DtdAutomaton::Dual(open))] = true;
  }

  // Step (b): collapse pairs whose interior is entirely relevant. Walk
  // top-down so outer pairs win; mark collapsed pairs as subtree copies.
  std::vector<bool> collapsed(num_states, false);
  for (size_t i = 0; i < aut.instances().size(); ++i) {
    int open = DtdAutomaton::OpenState(static_cast<int>(i));
    if (!sel.in_s[static_cast<size_t>(open)] ||
        collapsed[static_cast<size_t>(open)]) {
      continue;
    }
    std::vector<int> interior;
    CollectInterior(aut, static_cast<int>(i), &interior);
    if (interior.empty()) continue;
    bool all_in_s = std::all_of(
        interior.begin(), interior.end(),
        [&sel](int s) { return sel.in_s[static_cast<size_t>(s)]; });
    if (!all_in_s) continue;
    for (int s : interior) {
      sel.in_s[static_cast<size_t>(s)] = false;
      collapsed[static_cast<size_t>(s)] = true;
    }
    // The pair now copies its whole subtree wholesale.
    sel.relevance[i].leaf_hash = true;
    ++sel.collapsed_pairs;
  }

  // Tokens that can occur anywhere inside an opaque (recursive) region of
  // a given element label, used to model their unexpanded interiors in
  // step (c).
  std::map<std::string, std::vector<int>> opaque_interior_tokens;
  auto interior_tokens = [&aut, &opaque_interior_tokens](
                             const std::string& label)
      -> const std::vector<int>& {
    auto [it, inserted] = opaque_interior_tokens.try_emplace(label);
    if (inserted) {
      for (const std::string& name : aut.dtd().ReachableFrom(label)) {
        for (bool closing : {false, true}) {
          int tok = aut.FindToken(name, closing);
          if (tok >= 0) it->second.push_back(tok);
        }
      }
    }
    return it->second;
  };

  // Step (c): disambiguation closure, to fixpoint. From every q in S,
  // explore through non-S states; a frontier target p (in S) and a shadow
  // state p' (not in S) reached with the same token force p's parents in.
  // Extension for recursive DTDs: a skipped opaque region can contain any
  // tag reachable inside it, so it shadows all those tokens; if one matches
  // a frontier token, the opaque pair itself joins S (the runtime then
  // stops there and tunnels over the region by tag balancing).
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t q = 0; q < num_states; ++q) {
      if (!sel.in_s[q]) continue;
      // BFS through non-S states.
      std::set<int> frontier_tokens;  // tokens entering S-states
      std::vector<std::pair<int, int>> shadows;  // (token, shadow state)
      std::vector<bool> seen(num_states, false);
      std::queue<int> bfs;
      bfs.push(static_cast<int>(q));
      seen[q] = true;
      while (!bfs.empty()) {
        int cur = bfs.front();
        bfs.pop();
        for (const DtdAutomaton::Transition& t : aut.Out(cur)) {
          if (sel.in_s[static_cast<size_t>(t.to)]) {
            frontier_tokens.insert(t.token);
          } else {
            shadows.push_back({t.token, t.to});
            if (DtdAutomaton::IsOpenState(t.to) &&
                aut.instance(DtdAutomaton::InstanceOf(t.to)).opaque) {
              for (int tok : interior_tokens(
                       aut.instance(DtdAutomaton::InstanceOf(t.to)).label)) {
                shadows.push_back({tok, t.to});
              }
            }
            if (!seen[static_cast<size_t>(t.to)]) {
              seen[static_cast<size_t>(t.to)] = true;
              bfs.push(t.to);
            }
          }
        }
      }
      for (const auto& [token, shadow] : shadows) {
        if (frontier_tokens.count(token) == 0) continue;
        bool shadow_opaque =
            shadow != 0 &&
            aut.instance(DtdAutomaton::InstanceOf(shadow)).opaque;
        int add_open;
        if (shadow_opaque) {
          // Stop over at the opaque region itself and tag-balance it.
          add_open = DtdAutomaton::IsOpenState(shadow)
                         ? shadow
                         : DtdAutomaton::Dual(shadow);
        } else {
          // Add the shadow's parent states (the dual pair of its parent
          // instance; q0's children have no parents to add).
          add_open = aut.ParentState(shadow);
          if (add_open == 0) continue;
        }
        for (int s : {add_open, DtdAutomaton::Dual(add_open)}) {
          if (!sel.in_s[static_cast<size_t>(s)]) {
            sel.in_s[static_cast<size_t>(s)] = true;
            ++sel.stopover_states;
            changed = true;
          }
        }
      }
    }
  }

  // Actions. Stop-over states added by (c) keep kNop; relevant states get
  // copy actions according to their flags.
  for (size_t i = 0; i < aut.instances().size(); ++i) {
    int open = DtdAutomaton::OpenState(static_cast<int>(i));
    int close = DtdAutomaton::CloseState(static_cast<int>(i));
    if (!sel.in_s[static_cast<size_t>(open)]) continue;
    const paths::BranchRelevance& rel = sel.relevance[i];
    if (!rel.relevant()) continue;  // stop-over
    if (rel.leaf_hash) {
      sel.action[static_cast<size_t>(open)] = Action::kCopyOn;
      sel.action[static_cast<size_t>(close)] = Action::kCopyOff;
    } else {
      Action tag_action =
          rel.leaf_attrs ? Action::kCopyTagAtts : Action::kCopyTag;
      sel.action[static_cast<size_t>(open)] = tag_action;
      sel.action[static_cast<size_t>(close)] = Action::kCopyTag;
    }
  }
  return sel;
}

SubgraphAutomaton BuildSubgraph(const dtd::DtdAutomaton& aut,
                                const Selection& sel) {
  SubgraphAutomaton sub;
  const size_t num_states = static_cast<size_t>(aut.num_states());
  sub.edges.assign(num_states, {});
  sub.is_final.assign(num_states, false);

  for (size_t q = 0; q < num_states; ++q) {
    if (!sel.in_s[q]) continue;
    if (static_cast<int>(q) == aut.final_state()) sub.is_final[q] = true;
    std::set<std::pair<int, int>> edges;  // dedup (token, to)
    std::vector<bool> seen(num_states, false);
    std::queue<int> bfs;
    bfs.push(static_cast<int>(q));
    seen[q] = true;
    while (!bfs.empty()) {
      int cur = bfs.front();
      bfs.pop();
      for (const DtdAutomaton::Transition& t : aut.Out(cur)) {
        if (sel.in_s[static_cast<size_t>(t.to)]) {
          edges.insert({t.token, t.to});
        } else {
          if (t.to == aut.final_state()) sub.is_final[q] = true;
          if (!seen[static_cast<size_t>(t.to)]) {
            seen[static_cast<size_t>(t.to)] = true;
            bfs.push(t.to);
          }
        }
      }
    }
    for (const auto& [token, to] : edges) {
      sub.edges[q].push_back(SubgraphAutomaton::Edge{token, to});
    }
  }
  return sub;
}

}  // namespace smpx::core
