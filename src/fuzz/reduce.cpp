#include "fuzz/reduce.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "ir/analysis.h"
#include "parser/rtl_format.h"
#include "util/assert.h"

namespace rtlsat::fuzz {

using ir::Circuit;
using ir::NetId;
using ir::Node;
using ir::Op;

namespace {

// One shrinking rewrite: when the rebuild walk reaches `target`, it emits
// `replacement` instead — either another net of the old circuit (operand
// hoisting) or a fresh constant.
struct Rewrite {
  NetId target = ir::kNoNet;
  NetId redirect = ir::kNoNet;  // old-circuit net to use instead, or
  std::int64_t const_value = 0;  // … a constant of the target's width
  bool to_const = false;
};

// Rebuilds `old` into a fresh circuit through the checked builder API,
// applying at most one rewrite. The builder's hash-consing and constant
// folding do the actual shrinking: a rewrite that makes logic dead or
// foldable pays off here. By default only the goal cone survives; with
// `keep_dead` every net is re-emitted, because some interestingness
// predicates (the oracle's interval-soundness audit) observe nets outside
// the goal cone. Returns the new goal net.
NetId rebuild(const Circuit& old, NetId old_goal, const Rewrite* rewrite,
              Circuit& fresh, bool keep_dead = false) {
  std::unordered_map<NetId, NetId> map;
  // Explicit DFS; BMC-unrolled instances are deep enough to distrust the
  // call stack.
  struct Frame {
    NetId id;
    std::size_t next_operand = 0;
  };
  std::vector<Frame> stack;

  auto resolve = [&](NetId id) {
    // Apply the rewrite at lookup time so every use of the target is
    // redirected, including the goal itself.
    while (rewrite != nullptr && !rewrite->to_const && id == rewrite->target)
      id = rewrite->redirect;
    return id;
  };

  std::vector<NetId> operands;
  auto emit = [&](NetId id) {
    const Node& n = old.node(id);
    if (rewrite != nullptr && rewrite->to_const && id == rewrite->target) {
      map[id] = fresh.add_const(rewrite->const_value, n.width);
      return;
    }
    if (n.op == Op::kInput) {
      map[id] = fresh.add_input(old.net_name(id), n.width);
      return;
    }
    operands.clear();
    for (const NetId o : n.operands) operands.push_back(map.at(resolve(o)));
    map[id] = fresh.add_like(n, operands);
  };

  const NetId root = resolve(old_goal);
  stack.push_back({root});
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (map.count(f.id) != 0) {
      stack.pop_back();
      continue;
    }
    const Node& n = old.node(f.id);
    const bool leaf_rewrite =
        rewrite != nullptr && rewrite->to_const && f.id == rewrite->target;
    if (!leaf_rewrite && f.next_operand < n.operands.size()) {
      const NetId child = resolve(n.operands[f.next_operand++]);
      if (map.count(child) == 0) stack.push_back({child});
      continue;
    }
    emit(f.id);
    stack.pop_back();
  }
  if (keep_dead) {
    // Net ids are topological (operands precede users), so an id-order
    // sweep finds every operand already mapped. A redirected rewrite
    // target is never emitted — resolve() routes its uses elsewhere.
    for (NetId id = 0; id < old.num_nets(); ++id) {
      if (map.count(id) != 0) continue;
      if (rewrite != nullptr && !rewrite->to_const && id == rewrite->target)
        continue;
      emit(id);
    }
  }
  return map.at(root);
}

// Candidate rewrites for one net, cheapest-win first: constants beat
// operand hoists because they kill the whole operand cone.
void push_candidates(const Circuit& c, NetId id, std::vector<Rewrite>& out) {
  const Node& n = c.node(id);
  if (n.op == Op::kInput || n.op == Op::kConst) {
    if (n.op == Op::kInput) {
      Rewrite r;
      r.target = id;
      r.to_const = true;
      r.const_value = 0;
      out.push_back(r);
    }
    return;
  }
  const std::int64_t top = (std::int64_t{1} << n.width) - 1;
  for (const std::int64_t v : {std::int64_t{0}, std::int64_t{1}, top}) {
    if (v > top) continue;
    Rewrite r;
    r.target = id;
    r.to_const = true;
    r.const_value = v;
    out.push_back(r);
    if (v == 1 && top == 1) break;  // width 1: {0,1} only
  }
  for (const NetId operand : n.operands) {
    if (c.width(operand) != n.width) continue;
    Rewrite r;
    r.target = id;
    r.redirect = operand;
    out.push_back(r);
  }
}

// Nets to try rewrites on, highest id first (outputs before leaves) so the
// big cuts are tried before the small ones. In dead-preserving mode every
// net is a candidate, not just the goal cone.
std::vector<NetId> reduction_order(const Circuit& c, NetId goal,
                                   bool keep_dead) {
  if (keep_dead) {
    std::vector<NetId> all;
    for (NetId id = static_cast<NetId>(c.num_nets()); id-- > 0;)
      all.push_back(id);
    return all;
  }
  std::vector<NetId> cone = ir::fanin_cone(c, goal).members;
  std::reverse(cone.begin(), cone.end());
  return cone;
}

}  // namespace

ReduceResult reduce(const ir::Circuit& circuit, ir::NetId goal,
                    const Interesting& interesting,
                    const ReduceOptions& options) {
  RTLSAT_ASSERT_MSG(interesting(circuit, goal),
                    "reduce: the input instance is not interesting");
  ReduceResult result;
  result.initial_nodes = circuit.num_nets();
  // Round 0: cone extraction — rebuild with no rewrite drops dead logic and
  // re-folds. Goal-preserving but NOT always interestingness-preserving:
  // the oracle's interval audit can flag a net outside the goal cone, and
  // compacting such an instance loses the failure. Re-test, and fall back
  // to a dead-preserving rebuild (then to the untouched original) so the
  // greedy loop always starts from a still-failing instance.
  bool keep_dead = false;
  {
    Circuit compact("repro");
    const NetId g = rebuild(circuit, goal, nullptr, compact);
    if (interesting(compact, g)) {
      result.circuit = std::move(compact);
      result.goal = g;
    } else {
      keep_dead = true;
      Circuit full("repro");
      const NetId fg = rebuild(circuit, goal, nullptr, full, /*keep_dead=*/true);
      if (interesting(full, fg)) {
        result.circuit = std::move(full);
        result.goal = fg;
      } else {
        result.circuit = circuit;  // even re-folding perturbs the failure
        result.goal = goal;
      }
    }
  }

  bool changed = true;
  while (changed && result.rounds < options.max_rounds) {
    changed = false;
    ++result.rounds;
    std::vector<Rewrite> candidates;
    for (const NetId id : reduction_order(result.circuit, result.goal, keep_dead))
      push_candidates(result.circuit, id, candidates);
    for (const Rewrite& rewrite : candidates) {
      ++result.attempts;
      Circuit variant("repro");
      NetId vgoal;
      try {
        vgoal = rebuild(result.circuit, result.goal, &rewrite, variant,
                        keep_dead);
      } catch (const std::exception&) {
        continue;  // rewrite produced an ill-formed circuit; skip
      }
      // A folded-away goal is not a repro of anything.
      if (variant.node(vgoal).op == Op::kConst) continue;
      if (options.round_trip) {
        try {
          Circuit parsed = load_repro(write_repro(variant, vgoal), &vgoal);
          variant = std::move(parsed);
        } catch (const std::exception&) {
          continue;
        }
      }
      if (variant.num_nets() >= result.circuit.num_nets()) continue;
      if (!interesting(variant, vgoal)) continue;
      result.circuit = std::move(variant);
      result.goal = vgoal;
      ++result.accepted;
      changed = true;
      break;  // candidate list is stale; rescan the smaller circuit
    }
  }
  result.final_nodes = result.circuit.num_nets();
  return result;
}

std::string write_repro(const ir::Circuit& circuit, ir::NetId goal) {
  RTLSAT_ASSERT_MSG(circuit.node(goal).op != Op::kConst,
                    "write_repro: constant goal");
  Circuit copy = circuit;
  copy.set_name("repro");
  copy.set_net_name(goal, "goal");
  return parser::write_circuit(copy);
}

ir::Circuit load_repro(const std::string& text, ir::NetId* goal) {
  Circuit circuit = parser::parse_circuit(text);
  const NetId g = circuit.find_net("goal");
  RTLSAT_ASSERT_MSG(g != ir::kNoNet, "repro has no net named 'goal'");
  RTLSAT_ASSERT_MSG(circuit.is_bool(g), "repro goal is not 1-bit");
  if (goal != nullptr) *goal = g;
  return circuit;
}

ir::Circuit load_repro_file(const std::string& path, ir::NetId* goal) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return load_repro(buffer.str(), goal);
}

}  // namespace rtlsat::fuzz
