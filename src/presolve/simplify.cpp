#include "presolve/simplify.h"

#include <bit>
#include <utility>
#include <vector>

#include "ir/analysis.h"
#include "ir/op.h"
#include "ir/transform.h"
#include "presolve/analyze.h"
#include "util/assert.h"

namespace rtlsat::presolve {

namespace {

using ir::Circuit;
using ir::kNoNet;
using ir::NetId;
using ir::Node;
using ir::Op;

// Smallest width holding the non-negative value v (≥ 1 so a net exists).
int bits_for(Interval::Value v) {
  if (v <= 0) return 1;
  return static_cast<int>(std::bit_width(static_cast<std::uint64_t>(v)));
}

// The fact-driven rewrites of one cone net, for ir::extract_cone; kNoNet
// leaves the net to the plain copy.
NetId fact_rewrite(const Circuit& source, const FactTable& facts,
                   PresolveStats& stats, Circuit& out, NetId id,
                   const std::vector<NetId>& map) {
  const Node& n = source.node(id);
  // Constant substitution. Never for inputs (their range is never a
  // point) nor for literals (no win to count).
  if (n.op != Op::kInput && n.op != Op::kConst && facts.is_const(id)) {
    if (ir::is_comparator(n.op)) ++stats.comparators_reduced;
    else ++stats.nets_constant;
    return out.add_const(facts.const_value(id), n.width);
  }
  auto m = [&](std::size_t i) { return map[n.operands[i]]; };
  auto range = [&](std::size_t i) -> const Interval& {
    return facts.range[n.operands[i]];
  };
  switch (n.op) {
    case Op::kMux: {
      const Interval& sel = range(0);
      if (sel.is_point()) {  // dead-arm collapse: forward the live arm
        ++stats.mux_arms_removed;
        return sel.lo() == 1 ? m(1) : m(2);
      }
      return kNoNet;
    }
    case Op::kAdd: {
      // Width narrowing: operands and the exact sum provably fit k < w
      // bits, so the wrap cannot fire and the carry chain shortens to k.
      const int k = bits_for(range(0).hi() + range(1).hi());
      if (k < n.width) {
        stats.width_bits_shaved += n.width - k;
        return out.add_zext(
            out.add_add(out.add_trunc(m(0), k), out.add_trunc(m(1), k)),
            n.width);
      }
      return kNoNet;
    }
    case Op::kSub: {
      // Exact (borrow-free) iff x ≥ y always; then the result fits x's
      // proven bits.
      if (range(0).lo() >= range(1).hi()) {
        const int k = bits_for(range(0).hi());
        if (k < n.width) {
          stats.width_bits_shaved += n.width - k;
          return out.add_zext(
              out.add_sub(out.add_trunc(m(0), k), out.add_trunc(m(1), k)),
              n.width);
        }
      }
      return kNoNet;
    }
    case Op::kMulC: {
      if (n.imm >= 1) {
        const Interval::Value prod = sat_mul(range(0).hi(), n.imm);
        if (!endpoint_saturated(prod)) {
          const int k = bits_for(prod);
          if (k < n.width) {
            stats.width_bits_shaved += n.width - k;
            return out.add_zext(out.add_mulc(out.add_trunc(m(0), k), n.imm),
                                n.width);
          }
        }
      }
      return kNoNet;
    }
    default: return kNoNet;
  }
}

}  // namespace

void PresolveStats::add_to(Stats& stats) const {
  stats.add("presolve.nets_constant", nets_constant);
  stats.add("presolve.mux_arms_removed", mux_arms_removed);
  stats.add("presolve.comparators_reduced", comparators_reduced);
  stats.add("presolve.width_bits_shaved", width_bits_shaved);
  stats.add("presolve.nets_removed", nets_removed);
}

SimplifyResult simplify(const ir::Circuit& circuit,
                        const std::vector<ir::NetId>& roots,
                        const FactTable& facts) {
  RTLSAT_ASSERT_MSG(!facts.conditioned,
                    "presolve::simplify needs unconditioned facts");
  RTLSAT_ASSERT(facts.range.size() == circuit.num_nets());
  SimplifyResult result;
  // Fact-driven rewrite pass, then a plain cone pass to drop the nodes the
  // rewrites orphaned (e.g. a comparator whose only reader collapsed).
  ir::TransformResult rewritten = ir::extract_cone(
      circuit, roots,
      [&](Circuit& out, NetId id, const std::vector<NetId>& map) {
        return fact_rewrite(circuit, facts, result.stats, out, id, map);
      });
  std::vector<ir::NetId> new_roots;
  for (const ir::NetId r : roots) {
    RTLSAT_ASSERT(rewritten.net_map[r] != kNoNet);
    new_roots.push_back(rewritten.net_map[r]);
  }
  ir::TransformResult swept = ir::extract_cone(rewritten.circuit, new_roots);
  result.circuit = std::move(swept.circuit);
  result.net_map.assign(circuit.num_nets(), kNoNet);
  for (ir::NetId id = 0; id < circuit.num_nets(); ++id) {
    const ir::NetId mid = rewritten.net_map[id];
    if (mid != kNoNet) result.net_map[id] = swept.net_map[mid];
  }
  for (const ir::NetId r : roots) {
    RTLSAT_ASSERT(result.net_map[r] != kNoNet);
    result.roots.push_back(result.net_map[r]);
  }
  const std::size_t before = ir::fanin_cone(circuit, roots).members.size();
  const std::size_t after = result.circuit.num_nets();
  result.stats.nets_removed =
      before > after ? static_cast<std::int64_t>(before - after) : 0;
  return result;
}

GoalPresolve presolve_goal(const ir::Circuit& circuit, ir::NetId goal,
                           bool value) {
  RTLSAT_ASSERT(goal < circuit.num_nets());
  RTLSAT_ASSERT(circuit.is_bool(goal));
  GoalPresolve out;
  const auto decide = [&](bool sat) {
    out.decided = true;
    out.sat = sat;
    if (sat) {
      // A goal whose unconditioned range is the asked-for point holds
      // under EVERY assignment; report all-zeros.
      for (const ir::NetId in : circuit.inputs()) out.model[in] = 0;
    }
  };
  const Interval want = Interval::point(value ? 1 : 0);

  const FactTable facts = analyze(circuit);
  if (facts.range[goal].is_point()) {
    decide(facts.range[goal] == want);
    return out;
  }

  SimplifyResult s = simplify(circuit, {goal}, facts);
  out.stats = s.stats;
  const ir::NetId g = s.roots[0];
  if (s.circuit.node(g).op == ir::Op::kConst) {
    decide(s.circuit.node(g).imm == (value ? 1 : 0));
    return out;
  }

  // Conditioned backward pass under "goal = value": a conflict proves no
  // assignment reaches the asked-for verdict.
  AnalyzeOptions ao;
  ao.assumptions.emplace_back(g, want);
  const FactTable cond = analyze(s.circuit, ao);
  if (cond.conflict) {
    decide(false);
    return out;
  }

  out.circuit = std::move(s.circuit);
  out.goal = g;
  out.net_map = std::move(s.net_map);
  return out;
}

}  // namespace rtlsat::presolve
