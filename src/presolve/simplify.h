// Equivalence-preserving netlist simplification driven by analyzer facts.
//
// simplify() rebuilds the fan-in cone of the requested roots with
// ir::extract_cone (hash-consing and constant folding in the checked
// builder cascade the wins), applying four fact-driven rewrites; every
// other net is the plain Circuit::add_like copy:
//
//  * constant substitution — a non-source net whose unconditioned range is
//    a point becomes a literal;
//  * dead-arm mux collapsing — a mux whose select is provably constant
//    forwards the live arm;
//  * comparator strength reduction — a comparator with a proven verdict
//    becomes that constant;
//  * width narrowing — an add/sub/mulc whose operands and exact (unwrapped)
//    result provably fit k < w bits is re-expressed as trunc → op at
//    width k → zext, shaving w − k carry-chain bits.
//
// Because only UNCONDITIONED facts are used (facts.h), every surviving net
// computes the same value as its source net under every input assignment:
// the returned net map transfers witnesses in both directions, which the
// fuzz presolve mode checks net by net (fuzz/oracle.h).
//
// presolve_goal() is the solver-facing driver: analyze, maybe decide the
// instance outright (a goal with a proven point range, or a conditioned
// conflict under "goal = value"), otherwise hand back the simplified
// instance plus the net map.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ir/circuit.h"
#include "presolve/facts.h"
#include "util/stats.h"

namespace rtlsat::presolve {

struct PresolveStats {
  std::int64_t nets_constant = 0;       // non-source nets turned literal
  std::int64_t mux_arms_removed = 0;    // muxes collapsed to one arm
  std::int64_t comparators_reduced = 0; // comparators with a proven verdict
  std::int64_t width_bits_shaved = 0;   // bits removed by width narrowing
  std::int64_t nets_removed = 0;        // cone nets gone after the rebuild

  // Exports as presolve.* counters (bench JSON rows, serve, portfolio).
  void add_to(Stats& stats) const;
};

struct SimplifyResult {
  ir::Circuit circuit;
  // Old net → new net computing the same value under the same inputs;
  // kNoNet for nets outside the roots' cone or dropped by the rebuild.
  std::vector<ir::NetId> net_map;
  // Images of the requested roots, in order (always mapped).
  std::vector<ir::NetId> roots;
  PresolveStats stats;
};

// Requires unconditioned facts for `circuit` (asserts on conditioned ones —
// using goal-implied facts to rewrite would break witness transfer).
SimplifyResult simplify(const ir::Circuit& circuit,
                        const std::vector<ir::NetId>& roots,
                        const FactTable& facts);

struct GoalPresolve {
  // Decided without solving: `sat` answers "goal = value". For SAT the
  // model covers every primary input (any assignment satisfies a goal whose
  // unconditioned range is the asked-for point; all-zeros is reported).
  bool decided = false;
  bool sat = false;
  std::unordered_map<ir::NetId, std::int64_t> model;

  // Undecided: the simplified instance to solve instead.
  ir::Circuit circuit;
  ir::NetId goal = ir::kNoNet;
  std::vector<ir::NetId> net_map;

  PresolveStats stats;
};

// Full presolve pipeline for one "goal = value" instance: unconditioned
// analysis (may decide), fact-driven simplification, then a conditioned
// backward pass under the goal assumption (a conflict decides UNSAT).
GoalPresolve presolve_goal(const ir::Circuit& circuit, ir::NetId goal,
                           bool value);

}  // namespace rtlsat::presolve
