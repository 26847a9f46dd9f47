// Integer feasibility of a conjunction of linear constraints over bounded
// variables, by Fourier–Motzkin elimination with the Omega-test dark
// shadow and an exact splintering fallback.
//
// This plays the role the Omega library played in HDPLL (paper §2.4): after
// constraint propagation reaches bounds consistency with all Boolean
// variables assigned, the remaining solution box plus the (now linear)
// data-path constraints are handed here to certify a point solution or
// flag a conflict.
//
// Decision logic per connected component:
//   1. presolve: single-variable constraints fold into the bounds; simple
//      bound tightening; empty bound ⟹ UNSAT.
//   2. real-shadow FME: infeasible ⟹ UNSAT (the real relaxation is a
//      superset of the integer solutions). If every elimination pair had a
//      unit coefficient the shadow is exact ⟹ SAT with model.
//   3. dark-shadow FME: feasible ⟹ SAT (dark shadow is a subset of the
//      integer-solvable region); model by back-substitution.
//   4. otherwise splinter: branch on a variable's interval and recurse —
//      exact and terminating because all domains are finite.
//
// On request the solver also writes out why an UNSAT answer holds: the
// presolve, point-substitution and real-shadow rows that lead to the
// contradiction, as a refutation an independent checker can replay
// (src/proof/word_check). Only UNSAT needs one; the dark shadow and SAT
// answers never enter it.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "fme/linear.h"
#include "util/stats.h"
#include "util/stop_token.h"

namespace rtlsat::trace {
class Tracer;
}  // namespace rtlsat::trace

namespace rtlsat::fme {

// Reference into a refutation's axiom/step space.
struct ProofRef {
  enum class Kind : std::uint8_t {
    kConstraint,  // system.constraints()[index]
    kUpper,       // x_index ≤ hi(index)
    kLower,       // −x_index ≤ −lo(index)
    kStep,        // result of an earlier proof step / split hypothesis
  };
  Kind kind = Kind::kConstraint;
  std::uint32_t index = 0;
};

// One step of a refutation. Steps are listed flat, in derivation order.
// kComb and kDiv derive a new constraint and get the next sequential step
// id. kSplit opens a case split on an integer variable: the left branch
// (var ≤ at) starts immediately and its hypothesis constraint takes the
// next step id; kCase closes the left branch (which must have reached a
// contradiction), discards its derivations, and opens the right branch
// (var ≥ at+1) whose hypothesis again takes the next id; kQed closes the
// right branch and discharges the split — both cases contradicted means
// the enclosing scope is contradicted (x ≤ m ∨ x ≥ m+1 is exhaustive over
// the integers).
struct CertStep {
  enum class Kind : std::uint8_t { kComb, kDiv, kSplit, kCase, kQed };
  Kind kind = Kind::kComb;
  // kComb: Σ coeff·ref with every coeff > 0; result is a new constraint.
  std::vector<std::pair<ProofRef, Bound>> combo;
  // kDiv: divide `div_of` by `divisor` (> 0, must divide every
  // coefficient exactly), rounding the bound down — sound for integers.
  ProofRef div_of;
  Bound divisor = 1;
  // kSplit: variable and split point (left: var ≤ at, right: var ≥ at+1).
  Var split_var = 0;
  Bound split_at = 0;
};

// A refutation of a System: its steps end the outermost scope with a row
// 0 ≤ negative bound, or with the kQed of a split whose two cases both do.
struct Certificate {
  std::vector<CertStep> steps;
};

// kUnknown is only ever returned when a stop token fired mid-solve: the
// system was neither certified SAT nor refuted. Callers must treat it as
// "abandon this check", never as a verdict.
enum class Result { kSat, kUnsat, kUnknown };

struct SolveOptions {
  // Abort FME and splinter when the working set outgrows this (guards the
  // quadratic pair blowup).
  std::size_t max_constraints = 20000;
  // Enumerate interval values during splintering when the domain is at most
  // this big; otherwise bisect.
  std::uint64_t enumerate_limit = 16;
  // Hard cap on splinter recursion (conservative; depth is bounded by the
  // domain bit-widths anyway).
  int max_splinter_depth = 256;
  // Observability: each solve() call is recorded as a kFmeSolve event.
  // Null ⟹ trace::global() (a no-op unless RTLSAT_TRACE is set).
  trace::Tracer* tracer = nullptr;
  // Cooperative cancellation / deadline, polled at every splinter-recursion
  // entry and every 1024 row combinations inside an elimination, so
  // FME-heavy end-games respect the solver timeout and portfolio
  // cancellation. Null = never stop. Borrowed; must outlive the solver.
  const StopToken* stop = nullptr;
  // Registry the fme.* counters go to, typically the owning solver's, so
  // FME work shows up next to the search counters. Null = the solver's own
  // registry. Borrowed; must outlive the solver.
  Stats* stats = nullptr;
};

class Solver {
 public:
  explicit Solver(SolveOptions options = {}) : options_(options) {}

  // Decides the system; on kSat and model != nullptr, *model receives one
  // integer solution (size = system.num_vars(), in-bounds, verified). On
  // kUnsat and refutation != nullptr, *refutation receives the derivation
  // of the contradiction. The search is the same either way; without a
  // refutation to fill the solver records no derivation at all.
  Result solve(const System& system, std::vector<std::int64_t>* model,
               Certificate* refutation = nullptr);

  // The registry the counters went to (SolveOptions::stats or our own).
  const Stats& stats() const {
    return options_.stats != nullptr ? *options_.stats : stats_;
  }

 private:
  SolveOptions options_;
  Stats stats_;
};

}  // namespace rtlsat::fme
