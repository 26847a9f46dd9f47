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
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "fme/linear.h"
#include "util/stats.h"
#include "util/stop_token.h"

namespace rtlsat::trace {
class Tracer;
}  // namespace rtlsat::trace

namespace rtlsat::fme {

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
  // integer solution (size = system.num_vars(), in-bounds, verified).
  Result solve(const System& system, std::vector<std::int64_t>* model);

  // The registry the counters went to (SolveOptions::stats or our own).
  const Stats& stats() const {
    return options_.stats != nullptr ? *options_.stats : stats_;
  }

 private:
  SolveOptions options_;
  Stats stats_;
};

}  // namespace rtlsat::fme
