#include "fme/fme.h"

#include <algorithm>
#include <array>
#include <limits>
#include <map>
#include <optional>

#include "trace/trace.h"
#include "util/assert.h"
#include "util/log.h"

namespace rtlsat::fme {

namespace {

using I128 = __int128;
constexpr Coeff kCoeffMax = std::numeric_limits<Coeff>::max();
constexpr Coeff kCoeffMin = std::numeric_limits<Coeff>::min();

bool fits64(I128 v) {
  return v >= static_cast<I128>(kCoeffMin) && v <= static_cast<I128>(kCoeffMax);
}

// Ceiling on combined-constraint bounds (see combine()): large enough for
// any single extraction step at kMaxWidth (≤ ~2^123), small enough that
// later 128-bit bound arithmetic cannot overflow.
constexpr I128 kBoundCap = I128{1} << 100;

// Row combinations between two stop-token polls during elimination, which
// keeps the deadline's clock read off the per-combination path.
constexpr std::uint64_t kStopPollRows = 1024;

// Tightening a variable to "v ≤ q" / "v ≥ q" where q came out of a 128-bit
// division: a quotient past int64 can never bind an int64-bounded domain
// from that side, and one past the opposite rail empties it.
Interval clamp_at_most(const Interval& b, I128 q) {
  if (q >= static_cast<I128>(kCoeffMax)) return b;
  if (q < static_cast<I128>(kCoeffMin)) return Interval::empty();
  return b.at_most(static_cast<Coeff>(q));
}
Interval clamp_at_least(const Interval& b, I128 q) {
  if (q <= static_cast<I128>(kCoeffMin)) return b;
  if (q > static_cast<I128>(kCoeffMax)) return Interval::empty();
  return b.at_least(static_cast<Coeff>(q));
}

// The derivation behind a refutation, recorded only when solve() was handed
// a Certificate to fill. Each node is one CertStep whose kStep references
// index this arena; extract() writes out just the ancestors of the final
// contradiction, renumbered the way the checker numbers steps.
//
// The solver derives in depth-first order, so a split's left case, its
// right case and its kQed sit contiguous after the kSplit node, and every
// reference points back into the same or an enclosing scope. Dropping the
// nodes no contradiction needs (rows of SAT components, abandoned splits,
// box-implied work) therefore keeps the flat list well scoped.
class ProofArena {
 public:
  ProofRef comb(std::vector<std::pair<ProofRef, Bound>> combo) {
    CertStep step;
    step.combo = std::move(combo);
    return push(std::move(step));
  }
  // `of` divided by `divisor`, rounding the bound down; `of` itself when
  // the divisor is 1.
  ProofRef div(ProofRef of, Bound divisor) {
    if (divisor == 1) return of;
    CertStep step;
    step.kind = CertStep::Kind::kDiv;
    step.div_of = of;
    step.divisor = divisor;
    return push(std::move(step));
  }
  // Opens a split; the result is the left hypothesis var ≤ at.
  ProofRef split(Var var, Coeff at) {
    CertStep step;
    step.kind = CertStep::Kind::kSplit;
    step.split_var = var;
    step.split_at = at;
    return push(std::move(step));
  }
  // Closes the left case with `contradiction`; the result is the right
  // hypothesis var ≥ at+1.
  ProofRef right_case(ProofRef split, ProofRef contradiction) {
    CertStep step;
    step.kind = CertStep::Kind::kCase;
    return push(std::move(step), {split.index, contradiction.index});
  }
  // Closes the right case with `contradiction`, which discharges the split.
  ProofRef qed(ProofRef right_case, ProofRef contradiction) {
    CertStep step;
    step.kind = CertStep::Kind::kQed;
    return push(std::move(step), {right_case.index, contradiction.index});
  }

  Certificate extract(ProofRef contradiction) const {
    std::vector<bool> needed(nodes_.size(), false);
    std::vector<std::uint32_t> stack{contradiction.index};
    const auto follow = [&stack](const ProofRef& ref) {
      if (ref.kind == ProofRef::Kind::kStep) stack.push_back(ref.index);
    };
    while (!stack.empty()) {
      const std::uint32_t i = stack.back();
      stack.pop_back();
      if (needed[i]) continue;
      needed[i] = true;
      const Node& node = nodes_[i];
      for (const auto& [ref, lambda] : node.step.combo) follow(ref);
      if (node.step.kind == CertStep::Kind::kDiv) follow(node.step.div_of);
      if (node.step.kind == CertStep::Kind::kCase ||
          node.step.kind == CertStep::Kind::kQed)
        stack.insert(stack.end(), node.closes.begin(), node.closes.end());
    }
    Certificate out;
    std::vector<std::uint32_t> id(nodes_.size(), 0);
    std::uint32_t next = 0;
    const auto renumber = [&id](ProofRef& ref) {
      if (ref.kind == ProofRef::Kind::kStep) ref.index = id[ref.index];
    };
    for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
      if (!needed[i]) continue;
      CertStep step = nodes_[i].step;
      for (auto& [ref, lambda] : step.combo) renumber(ref);
      if (step.kind == CertStep::Kind::kDiv) renumber(step.div_of);
      if (step.kind != CertStep::Kind::kQed) id[i] = next++;  // qed: no id
      out.steps.push_back(std::move(step));
    }
    return out;
  }

 private:
  struct Node {
    CertStep step;
    // kCase: {split, left contradiction}; kQed: {case, right
    // contradiction}. Followed by extract(), never written out.
    std::array<std::uint32_t, 2> closes{};
  };

  ProofRef push(CertStep step, std::array<std::uint32_t, 2> closes = {}) {
    nodes_.push_back({std::move(step), closes});
    return {ProofRef::Kind::kStep,
            static_cast<std::uint32_t>(nodes_.size() - 1)};
  }

  std::vector<Node> nodes_;
};

// A working row: the constraint plus the refutation node that derives it
// (left at its default when no refutation is being recorded).
struct Row : LinearConstraint {
  ProofRef why;
};

// A self-contained subproblem: interval bounds plus constraints, with
// variable ids from the original System.
struct Problem {
  std::vector<Interval> bounds;
  std::vector<Row> constraints;
  // The rows x ≤ hi and −x ≤ −lo behind each bound; empty unless a
  // refutation is being recorded.
  std::vector<ProofRef> hi_why;
  std::vector<ProofRef> lo_why;
};

// One variable elimination record, kept for back-substitution: the
// constraints that mentioned the variable, as they stood when eliminated.
struct Elimination {
  Var var = 0;
  std::vector<Row> uppers;  // positive coefficient on var
  std::vector<Row> lowers;  // negative coefficient on var
};

// kStopped: the stop token fired mid-elimination; no verdict either way.
enum class ShadowResult { kFeasible, kInfeasible, kBlowup, kStopped };

// `arena` (null for the dark shadow and when no refutation is recorded)
// receives every row the elimination keeps and the row that proves the
// real shadow infeasible.
class Eliminator {
 public:
  Eliminator(const Problem& problem, bool dark, const SolveOptions& options,
             ProofArena* arena)
      : problem_(problem), dark_(dark), options_(options), arena_(arena) {}

  ShadowResult run() {
    // Bounds become ordinary constraints so elimination sees them.
    work_ = problem_.constraints;
    std::vector<bool> used(problem_.bounds.size(), false);
    for (const auto& c : work_) {
      for (const Term& t : c.terms) used[t.var] = true;
    }
    const bool proof = arena_ != nullptr;
    for (Var v = 0; v < problem_.bounds.size(); ++v) {
      if (!used[v]) continue;  // unconstrained: any in-bounds value works
      const Interval& b = problem_.bounds[v];
      work_.push_back(
          {{{{v, 1}}, b.hi()}, proof ? problem_.hi_why[v] : ProofRef{}});
      work_.push_back(
          {{{{v, -1}}, -b.lo()}, proof ? problem_.lo_why[v] : ProofRef{}});
      remaining_.push_back(v);
    }
    if (!drop_ground()) return ShadowResult::kInfeasible;

    while (!remaining_.empty()) {
      const ShadowResult r = eliminate(pick_variable());
      if (r != ShadowResult::kFeasible) return r;
      if (work_.size() > options_.max_constraints)
        return ShadowResult::kBlowup;
    }
    return ShadowResult::kFeasible;
  }

  bool all_exact() const { return all_exact_; }
  bool overflowed() const { return overflow_; }
  // After kInfeasible without overflow: the violated ground row.
  ProofRef contradiction() const { return contradiction_; }
  // Combined rows kept in the working set / dropped as implied by the box.
  std::int64_t rows_derived() const { return rows_derived_; }
  std::int64_t rows_box_implied() const { return rows_box_implied_; }

  // Assigns the eliminated variables in reverse order; unassigned entries in
  // `model` must be pre-set for variables outside this component.
  bool extract_model(std::vector<std::int64_t>& model) const {
    std::vector<bool> assigned(problem_.bounds.size(), false);
    for (auto it = steps_.rbegin(); it != steps_.rend(); ++it) {
      I128 lo = problem_.bounds[it->var].lo();
      I128 hi = problem_.bounds[it->var].hi();
      for (const auto& c : it->uppers) {  // a·v + rest ≤ bound, a > 0
        const Coeff a = c.coeff_of(it->var);
        I128 rest = 0;
        for (const Term& t : c.terms) {
          if (t.var != it->var) rest += static_cast<I128>(t.coeff) * model[t.var];
        }
        hi = std::min(hi, floor_div(c.bound - rest, a));
      }
      for (const auto& c : it->lowers) {  // −b·v + rest ≤ bound, b > 0
        const Coeff b = -c.coeff_of(it->var);
        I128 rest = 0;
        for (const Term& t : c.terms) {
          if (t.var != it->var) rest += static_cast<I128>(t.coeff) * model[t.var];
        }
        lo = std::max(lo, ceil_div(rest - c.bound, b));
      }
      if (lo > hi) return false;  // real shadow was hollow here
      model[it->var] = static_cast<Coeff>(lo);  // in [bounds.lo, hi] ⊆ int64
      assigned[it->var] = true;
    }
    return true;
  }

 private:
  // Removes ground constraints; false if a violated one was found.
  bool drop_ground() {
    for (auto& c : work_) {
      if (c.is_ground() && !c.ground_holds()) {
        contradiction_ = c.why;
        return false;
      }
    }
    std::erase_if(work_, [](const Row& c) { return c.is_ground(); });
    return true;
  }

  // The remaining variable with the fewest pos×neg combinations; ties go
  // to the first in remaining_. One pass over the working set.
  Var pick_variable() {
    pos_.assign(problem_.bounds.size(), 0);
    neg_.assign(problem_.bounds.size(), 0);
    for (const auto& c : work_) {
      for (const Term& t : c.terms) ++(t.coeff > 0 ? pos_ : neg_)[t.var];
    }
    Var best = remaining_.front();
    std::uint64_t best_cost = std::numeric_limits<std::uint64_t>::max();
    for (Var v : remaining_) {
      const std::uint64_t cost = pos_[v] * neg_[v];
      if (cost < best_cost) {
        best_cost = cost;
        best = v;
      }
    }
    return best;
  }

  // Eliminates v: kFeasible to go on, kInfeasible on a violated ground row
  // or an overflow (overflowed() tells them apart), kStopped on the token.
  //
  // A combined row that the bounds box implies is dropped: every remaining
  // variable's two bound rows are still in work_, so the row is implied by
  // work_ itself and removing it leaves every later shadow (real or dark)
  // and every back-substituted model the same.
  ShadowResult eliminate(Var v) {
    Elimination step;
    step.var = v;
    std::vector<Row> rest;
    for (auto& c : work_) {
      const Coeff a = c.coeff_of(v);
      if (a > 0) {
        step.uppers.push_back(std::move(c));
      } else if (a < 0) {
        step.lowers.push_back(std::move(c));
      } else {
        rest.push_back(std::move(c));
      }
    }
    work_ = std::move(rest);

    for (const auto& up : step.uppers) {
      const Coeff a = up.coeff_of(v);
      for (const auto& low : step.lowers) {
        if (options_.stop != nullptr && ++since_poll_ % kStopPollRows == 0 &&
            options_.stop->stop_requested())
          return ShadowResult::kStopped;
        const Coeff b = -low.coeff_of(v);
        if (a != 1 && b != 1) all_exact_ = false;
        Row combined;
        if (!combine(up, low, v, a, b, combined))
          return ShadowResult::kInfeasible;  // overflow_ is set
        combined.normalize();
        if (combined.is_ground()) {
          if (!combined.ground_holds()) {
            if (arena_ != nullptr)
              contradiction_ = arena_->comb({{up.why, b}, {low.why, a}});
            return ShadowResult::kInfeasible;
          }
        } else if (box_implied(combined, problem_.bounds)) {
          ++rows_box_implied_;
        } else {
          ++rows_derived_;
          if (arena_ != nullptr)
            combined.why = arena_->comb({{up.why, b}, {low.why, a}});
          work_.push_back(std::move(combined));
        }
      }
    }
    std::erase(remaining_, v);
    steps_.push_back(std::move(step));
    return ShadowResult::kFeasible;
  }

  // combined = b·up + a·low with the v terms cancelling; dark shadow
  // subtracts (a−1)(b−1) from the slack. Returns false on coefficient
  // overflow, which the caller maps to a blowup/splinter.
  bool combine(const Row& up, const Row& low, Var v, Coeff a, Coeff b,
               Row& combined) {
    std::map<Var, I128> sum;
    for (const Term& t : up.terms) {
      if (t.var != v) sum[t.var] += static_cast<I128>(b) * t.coeff;
    }
    for (const Term& t : low.terms) {
      if (t.var != v) sum[t.var] += static_cast<I128>(a) * t.coeff;
    }
    // The bound products can overflow even 128 bits once bounds have grown
    // through earlier combinations; any overflow routes to the splinter
    // path. kBoundCap leaves headroom for the point substitutions and
    // presolve arithmetic downstream, which are unchecked.
    I128 bu = 0, al = 0, bound = 0;
    if (__builtin_mul_overflow(static_cast<I128>(b), up.bound, &bu) ||
        __builtin_mul_overflow(static_cast<I128>(a), low.bound, &al) ||
        __builtin_add_overflow(bu, al, &bound)) {
      overflow_ = true;
      return false;
    }
    if (dark_) bound -= static_cast<I128>(a - 1) * (b - 1);
    if (bound < -kBoundCap || bound > kBoundCap) {
      overflow_ = true;
      return false;
    }
    for (const auto& [var, coeff] : sum) {
      if (!fits64(coeff)) {
        overflow_ = true;
        return false;
      }
      if (coeff != 0) combined.terms.push_back({var, static_cast<Coeff>(coeff)});
    }
    combined.bound = bound;
    return true;
  }

  const Problem& problem_;
  const bool dark_;
  const SolveOptions& options_;
  ProofArena* const arena_;
  ProofRef contradiction_;
  std::vector<Row> work_;
  std::vector<Var> remaining_;
  std::vector<Elimination> steps_;
  std::vector<std::uint64_t> pos_, neg_;  // pick_variable() scratch
  std::uint64_t since_poll_ = 0;
  std::int64_t rows_derived_ = 0;
  std::int64_t rows_box_implied_ = 0;
  bool all_exact_ = true;
  bool overflow_ = false;
};

// Union-find for the connected-component decomposition.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) x = parent_[x] = parent_[parent_[x]];
    return x;
  }
  void merge(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

// `arena` is null unless a refutation is being recorded. With one, every
// kUnsat leaves contradiction() naming the node that refutes the problem
// that solve() was handed.
class Driver {
 public:
  Driver(const SolveOptions& options, Stats& stats, ProofArena* arena)
      : options_(options), stats_(stats), arena_(arena) {}

  ProofRef contradiction() const { return contradiction_; }

  Result solve(Problem problem, std::vector<std::int64_t>& model, int depth) {
    stats_.add("fme.calls", 1);
    if (options_.stop != nullptr && options_.stop->stop_requested())
      return stopped();
    if (depth > options_.max_splinter_depth) {
      // Should be unreachable (domains are finite); fail safe on the sound
      // side for UNSAT claims by exhaustively enumerating would be
      // exponential — treat as internal error instead.
      RTLSAT_UNREACHABLE("fme splinter depth exceeded");
    }
    if (!presolve(problem)) return Result::kUnsat;
    substitute_points(problem);
    std::erase_if(problem.constraints, [](const Row& c) {
      return c.is_ground() && c.ground_holds();
    });
    for (const auto& c : problem.constraints) {
      if (c.is_ground() && !c.ground_holds()) return unsat(c.why);
    }

    // Default every variable to its lower bound; constraints below refine.
    for (Var v = 0; v < problem.bounds.size(); ++v) model[v] = problem.bounds[v].lo();
    if (problem.constraints.empty()) return Result::kSat;

    // Connected components share no variables, so they solve independently.
    UnionFind uf(problem.bounds.size());
    for (const auto& c : problem.constraints) {
      for (std::size_t i = 1; i < c.terms.size(); ++i)
        uf.merge(c.terms[0].var, c.terms[i].var);
    }
    std::map<std::size_t, Problem> components;
    for (const auto& c : problem.constraints) {
      auto& comp = components[uf.find(c.terms[0].var)];
      if (comp.bounds.empty()) {
        comp.bounds = problem.bounds;
        comp.hi_why = problem.hi_why;
        comp.lo_why = problem.lo_why;
      }
      comp.constraints.push_back(c);
    }
    for (auto& [root, comp] : components) {
      // Solve on a scratch copy and merge back only this component's
      // variables: splinter recursion re-defaults every entry of the model
      // it is handed, which must not clobber earlier components.
      std::vector<std::int64_t> comp_model = model;
      const Result comp_result = solve_component(comp, comp_model, depth);
      if (comp_result != Result::kSat) return comp_result;
      for (const auto& c : comp.constraints) {
        for (const Term& t : c.terms) model[t.var] = comp_model[t.var];
      }
    }
    return Result::kSat;
  }

 private:
  // kUnsat because of `why`: a row 0 ≤ negative bound, or a discharged
  // split. A base row is restated as a step, which is what closes a scope.
  Result unsat(ProofRef why) {
    if (arena_ != nullptr) {
      contradiction_ =
          why.kind == ProofRef::Kind::kStep ? why : arena_->comb({{why, 1}});
    }
    return Result::kUnsat;
  }

  // c plus |coeff| times the bound row that meets each picked term at its
  // box minimum: −x ≤ −lo for a positive coefficient, x ≤ hi for a
  // negative one. The picked terms cancel out, so the result is c with
  // them replaced by their minimum. Records nothing without an arena.
  template <class Pick>
  ProofRef cancel(const Problem& problem, const Row& c, Pick pick) {
    if (arena_ == nullptr) return {};
    std::vector<std::pair<ProofRef, Bound>> combo{{c.why, 1}};
    for (const Term& t : c.terms) {
      if (!pick(t)) continue;
      if (t.coeff > 0) {
        combo.push_back({problem.lo_why[t.var], t.coeff});
      } else {
        combo.push_back({problem.hi_why[t.var], -Bound{t.coeff}});
      }
    }
    return combo.size() == 1 ? c.why : arena_->comb(std::move(combo));
  }

  // Folds single-variable constraints into the bounds and tightens every
  // variable of a multi-variable constraint against the box extremes of
  // the others. Returns false on an empty domain or a violated ground row.
  bool presolve(Problem& problem) {
    bool changed = true;
    int rounds = 0;
    while (changed && rounds++ < 16) {
      changed = false;
      std::vector<Row> kept;
      for (auto& c : problem.constraints) {
        if (c.is_ground()) {
          if (!c.ground_holds()) {
            unsat(c.why);
            return false;
          }
          continue;
        }
        for (const Term& t : c.terms) {
          if (!tighten(problem, c, t, changed)) return false;
        }
        // A single-variable row is now its variable's bound.
        if (c.terms.size() > 1) kept.push_back(std::move(c));
      }
      problem.constraints = std::move(kept);
    }
    return true;
  }

  // Bounds t.var by row c with every other term at its box minimum. When
  // that tightens the bound, the row that proves it (c with the others
  // cancelled, divided by |t.coeff|) becomes the bound's provenance.
  // False when the domain empties.
  bool tighten(Problem& problem, const Row& c, const Term& t, bool& changed) {
    I128 rest_min = 0;
    for (const Term& u : c.terms) {
      if (u.var == t.var) continue;
      const Interval& ub = problem.bounds[u.var];
      rest_min +=
          static_cast<I128>(u.coeff) * (u.coeff > 0 ? ub.lo() : ub.hi());
    }
    const I128 room = c.bound - rest_min;
    Interval& b = problem.bounds[t.var];
    const Interval before = b;
    if (t.coeff > 0) {
      b = clamp_at_most(b, floor_div(room, t.coeff));
    } else {
      b = clamp_at_least(b, ceil_div(-room, -t.coeff));
    }
    if (b == before) return true;
    changed = true;
    if (arena_ != nullptr) {
      const ProofRef row = arena_->div(
          cancel(problem, c, [&t](const Term& u) { return u.var != t.var; }),
          t.coeff > 0 ? Bound{t.coeff} : -Bound{t.coeff});
      (t.coeff > 0 ? problem.hi_why : problem.lo_why)[t.var] = row;
      if (b.is_empty()) {
        contradiction_ = arena_->comb(
            {{problem.hi_why[t.var], 1}, {problem.lo_why[t.var], 1}});
      }
    }
    return !b.is_empty();
  }

  // Substitutes point-valued variables into the constraints. The products
  // here routinely exceed int64 (coefficient 2^60 × point value 2^59), which
  // is why the bound is 128-bit.
  void substitute_points(Problem& problem) {
    for (auto& c : problem.constraints) {
      c.why = cancel(problem, c, [&problem](const Term& t) {
        return problem.bounds[t.var].is_point();
      });
      std::vector<Term> kept;
      for (const Term& t : c.terms) {
        const Interval& b = problem.bounds[t.var];
        if (b.is_point()) {
          c.bound -= static_cast<I128>(t.coeff) * b.lo();
        } else {
          kept.push_back(t);
        }
      }
      c.terms = std::move(kept);
    }
  }

  Result solve_component(const Problem& problem,
                         std::vector<std::int64_t>& model, int depth) {
    // Real shadow first: its infeasibility is an exact UNSAT answer.
    Eliminator real(problem, /*dark=*/false, options_, arena_);
    const ShadowResult real_result = real.run();
    count_run(real, "fme.real_runs");
    if (real_result == ShadowResult::kStopped) return stopped();
    if (real_result == ShadowResult::kInfeasible && !real.overflowed())
      return unsat(real.contradiction());
    if (real_result == ShadowResult::kFeasible && real.all_exact()) {
      if (real.extract_model(model) && verify(problem, model))
        return Result::kSat;
    }
    if (real_result == ShadowResult::kFeasible || real.overflowed() ||
        real_result == ShadowResult::kBlowup) {
      // Try the dark shadow: feasibility here is an exact SAT answer, so
      // it never contributes to a refutation.
      Eliminator dark(problem, /*dark=*/true, options_, nullptr);
      const ShadowResult dark_result = dark.run();
      count_run(dark, "fme.dark_runs");
      if (dark_result == ShadowResult::kStopped) return stopped();
      if (dark_result == ShadowResult::kFeasible &&
          dark.extract_model(model) && verify(problem, model)) {
        return Result::kSat;
      }
    }
    // Undecided: splinter on some variable.
    return splinter(problem, model, depth);
  }

  void count_run(const Eliminator& run, const char* runs_counter) {
    stats_.add(runs_counter, 1);
    stats_.add("fme.rows_derived", run.rows_derived());
    stats_.add("fme.rows_box_implied", run.rows_box_implied());
  }

  Result stopped() {
    stats_.add("fme.stopped", 1);
    return Result::kUnknown;
  }

  Result splinter(const Problem& problem, std::vector<std::int64_t>& model,
                  int depth) {
    stats_.add("fme.splinters", 1);
    // Branch on the narrowest non-point variable that appears in a
    // constraint (a point variable would have been substituted).
    Var best = 0;
    std::uint64_t best_count = 0;
    bool found = false;
    for (const auto& c : problem.constraints) {
      for (const Term& t : c.terms) {
        const std::uint64_t n = problem.bounds[t.var].count();
        if (n >= 2 && (!found || n < best_count)) {
          best = t.var;
          best_count = n;
          found = true;
        }
      }
    }
    if (!found) {
      // All variables pinned: direct check.
      for (Var v = 0; v < problem.bounds.size(); ++v)
        model[v] = problem.bounds[v].lo();
      for (const auto& c : problem.constraints) {
        if (!satisfied(c, model))
          return unsat(cancel(problem, c, [](const Term&) { return true; }));
      }
      return Result::kSat;
    }

    // Small domains go value by value, larger ones in two halves. Either
    // way the cases form a chain of splits — x ≤ p, else x ≤ p′, … — and
    // the last case takes the rest of the domain.
    //
    // A kUnknown from any case (stop token fired) must surface — claiming
    // UNSAT after an abandoned case would be unsound.
    const Interval b = problem.bounds[best];
    const bool enumerate = b.count() <= options_.enumerate_limit;
    const Coeff mid = b.lo() + static_cast<Coeff>(b.count() / 2) - 1;
    std::vector<ProofRef> cases;  // right hypotheses awaiting their qed
    for (Coeff from = b.lo();;) {
      const bool last = enumerate ? from == b.hi() : from > mid;
      const Coeff to = last ? b.hi() : enumerate ? from : mid;
      Problem sub = problem;
      sub.bounds[best] = Interval(from, to);
      ProofRef split;
      if (arena_ != nullptr) {
        if (!cases.empty()) sub.lo_why[best] = cases.back();
        if (!last) sub.hi_why[best] = split = arena_->split(best, to);
      }
      const Result r = solve(std::move(sub), model, depth + 1);
      if (r != Result::kUnsat) return r;
      if (last) break;
      if (arena_ != nullptr)
        cases.push_back(arena_->right_case(split, contradiction_));
      from = to + 1;
    }
    if (arena_ != nullptr) {
      for (auto it = cases.rbegin(); it != cases.rend(); ++it)
        contradiction_ = arena_->qed(*it, contradiction_);
    }
    return Result::kUnsat;
  }

  // Checks the model against this problem's constraints and the bounds of
  // the variables they mention (other variables belong to sibling
  // components and are validated there).
  static bool verify(const Problem& problem,
                     const std::vector<std::int64_t>& model) {
    for (const auto& c : problem.constraints) {
      for (const Term& t : c.terms) {
        if (!problem.bounds[t.var].contains(model[t.var])) return false;
      }
      if (!satisfied(c, model)) return false;
    }
    return true;
  }

  const SolveOptions& options_;
  Stats& stats_;
  ProofArena* const arena_;
  ProofRef contradiction_;
};

}  // namespace

Result Solver::solve(const System& system, std::vector<std::int64_t>* model,
                     Certificate* refutation) {
  std::optional<ProofArena> arena;
  if (refutation != nullptr) arena.emplace();
  ProofArena* const proof = arena ? &*arena : nullptr;

  Problem problem;
  problem.bounds.reserve(system.num_vars());
  for (Var v = 0; v < system.num_vars(); ++v) {
    const ProofRef upper{ProofRef::Kind::kUpper, v};
    const ProofRef lower{ProofRef::Kind::kLower, v};
    const Interval& b = system.bounds(v);
    if (b.is_empty()) {
      if (proof != nullptr)
        *refutation = proof->extract(proof->comb({{upper, 1}, {lower, 1}}));
      return Result::kUnsat;
    }
    problem.bounds.push_back(b);
    if (proof != nullptr) {
      problem.hi_why.push_back(upper);
      problem.lo_why.push_back(lower);
    }
  }
  const std::vector<LinearConstraint>& rows = system.constraints();
  problem.constraints.reserve(rows.size());
  for (std::uint32_t i = 0; i < rows.size(); ++i) {
    problem.constraints.push_back({rows[i], {ProofRef::Kind::kConstraint, i}});
    problem.constraints.back().normalize();
  }

  std::vector<std::int64_t> scratch(system.num_vars(), 0);
  Driver driver(options_,
                options_.stats != nullptr ? *options_.stats : stats_, proof);
  const std::size_t num_constraints = problem.constraints.size();
  const Result result = driver.solve(std::move(problem), scratch, 0);
  if (result == Result::kSat && model != nullptr) *model = std::move(scratch);
  if (result == Result::kUnsat && proof != nullptr)
    *refutation = proof->extract(driver.contradiction());
  trace::Tracer* tracer =
      options_.tracer != nullptr ? options_.tracer : &trace::global();
  tracer->record(trace::EventKind::kFmeSolve, 0,
                 static_cast<std::int64_t>(num_constraints),
                 result == Result::kSat     ? 1
                 : result == Result::kUnsat ? 0
                                            : -1);  // -1 = stopped mid-solve
  return result;
}

}  // namespace rtlsat::fme
