#include "fme/certify.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>

namespace rtlsat::fme {

namespace {

using I128 = __int128;

// A constraint as the certifier tracks it: Σ coeff·var ≤ bound in exact
// 128-bit arithmetic, plus the proof reference that justifies it.
struct WorkCon {
  std::vector<std::pair<Var, I128>> terms;  // sorted by var, coeffs ≠ 0
  I128 bound = 0;
  ProofRef ref;
};

class Certifier {
 public:
  Certifier(const System& system, const CertifyOptions& options)
      : system_(system), options_(options) {}

  Certificate run() {
    std::vector<WorkCon> work;
    std::vector<std::pair<I128, I128>> bounds;      // value bounds per var
    std::vector<std::pair<ProofRef, ProofRef>> brefs;  // (lower, upper) refs
    const std::size_t n = system_.num_vars();
    bounds.reserve(n);
    brefs.reserve(n);
    for (Var v = 0; v < n; ++v) {
      const Interval& b = system_.bounds(v);
      bounds.emplace_back(b.lo(), b.hi());
      brefs.emplace_back(ProofRef{ProofRef::Kind::kLower, v},
                         ProofRef{ProofRef::Kind::kUpper, v});
    }
    // Empty variable domain: lo > hi refutes immediately via the two
    // bound axioms.
    for (Var v = 0; v < n; ++v) {
      if (bounds[v].first > bounds[v].second) {
        WorkCon upper{{{v, I128{1}}}, bounds[v].second, brefs[v].second};
        WorkCon lower{{{v, I128{-1}}}, -bounds[v].first, brefs[v].first};
        WorkCon out;
        if (!emit_comb_owned({{brefs[v].second, 1}, {brefs[v].first, 1}},
                             {upper, lower}, &out))
          return take();
        cert_.ok = true;
        return take();
      }
    }
    const auto& cons = system_.constraints();
    for (std::uint32_t i = 0; i < cons.size(); ++i) {
      WorkCon w;
      w.ref = ProofRef{ProofRef::Kind::kConstraint, i};
      w.bound = cons[i].bound;
      for (const Term& t : cons[i].terms)
        w.terms.emplace_back(t.var, static_cast<I128>(t.coeff));
      std::sort(w.terms.begin(), w.terms.end());
      if (w.terms.empty()) {
        if (w.bound < 0) {
          // Ground-violated base constraint: restate it as a step so the
          // checker sees an explicit empty negative derivation.
          WorkCon out;
          if (!emit_comb_owned({{w.ref, 1}}, {w}, &out)) return take();
          cert_.ok = true;
          return take();
        }
        continue;
      }
      work.push_back(std::move(w));
    }
    if (refute(std::move(work), bounds, brefs, 0)) cert_.ok = true;
    return take();
  }

 private:
  Certificate take() {
    if (!cert_.ok && cert_.failure.empty())
      cert_.failure = "refutation search failed";
    return std::move(cert_);
  }

  bool fail(const std::string& why) {
    if (cert_.failure.empty()) cert_.failure = why;
    return false;
  }

  // Step ids: kComb/kDiv derive their result, kSplit derives the left-case
  // hypothesis, kCase the right-case hypothesis — all four take the next
  // sequential id. kQed derives nothing. The checker counts identically.
  std::uint32_t push_step(CertStep step) {
    cert_.steps.push_back(std::move(step));
    return next_id_++;
  }

  // Emits Σ coeff·ref as a kComb step (optionally gcd-normalized with a
  // follow-up kDiv), resolving the refs through `resolved` — the caller
  // passes the actual term/bound content of each ref since the certifier
  // tracks content alongside refs in WorkCon form. Returns false on
  // arithmetic overflow (certification failure). `out` receives the final
  // derived constraint with its ref.
  //
  // The two-vector overload below is a convenience for bound-vs-bound
  // combinations where no WorkCon exists yet.
  // Pure combination arithmetic: Σ lambda·source, no step emitted. Lets
  // the elimination loop inspect a candidate row (box-redundancy and
  // dominance tests below) before spending a proof step on it.
  bool compute_comb(const std::vector<std::pair<ProofRef, I128>>& combo,
                    const std::vector<const WorkCon*>& sources,
                    std::vector<std::pair<Var, I128>>* terms, I128* bound_out) {
    std::map<Var, I128> sum;
    I128 bound = 0;
    for (std::size_t i = 0; i < combo.size(); ++i) {
      const I128 lambda = combo[i].second;
      const WorkCon& src = *sources[i];
      for (const auto& [var, coeff] : src.terms) {
        I128 prod = 0;
        if (__builtin_mul_overflow(lambda, coeff, &prod))
          return fail("coefficient overflow in combination");
        I128& slot = sum[var];
        if (__builtin_add_overflow(slot, prod, &slot))
          return fail("coefficient overflow in combination");
      }
      I128 prod = 0;
      if (__builtin_mul_overflow(lambda, src.bound, &prod))
        return fail("bound overflow in combination");
      if (__builtin_add_overflow(bound, prod, &bound))
        return fail("bound overflow in combination");
    }
    terms->clear();
    for (const auto& [var, coeff] : sum)
      if (coeff != 0) terms->emplace_back(var, coeff);
    *bound_out = bound;
    return true;
  }

  bool emit_comb(const std::vector<std::pair<ProofRef, I128>>& combo,
                 const std::vector<const WorkCon*>& sources, WorkCon* out) {
    if (cert_.steps.size() >= options_.max_steps)
      return fail("step budget exhausted");
    std::vector<std::pair<Var, I128>> terms;
    I128 bound = 0;
    if (!compute_comb(combo, sources, &terms, &bound)) return false;
    CertStep step;
    step.kind = CertStep::Kind::kComb;
    step.combo = combo;
    const std::uint32_t id = push_step(std::move(step));
    out->terms = std::move(terms);
    out->bound = bound;
    out->ref = ProofRef{ProofRef::Kind::kStep, id};
    // Chvátal–Gomory rounding: divide by the coefficient gcd and floor
    // the bound — strictly stronger over the integers and keeps numbers
    // small across elimination rounds.
    if (!out->terms.empty()) {
      I128 g = 0;
      for (const auto& [var, coeff] : out->terms) g = gcd(g, coeff);
      if (g > 1) {
        if (cert_.steps.size() >= options_.max_steps)
          return fail("step budget exhausted");
        CertStep div;
        div.kind = CertStep::Kind::kDiv;
        div.div_of = out->ref;
        div.divisor = g;
        const std::uint32_t did = push_step(std::move(div));
        for (auto& [var, coeff] : out->terms) coeff /= g;
        out->bound = floor_div(out->bound, g);
        out->ref = ProofRef{ProofRef::Kind::kStep, did};
      }
    }
    return true;
  }

  // Convenience overload for combinations over axioms that have no
  // WorkCon in the current working set: the caller supplies the content
  // of each referenced constraint by value.
  bool emit_comb_owned(const std::vector<std::pair<ProofRef, I128>>& combo,
                       std::vector<WorkCon> owned, WorkCon* out) {
    std::vector<const WorkCon*> sources;
    sources.reserve(owned.size());
    for (const WorkCon& w : owned) sources.push_back(&w);
    return emit_comb(combo, sources, out);
  }

  // The row's minimum over the bounds box exceeds its bound: cancel every
  // term against the matching bound axiom. The result is an empty negative
  // combination, i.e. an explicit contradiction closing the current scope.
  // This mirrors the bound propagation that usually detects the conflict
  // in the solver, and is what keeps certificates short when the full
  // elimination would blow up.
  bool close_by_bounds(const WorkCon& row,
                       const std::vector<std::pair<I128, I128>>& bounds,
                       const std::vector<std::pair<ProofRef, ProofRef>>& brefs) {
    std::vector<std::pair<ProofRef, I128>> combo{{row.ref, I128{1}}};
    std::vector<WorkCon> owned;
    owned.push_back(row);
    for (const auto& [var, coeff] : row.terms) {
      WorkCon axiom;
      if (coeff > 0) {
        axiom.terms = {{var, I128{-1}}};
        axiom.bound = -bounds[var].first;
        axiom.ref = brefs[var].first;
        combo.emplace_back(axiom.ref, coeff);
      } else {
        axiom.terms = {{var, I128{1}}};
        axiom.bound = bounds[var].second;
        axiom.ref = brefs[var].second;
        combo.emplace_back(axiom.ref, -coeff);
      }
      owned.push_back(std::move(axiom));
    }
    WorkCon out;
    if (!emit_comb_owned(combo, std::move(owned), &out)) return false;
    if (!out.terms.empty() || out.bound >= 0)
      return fail("bound-axiom closure did not cancel");
    return true;
  }

  // CG-normalized (gcd-reduced, floor-rounded) view of a row, used as the
  // dominance key so syntactically different derivations of the same
  // inequality collide.
  static std::pair<std::vector<std::pair<Var, I128>>, I128> norm_row(
      std::vector<std::pair<Var, I128>> terms, I128 bound) {
    I128 g = 0;
    for (const auto& [var, coeff] : terms) g = gcd(g, coeff);
    if (g > 1) {
      for (auto& [var, coeff] : terms) coeff /= g;
      bound = floor_div(bound, g);
    }
    return {std::move(terms), bound};
  }

  // Refutes the scope described by `work` (non-ground constraints) under
  // per-variable bounds `bounds` justified by `brefs`. Emits steps; true
  // iff a contradiction step closed the scope.
  bool refute(std::vector<WorkCon> work,
              std::vector<std::pair<I128, I128>> bounds,
              std::vector<std::pair<ProofRef, ProofRef>> brefs, int depth) {
    if (depth > options_.max_split_depth) return fail("split depth exceeded");

    // Bound tightening to fixpoint — the proof-emitting mirror of the
    // solver's presolve, and the main defense against FME blowup: each
    // improved bound is a Farkas combination of a row with the other
    // variables' bound axioms (CG-rounded by the variable's coefficient),
    // and the derived single-variable row replaces that side's axiom ref.
    // A row infeasible over the box closes the scope in one combination —
    // the common case inside split branches, where the hypothesis bound
    // kills a base constraint outright.
    bool changed = true;
    for (int round = 0; changed && round < 64; ++round) {
      changed = false;
      std::vector<WorkCon> kept;
      for (WorkCon& c : work) {
        // An extreme that overflows skips its test: the row then simply
        // goes through the full elimination.
        const std::optional<I128> lo =
            box_extreme(c.terms, bounds, /*maximize=*/false);
        if (lo && *lo > c.bound) return close_by_bounds(c, bounds, brefs);
        const std::optional<I128> hi =
            box_extreme(c.terms, bounds, /*maximize=*/true);
        if (hi && *hi <= c.bound) continue;  // box-implied: drop, no step
        for (const auto& [t, ct] : c.terms) {
          // room = bound − min of the other terms over the (current) box.
          std::vector<std::pair<Var, I128>> rest;
          for (const auto& term : c.terms)
            if (term.first != t) rest.push_back(term);
          const std::optional<I128> rest_min =
              box_extreme(rest, bounds, /*maximize=*/false);
          if (!rest_min) continue;
          I128 room = 0;
          if (__builtin_sub_overflow(c.bound, *rest_min, &room)) continue;
          const I128 nb =
              ct > 0 ? floor_div(room, ct) : -floor_div(room, -ct);
          // Only spend a step on a strict improvement.
          if (ct > 0 ? nb >= bounds[t].second : nb <= bounds[t].first)
            continue;
          std::vector<std::pair<ProofRef, I128>> combo{{c.ref, I128{1}}};
          std::vector<WorkCon> owned;
          owned.push_back(c);
          for (const auto& [u, cu] : c.terms) {
            if (u == t) continue;
            WorkCon axiom;
            if (cu > 0) {
              axiom.terms = {{u, I128{-1}}};
              axiom.bound = -bounds[u].first;
              axiom.ref = brefs[u].first;
            } else {
              axiom.terms = {{u, I128{1}}};
              axiom.bound = bounds[u].second;
              axiom.ref = brefs[u].second;
            }
            combo.emplace_back(axiom.ref, cu > 0 ? cu : -cu);
            owned.push_back(std::move(axiom));
          }
          // The derived row is single-variable (±1 after CG rounding); its
          // bound, not our preview, becomes the new axiom so the WorkCon
          // view can never drift from what the emitted step proves.
          WorkCon derived;
          if (!emit_comb_owned(combo, std::move(owned), &derived))
            return false;
          if (ct > 0) {
            bounds[t].second = derived.bound;
            brefs[t].second = derived.ref;
          } else {
            bounds[t].first = -derived.bound;
            brefs[t].first = derived.ref;
          }
          if (bounds[t].first > bounds[t].second)
            return close_by_bounds(derived, bounds, brefs);
          changed = true;
        }
        kept.push_back(std::move(c));
      }
      work = std::move(kept);
    }
    const std::vector<WorkCon> original = work;  // for split restarts

    // Collect the variables still mentioned.
    auto active_vars = [&work] {
      std::vector<Var> vars;
      for (const WorkCon& c : work)
        for (const auto& [var, coeff] : c.terms) vars.push_back(var);
      std::sort(vars.begin(), vars.end());
      vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
      return vars;
    };

    for (std::vector<Var> vars = active_vars(); !vars.empty();
         vars = active_vars()) {
      if (work.size() >
          static_cast<std::size_t>(options_.max_constraints))
        return fail("constraint budget exhausted");
      // Cheapest variable first: fewest pos×neg combinations.
      Var best = vars.front();
      std::size_t best_score = SIZE_MAX;
      for (const Var v : vars) {
        std::size_t pos = 1, neg = 1;  // the two bound axioms
        for (const WorkCon& c : work) {
          for (const auto& [var, coeff] : c.terms) {
            if (var != v) continue;
            (coeff > 0 ? pos : neg) += 1;
          }
        }
        const std::size_t score = pos * neg;
        if (score < best_score) {
          best_score = score;
          best = v;
        }
      }
      const Var v = best;

      WorkCon upper;  // x_v ≤ hi
      upper.terms = {{v, I128{1}}};
      upper.bound = bounds[v].second;
      upper.ref = brefs[v].second;
      WorkCon lower;  // −x_v ≤ −lo
      lower.terms = {{v, I128{-1}}};
      lower.bound = -bounds[v].first;
      lower.ref = brefs[v].first;

      std::vector<const WorkCon*> pos{&upper};
      std::vector<const WorkCon*> neg{&lower};
      std::vector<WorkCon> next;
      for (const WorkCon& c : work) {
        I128 coeff = 0;
        for (const auto& [var, cf] : c.terms)
          if (var == v) coeff = cf;
        if (coeff > 0)
          pos.push_back(&c);
        else if (coeff < 0)
          neg.push_back(&c);
        else
          next.push_back(c);
      }
      // Strongest bound seen per normalized term vector among the rows
      // surviving into the next round — weaker duplicates are skipped
      // without spending a proof step. Only rows still in `next` may
      // dominate: a row consumed by this elimination must not suppress a
      // rederivation of the same inequality.
      std::map<std::vector<std::pair<Var, I128>>, I128> strongest;
      for (const WorkCon& c : next) {
        auto [key, nb] = norm_row(c.terms, c.bound);
        const auto it = strongest.find(key);
        if (it == strongest.end() || nb < it->second)
          strongest[std::move(key)] = nb;
      }
      for (const WorkCon* p : pos) {
        for (const WorkCon* q : neg) {
          if (p == &upper && q == &lower) continue;  // hi−lo ≥ 0 here
          I128 a = 0, b = 0;  // a = p's coeff on v (>0), b = −q's (>0)
          for (const auto& [var, cf] : p->terms)
            if (var == v) a = cf;
          for (const auto& [var, cf] : q->terms)
            if (var == v) b = -cf;
          const I128 g = gcd(a, b);
          const std::vector<std::pair<ProofRef, I128>> combo{
              {p->ref, b / g}, {q->ref, a / g}};
          // Inspect the candidate before emitting: rows implied by the
          // bounds box and rows dominated by an already-kept bound carry
          // no refutation power and only feed the FME blowup.
          std::vector<std::pair<Var, I128>> cterms;
          I128 cbound = 0;
          if (!compute_comb(combo, {p, q}, &cterms, &cbound)) return false;
          if (cterms.empty()) {
            if (cbound >= 0) continue;  // trivially satisfied: no step
            WorkCon derived;
            if (!emit_comb(combo, {p, q}, &derived)) return false;
            return true;  // contradiction: scope closed
          }
          auto [key, nbound] = norm_row(cterms, cbound);
          const std::optional<I128> lo = box_extreme(key, bounds, false);
          const std::optional<I128> hi = box_extreme(key, bounds, true);
          if (hi && *hi <= nbound) continue;  // box-implied: redundant
          const auto it = strongest.find(key);
          if (it != strongest.end() && it->second <= nbound) continue;
          WorkCon derived;
          if (!emit_comb(combo, {p, q}, &derived)) return false;
          if (lo && *lo > nbound)
            return close_by_bounds(derived, bounds, brefs);
          strongest[std::move(key)] = nbound;
          next.push_back(std::move(derived));
        }
      }
      work = std::move(next);
    }

    // Real shadow is feasible at this scope: branch on an integer
    // variable with the narrowest non-point domain.
    Var split_var = 0;
    I128 split_span = -1;
    std::vector<Var> cand;
    for (const WorkCon& c : original)
      for (const auto& [var, coeff] : c.terms) cand.push_back(var);
    std::sort(cand.begin(), cand.end());
    cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
    for (const Var v : cand) {
      const I128 span = bounds[v].second - bounds[v].first;
      if (span >= 1 && (split_span < 0 || span < split_span)) {
        split_span = span;
        split_var = v;
      }
    }
    if (split_span < 0) {
      // Every variable pinned and no contradiction: the point satisfies
      // all constraints, so the system is integer-feasible. The caller
      // believed it UNSAT — surface this loudly.
      return fail("system is integer-feasible (soundness alarm)");
    }
    const I128 at =
        bounds[split_var].first + (bounds[split_var].second -
                                   bounds[split_var].first) / 2;

    if (cert_.steps.size() + 2 >= options_.max_steps)
      return fail("step budget exhausted");
    CertStep split;
    split.kind = CertStep::Kind::kSplit;
    split.split_var = split_var;
    split.split_at = at;
    const std::uint32_t left_hyp = push_step(std::move(split));
    {
      auto b2 = bounds;
      auto r2 = brefs;
      b2[split_var].second = at;
      r2[split_var].second = ProofRef{ProofRef::Kind::kStep, left_hyp};
      if (!refute(original, std::move(b2), std::move(r2), depth + 1))
        return false;
    }
    CertStep case_step;
    case_step.kind = CertStep::Kind::kCase;
    const std::uint32_t right_hyp = push_step(std::move(case_step));
    {
      auto b2 = bounds;
      auto r2 = brefs;
      b2[split_var].first = at + 1;
      r2[split_var].first = ProofRef{ProofRef::Kind::kStep, right_hyp};
      if (!refute(original, std::move(b2), std::move(r2), depth + 1))
        return false;
    }
    CertStep qed;
    qed.kind = CertStep::Kind::kQed;
    cert_.steps.push_back(std::move(qed));  // derives nothing: no id
    return true;
  }

  const System& system_;
  const CertifyOptions& options_;
  Certificate cert_;
  std::uint32_t next_id_ = 0;
};

}  // namespace

Certificate certify_unsat(const System& system, CertifyOptions options) {
  return Certifier(system, options).run();
}

}  // namespace rtlsat::fme
