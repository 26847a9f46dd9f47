// Linear integer constraints over bounded variables — the input language of
// the Fourier–Motzkin end-game solver (paper §2.4: "the solution box P is
// checked for a point solution using an integer-linear solver that performs
// Fourier-Motzkin elimination").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "interval/interval.h"
#include "util/assert.h"

namespace rtlsat::fme {

using Var = std::uint32_t;
using Coeff = std::int64_t;
// Constraint bounds live in 128 bits: extraction at width ≤ 60 emits
// coefficients up to 2^60, so substituting a point variable (or combining
// two constraints during elimination) produces bounds past int64 — doing
// that arithmetic in Coeff silently wrapped and once flipped a satisfiable
// shl-by-59 instance to UNSAT (tests/regress/shl-saturation.rtl).
using Bound = __int128;

struct Term {
  Var var = 0;
  Coeff coeff = 0;
};

// Σ terms ≤ bound. Terms are kept sorted by var with nonzero coefficients
// and at most one term per var (normalize() enforces this).
struct LinearConstraint {
  std::vector<Term> terms;
  Bound bound = 0;

  void normalize();
  bool is_ground() const { return terms.empty(); }
  // For a ground constraint: satisfied iff 0 ≤ bound.
  bool ground_holds() const { return bound >= 0; }
  Coeff coeff_of(Var v) const;
  std::string to_string() const;
};

// Exact 128-bit integer helpers shared by the solver and the offline
// certificate checker. The divisor must be positive (C++ '/' truncates
// toward zero; these round toward −∞ / +∞).
inline Bound floor_div(Bound a, Bound b) {
  RTLSAT_ASSERT(b > 0);
  Bound q = a / b;
  if (a % b != 0 && a < 0) --q;
  return q;
}
inline Bound ceil_div(Bound a, Bound b) {
  RTLSAT_ASSERT(b > 0);
  Bound q = a / b;
  if (a % b != 0 && a > 0) ++q;
  return q;
}

// Extreme of Σ coeff·var over the bounds box — the maximum when `maximize`,
// else the minimum. nullopt on 128-bit overflow: callers must then skip
// whatever test they wanted the extreme for.
inline std::optional<Bound> box_extreme(const std::vector<Term>& terms,
                                        const std::vector<Interval>& box,
                                        bool maximize) {
  Bound acc = 0;
  for (const Term& t : terms) {
    const Interval& b = box[t.var];
    const Bound pick = (t.coeff > 0) == maximize ? b.hi() : b.lo();
    Bound prod = 0;
    if (__builtin_mul_overflow(static_cast<Bound>(t.coeff), pick, &prod) ||
        __builtin_add_overflow(acc, prod, &acc))
      return std::nullopt;
  }
  return acc;
}

// True when every point of the box satisfies `c`, so the row adds nothing
// to the box. False when the box maximum overflows 128 bits.
inline bool box_implied(const LinearConstraint& c,
                        const std::vector<Interval>& box) {
  const std::optional<Bound> max = box_extreme(c.terms, box, true);
  return max.has_value() && *max <= c.bound;
}

// Evaluate Σ terms under an assignment; true when the constraint holds.
bool satisfied(const LinearConstraint& c,
               const std::vector<std::int64_t>& assignment);

// A conjunction of linear constraints over variables with interval bounds.
class System {
 public:
  Var add_var(Interval bounds);
  std::size_t num_vars() const { return bounds_.size(); }
  const Interval& bounds(Var v) const { return bounds_[v]; }
  void restrict_bounds(Var v, const Interval& b) {
    bounds_[v] = bounds_[v].intersect(b);
  }

  // Σ a_i·x_i ≤ c.
  void add_le(std::vector<Term> terms, Coeff c);
  // Σ a_i·x_i = c (expands to two inequalities at solve time).
  void add_eq(std::vector<Term> terms, Coeff c);
  // Convenience forms used by the arithmetic extraction.
  void add_le_1(Var x, Coeff a, Coeff c) { add_le({{x, a}}, c); }
  void add_eq_2(Var x, Coeff a, Var y, Coeff b, Coeff c) {
    add_eq({{x, a}, {y, b}}, c);
  }

  const std::vector<LinearConstraint>& constraints() const {
    return constraints_;
  }

  std::string to_string() const;

 private:
  std::vector<Interval> bounds_;
  std::vector<LinearConstraint> constraints_;
};

}  // namespace rtlsat::fme
