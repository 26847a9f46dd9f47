// Box-implied row pruning in the eliminator: a combined row whose maximum
// over the bounds box is at most its bound is dropped (the remaining
// variables' bound rows already imply it), a row one short of that is kept,
// and a row whose box maximum overflows 128 bits is kept. Also the
// stop-token poll inside elimination.
#include <gtest/gtest.h>

#include "fme/fme.h"
#include "util/stop_token.h"
#include "util/timer.h"

namespace rtlsat::fme {
namespace {

constexpr Coeff kTwo62 = Coeff{1} << 62;

TEST(FmePrune, BoxExtremeAndImplied) {
  const std::vector<Interval> box{Interval(0, 10), Interval(-3, 4)};
  const LinearConstraint row{{{0, 2}, {1, -5}}, 35};  // 2x − 5y ≤ 35
  EXPECT_EQ(box_extreme(row.terms, box, /*maximize=*/true), Bound{35});
  EXPECT_EQ(box_extreme(row.terms, box, /*maximize=*/false), Bound{-20});
  EXPECT_TRUE(box_implied(row, box));
  EXPECT_FALSE(box_implied(LinearConstraint{row.terms, 34}, box));

  // Eight terms of 2^62·2^62 sum to 2^127: past the int128 range, so no
  // extreme and never implied, whatever the bound.
  std::vector<Interval> wide(8, Interval(0, kTwo62));
  LinearConstraint big;
  for (Var v = 0; v < 8; ++v) big.terms.push_back({v, kTwo62});
  big.bound = Bound{1} << 120;
  EXPECT_FALSE(box_extreme(big.terms, wide, true).has_value());
  EXPECT_FALSE(box_implied(big, wide));
}

TEST(FmePrune, SharedIntegerHelpers) {
  EXPECT_EQ(floor_div(7, 2), 3);
  EXPECT_EQ(floor_div(-7, 2), -4);
  EXPECT_EQ(floor_div(-8, 2), -4);
  EXPECT_EQ(ceil_div(7, 2), 4);
  EXPECT_EQ(ceil_div(-7, 2), -3);
  EXPECT_EQ(ceil_div(8, 2), 4);
}

// x, y, z ∈ [0, 10] with x − y ≤ 5, z − x ≤ c, and y − z ≤ 10, z − y ≤ 10
// (implied by the box; they only make x the cheapest variable to
// eliminate). Eliminating x combines the first two rows into
// z − y ≤ 5 + c, whose box maximum is 10.
System chain(Coeff c) {
  System s;
  const Var x = s.add_var(Interval(0, 10));
  const Var y = s.add_var(Interval(0, 10));
  const Var z = s.add_var(Interval(0, 10));
  s.add_le({{x, 1}, {y, -1}}, 5);
  s.add_le({{x, -1}, {z, 1}}, c);
  s.add_le({{y, 1}, {z, -1}}, 10);
  s.add_le({{y, -1}, {z, 1}}, 10);
  return s;
}

TEST(FmePrune, RowAtItsBoxMaximumIsDropped) {
  // z − y ≤ 10 holds everywhere in the box. With it, every non-ground row
  // the eliminator combines is box-implied (three while eliminating x, two
  // while eliminating y), so none is kept.
  const System s = chain(5);
  Solver solver;
  std::vector<std::int64_t> model;
  ASSERT_EQ(solver.solve(s, &model), Result::kSat);
  for (const auto& c : s.constraints()) EXPECT_TRUE(satisfied(c, model));
  EXPECT_EQ(solver.stats().get("fme.rows_derived"), 0);
  EXPECT_EQ(solver.stats().get("fme.rows_box_implied"), 5);
}

TEST(FmePrune, RowOneBelowItsBoxMaximumIsKept) {
  // z − y ≤ 9 cuts off the corner z = 10, y = 0: it is kept, and it
  // replaces one of the y-elimination rows that used to be box-implied.
  const System s = chain(4);
  Solver solver;
  std::vector<std::int64_t> model;
  ASSERT_EQ(solver.solve(s, &model), Result::kSat);
  for (const auto& c : s.constraints()) EXPECT_TRUE(satisfied(c, model));
  EXPECT_EQ(solver.stats().get("fme.rows_derived"), 1);
  EXPECT_EQ(solver.stats().get("fme.rows_box_implied"), 5);
}

TEST(FmePrune, RowWhoseBoxSumOverflowsIsKept) {
  // x ∈ [0, 1]; y1..y8, z1..z8 ∈ [2^62 − 1, 2^62];
  //   x + 2^62·Σy − 2^62·Σz ≤ 0.
  // Eliminating x yields 2^62·Σy − 2^62·Σz ≤ 0, whose box maximum runs
  // through 8·2^124 = 2^127 while summing the y terms: it overflows, so the
  // row must be kept. Later combinations overflow the bound cap and the
  // solver splinters; the verdict is SAT (every y and z equal).
  System s;
  const Var x = s.add_var(Interval(0, 1));
  std::vector<Term> terms{{x, 1}};
  for (int i = 0; i < 8; ++i)
    terms.push_back({s.add_var(Interval(kTwo62 - 1, kTwo62)), kTwo62});
  for (int i = 0; i < 8; ++i)
    terms.push_back({s.add_var(Interval(kTwo62 - 1, kTwo62)), -kTwo62});
  s.add_le(terms, 0);

  Solver solver;
  std::vector<std::int64_t> model;
  ASSERT_EQ(solver.solve(s, &model), Result::kSat);
  EXPECT_TRUE(satisfied(s.constraints()[0], model));
  for (Var v = 0; v < s.num_vars(); ++v)
    EXPECT_TRUE(s.bounds(v).contains(model[v])) << v;
  EXPECT_GE(solver.stats().get("fme.rows_derived"), 1);
  EXPECT_EQ(solver.stats().get("fme.rows_box_implied"), 0);

  // With x ≥ 1 and Σy = Σz added, the first row reads x ≤ 0: UNSAT.
  System u = s;
  u.add_le({{x, -1}}, -1);  // x ≥ 1
  std::vector<Term> eq;
  for (Var v = 1; v <= 8; ++v) eq.push_back({v, 1});
  for (Var v = 9; v <= 16; ++v) eq.push_back({v, -1});
  u.add_eq(eq, 0);
  Solver unsat_solver;
  EXPECT_EQ(unsat_solver.solve(u, nullptr), Result::kUnsat);
}

// n copies of x + y ≤ 10 and of −x − y ≤ 10 over x, y ∈ [0, 10]: every
// combination across the two families is ground and true, so eliminating
// x costs n² combinations while the working set stays tiny.
System quadratic(int n) {
  System s;
  const Var x = s.add_var(Interval(0, 10));
  const Var y = s.add_var(Interval(0, 10));
  for (int i = 0; i < n; ++i) {
    s.add_le({{x, 1}, {y, 1}}, 10);
    s.add_le({{x, -1}, {y, -1}}, 10);
  }
  return s;
}

TEST(FmePrune, StopTokenPolledInsideElimination) {
  // Grow the system until one solve with an inert token takes ≥ 1 s.
  int n = 1000;
  double inert_seconds = 0;
  for (;; n += n / 2) {
    Solver solver;
    Timer timer;
    ASSERT_EQ(solver.solve(quadratic(n), nullptr), Result::kSat);
    inert_seconds = timer.seconds();
    if (inert_seconds >= 1.0) break;
  }
  const double deadline = 0.05;
  const StopToken token = StopToken::after(deadline);
  Solver solver(SolveOptions{.stop = &token});
  Timer timer;
  EXPECT_EQ(solver.solve(quadratic(n), nullptr), Result::kUnknown);
  const double stopped_seconds = timer.seconds();
  EXPECT_LT(stopped_seconds, 10 * deadline)
      << "n = " << n << ", inert solve took " << inert_seconds << " s";
  EXPECT_EQ(solver.stats().get("fme.stopped"), 1);
}

}  // namespace
}  // namespace rtlsat::fme
