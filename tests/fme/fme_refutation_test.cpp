// Refutations written by fme::Solver itself: one hand-built system per way
// the solver reaches UNSAT, each replayed by the independent checker
// (proof::check_fme_refutation) through the certificate writer and parser.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "fme/fme.h"
#include "proof/word_check.h"
#include "proof/word_writer.h"

namespace rtlsat::fme {
namespace {

constexpr Coeff kTwo62 = Coeff{1} << 62;

proof::FmeCheckResult replay(const System& system, const Certificate& cert) {
  return proof::check_fme_refutation(
      proof::fme_json(proof::fme_cert(system, cert)));
}

// Solves `system`, which must be UNSAT, and checks its refutation.
Certificate refute(const System& system, Solver& solver) {
  Certificate cert;
  EXPECT_EQ(solver.solve(system, nullptr, &cert), Result::kUnsat);
  const proof::FmeCheckResult check = replay(system, cert);
  EXPECT_TRUE(check.ok) << check.error << "\n" << system.to_string();
  return cert;
}

int count(const Certificate& cert, CertStep::Kind kind) {
  int n = 0;
  for (const CertStep& s : cert.steps) n += s.kind == kind ? 1 : 0;
  return n;
}

// 2x + 2y − 2z = 1 over small boxes: no integer point (the left side is
// even), but presolve cannot narrow it and its real shadow is feasible, so
// only splintering refutes it.
System odd_parity() {
  System s;
  const Var x = s.add_var(Interval(0, 5));
  const Var y = s.add_var(Interval(0, 5));
  const Var z = s.add_var(Interval(0, 5));
  s.add_eq({{x, 2}, {y, 2}, {z, -2}}, 1);
  return s;
}

TEST(FmeRefutation, EmptyDomain) {
  System s;
  const Var x = s.add_var(Interval(0, 5));
  s.add_le({{x, 1}}, 3);
  s.restrict_bounds(x, Interval(7, 9));
  Solver solver;
  const Certificate cert = refute(s, solver);
  ASSERT_EQ(cert.steps.size(), 1u);  // x ≤ 5 plus −x ≤ −7
  EXPECT_EQ(cert.steps[0].kind, CertStep::Kind::kComb);
}

TEST(FmeRefutation, ViolatedGroundRow) {
  System s;
  const Var x = s.add_var(Interval(0, 5));
  s.add_le({{x, 1}}, 3);
  s.add_le({}, -1);  // 0 ≤ −1
  Solver solver;
  const Certificate cert = refute(s, solver);
  ASSERT_EQ(cert.steps.size(), 1u);
  EXPECT_EQ(cert.steps[0].combo.size(), 1u);
  EXPECT_EQ(cert.steps[0].combo[0].first.kind, ProofRef::Kind::kConstraint);
}

TEST(FmeRefutation, PresolveContradiction) {
  // 3x ≤ 20 folds to x ≤ 6 (a div), −y ≤ −2 gives y ≥ 2, and x + y ≤ 7
  // then tightens x ≤ 5 against −2x ≤ −11, i.e. x ≥ 6 (another div).
  System s;
  const Var x = s.add_var(Interval(0, 10));
  const Var y = s.add_var(Interval(0, 10));
  s.add_le({{x, 3}}, 20);
  s.add_le({{y, -1}}, -2);
  s.add_le({{x, 1}, {y, 1}}, 7);
  s.add_le({{x, -2}}, -11);
  Solver solver;
  const Certificate cert = refute(s, solver);
  EXPECT_EQ(solver.stats().get("fme.real_runs"), 0);  // presolve decided
  EXPECT_GE(count(cert, CertStep::Kind::kDiv), 1);
  EXPECT_EQ(count(cert, CertStep::Kind::kSplit), 0);
}

TEST(FmeRefutation, RealShadowFarkas) {
  // x < y and y < x: presolve narrows both boxes a little each round but
  // cannot empty them in its 16 rounds; eliminating x sums the two rows to
  // 0 ≤ −2.
  System s;
  const Var x = s.add_var(Interval(0, 100));
  const Var y = s.add_var(Interval(0, 100));
  s.add_le({{x, 1}, {y, -1}}, -1);
  s.add_le({{y, 1}, {x, -1}}, -1);
  Solver solver;
  const Certificate cert = refute(s, solver);
  EXPECT_EQ(solver.stats().get("fme.real_runs"), 1);
  EXPECT_EQ(solver.stats().get("fme.splinters"), 0);
  // Only the final combination is needed: both rows are base constraints.
  ASSERT_EQ(cert.steps.size(), 1u);
  EXPECT_EQ(cert.steps[0].combo.size(), 2u);
}

TEST(FmeRefutation, RealShadowKeepsDerivedRows) {
  // 2·row0 + 3·row1 + row2 reads 0 ≤ −6, but the eliminator gets there
  // only through a kept row: eliminating x first keeps 4·row0 + 2·row2,
  // whose multipliers differ.
  System s;
  const Var x = s.add_var(Interval(0, 100));
  const Var y = s.add_var(Interval(0, 100));
  const Var z = s.add_var(Interval(0, 100));
  s.add_le({{x, 2}, {y, -3}}, -1);
  s.add_le({{y, 2}, {z, -1}}, -1);
  s.add_le({{z, 3}, {x, -4}}, -1);
  Solver solver;
  const Certificate cert = refute(s, solver);
  EXPECT_EQ(solver.stats().get("fme.real_runs"), 1);
  EXPECT_EQ(solver.stats().get("fme.splinters"), 0);
  EXPECT_GE(count(cert, CertStep::Kind::kComb), 2);
}

TEST(FmeRefutation, PointSubstitution) {
  // x is pinned to 3, so 2x + y − z ≤ 0 becomes y − z ≤ −6, which z − y ≤ 5
  // contradicts. The substituted row is a comb with x's bound row.
  System s;
  const Var x = s.add_var(Interval(3, 3));
  const Var y = s.add_var(Interval(0, 100));
  const Var z = s.add_var(Interval(0, 100));
  s.add_le({{x, 2}, {y, 1}, {z, -1}}, 0);
  s.add_le({{z, 1}, {y, -1}}, 5);
  Solver solver;
  const Certificate cert = refute(s, solver);
  EXPECT_EQ(solver.stats().get("fme.real_runs"), 1);
  ASSERT_EQ(cert.steps.size(), 2u);
  EXPECT_EQ(cert.steps[0].combo.size(), 2u);  // row 0 plus 2·(−x ≤ −3)
  EXPECT_EQ(cert.steps[0].combo[1].first.kind, ProofRef::Kind::kLower);
}

TEST(FmeRefutation, ChangedMultiplierIsRejected) {
  System s;
  const Var x = s.add_var(Interval(0, 100));
  const Var y = s.add_var(Interval(0, 100));
  s.add_le({{x, 1}, {y, -1}}, -1);
  s.add_le({{y, 1}, {x, -1}}, -1);
  Solver solver;
  Certificate cert = refute(s, solver);
  ASSERT_FALSE(cert.steps.empty());
  ASSERT_EQ(cert.steps[0].kind, CertStep::Kind::kComb);
  cert.steps[0].combo[0].second += 1;  // x − y no longer cancels
  const proof::FmeCheckResult check = replay(s, cert);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("contradiction"), std::string::npos)
      << check.error;
}

TEST(FmeRefutation, BisectionSplinter) {
  // With enumeration off every split halves a domain.
  SolveOptions options;
  options.enumerate_limit = 1;
  Solver solver(options);
  const Certificate cert = refute(odd_parity(), solver);
  EXPECT_GT(solver.stats().get("fme.splinters"), 0);
  EXPECT_GT(count(cert, CertStep::Kind::kSplit), 0);
  EXPECT_EQ(count(cert, CertStep::Kind::kSplit),
            count(cert, CertStep::Kind::kQed));
  // The first split halves x's box [0, 5].
  const auto first = std::find_if(
      cert.steps.begin(), cert.steps.end(),
      [](const CertStep& st) { return st.kind == CertStep::Kind::kSplit; });
  ASSERT_NE(first, cert.steps.end());
  EXPECT_EQ(first->split_var, 0u);
  EXPECT_EQ(first->split_at, 2);
}

TEST(FmeRefutation, EnumerationChain) {
  // x's six values are tried one by one: splits at x = 0, 1, …, 4, and the
  // last case (x ≥ 5) needs no split of its own.
  Solver solver;
  const Certificate cert = refute(odd_parity(), solver);
  std::vector<Bound> x_splits;
  for (const CertStep& st : cert.steps) {
    if (st.kind == CertStep::Kind::kSplit && st.split_var == 0)
      x_splits.push_back(st.split_at);
  }
  EXPECT_EQ(x_splits, (std::vector<Bound>{0, 1, 2, 3, 4}));
  EXPECT_EQ(count(cert, CertStep::Kind::kSplit),
            count(cert, CertStep::Kind::kCase));
}

TEST(FmeRefutation, TwoComponents) {
  // {x, y} with x = y is satisfiable; {u, v} with u < v < u is not. Only
  // the second component's rows may appear in the refutation.
  System s;
  const Var x = s.add_var(Interval(0, 100));
  const Var y = s.add_var(Interval(0, 100));
  const Var u = s.add_var(Interval(0, 100));
  const Var v = s.add_var(Interval(0, 100));
  s.add_eq({{x, 1}, {y, -1}}, 0);       // rows 0, 1
  s.add_le({{u, 1}, {v, -1}}, -1);      // row 2
  s.add_le({{v, 1}, {u, -1}}, -1);      // row 3
  Solver solver;
  const Certificate cert = refute(s, solver);
  EXPECT_EQ(solver.stats().get("fme.real_runs"), 2);
  for (const CertStep& st : cert.steps) {
    for (const auto& [ref, lambda] : st.combo) {
      if (ref.kind == ProofRef::Kind::kConstraint) {
        EXPECT_GE(ref.index, 2u);
      } else if (ref.kind != ProofRef::Kind::kStep) {
        EXPECT_GE(ref.index, u);  // a bound of u or v
      }
    }
  }
}

TEST(FmeRefutation, OverflowRoutedToSplinter) {
  // Eliminating a variable pairs coefficients near 2^62, whose products
  // leave int64: both shadows overflow, so the refutation comes from
  // splintering.
  constexpr Coeff kMax = std::numeric_limits<Coeff>::max();
  System s;
  const Var x0 = s.add_var(Interval(0, 2));
  const Var x1 = s.add_var(Interval(0, 5));
  const Var x2 = s.add_var(Interval(0, 1));
  s.add_le({{x0, -kTwo62}, {x1, kTwo62 - 1}, {x2, kTwo62}}, kMax - 7);
  s.add_le({{x0, kTwo62 - 1}, {x1, 1 - kTwo62}, {x2, 1 - kTwo62}},
           -(kMax - 4));
  Solver solver;
  const Certificate cert = refute(s, solver);
  EXPECT_EQ(solver.stats().get("fme.dark_runs"), 1);
  EXPECT_EQ(solver.stats().get("fme.splinters"), 1);
  EXPECT_GT(count(cert, CertStep::Kind::kSplit), 0);
}

TEST(FmeRefutation, SameSearchWithoutACertificate) {
  // Without a certificate the search is the same; a SAT answer leaves the
  // certificate untouched.
  Solver with;
  Solver without;
  Certificate cert;
  EXPECT_EQ(with.solve(odd_parity(), nullptr, &cert), Result::kUnsat);
  EXPECT_EQ(without.solve(odd_parity(), nullptr), Result::kUnsat);
  EXPECT_EQ(with.stats().get("fme.calls"), without.stats().get("fme.calls"));

  System sat;
  const Var x = sat.add_var(Interval(0, 5));
  sat.add_le({{x, 2}}, 7);
  Certificate untouched;
  EXPECT_EQ(with.solve(sat, nullptr, &untouched), Result::kSat);
  EXPECT_TRUE(untouched.steps.empty());
}

}  // namespace
}  // namespace rtlsat::fme
