// Producer/checker round trip for word-level certificates: every verdict
// the HDPLL solver emits with proof logging on must yield a certificate
// that the independent checker accepts — and an UNSAT verdict must carry
// an established refutation.

#include <gtest/gtest.h>

#include <string>

#include "core/hdpll.h"
#include "portfolio/clause_pool.h"
#include "proof/word_check.h"
#include "proof/word_writer.h"

namespace rtlsat::core {
namespace {

using ir::Circuit;
using ir::NetId;

struct RoundTrip {
  SolveStatus status = SolveStatus::kTimeout;
  proof::WordCheckResult check;
  std::string cert;
};

RoundTrip solve_and_check(const Circuit& c, NetId goal, HdpllOptions options,
                          bool trust_imports = false) {
  proof::WordCertWriter writer;
  options.proof = &writer;
  HdpllSolver solver(c, options);
  solver.assume_bool(goal, true);
  RoundTrip rt;
  rt.status = solver.solve().status;
  EXPECT_TRUE(writer.finished());
  rt.cert = writer.str();
  proof::WordCheckOptions check_options;
  check_options.trust_imports = trust_imports;
  rt.check = proof::word_check(rt.cert, check_options);
  return rt;
}

void expect_verified_unsat(const RoundTrip& rt) {
  ASSERT_EQ(rt.status, SolveStatus::kUnsat);
  EXPECT_TRUE(rt.check.ok) << rt.check.error << "\n" << rt.cert;
  EXPECT_TRUE(rt.check.refuted);
  EXPECT_EQ(rt.check.verdict, "unsat");
}

Circuit comparator_cycle() {
  // x < y ∧ y < x: refuted by the arithmetic end-game (cut/fme records).
  Circuit c("t");
  const NetId x = c.add_input("x", 8);
  const NetId y = c.add_input("y", 8);
  c.add_and(c.add_lt(x, y), c.add_lt(y, x));
  return c;
}

Circuit xor_triangle() {
  // a≠b ∧ b≠d ∧ a≠d: purely Boolean UNSAT (search + learned clauses).
  Circuit c("t");
  const NetId a = c.add_input("a", 1);
  const NetId b = c.add_input("b", 1);
  const NetId d = c.add_input("d", 1);
  c.add_and(c.add_and(c.add_xor(a, b), c.add_xor(b, d)), c.add_xor(a, d));
  return c;
}

Circuit increment_fixpoint() {
  // (x + 1) == x: wrap-aware arithmetic refutation.
  Circuit c("t");
  const NetId x = c.add_input("x", 6);
  c.add_eq(c.add_inc(x), x);
  return c;
}

NetId goal_of(const Circuit& c) { return c.num_nets() - 1; }

TEST(WordCertRoundTrip, ComparatorCycleUnsat) {
  const Circuit c = comparator_cycle();
  expect_verified_unsat(solve_and_check(c, goal_of(c), HdpllOptions{}));
}

TEST(WordCertRoundTrip, XorTriangleUnsat) {
  const Circuit c = xor_triangle();
  expect_verified_unsat(solve_and_check(c, goal_of(c), HdpllOptions{}));
}

TEST(WordCertRoundTrip, IncrementFixpointUnsat) {
  const Circuit c = increment_fixpoint();
  expect_verified_unsat(solve_and_check(c, goal_of(c), HdpllOptions{}));
}

TEST(WordCertRoundTrip, PredicateLearningConfig) {
  HdpllOptions options;
  options.structural_decisions = true;
  options.predicate_learning = true;
  for (const Circuit& c :
       {comparator_cycle(), xor_triangle(), increment_fixpoint()}) {
    expect_verified_unsat(solve_and_check(c, goal_of(c), options));
  }
}

TEST(WordCertRoundTrip, WordProbingConfig) {
  HdpllOptions options;
  options.structural_decisions = true;
  options.predicate_learning = true;
  options.learning.word_probing = true;
  for (const Circuit& c : {comparator_cycle(), increment_fixpoint()}) {
    expect_verified_unsat(solve_and_check(c, goal_of(c), options));
  }
}

TEST(WordCertRoundTrip, ReductionEmitsCheckableDeletions) {
  // Force clause-database sweeps so the certificate carries delc records.
  HdpllOptions options;
  options.reduction_base = 1;
  options.reduction_grow = 1.0;
  const Circuit c = xor_triangle();
  const RoundTrip rt = solve_and_check(c, goal_of(c), options);
  expect_verified_unsat(rt);
}

TEST(WordCertRoundTrip, SatVerdictCertificate) {
  // a + b == 100 ∧ a < 20: SAT — the certificate is a consistent
  // derivation log ending in a sat verdict, and the checker accepts it
  // without claiming a refutation.
  Circuit c("t");
  const NetId a = c.add_input("a", 8);
  const NetId b = c.add_input("b", 8);
  const NetId goal = c.add_and(c.add_eq(c.add_add(a, b), c.add_const(100, 8)),
                               c.add_lt(a, c.add_const(20, 8)));
  const RoundTrip rt = solve_and_check(c, goal, HdpllOptions{});
  ASSERT_EQ(rt.status, SolveStatus::kSat);
  EXPECT_TRUE(rt.check.ok) << rt.check.error;
  EXPECT_FALSE(rt.check.refuted);
  EXPECT_EQ(rt.check.verdict, "sat");
}

TEST(WordCertRoundTrip, AssumptionContradictionUnsat) {
  // Directly contradictory assumptions: the conflict0 'a' path.
  Circuit c("t");
  const NetId a = c.add_input("a", 1);
  proof::WordCertWriter writer;
  HdpllOptions options;
  options.proof = &writer;
  HdpllSolver solver(c, options);
  solver.assume_bool(a, true);
  solver.assume_bool(a, false);
  ASSERT_EQ(solver.solve().status, SolveStatus::kUnsat);
  const proof::WordCheckResult check = proof::word_check(writer.str());
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_TRUE(check.refuted);
}

TEST(WordCertRoundTrip, SharedImportCarriesProvenance) {
  // A clause imported from a portfolio peer is recorded with the
  // exporter's worker id and sequence number; the checker accepts the
  // certificate only when told to trust imports. The instance must need
  // search: imports splice in before the first decision, so a circuit
  // refuted during assumption propagation never reaches them.
  const Circuit c = xor_triangle();
  const NetId goal = goal_of(c);
  portfolio::ClausePool pool;
  {
    // Worker 7 publishes a (sound) unit consequence for the peer to adopt.
    HybridClause unit;
    unit.learnt = true;
    unit.origin = HybridClause::Origin::kConflict;
    unit.lits = {HybridLit::boolean(goal, true)};
    ASSERT_EQ(pool.publish(7, {unit}), 1u);
  }
  portfolio::PoolExchange exchange(&pool, /*worker=*/1);
  proof::WordCertWriter writer;
  HdpllOptions options;
  options.exchange = &exchange;
  options.proof = &writer;
  HdpllSolver solver(c, options);
  solver.assume_bool(goal, true);
  ASSERT_EQ(solver.solve().status, SolveStatus::kUnsat);
  const std::string cert = writer.str();
  EXPECT_NE(cert.find("\"t\":\"import\""), std::string::npos);
  EXPECT_NE(cert.find("\"worker\":7"), std::string::npos);
  EXPECT_NE(cert.find("\"seq\":0"), std::string::npos);

  // Untrusted imports are an error; trusted ones verify end to end.
  EXPECT_FALSE(proof::word_check(cert).ok);
  proof::WordCheckOptions trusting;
  trusting.trust_imports = true;
  const proof::WordCheckResult check = proof::word_check(cert, trusting);
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_TRUE(check.refuted);
}

TEST(WordCertRoundTrip, CertificateStatsFlow) {
  const Circuit c = xor_triangle();
  proof::WordCertWriter writer;
  HdpllOptions options;
  options.proof = &writer;
  HdpllSolver solver(c, options);
  solver.assume_bool(goal_of(c), true);
  ASSERT_EQ(solver.solve().status, SolveStatus::kUnsat);
  EXPECT_GT(solver.stats().get("proof.records"), 0);
  EXPECT_GT(solver.stats().get("proof.bytes"), 0);
  const proof::WordCheckResult check = proof::word_check(writer.str());
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_TRUE(check.refuted);
}

}  // namespace
}  // namespace rtlsat::core
