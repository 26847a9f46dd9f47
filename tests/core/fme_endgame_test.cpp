// The FME end-game on a committed regression: a generated narrow-width
// instance whose one end-game check took about 10 s while the eliminator
// kept rows the bounds box already implied (tests/regress/fme-box-blowup.rtl).
// The verdict must match bit-blast CDCL, and the eliminator's work must stay
// near what it is with box-implied rows pruned.
#include <gtest/gtest.h>

#include <string>

#include "bitblast/bitblast.h"
#include "core/hdpll.h"
#include "fuzz/reduce.h"

#ifndef RTLSAT_REGRESS_DIR
#error "RTLSAT_REGRESS_DIR must point at the committed corpus"
#endif

namespace rtlsat::core {
namespace {

TEST(FmeEndgame, BoxBlowupRegressionStaysSmall) {
  ir::NetId goal = ir::kNoNet;
  const ir::Circuit circuit = fuzz::load_repro_file(
      std::string(RTLSAT_REGRESS_DIR) + "/fme-box-blowup.rtl", &goal);
  const bitblast::CheckResult expected = bitblast::check_sat(circuit, goal);
  ASSERT_EQ(expected.result, sat::Result::kSat);

  HdpllOptions options;
  options.structural_decisions = true;  // the +S configuration
  options.timeout_seconds = 60;         // generous: the solve takes ms
  HdpllSolver solver(circuit, options);
  solver.assume_bool(goal, true);
  const SolveResult result = solver.solve();
  ASSERT_EQ(result.status, SolveStatus::kSat);
  EXPECT_EQ(circuit.evaluate(result.input_model)[goal], 1);

  // FME counters land in the solver's own registry.
  const Stats& stats = solver.stats();
  EXPECT_GT(stats.get("fme.calls"), 0);
  EXPECT_GT(stats.get("fme.rows_box_implied"), 0);
  // Measured: 185 rows kept (644 dropped as box-implied) over 11 FME
  // calls.
  EXPECT_LE(stats.get("fme.rows_derived"), 1000);
}

}  // namespace
}  // namespace rtlsat::core
