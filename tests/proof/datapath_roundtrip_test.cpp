// Certificate round trip over the generated narrow-width datapath draw (the
// first 200 instances of fuzz::generate(Rng(7)) at 18–36 steps, no
// wide-stress draws): the traffic on which the FME end-game refutes
// branches. Every certificate must pass word_check, the FME refutations
// inside the cut and fme0 records are the solver's own derivations, and
// logging them must not change the search.
#include <gtest/gtest.h>

#include <string>

#include "core/hdpll.h"
#include "fuzz/generator.h"
#include "proof/word_check.h"
#include "proof/word_writer.h"
#include "util/rng.h"

namespace rtlsat::core {
namespace {

std::int64_t count_records(const std::string& cert, const std::string& type) {
  const std::string needle = "{\"t\":\"" + type + "\"";
  std::int64_t n = 0;
  for (std::size_t at = cert.find(needle); at != std::string::npos;
       at = cert.find(needle, at + 1))
    ++n;
  return n;
}

TEST(DatapathRoundTrip, EveryCertificateChecksAndSearchIsUnchanged) {
  fuzz::GeneratorOptions gen;
  gen.min_steps = 18;
  gen.max_steps = 36;
  gen.wide_stress_percent = 0;
  Rng rng(7);

  const char* const kCounters[] = {
      "hdpll.decisions", "hdpll.conflicts", "hdpll.arith_checks",
      "hdpll.arith_conflicts", "fme.calls", "fme.real_runs",
      "fme.dark_runs", "fme.splinters", "fme.rows_derived",
      "fme.rows_box_implied"};
  Stats plain_totals;
  Stats proof_totals;
  std::int64_t cuts = 0;
  std::int64_t fme0s = 0;
  for (int i = 0; i < 200; ++i) {
    const fuzz::FuzzInstance instance = fuzz::generate(rng, gen);
    HdpllOptions options;
    options.structural_decisions = true;  // the +S configuration
    options.timeout_seconds = 1;

    HdpllSolver plain(instance.circuit, options);
    plain.assume_bool(instance.goal, true);
    const SolveStatus plain_status = plain.solve().status;

    proof::WordCertWriter writer;
    options.proof = &writer;
    HdpllSolver logged(instance.circuit, options);
    logged.assume_bool(instance.goal, true);
    const SolveStatus logged_status = logged.solve().status;
    ASSERT_NE(logged_status, SolveStatus::kTimeout) << "instance " << i;
    EXPECT_EQ(logged_status, plain_status) << "instance " << i;

    const proof::WordCheckResult check = proof::word_check(writer.str());
    EXPECT_TRUE(check.ok) << "instance " << i << ": " << check.error;
    if (logged_status == SolveStatus::kUnsat) {
      EXPECT_TRUE(check.refuted) << "instance " << i;
    }
    cuts += count_records(writer.str(), "cut");
    fme0s += count_records(writer.str(), "fme0");
    for (const char* name : kCounters) {
      plain_totals.add(name, plain.stats().get(name));
      proof_totals.add(name, logged.stats().get(name));
    }
  }
  for (const char* name : kCounters)
    EXPECT_EQ(proof_totals.get(name), plain_totals.get(name)) << name;
  EXPECT_GT(plain_totals.get("hdpll.arith_conflicts"), 0);
  EXPECT_EQ(cuts, 18);
  EXPECT_EQ(fme0s, 1);
}

}  // namespace
}  // namespace rtlsat::core
