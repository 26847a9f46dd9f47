// Independent answers for benchmark jobs: each job's expected verdict comes
// from outside the engine under test, and each verdict the engine returns is
// checked against it. A disagreement is a failed job; nothing is filtered or
// re-drawn.
//
//  * ITC'99 BMC instances: a recorded verdict table (recorded_verdict),
//    citing EXPERIMENTS.md and the paper's Table 2.
//  * Generated instances: bit-blast CDCL answers computed at set-up.
//  * SAT models: replayed through ir::Circuit::evaluate.
//  * Certified UNSAT frames: re-checked by proof::word_check (bmc_sweep).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness.h"
#include "ir/circuit.h"

namespace e2e {

namespace ir = rtlsat::ir;

// Recorded verdict of the ITC'99 instance "<model>_<property>(<bound>)"
// (violation exactly at `bound`). kUndecided when the table has no entry —
// the workloads only draw instances the table covers.
Verdict recorded_verdict(const std::string& model, const std::string& property,
                         int bound);

// Bit-blast CDCL answer for "goal = 1" (no time limit).
Verdict bitblast_verdict(const ir::Circuit& circuit, ir::NetId goal);

// Replays an input model through Circuit::evaluate: true iff every primary
// input has a value and the goal evaluates to 1.
bool replay_model(const ir::Circuit& circuit, ir::NetId goal,
                  const std::unordered_map<ir::NetId, std::int64_t>& model);

// kSat ↔ kUnsat (the self-tests' injected wrong answer).
Verdict inverted(Verdict v);

// Compares a returned verdict with the expected one. Returns the failure
// line ("" when the job passes). An undecided answer is not a failure (it
// counts against decided_frac); a decided answer that differs is.
std::string verdict_failure(const std::string& job, Verdict expected,
                            Verdict got);

// Renames every net declared in an .rtl text ("(input NAME", "(net NAME",
// "(register NAME") to "<prefix><index>", keeping declaration order, so the
// renamed text parses to the same net ids. `renamed` receives old → new.
std::string rename_nets(const std::string& text, const std::string& prefix,
                        std::unordered_map<std::string, std::string>* renamed);

// Net-name prefix for a benchmark seed: `tag`, 4 hex digits, '_'. It has
// the same length for every seed, so renamed texts keep their size.
std::string seed_prefix(char tag, std::uint64_t seed);

// `name` after rename_nets (unchanged when it was not a declared net).
std::string renamed_name(
    const std::unordered_map<std::string, std::string>& renamed,
    const std::string& name);

}  // namespace e2e
