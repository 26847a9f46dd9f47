// Property-based fuzzers for the interval-arithmetic rules and the FME
// feasibility solver — the oracle matrix's two leaf theories, checked
// against brute-force ground truth rather than against each other.
//
// Soundness contracts checked (interval layer, interval_ops.h):
//   forward:  fwd_op(X, Y) ⊇ { op(x, y) : x ∈ X, y ∈ Y }   (image)
//   backward: back_op(Z, Y) ⊇ { x : op(x, y) ∈ Z, y ∈ Y }  (preimage)
//   narrow:   narrow_rel(X, Y) keeps every (x, y) with x rel y
// Exhaustive at small widths (every interval pair of a width enumerated),
// randomized with rail-endpoint intervals at int64 scale where exhaustion
// is impossible. FME verdicts are checked against a naive enumerator over
// the variable boxes, and FME models against the constraint system.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"

namespace rtlsat::fuzz {

// Enumerates every sub-interval pair of ⟨0, 2^width − 1⟩ and checks every
// fwd_*/back_*/narrow_* rule's containment contract against brute-force
// image/preimage computation. Returns violation descriptions (empty =
// sound). `checks`, when non-null, receives the number of individual
// (rule, interval-tuple) contracts tested — the unit tests assert it to
// guard against the suite silently going vacuous. Practical for width ≤ 5;
// cost grows as O(16^width) for the 3-interval backward rules.
std::vector<std::string> exhaustive_interval_check(int width,
                                                   std::int64_t* checks = nullptr);

// Randomized interval-rule probing at widths and magnitudes exhaustion
// cannot reach: random (incl. rail-touching) intervals, containment checked
// against sampled concrete operands with __int128 ground truth for the
// wrapping ops. Returns violations.
std::vector<std::string> fuzz_interval_ops(Rng& rng, int iterations);

// Random small FME systems (≤ 4 vars, ≤ 6 constraints, coefficients in
// [−3, 3]) decided both by fme::Solver and by enumerating the variable
// boxes; verdicts must match, SAT models must satisfy every constraint,
// and every UNSAT must come with a refutation that
// proof::check_fme_refutation accepts. Returns violations.
std::vector<std::string> fuzz_fme(Rng& rng, int iterations);

}  // namespace rtlsat::fuzz
