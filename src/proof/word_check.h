// Verifier for word-level (HDPLL) certificates.
//
// word_check parses a JSONL certificate (word_writer.h) and re-derives
// every claim with its own machinery: interval narrowings through the
// independent rule mirror (check_rules.h), clause propagations against its
// own clause registry, learned clauses by replaying their implication-graph
// antecedent cut from the level-0 state, FME refutations step by step in
// exact __int128 arithmetic, and predicate-learning probes by re-checking
// the two-case recursive-learning split covers every semantically possible
// way. An "unsat" verdict is accepted only when some record established a
// verified refutation of the instance.
//
// The trust base is deliberately small: src/interval arithmetic, the
// linear-combination checker below, and the JSON parser. Nothing from
// src/core, src/prop, or src/sat is linked.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace rtlsat::proof {

struct WordCheckOptions {
  // Accept "import" records (portfolio clauses proved by a peer) without
  // justification. Off, an import is a hole in the proof and is rejected.
  bool trust_imports = false;
};

struct WordCheckResult {
  bool ok = false;
  // A refutation of the instance was verified (independent of the
  // verdict; "unsat" is accepted iff this holds).
  bool refuted = false;
  std::string verdict;        // from the end record
  std::int64_t records = 0;   // lines processed
  std::string error;          // "line N: …" for the first rejected step
};

WordCheckResult word_check(std::string_view certificate,
                           const WordCheckOptions& options = {});

struct FmeCheckResult {
  bool ok = false;
  std::string error;  // "line 1: …" for the first rejected step
};

// Replays a bare FME refutation: the "fme" object of a cut or fme0 record
// ({"vars":…,"cons":…,"steps":…}, as fme_json() writes it) is accepted when
// its steps derive a contradiction from its rows and variable bounds alone.
// word_check runs the same replay after it has matched every row to its
// node's encoding in the replayed circuit state; here the row tags are not
// looked at.
FmeCheckResult check_fme_refutation(std::string_view fme_json);

}  // namespace rtlsat::proof
