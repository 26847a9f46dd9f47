// JSONL writer for word-level (HDPLL) certificates.
//
// core/proof_log.cpp translates solver objects (events, hybrid clauses,
// circuit nodes) into the primitive structs of word_cert.h and calls the
// record methods here; each call appends one line. The writer is
// append-only and holds the document in memory until save()/str().
//
// Record order contract (enforced by the checker): header first, then all
// net declarations in id order, then assumptions, then the derivation
// records in solver chronology, then exactly one end record.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "proof/word_cert.h"

namespace rtlsat::proof {

// The FME sub-certificate of a cut or fme0 record for `system` and its
// refutation. Every variable and row comes out tagged as an auxiliary of
// node 0; a caller that knows the encoding sets the tags.
FmeCert fme_cert(const fme::System& system, fme::Certificate refutation);
// That sub-certificate as the JSON object a cut or fme0 record embeds.
std::string fme_json(const FmeCert& fme);

class WordCertWriter {
 public:
  void header();
  void net(std::uint32_t id, int width, const std::string& op,
           const std::vector<std::uint32_t>& args, std::int64_t imm,
           std::int64_t imm2);
  void assume(std::uint32_t net, std::int64_t lo, std::int64_t hi);
  // Level-0 narrowing (kind 'n' or 'c').
  void narrow0(const WordStep& step);
  // Level-0 conflict: kind 'a' (assumption application), 'n', or 'c'.
  void conflict0(char kind, std::uint32_t id);
  // Learned clause with its replayable antecedent cut. clause_id < 0 ⟹
  // the empty clause (not stored in the DB).
  void learn(std::int64_t clause_id, const std::vector<WordLit>& lits,
             const std::vector<WordStep>& steps, const WordConflict& conflict);
  // Arithmetic-endgame cut clause: decision negations justified by an FME
  // refutation of the trail state.
  void cut(std::int64_t clause_id, const std::vector<WordLit>& lits,
           const std::vector<WordStep>& steps, const FmeCert& fme);
  // Level-0 FME refutation (whole instance UNSAT by arithmetic).
  void fme0(const FmeCert& fme);
  // Predicate-learning Boolean probe record with its recursive-learning
  // case split; `clauses` are justified here, added later via add_clause.
  void probe(std::uint32_t net, std::int64_t val,
             const std::vector<WordStep>& steps, const WordConflict& conflict,
             const std::vector<ProbeWay>& ways,
             const std::vector<std::vector<WordLit>>& clauses);
  // Word-interval probe (domain bisection) record.
  void wprobe(std::uint32_t net, const std::vector<ProbeCase>& cases,
              const std::vector<std::vector<WordLit>>& clauses);
  // Clause-DB addition of a previously justified clause content.
  void add_clause(std::int64_t id, const std::vector<WordLit>& lits);
  // Portfolio import with exporter provenance.
  void import_clause(std::int64_t id, int worker, std::int64_t seq,
                     const std::vector<WordLit>& lits);
  void delete_clause(std::int64_t id);
  // verdict: "unsat", "sat", "timeout", "cancelled".
  void finish(const std::string& verdict);

  std::int64_t records() const { return records_; }
  std::int64_t bytes() const { return static_cast<std::int64_t>(out_.size()); }
  bool finished() const { return finished_; }

  const std::string& str() const { return out_; }
  bool save(const std::string& path, std::string* error) const;

 private:
  void line(std::string text);

  std::string out_;
  std::int64_t records_ = 0;
  bool finished_ = false;
};

}  // namespace rtlsat::proof
