#include "proof/word_writer.h"

#include <cstdio>

#include "trace/json.h"

namespace rtlsat::proof {

namespace {

using trace::JsonWriter;

void write_lit(JsonWriter& w, const WordLit& lit) {
  w.begin_object();
  w.key("net").value(static_cast<std::int64_t>(lit.net));
  w.key("b").value(lit.is_bool);
  w.key("p").value(lit.positive);
  w.key("lo").value(lit.lo);
  w.key("hi").value(lit.hi);
  w.end_object();
}

void write_lits(JsonWriter& w, const std::vector<WordLit>& lits) {
  w.begin_array();
  for (const WordLit& lit : lits) write_lit(w, lit);
  w.end_array();
}

void write_step(JsonWriter& w, const WordStep& step) {
  w.begin_object();
  w.key("net").value(static_cast<std::int64_t>(step.net));
  w.key("k").value(std::string_view(&step.kind, 1));
  w.key("id").value(static_cast<std::int64_t>(step.id));
  w.key("lo").value(step.lo);
  w.key("hi").value(step.hi);
  w.end_object();
}

void write_steps(JsonWriter& w, const std::vector<WordStep>& steps) {
  w.begin_array();
  for (const WordStep& s : steps) write_step(w, s);
  w.end_array();
}

void write_conflict(JsonWriter& w, const WordConflict& conflict) {
  if (conflict.kind == 0) {
    w.null();
    return;
  }
  w.begin_object();
  w.key("k").value(std::string_view(&conflict.kind, 1));
  w.key("id").value(static_cast<std::int64_t>(conflict.id));
  w.end_object();
}

std::string ref_string(const fme::ProofRef& ref) {
  switch (ref.kind) {
    case fme::ProofRef::Kind::kConstraint:
      return "c" + std::to_string(ref.index);
    case fme::ProofRef::Kind::kUpper:
      return "u" + std::to_string(ref.index);
    case fme::ProofRef::Kind::kLower:
      return "l" + std::to_string(ref.index);
    case fme::ProofRef::Kind::kStep:
      return "s" + std::to_string(ref.index);
  }
  return "?";
}

void write_fme(JsonWriter& w, const FmeCert& fme) {
  w.begin_object();
  w.key("vars").begin_array();
  for (const FmeCertVar& v : fme.vars) {
    w.begin_object();
    w.key(v.is_net ? "net" : "node").value(static_cast<std::int64_t>(v.id));
    w.key("lo").value(v.lo);
    w.key("hi").value(v.hi);
    w.end_object();
  }
  w.end_array();
  w.key("cons").begin_array();
  for (const FmeCertCon& c : fme.cons) {
    w.begin_object();
    w.key("node").value(static_cast<std::int64_t>(c.node));
    w.key("terms").begin_array();
    for (const auto& [var, coeff] : c.terms) {
      w.begin_array();
      w.value(static_cast<std::int64_t>(var));
      w.value(coeff);
      w.end_array();
    }
    w.end_array();
    w.key("bnd").value(i128_to_string(c.bound));
    w.end_object();
  }
  w.end_array();
  w.key("steps").begin_array();
  for (const fme::CertStep& s : fme.refutation.steps) {
    w.begin_object();
    switch (s.kind) {
      case fme::CertStep::Kind::kComb:
        w.key("s").value("comb");
        w.key("of").begin_array();
        for (const auto& [ref, lambda] : s.combo) {
          w.begin_array();
          w.value(ref_string(ref));
          w.value(i128_to_string(lambda));
          w.end_array();
        }
        w.end_array();
        break;
      case fme::CertStep::Kind::kDiv:
        w.key("s").value("div");
        w.key("of").value(ref_string(s.div_of));
        w.key("d").value(i128_to_string(s.divisor));
        break;
      case fme::CertStep::Kind::kSplit:
        w.key("s").value("split");
        w.key("v").value(static_cast<std::int64_t>(s.split_var));
        w.key("at").value(i128_to_string(s.split_at));
        break;
      case fme::CertStep::Kind::kCase:
        w.key("s").value("case");
        break;
      case fme::CertStep::Kind::kQed:
        w.key("s").value("qed");
        break;
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

}  // namespace

FmeCert fme_cert(const fme::System& system, fme::Certificate refutation) {
  FmeCert cert;
  cert.vars.reserve(system.num_vars());
  for (fme::Var v = 0; v < system.num_vars(); ++v) {
    const Interval& b = system.bounds(v);
    cert.vars.push_back({false, 0, b.lo(), b.hi()});
  }
  cert.cons.reserve(system.constraints().size());
  for (const fme::LinearConstraint& c : system.constraints()) {
    FmeCertCon con;
    for (const fme::Term& t : c.terms) con.terms.push_back({t.var, t.coeff});
    con.bound = c.bound;
    cert.cons.push_back(std::move(con));
  }
  cert.refutation = std::move(refutation);
  return cert;
}

std::string fme_json(const FmeCert& fme) {
  JsonWriter w;
  write_fme(w, fme);
  return w.take();
}

void WordCertWriter::line(std::string text) {
  out_ += text;
  out_ += '\n';
  ++records_;
}

void WordCertWriter::header() {
  JsonWriter w;
  w.begin_object();
  w.key("t").value("rtlsat_cert");
  w.key("version").value(1);
  w.end_object();
  line(w.take());
}

void WordCertWriter::net(std::uint32_t id, int width, const std::string& op,
                         const std::vector<std::uint32_t>& args,
                         std::int64_t imm, std::int64_t imm2) {
  JsonWriter w;
  w.begin_object();
  w.key("t").value("net");
  w.key("id").value(static_cast<std::int64_t>(id));
  w.key("w").value(width);
  w.key("op").value(op);
  w.key("args").begin_array();
  for (const std::uint32_t a : args) w.value(static_cast<std::int64_t>(a));
  w.end_array();
  w.key("imm").value(imm);
  w.key("imm2").value(imm2);
  w.end_object();
  line(w.take());
}

void WordCertWriter::assume(std::uint32_t net, std::int64_t lo,
                            std::int64_t hi) {
  JsonWriter w;
  w.begin_object();
  w.key("t").value("assume");
  w.key("net").value(static_cast<std::int64_t>(net));
  w.key("lo").value(lo);
  w.key("hi").value(hi);
  w.end_object();
  line(w.take());
}

void WordCertWriter::narrow0(const WordStep& step) {
  JsonWriter w;
  w.begin_object();
  w.key("t").value("n0");
  w.key("net").value(static_cast<std::int64_t>(step.net));
  w.key("k").value(std::string_view(&step.kind, 1));
  w.key("id").value(static_cast<std::int64_t>(step.id));
  w.key("lo").value(step.lo);
  w.key("hi").value(step.hi);
  w.end_object();
  line(w.take());
}

void WordCertWriter::conflict0(char kind, std::uint32_t id) {
  JsonWriter w;
  w.begin_object();
  w.key("t").value("conflict0");
  w.key("k").value(std::string_view(&kind, 1));
  w.key("id").value(static_cast<std::int64_t>(id));
  w.end_object();
  line(w.take());
}

void WordCertWriter::learn(std::int64_t clause_id,
                           const std::vector<WordLit>& lits,
                           const std::vector<WordStep>& steps,
                           const WordConflict& conflict) {
  JsonWriter w;
  w.begin_object();
  w.key("t").value("learn");
  w.key("id").value(clause_id);
  w.key("lits");
  write_lits(w, lits);
  w.key("steps");
  write_steps(w, steps);
  w.key("conf");
  write_conflict(w, conflict);
  w.end_object();
  line(w.take());
}

void WordCertWriter::cut(std::int64_t clause_id,
                         const std::vector<WordLit>& lits,
                         const std::vector<WordStep>& steps,
                         const FmeCert& fme) {
  JsonWriter w;
  w.begin_object();
  w.key("t").value("cut");
  w.key("id").value(clause_id);
  w.key("lits");
  write_lits(w, lits);
  w.key("steps");
  write_steps(w, steps);
  w.key("fme");
  write_fme(w, fme);
  w.end_object();
  line(w.take());
}

void WordCertWriter::fme0(const FmeCert& fme) {
  JsonWriter w;
  w.begin_object();
  w.key("t").value("fme0");
  w.key("fme");
  write_fme(w, fme);
  w.end_object();
  line(w.take());
}

void WordCertWriter::probe(std::uint32_t net, std::int64_t val,
                           const std::vector<WordStep>& steps,
                           const WordConflict& conflict,
                           const std::vector<ProbeWay>& ways,
                           const std::vector<std::vector<WordLit>>& clauses) {
  JsonWriter w;
  w.begin_object();
  w.key("t").value("probe");
  w.key("net").value(static_cast<std::int64_t>(net));
  w.key("val").value(val);
  w.key("steps");
  write_steps(w, steps);
  w.key("conf");
  write_conflict(w, conflict);
  w.key("ways").begin_array();
  for (const ProbeWay& way : ways) {
    w.begin_object();
    w.key("assign").begin_array();
    for (const auto& [n, v] : way.assign) {
      w.begin_array();
      w.value(static_cast<std::int64_t>(n));
      w.value(v);
      w.end_array();
    }
    w.end_array();
    w.key("steps");
    write_steps(w, way.steps);
    w.key("conf");
    write_conflict(w, way.conflict);
    w.end_object();
  }
  w.end_array();
  w.key("clauses").begin_array();
  for (const auto& clause : clauses) write_lits(w, clause);
  w.end_array();
  w.end_object();
  line(w.take());
}

void WordCertWriter::wprobe(std::uint32_t net,
                            const std::vector<ProbeCase>& cases,
                            const std::vector<std::vector<WordLit>>& clauses) {
  JsonWriter w;
  w.begin_object();
  w.key("t").value("wprobe");
  w.key("net").value(static_cast<std::int64_t>(net));
  w.key("cases").begin_array();
  for (const ProbeCase& c : cases) {
    w.begin_object();
    w.key("lo").value(c.lo);
    w.key("hi").value(c.hi);
    w.key("steps");
    write_steps(w, c.steps);
    w.key("conf");
    write_conflict(w, c.conflict);
    w.end_object();
  }
  w.end_array();
  w.key("clauses").begin_array();
  for (const auto& clause : clauses) write_lits(w, clause);
  w.end_array();
  w.end_object();
  line(w.take());
}

void WordCertWriter::add_clause(std::int64_t id,
                                const std::vector<WordLit>& lits) {
  JsonWriter w;
  w.begin_object();
  w.key("t").value("addc");
  w.key("id").value(id);
  w.key("lits");
  write_lits(w, lits);
  w.end_object();
  line(w.take());
}

void WordCertWriter::import_clause(std::int64_t id, int worker,
                                   std::int64_t seq,
                                   const std::vector<WordLit>& lits) {
  JsonWriter w;
  w.begin_object();
  w.key("t").value("import");
  w.key("id").value(id);
  w.key("worker").value(worker);
  w.key("seq").value(seq);
  w.key("lits");
  write_lits(w, lits);
  w.end_object();
  line(w.take());
}

void WordCertWriter::delete_clause(std::int64_t id) {
  JsonWriter w;
  w.begin_object();
  w.key("t").value("delc");
  w.key("id").value(id);
  w.end_object();
  line(w.take());
}

void WordCertWriter::finish(const std::string& verdict) {
  if (finished_) return;
  finished_ = true;
  JsonWriter w;
  w.begin_object();
  w.key("t").value("end");
  w.key("verdict").value(verdict);
  w.end_object();
  line(w.take());
}

bool WordCertWriter::save(const std::string& path, std::string* error) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  const std::size_t written =
      out_.empty() ? 0 : std::fwrite(out_.data(), 1, out_.size(), f);
  const bool ok = std::fclose(f) == 0 && written == out_.size();
  if (!ok && error != nullptr) *error = "short write to " + path;
  return ok;
}

}  // namespace rtlsat::proof
