#include "proof/word_check.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fme/linear.h"
#include "interval/interval.h"
#include "interval/interval_ops.h"
#include "proof/check_rules.h"
#include "proof/int128.h"
#include "proof/word_cert.h"
#include "trace/json.h"

namespace rtlsat::proof {

namespace {

using trace::JsonValue;

// ---------------------------------------------------------------------------
// Literal semantics. A literal's satisfying set is an interval box on its
// net: boolean(net, v) ↦ {v}; word_in ↦ [lo,hi]; word_not_in ↦ the
// complement. Truth/falsity under an interval domain follows set-wise.

Interval lit_box(const WordLit& l) {
  return l.is_bool ? Interval::point(l.lo) : Interval(l.lo, l.hi);
}

bool lit_positive(const WordLit& l) { return l.is_bool || l.positive; }

bool lit_false(const WordLit& l, const Interval& d) {
  if (d.is_empty()) return true;
  const Interval box = lit_box(l);
  return lit_positive(l) ? !d.intersects(box) : box.contains(d);
}

bool lit_true(const WordLit& l, const Interval& d) {
  if (d.is_empty()) return false;
  const Interval box = lit_box(l);
  return lit_positive(l) ? box.contains(d) : !d.intersects(box);
}

// The narrowing a unit literal imposes on its net. For a negative word
// literal whose complement splits the domain, minus() returns the domain
// unchanged — the same sound laziness the solver's clause DB uses.
Interval lit_implied(const WordLit& l, const Interval& d) {
  const Interval box = lit_box(l);
  return lit_positive(l) ? d.intersect(box) : d.minus(box);
}

// Pins the *negation* of a literal into a domain (assuming a clause false).
Interval lit_assume_false(const WordLit& l, const Interval& d) {
  if (l.is_bool) return d.intersect(Interval::point(l.lo == 0 ? 1 : 0));
  if (l.positive) return d.minus(Interval(l.lo, l.hi));
  return d.intersect(Interval(l.lo, l.hi));
}

std::string clause_key(const std::vector<WordLit>& lits) {
  std::vector<std::string> parts;
  parts.reserve(lits.size());
  for (const WordLit& l : lits) {
    parts.push_back(std::to_string(l.net) + (l.is_bool ? "b" : "w") +
                    (lit_positive(l) ? "+" : "-") + std::to_string(l.lo) + ":" +
                    std::to_string(l.hi));
  }
  std::sort(parts.begin(), parts.end());
  std::string key;
  for (const std::string& p : parts) {
    key += p;
    key += '|';
  }
  return key;
}

// ---------------------------------------------------------------------------
// Parsed FME sub-certificate.

struct FmeRef {
  char kind = 'c';  // 'c' constraint, 'u' upper bound, 'l' lower bound, 's' step
  std::uint32_t index = 0;
};

struct FmeStep {
  enum Kind { kComb, kDiv, kSplit, kCase, kQed };
  Kind kind = kComb;
  std::vector<std::pair<FmeRef, Int128>> combo;
  FmeRef of;
  Int128 divisor = 1;
  std::uint32_t var = 0;
  Int128 at = 0;
};

struct FmeData {
  std::vector<FmeCertVar> vars;
  std::vector<FmeCertCon> cons;
  std::vector<FmeStep> steps;
};

bool i128_mul(Int128 a, Int128 b, Int128* out) {
  return !__builtin_mul_overflow(a, b, out);
}
bool i128_add(Int128 a, Int128 b, Int128* out) {
  return !__builtin_add_overflow(a, b, out);
}

// ---------------------------------------------------------------------------

class Checker {
 public:
  explicit Checker(const WordCheckOptions& options) : options_(options) {}

  WordCheckResult run(std::string_view text);
  FmeCheckResult check_fme(std::string_view fme_json);

 private:
  enum class Stage { kHeader, kNets, kBody, kDone };

  bool fail(std::string message) {
    error_ = "line " + std::to_string(line_) + ": " + std::move(message);
    return false;
  }

  // --- JSON field access -------------------------------------------------
  bool get_int(const JsonValue& v, const char* key, std::int64_t* out) {
    const JsonValue* f = v.find(key);
    if (f == nullptr || !f->is_int())
      return fail(std::string("missing integer field \"") + key + "\"");
    *out = f->integer;
    return true;
  }
  bool get_u32(const JsonValue& v, const char* key, std::uint32_t* out) {
    std::int64_t raw = 0;
    if (!get_int(v, key, &raw)) return false;
    if (raw < 0 || raw > 0xffffffffLL)
      return fail(std::string("field \"") + key + "\" out of range");
    *out = static_cast<std::uint32_t>(raw);
    return true;
  }
  bool get_bool(const JsonValue& v, const char* key, bool* out) {
    const JsonValue* f = v.find(key);
    if (f == nullptr || f->kind != JsonValue::Kind::kBool)
      return fail(std::string("missing boolean field \"") + key + "\"");
    *out = f->boolean;
    return true;
  }
  bool get_string(const JsonValue& v, const char* key, std::string* out) {
    const JsonValue* f = v.find(key);
    if (f == nullptr || !f->is_string())
      return fail(std::string("missing string field \"") + key + "\"");
    *out = f->string;
    return true;
  }
  bool get_array(const JsonValue& v, const char* key, const JsonValue** out) {
    const JsonValue* f = v.find(key);
    if (f == nullptr || !f->is_array())
      return fail(std::string("missing array field \"") + key + "\"");
    *out = f;
    return true;
  }
  bool get_i128(const JsonValue& v, const char* key, Int128* out) {
    const JsonValue* f = v.find(key);
    if (f == nullptr || !f->is_string() || !i128_from_string(f->string, out))
      return fail(std::string("field \"") + key +
                  "\" is not a decimal __int128 string");
    return true;
  }

  // --- record payload parsing --------------------------------------------
  bool parse_lit(const JsonValue& v, WordLit* out);
  bool parse_lits(const JsonValue& arr, std::vector<WordLit>* out);
  bool parse_step(const JsonValue& v, WordStep* out);
  bool parse_steps(const JsonValue& arr, std::vector<WordStep>* out);
  bool parse_conflict(const JsonValue& v, WordConflict* out);
  bool parse_fme_ref(const std::string& text, FmeRef* out);
  bool parse_fme(const JsonValue& v, FmeData* out);

  // --- verification core -------------------------------------------------
  bool freeze_circuit();
  // Applies one replayed derivation step to `s`, checking the claimed
  // interval is implied. Sets *contradiction when the state empties.
  bool apply_step(const WordStep& st, std::vector<Interval>& s,
                  bool* contradiction);
  bool verify_conflict(const WordConflict& c, const std::vector<Interval>& s,
                       const char* context);
  // Replays a step list. On return *contradiction says whether the state
  // emptied (remaining steps are skipped once it does). When
  // `need_contradiction` is set, a replay that ends without one and without
  // a verified terminal conflict is an error.
  bool replay(std::vector<Interval>& s, const std::vector<WordStep>& steps,
              const WordConflict& conf, bool need_contradiction,
              bool* contradiction);
  bool verify_fme(const FmeData& f, const std::vector<Interval>& s);
  // Replays the refutation steps with exact arithmetic over the rows and
  // variable bounds of `f`.
  bool replay_fme(const FmeData& f);
  bool lookup_clause(std::int64_t id, const std::vector<WordLit>** out);
  bool register_clause(std::int64_t id, std::vector<WordLit> lits);

  // --- record handlers ----------------------------------------------------
  bool on_net(const JsonValue& v);
  bool on_assume(const JsonValue& v);
  bool on_narrow0(const JsonValue& v);
  bool on_conflict0(const JsonValue& v);
  bool on_learn(const JsonValue& v);
  bool on_cut(const JsonValue& v);
  bool on_fme0(const JsonValue& v);
  bool on_probe(const JsonValue& v);
  bool on_wprobe(const JsonValue& v);
  bool on_addc(const JsonValue& v);
  bool on_import(const JsonValue& v);
  bool on_delc(const JsonValue& v);
  bool on_end(const JsonValue& v);

  WordCheckOptions options_;
  Stage stage_ = Stage::kHeader;
  std::int64_t line_ = 0;
  std::string error_;
  std::string verdict_;
  bool refuted_ = false;

  CertCircuit circuit_;
  std::vector<Interval> state_;  // level-0 state
  std::unordered_map<std::int64_t, std::vector<WordLit>> clauses_;
  std::set<std::int64_t> deleted_;
  std::set<std::string> justified_;  // probe/wprobe-proved clause contents
};

bool Checker::parse_lit(const JsonValue& v, WordLit* out) {
  if (!v.is_object()) return fail("literal is not an object");
  if (!get_u32(v, "net", &out->net) || !get_bool(v, "b", &out->is_bool) ||
      !get_bool(v, "p", &out->positive) || !get_int(v, "lo", &out->lo) ||
      !get_int(v, "hi", &out->hi))
    return false;
  if (!circuit_.valid(out->net)) return fail("literal on undeclared net");
  if (out->is_bool) {
    if (circuit_.nets[out->net].width != 1)
      return fail("boolean literal on a word net");
    if (out->lo != out->hi || (out->lo != 0 && out->lo != 1))
      return fail("boolean literal value is not 0/1");
  } else if (out->lo > out->hi) {
    return fail("word literal with an empty interval");
  }
  return true;
}

bool Checker::parse_lits(const JsonValue& arr, std::vector<WordLit>* out) {
  for (const JsonValue& e : arr.array) {
    WordLit lit;
    if (!parse_lit(e, &lit)) return false;
    out->push_back(lit);
  }
  return true;
}

bool Checker::parse_step(const JsonValue& v, WordStep* out) {
  if (!v.is_object()) return fail("step is not an object");
  std::string kind;
  if (!get_u32(v, "net", &out->net) || !get_string(v, "k", &kind) ||
      !get_u32(v, "id", &out->id) || !get_int(v, "lo", &out->lo) ||
      !get_int(v, "hi", &out->hi))
    return false;
  if (kind.size() != 1 || (kind[0] != 'a' && kind[0] != 'd' &&
                           kind[0] != 'n' && kind[0] != 'c'))
    return fail("step kind must be one of a/d/n/c");
  out->kind = kind[0];
  if (!circuit_.valid(out->net)) return fail("step on undeclared net");
  return true;
}

bool Checker::parse_steps(const JsonValue& arr, std::vector<WordStep>* out) {
  for (const JsonValue& e : arr.array) {
    WordStep step;
    if (!parse_step(e, &step)) return false;
    out->push_back(step);
  }
  return true;
}

bool Checker::parse_conflict(const JsonValue& v, WordConflict* out) {
  if (v.kind == JsonValue::Kind::kNull) {
    out->kind = 0;
    return true;
  }
  if (!v.is_object()) return fail("conflict is not an object or null");
  std::string kind;
  if (!get_string(v, "k", &kind) || !get_u32(v, "id", &out->id)) return false;
  if (kind.size() != 1 || (kind[0] != 'n' && kind[0] != 'c'))
    return fail("conflict kind must be n or c");
  out->kind = kind[0];
  return true;
}

bool Checker::parse_fme_ref(const std::string& text, FmeRef* out) {
  if (text.size() < 2) return fail("malformed proof reference");
  const char k = text[0];
  if (k != 'c' && k != 'u' && k != 'l' && k != 's')
    return fail("proof reference kind must be c/u/l/s");
  std::uint64_t idx = 0;
  for (std::size_t i = 1; i < text.size(); ++i) {
    if (text[i] < '0' || text[i] > '9')
      return fail("malformed proof reference");
    idx = idx * 10 + static_cast<std::uint64_t>(text[i] - '0');
    if (idx > 0xffffffffULL) return fail("proof reference out of range");
  }
  out->kind = k;
  out->index = static_cast<std::uint32_t>(idx);
  return true;
}

bool Checker::parse_fme(const JsonValue& v, FmeData* out) {
  if (!v.is_object()) return fail("fme certificate is not an object");
  const JsonValue* vars = nullptr;
  const JsonValue* cons = nullptr;
  const JsonValue* steps = nullptr;
  if (!get_array(v, "vars", &vars) || !get_array(v, "cons", &cons) ||
      !get_array(v, "steps", &steps))
    return false;
  for (const JsonValue& e : vars->array) {
    if (!e.is_object()) return fail("fme var is not an object");
    FmeCertVar var;
    var.is_net = e.find("net") != nullptr;
    if (!get_u32(e, var.is_net ? "net" : "node", &var.id) ||
        !get_int(e, "lo", &var.lo) || !get_int(e, "hi", &var.hi))
      return false;
    out->vars.push_back(var);
  }
  for (const JsonValue& e : cons->array) {
    if (!e.is_object()) return fail("fme constraint is not an object");
    FmeCertCon con;
    const JsonValue* terms = nullptr;
    if (!get_u32(e, "node", &con.node) || !get_array(e, "terms", &terms) ||
        !get_i128(e, "bnd", &con.bound))
      return false;
    for (const JsonValue& t : terms->array) {
      if (!t.is_array() || t.array.size() != 2 || !t.array[0].is_int() ||
          !t.array[1].is_int())
        return fail("fme term is not a [var, coeff] pair");
      const std::int64_t var = t.array[0].integer;
      if (var < 0 || static_cast<std::size_t>(var) >= out->vars.size())
        return fail("fme term references an undeclared variable");
      con.terms.push_back({static_cast<std::uint32_t>(var),
                           t.array[1].integer});
    }
    out->cons.push_back(std::move(con));
  }
  for (const JsonValue& e : steps->array) {
    if (!e.is_object()) return fail("fme step is not an object");
    std::string kind;
    if (!get_string(e, "s", &kind)) return false;
    FmeStep step;
    if (kind == "comb") {
      step.kind = FmeStep::kComb;
      const JsonValue* of = nullptr;
      if (!get_array(e, "of", &of)) return false;
      for (const JsonValue& c : of->array) {
        if (!c.is_array() || c.array.size() != 2 || !c.array[0].is_string() ||
            !c.array[1].is_string())
          return fail("comb entry is not a [ref, coeff] pair");
        FmeRef ref;
        Int128 lambda = 0;
        if (!parse_fme_ref(c.array[0].string, &ref)) return false;
        if (!i128_from_string(c.array[1].string, &lambda))
          return fail("comb coefficient is not a decimal __int128 string");
        step.combo.push_back({ref, lambda});
      }
    } else if (kind == "div") {
      step.kind = FmeStep::kDiv;
      std::string of;
      if (!get_string(e, "of", &of) || !parse_fme_ref(of, &step.of) ||
          !get_i128(e, "d", &step.divisor))
        return false;
    } else if (kind == "split") {
      step.kind = FmeStep::kSplit;
      if (!get_u32(e, "v", &step.var) || !get_i128(e, "at", &step.at))
        return false;
    } else if (kind == "case") {
      step.kind = FmeStep::kCase;
    } else if (kind == "qed") {
      step.kind = FmeStep::kQed;
    } else {
      return fail("unknown fme step kind \"" + kind + "\"");
    }
    out->steps.push_back(std::move(step));
  }
  return true;
}

// ---------------------------------------------------------------------------

bool Checker::freeze_circuit() {
  for (std::uint32_t id = 0; id < circuit_.nets.size(); ++id) {
    const std::string problem = validate_net(circuit_, id);
    if (!problem.empty())
      return fail("net " + std::to_string(id) + ": " + problem);
  }
  state_.reserve(circuit_.nets.size());
  for (std::uint32_t id = 0; id < circuit_.nets.size(); ++id)
    state_.push_back(circuit_.initial(id));
  stage_ = Stage::kBody;
  return true;
}

bool Checker::lookup_clause(std::int64_t id,
                            const std::vector<WordLit>** out) {
  if (deleted_.contains(id))
    return fail("clause " + std::to_string(id) +
                " referenced after its deletion");
  const auto it = clauses_.find(id);
  if (it == clauses_.end())
    return fail("reference to unknown clause " + std::to_string(id));
  *out = &it->second;
  return true;
}

bool Checker::register_clause(std::int64_t id, std::vector<WordLit> lits) {
  if (id < 0) return true;  // the empty clause is never stored
  if (clauses_.contains(id) || deleted_.contains(id))
    return fail("duplicate clause id " + std::to_string(id));
  clauses_.emplace(id, std::move(lits));
  return true;
}

bool Checker::apply_step(const WordStep& st, std::vector<Interval>& s,
                         bool* contradiction) {
  const Interval claimed(st.lo, st.hi);
  Interval derived = s[st.net];
  switch (st.kind) {
    case 'a':
    case 'd': {
      // Pinned facts (decisions re-pinned by the assumed-false clause
      // literals, probe/way assignments). The claim may not tighten beyond
      // what is already pinned.
      if (!claimed.contains(s[st.net]))
        return fail("decision step claims more than the pinned value on net " +
                    std::to_string(st.net));
      break;
    }
    case 'n': {
      if (!circuit_.valid(st.id))
        return fail("node step references undeclared net " +
                    std::to_string(st.id));
      std::vector<std::pair<std::uint32_t, Interval>> narrows;
      check_node_rules(circuit_, st.id, s, &narrows);
      for (const auto& [net, iv] : narrows) {
        if (iv.is_empty()) *contradiction = true;
        if (net == st.net) derived = derived.intersect(iv);
      }
      if (!derived.is_empty() && !claimed.contains(derived))
        return fail("node " + std::to_string(st.id) +
                    " does not justify the claimed narrowing on net " +
                    std::to_string(st.net));
      break;
    }
    case 'c': {
      const std::vector<WordLit>* lits = nullptr;
      if (!lookup_clause(static_cast<std::int64_t>(st.id), &lits))
        return false;
      Interval implied = Interval::empty();
      bool informative = true;
      for (const WordLit& l : *lits) {
        if (lit_false(l, s[l.net])) continue;
        if (l.net != st.net) {
          informative = false;  // ≥2 free nets: no unit implication here
          break;
        }
        implied = implied.hull(lit_implied(l, s[st.net]));
      }
      derived = informative ? implied : s[st.net];
      if (!derived.is_empty() && !claimed.contains(derived))
        return fail("clause " + std::to_string(st.id) +
                    " does not justify the claimed narrowing on net " +
                    std::to_string(st.net));
      break;
    }
    default:
      return fail("unsupported step kind in this context");
  }
  s[st.net] = s[st.net].intersect(claimed);
  if (s[st.net].is_empty()) *contradiction = true;
  return true;
}

bool Checker::verify_conflict(const WordConflict& c,
                              const std::vector<Interval>& s,
                              const char* context) {
  if (c.kind == 'n') {
    if (!circuit_.valid(c.id))
      return fail(std::string(context) + ": conflict on undeclared net");
    std::vector<std::pair<std::uint32_t, Interval>> narrows;
    check_node_rules(circuit_, c.id, s, &narrows);
    for (const auto& [net, iv] : narrows) {
      if (iv.is_empty()) return true;
    }
    return fail(std::string(context) + ": node " + std::to_string(c.id) +
                " does not conflict under the replayed state");
  }
  if (c.kind == 'c') {
    const std::vector<WordLit>* lits = nullptr;
    if (!lookup_clause(static_cast<std::int64_t>(c.id), &lits)) return false;
    for (const WordLit& l : *lits) {
      if (!lit_false(l, s[l.net]))
        return fail(std::string(context) + ": clause " + std::to_string(c.id) +
                    " is not falsified under the replayed state");
    }
    return true;
  }
  return fail(std::string(context) + ": malformed conflict record");
}

bool Checker::replay(std::vector<Interval>& s,
                     const std::vector<WordStep>& steps,
                     const WordConflict& conf, bool need_contradiction,
                     bool* contradiction) {
  for (const WordStep& st : steps) {
    if (*contradiction) break;  // already refuted; remaining steps moot
    if (!apply_step(st, s, contradiction)) return false;
  }
  if (!need_contradiction) {
    // Caller decides what feasibility means; a recorded terminal conflict
    // still has to check out.
    if (!*contradiction && conf.kind != 0) {
      if (!verify_conflict(conf, s, "replay")) return false;
      *contradiction = true;
    }
    return true;
  }
  if (*contradiction) return true;
  if (conf.kind == 0)
    return fail("replay reaches no contradiction and records no conflict");
  if (!verify_conflict(conf, s, "replay")) return false;
  *contradiction = true;
  return true;
}

// ---------------------------------------------------------------------------
// FME sub-certificate verification.

namespace fme_check {

// One aux-variable slot of a node's encoding template: its coefficient in
// the row and the value range of the witness function (carry/borrow bits,
// remainders …).
struct Slot {
  Int128 coeff = 0;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

struct Templ {
  std::map<std::uint32_t, Int128> nets;  // net id → coefficient
  std::vector<Slot> aux;
  Int128 bound = 0;
  bool eq = false;  // equality rows may be matched with either sign
};

void add_net(Templ* t, std::uint32_t net, Int128 coeff) {
  auto [it, fresh] = t->nets.emplace(net, coeff);
  if (!fresh) it->second += coeff;  // repeated operand nets fold together
  if (it->second == 0) t->nets.erase(it);
}

}  // namespace fme_check

bool Checker::verify_fme(const FmeData& f, const std::vector<Interval>& s) {
  using fme_check::Slot;
  using fme_check::Templ;

  // 1. Variable table: net bounds must cover the replayed state; aux
  // bounds are validated against the encoding templates during row
  // matching. An already-empty state is a refutation by itself.
  std::unordered_map<std::uint32_t, std::uint32_t> net_var;
  for (std::uint32_t i = 0; i < f.vars.size(); ++i) {
    const FmeCertVar& v = f.vars[i];
    if (v.is_net) {
      if (!circuit_.valid(v.id))
        return fail("fme variable on undeclared net " + std::to_string(v.id));
      if (s[v.id].is_empty()) return true;  // state already contradictory
      if (!Interval(v.lo, v.hi).contains(s[v.id]))
        return fail("fme bounds on net " + std::to_string(v.id) +
                    " exclude the derived interval");
      if (!net_var.emplace(v.id, i).second)
        return fail("net " + std::to_string(v.id) +
                    " declared as two fme variables");
    } else if (v.lo > v.hi) {
      return fail("fme auxiliary variable with empty bounds");
    }
  }

  // 2. Constraint rows: each must match its tagged node's encoding
  // template (possibly sign-flipped for equality rows, possibly with a
  // weakened bound). Auxiliary variables are bound to one (node, slot)
  // witness for the whole system.
  std::unordered_map<std::uint32_t, std::pair<std::uint32_t, int>> aux_use;
  for (std::size_t ci = 0; ci < f.cons.size(); ++ci) {
    const FmeCertCon& con = f.cons[ci];
    const auto row_fail = [&](const std::string& why) {
      return fail("fme constraint " + std::to_string(ci) + " (node " +
                  std::to_string(con.node) + "): " + why);
    };
    if (!circuit_.valid(con.node)) return row_fail("undeclared node");
    const CertCircuit::Net& n = circuit_.nets[con.node];
    const std::int64_t m = std::int64_t{1} << n.width;

    // Build the expected encoding of this node under the replayed state.
    std::vector<Templ> templates;
    {
      Templ t;
      t.eq = true;
      const auto op_net = [&](int i) { return n.args[static_cast<std::size_t>(i)]; };
      switch (n.op) {
        case CheckOp::kMux: {
          if (n.width != 1) {
            const Interval& sel = s[op_net(0)];
            if (sel.is_empty()) return true;
            if (!sel.is_point())
              return row_fail("mux select not decided in the replayed state");
            const std::uint32_t branch = sel.lo() == 1 ? op_net(1) : op_net(2);
            fme_check::add_net(&t, con.node, 1);
            fme_check::add_net(&t, branch, -1);
            templates.push_back(t);
          }
          break;
        }
        case CheckOp::kAdd:
          fme_check::add_net(&t, op_net(0), 1);
          fme_check::add_net(&t, op_net(1), 1);
          fme_check::add_net(&t, con.node, -1);
          t.aux.push_back({-Int128{m}, 0, 1});
          templates.push_back(t);
          break;
        case CheckOp::kSub:
          fme_check::add_net(&t, op_net(0), 1);
          fme_check::add_net(&t, op_net(1), -1);
          fme_check::add_net(&t, con.node, -1);
          t.aux.push_back({Int128{m}, 0, 1});
          templates.push_back(t);
          break;
        case CheckOp::kMulC:
          fme_check::add_net(&t, op_net(0), Int128{n.imm});
          fme_check::add_net(&t, con.node, -1);
          t.aux.push_back({-Int128{m}, 0, n.imm > 0 ? n.imm - 1 : 0});
          templates.push_back(t);
          break;
        case CheckOp::kShlC: {
          const std::int64_t k = std::int64_t{1} << n.imm;
          fme_check::add_net(&t, op_net(0), Int128{k});
          fme_check::add_net(&t, con.node, -1);
          t.aux.push_back({-Int128{m}, 0, k - 1});
          templates.push_back(t);
          break;
        }
        case CheckOp::kShrC: {
          const std::int64_t k = std::int64_t{1} << n.imm;
          fme_check::add_net(&t, op_net(0), 1);
          fme_check::add_net(&t, con.node, -Int128{k});
          t.aux.push_back({-1, 0, k - 1});
          templates.push_back(t);
          break;
        }
        case CheckOp::kNotW:
          fme_check::add_net(&t, con.node, 1);
          fme_check::add_net(&t, op_net(0), 1);
          t.bound = m - 1;
          templates.push_back(t);
          break;
        case CheckOp::kConcat: {
          const std::int64_t shift =
              std::int64_t{1} << circuit_.nets[op_net(1)].width;
          fme_check::add_net(&t, con.node, 1);
          fme_check::add_net(&t, op_net(0), -Int128{shift});
          fme_check::add_net(&t, op_net(1), -1);
          templates.push_back(t);
          break;
        }
        case CheckOp::kExtract: {
          const int xw = circuit_.nets[op_net(0)].width;
          const std::int64_t hi_bit = n.imm;
          const std::int64_t lo_bit = n.imm2;
          const std::int64_t hi_span = std::int64_t{1}
                                       << (xw - hi_bit - 1);
          const std::int64_t lo_span = std::int64_t{1} << lo_bit;
          fme_check::add_net(&t, op_net(0), 1);
          fme_check::add_net(&t, con.node, -Int128{lo_span});
          t.aux.push_back({-(Int128{1} << (hi_bit + 1)), 0, hi_span - 1});
          t.aux.push_back({-1, 0, lo_span - 1});
          templates.push_back(t);
          break;
        }
        case CheckOp::kZext:
          fme_check::add_net(&t, con.node, 1);
          fme_check::add_net(&t, op_net(0), -1);
          templates.push_back(t);
          break;
        case CheckOp::kLt:
        case CheckOp::kLe: {
          const Interval& d = s[con.node];
          if (d.is_empty()) return true;
          if (!d.is_point())
            return row_fail("comparator not decided in the replayed state");
          const Int128 strict = n.op == CheckOp::kLt ? 1 : 0;
          t.eq = false;
          if (d.lo() == 1) {
            fme_check::add_net(&t, op_net(0), 1);
            fme_check::add_net(&t, op_net(1), -1);
            t.bound = -strict;
          } else {
            fme_check::add_net(&t, op_net(1), 1);
            fme_check::add_net(&t, op_net(0), -1);
            t.bound = strict - 1;
          }
          templates.push_back(t);
          break;
        }
        case CheckOp::kEq:
        case CheckOp::kNe: {
          const Interval& d = s[con.node];
          if (d.is_empty()) return true;
          if (!d.is_point())
            return row_fail("comparator not decided in the replayed state");
          const bool want_eq = (d.lo() == 1) == (n.op == CheckOp::kEq);
          if (want_eq) {
            fme_check::add_net(&t, op_net(0), 1);
            fme_check::add_net(&t, op_net(1), -1);
            templates.push_back(t);
          }
          // want_ne contributes no rows (the extractor relies on disjoint
          // operand intervals instead); a row tagged here cannot match.
          break;
        }
        case CheckOp::kMin:
        case CheckOp::kMax: {
          const Interval lt = iops::fwd_lt(s[op_net(0)], s[op_net(1)]);
          if (lt.is_empty()) return true;
          if (!lt.is_point())
            return row_fail("min/max order not decided in the replayed state");
          const bool x_lt_y = lt.lo() == 1;
          const std::uint32_t chosen = (n.op == CheckOp::kMin) == x_lt_y
                                           ? op_net(0)
                                           : op_net(1);
          fme_check::add_net(&t, con.node, 1);
          fme_check::add_net(&t, chosen, -1);
          templates.push_back(t);
          break;
        }
        default:
          break;  // Boolean gates and sources never contribute rows
      }
    }
    if (templates.empty())
      return row_fail("node's encoding admits no constraint rows here");

    // Canonicalize the row: net part keyed by net id, aux terms by var.
    std::map<std::uint32_t, Int128> row_nets;
    std::map<std::uint32_t, Int128> row_aux;
    for (const auto& [var, coeff] : con.terms) {
      const FmeCertVar& vd = f.vars[var];
      auto& bucket = vd.is_net ? row_nets : row_aux;
      const std::uint32_t key = vd.is_net ? vd.id : var;
      bucket[key] += Int128{coeff};
      if (bucket[key] == 0) bucket.erase(key);
    }
    // Net terms must come in through declared net variables.
    for (const auto& [net, coeff] : row_nets) {
      (void)coeff;
      if (!net_var.contains(net))
        return row_fail("row uses an undeclared net variable");
    }

    bool matched = false;
    for (const Templ& t : templates) {
      for (const int sign : {1, -1}) {
        if (sign < 0 && !t.eq) continue;
        if (row_nets.size() != t.nets.size() ||
            row_aux.size() != t.aux.size())
          continue;
        bool nets_match = true;
        for (const auto& [net, coeff] : t.nets) {
          const auto it = row_nets.find(net);
          if (it == row_nets.end() || it->second != Int128{sign} * coeff) {
            nets_match = false;
            break;
          }
        }
        if (!nets_match) continue;
        // Bind each aux term to a distinct template slot by coefficient.
        std::vector<bool> used(t.aux.size(), false);
        std::vector<std::pair<std::uint32_t, int>> binding;
        bool aux_match = true;
        for (const auto& [var, coeff] : row_aux) {
          bool found = false;
          for (std::size_t si = 0; si < t.aux.size(); ++si) {
            if (used[si] || Int128{sign} * t.aux[si].coeff != coeff) continue;
            const FmeCertVar& vd = f.vars[var];
            if (vd.lo > t.aux[si].lo || vd.hi < t.aux[si].hi) continue;
            used[si] = true;
            binding.push_back({var, static_cast<int>(si)});
            found = true;
            break;
          }
          if (!found) {
            aux_match = false;
            break;
          }
        }
        if (!aux_match) continue;
        if (con.bound < Int128{sign} * t.bound) continue;
        // Commit the aux-variable witnesses: one (node, slot) per aux var
        // across the whole system, so every row shares a single value.
        bool witness_ok = true;
        for (const auto& [var, slot] : binding) {
          const auto [it, fresh] =
              aux_use.emplace(var, std::make_pair(con.node, slot));
          if (!fresh && (it->second.first != con.node ||
                         it->second.second != slot)) {
            witness_ok = false;
            break;
          }
        }
        if (!witness_ok)
          return row_fail("auxiliary variable shared across encodings");
        matched = true;
        break;
      }
      if (matched) break;
    }
    if (!matched) return row_fail("row does not match the node's encoding");
  }

  // 3. The refutation itself.
  return replay_fme(f);
}

bool Checker::replay_fme(const FmeData& f) {
  struct DCon {
    std::map<std::uint32_t, Int128> terms;  // keyed by fme variable index
    Int128 bound = 0;
  };
  std::vector<DCon> derived;
  std::vector<bool> alive;
  struct Frame {
    std::uint32_t split_id = 0;
    std::uint32_t var = 0;
    Int128 at = 0;
    bool in_right = false;
  };
  std::vector<Frame> frames;
  std::vector<bool> closed{false};

  const auto resolve = [&](const FmeRef& ref, DCon* out,
                           std::string* why) -> bool {
    out->terms.clear();
    out->bound = 0;
    switch (ref.kind) {
      case 'c': {
        if (ref.index >= f.cons.size()) {
          *why = "constraint reference out of range";
          return false;
        }
        const FmeCertCon& con = f.cons[ref.index];
        for (const auto& [var, coeff] : con.terms) {
          out->terms[var] += Int128{coeff};
          if (out->terms[var] == 0) out->terms.erase(var);
        }
        out->bound = con.bound;
        return true;
      }
      case 'u':
      case 'l': {
        if (ref.index >= f.vars.size()) {
          *why = "bound reference out of range";
          return false;
        }
        const FmeCertVar& v = f.vars[ref.index];
        if (ref.kind == 'u') {
          out->terms[ref.index] = 1;
          out->bound = Int128{v.hi};
        } else {
          out->terms[ref.index] = -1;
          out->bound = -Int128{v.lo};
        }
        return true;
      }
      case 's':
        if (ref.index >= derived.size() || !alive[ref.index]) {
          *why = "step reference out of scope";
          return false;
        }
        *out = derived[ref.index];
        return true;
    }
    *why = "malformed reference";
    return false;
  };
  const auto push_derived = [&](DCon con) {
    derived.push_back(std::move(con));
    alive.push_back(true);
    const DCon& back = derived.back();
    if (back.terms.empty() && back.bound < 0) closed.back() = true;
  };
  const auto kill_from = [&](std::uint32_t first) {
    for (std::size_t i = first; i < alive.size(); ++i) alive[i] = false;
  };

  for (std::size_t si = 0; si < f.steps.size(); ++si) {
    const FmeStep& st = f.steps[si];
    const auto step_fail = [&](const std::string& why) {
      return fail("fme step " + std::to_string(si) + ": " + why);
    };
    std::string why;
    switch (st.kind) {
      case FmeStep::kComb: {
        if (st.combo.empty()) return step_fail("empty combination");
        DCon acc;
        for (const auto& [ref, lambda] : st.combo) {
          if (lambda <= 0)
            return step_fail("combination coefficient must be positive");
          DCon part;
          if (!resolve(ref, &part, &why)) return step_fail(why);
          for (const auto& [var, coeff] : part.terms) {
            Int128 scaled = 0;
            if (!i128_mul(lambda, coeff, &scaled) ||
                !i128_add(acc.terms[var], scaled, &acc.terms[var]))
              return step_fail("coefficient overflow");
            if (acc.terms[var] == 0) acc.terms.erase(var);
          }
          Int128 scaled_bound = 0;
          if (!i128_mul(lambda, part.bound, &scaled_bound) ||
              !i128_add(acc.bound, scaled_bound, &acc.bound))
            return step_fail("bound overflow");
        }
        push_derived(std::move(acc));
        break;
      }
      case FmeStep::kDiv: {
        if (st.divisor <= 0) return step_fail("divisor must be positive");
        DCon part;
        if (!resolve(st.of, &part, &why)) return step_fail(why);
        DCon out;
        for (const auto& [var, coeff] : part.terms) {
          if (coeff % st.divisor != 0)
            return step_fail("divisor does not divide a coefficient");
          out.terms[var] = coeff / st.divisor;
        }
        out.bound = fme::floor_div(part.bound, st.divisor);
        push_derived(std::move(out));
        break;
      }
      case FmeStep::kSplit: {
        if (st.var >= f.vars.size())
          return step_fail("split variable out of range");
        Frame frame;
        frame.var = st.var;
        frame.at = st.at;
        frame.split_id = static_cast<std::uint32_t>(derived.size());
        frames.push_back(frame);
        closed.push_back(false);
        DCon hyp;  // left hypothesis: var ≤ at
        hyp.terms[st.var] = 1;
        hyp.bound = st.at;
        push_derived(std::move(hyp));
        break;
      }
      case FmeStep::kCase: {
        if (frames.empty() || frames.back().in_right)
          return step_fail("case without an open left branch");
        if (!closed.back())
          return step_fail("left branch is not contradicted");
        kill_from(frames.back().split_id);
        frames.back().in_right = true;
        closed.back() = false;
        Int128 neg_bound = 0;
        if (!i128_add(frames.back().at, 1, &neg_bound))
          return step_fail("split point overflow");
        DCon hyp;  // right hypothesis: var ≥ at+1  ⟺  −var ≤ −(at+1)
        hyp.terms[frames.back().var] = -1;
        hyp.bound = -neg_bound;
        push_derived(std::move(hyp));
        break;
      }
      case FmeStep::kQed: {
        if (frames.empty() || !frames.back().in_right)
          return step_fail("qed without an open right branch");
        if (!closed.back())
          return step_fail("right branch is not contradicted");
        kill_from(frames.back().split_id);
        frames.pop_back();
        closed.pop_back();
        closed.back() = true;
        break;
      }
    }
  }
  if (!frames.empty()) return fail("fme refutation leaves an open case split");
  if (!closed.back())
    return fail("fme refutation does not derive a contradiction");
  return true;
}

// ---------------------------------------------------------------------------
// Record handlers.

bool Checker::on_net(const JsonValue& v) {
  std::uint32_t id = 0;
  std::int64_t width = 0;
  std::string op;
  const JsonValue* args = nullptr;
  CertCircuit::Net net;
  if (!get_u32(v, "id", &id) || !get_int(v, "w", &width) ||
      !get_string(v, "op", &op) || !get_array(v, "args", &args) ||
      !get_int(v, "imm", &net.imm) || !get_int(v, "imm2", &net.imm2))
    return false;
  if (id != circuit_.nets.size())
    return fail("net records must be consecutive from 0");
  net.op = check_op_from_name(op);
  if (net.op == CheckOp::kUnknown)
    return fail("unknown net op \"" + op + "\"");
  net.width = static_cast<int>(width);
  for (const JsonValue& a : args->array) {
    if (!a.is_int() || a.integer < 0)
      return fail("net operand is not a nonnegative integer");
    net.args.push_back(static_cast<std::uint32_t>(a.integer));
  }
  circuit_.nets.push_back(std::move(net));
  return true;
}

bool Checker::on_assume(const JsonValue& v) {
  std::uint32_t net = 0;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  if (!get_u32(v, "net", &net) || !get_int(v, "lo", &lo) ||
      !get_int(v, "hi", &hi))
    return false;
  if (!circuit_.valid(net)) return fail("assumption on undeclared net");
  if (lo > hi) return fail("assumption with an empty interval");
  state_[net] = state_[net].intersect(Interval(lo, hi));
  if (state_[net].is_empty()) refuted_ = true;
  return true;
}

bool Checker::on_narrow0(const JsonValue& v) {
  WordStep step;
  if (!parse_step(v, &step)) return false;
  if (step.kind != 'n' && step.kind != 'c')
    return fail("level-0 narrowing must be a node or clause step");
  bool contradiction = false;
  if (!apply_step(step, state_, &contradiction)) return false;
  if (contradiction) refuted_ = true;
  return true;
}

bool Checker::on_conflict0(const JsonValue& v) {
  std::string kind;
  std::uint32_t id = 0;
  if (!get_string(v, "k", &kind) || !get_u32(v, "id", &id)) return false;
  if (kind == "a") {
    // An assumption emptied the state; the assume record already showed it.
    if (!refuted_)
      return fail("assumption conflict claimed but assumptions are "
                  "consistent");
    return true;
  }
  if (kind != "n" && kind != "c")
    return fail("level-0 conflict kind must be a/n/c");
  WordConflict conf;
  conf.kind = kind[0];
  conf.id = id;
  if (!verify_conflict(conf, state_, "level-0 conflict")) return false;
  refuted_ = true;
  return true;
}

bool Checker::on_learn(const JsonValue& v) {
  std::int64_t id = 0;
  const JsonValue* lits_json = nullptr;
  const JsonValue* steps_json = nullptr;
  const JsonValue* conf_json = v.find("conf");
  std::vector<WordLit> lits;
  std::vector<WordStep> steps;
  WordConflict conf;
  if (!get_int(v, "id", &id) || !get_array(v, "lits", &lits_json) ||
      !get_array(v, "steps", &steps_json) || conf_json == nullptr)
    return fail("malformed learn record");
  if (!parse_lits(*lits_json, &lits) || !parse_steps(*steps_json, &steps) ||
      !parse_conflict(*conf_json, &conf))
    return false;

  // Assume the clause false on top of the level-0 state, replay the
  // antecedent cut, and demand a contradiction.
  std::vector<Interval> s = state_;
  bool contradiction = false;
  for (const WordLit& l : lits) {
    s[l.net] = lit_assume_false(l, s[l.net]);
    if (s[l.net].is_empty()) contradiction = true;
  }
  if (!replay(s, steps, conf, /*need_contradiction=*/true, &contradiction))
    return false;
  if (lits.empty()) refuted_ = true;  // the empty clause
  return register_clause(id, std::move(lits));
}

bool Checker::on_cut(const JsonValue& v) {
  std::int64_t id = 0;
  const JsonValue* lits_json = nullptr;
  const JsonValue* steps_json = nullptr;
  const JsonValue* fme_json = v.find("fme");
  std::vector<WordLit> lits;
  std::vector<WordStep> steps;
  FmeData fme;
  if (!get_int(v, "id", &id) || !get_array(v, "lits", &lits_json) ||
      !get_array(v, "steps", &steps_json) || fme_json == nullptr)
    return fail("malformed cut record");
  if (!parse_lits(*lits_json, &lits) || !parse_steps(*steps_json, &steps) ||
      !parse_fme(*fme_json, &fme))
    return false;

  std::vector<Interval> s = state_;
  bool contradiction = false;
  for (const WordLit& l : lits) {
    s[l.net] = lit_assume_false(l, s[l.net]);
    if (s[l.net].is_empty()) contradiction = true;
  }
  if (!replay(s, steps, WordConflict{}, /*need_contradiction=*/false,
              &contradiction))
    return false;
  // The FME refutation closes the branch (unless propagation already did).
  if (!contradiction && !verify_fme(fme, s)) return false;
  if (lits.empty()) refuted_ = true;
  return register_clause(id, std::move(lits));
}

bool Checker::on_fme0(const JsonValue& v) {
  const JsonValue* fme_json = v.find("fme");
  FmeData fme;
  if (fme_json == nullptr) return fail("malformed fme0 record");
  if (!parse_fme(*fme_json, &fme)) return false;
  if (!verify_fme(fme, state_)) return false;
  refuted_ = true;
  return true;
}

bool Checker::on_probe(const JsonValue& v) {
  std::uint32_t pnet = 0;
  std::int64_t val = 0;
  const JsonValue* steps_json = nullptr;
  const JsonValue* conf_json = v.find("conf");
  const JsonValue* ways_json = nullptr;
  const JsonValue* clauses_json = nullptr;
  if (!get_u32(v, "net", &pnet) || !get_int(v, "val", &val) ||
      !get_array(v, "steps", &steps_json) || conf_json == nullptr ||
      !get_array(v, "ways", &ways_json) ||
      !get_array(v, "clauses", &clauses_json))
    return fail("malformed probe record");
  if (!circuit_.valid(pnet) || circuit_.nets[pnet].width != 1 ||
      (val != 0 && val != 1))
    return fail("probe target must be a Boolean net with value 0/1");
  std::vector<WordStep> steps;
  WordConflict conf;
  if (!parse_steps(*steps_json, &steps) || !parse_conflict(*conf_json, &conf))
    return false;

  // Replay the probe one level up.
  std::vector<Interval> s = state_;
  bool probe_dead = false;
  s[pnet] = s[pnet].intersect(Interval::point(val));
  if (s[pnet].is_empty()) probe_dead = true;
  if (!replay(s, steps, conf, /*need_contradiction=*/false, &probe_dead))
    return false;
  if (conf.kind != 0 && !probe_dead)
    return fail("probe records a conflict that did not verify");

  struct WayState {
    std::vector<std::pair<std::uint32_t, std::int64_t>> assign;
    bool feasible = false;
    std::vector<Interval> end;
  };
  std::vector<WayState> ways;
  int feasible = 0;
  if (!probe_dead) {
    for (const JsonValue& wv : ways_json->array) {
      if (!wv.is_object()) return fail("probe way is not an object");
      const JsonValue* assign_json = nullptr;
      const JsonValue* wsteps_json = nullptr;
      const JsonValue* wconf_json = wv.find("conf");
      if (!get_array(wv, "assign", &assign_json) ||
          !get_array(wv, "steps", &wsteps_json) || wconf_json == nullptr)
        return fail("malformed probe way");
      WayState way;
      for (const JsonValue& a : assign_json->array) {
        if (!a.is_array() || a.array.size() != 2 || !a.array[0].is_int() ||
            !a.array[1].is_int())
          return fail("way assignment is not a [net, value] pair");
        const std::int64_t anet = a.array[0].integer;
        if (anet < 0 || !circuit_.valid(static_cast<std::uint32_t>(anet)))
          return fail("way assignment on undeclared net");
        way.assign.push_back({static_cast<std::uint32_t>(anet),
                              a.array[1].integer});
      }
      std::vector<WordStep> wsteps;
      WordConflict wconf;
      if (!parse_steps(*wsteps_json, &wsteps) ||
          !parse_conflict(*wconf_json, &wconf))
        return false;
      std::vector<Interval> ws = s;
      bool dead = false;
      for (const auto& [anet, aval] : way.assign) {
        ws[anet] = ws[anet].intersect(Interval::point(aval));
        if (ws[anet].is_empty()) dead = true;
      }
      if (!replay(ws, wsteps, wconf, /*need_contradiction=*/false, &dead))
        return false;
      if (wconf.kind != 0 && !dead)
        return fail("probe way records a conflict that did not verify");
      way.feasible = !dead;
      if (way.feasible) {
        ++feasible;
        way.end = std::move(ws);
      }
      ways.push_back(std::move(way));
    }

    // Coverage: the recorded ways must include every way the driver gate
    // can still produce `val` under the replayed probe state. Each
    // expected case is a full assignment set; a recorded way may omit a
    // pin the state already holds.
    std::vector<std::vector<std::pair<std::uint32_t, std::int64_t>>> cases;
    const CertCircuit::Net& n = circuit_.nets[pnet];
    switch (n.op) {
      case CheckOp::kAnd:
      case CheckOp::kOr: {
        const std::int64_t controlling = n.op == CheckOp::kOr ? 1 : 0;
        if (val != controlling)
          return fail("probe ways on a gate/value without branching");
        for (const std::uint32_t o : n.args) {
          if (s[o].contains(controlling)) cases.push_back({{o, controlling}});
        }
        break;
      }
      case CheckOp::kXor: {
        const std::uint32_t a = n.args[0];
        const std::uint32_t c = n.args[1];
        for (const std::int64_t pa : {std::int64_t{0}, std::int64_t{1}}) {
          const std::int64_t pc = (pa == 1) == (val == 1) ? 0 : 1;
          if (s[a].contains(pa) && s[c].contains(pc))
            cases.push_back({{a, pa}, {c, pc}});
        }
        break;
      }
      case CheckOp::kMux: {
        if (n.width != 1)
          return fail("probe ways on a gate/value without branching");
        const std::uint32_t sel = n.args[0];
        for (const int arm : {1, 0}) {
          const std::uint32_t branch = arm == 1 ? n.args[1] : n.args[2];
          if (s[sel].contains(arm) && s[branch].contains(val))
            cases.push_back({{sel, arm}, {branch, val}});
        }
        break;
      }
      default:
        return fail("probe ways on a gate/value without branching");
    }
    for (const auto& expected : cases) {
      bool covered = false;
      for (const WayState& way : ways) {
        // way.assign ⊆ expected, and every expected pin is either in the
        // way or already held by the probe state.
        bool match = true;
        for (const auto& wa : way.assign) {
          if (std::find(expected.begin(), expected.end(), wa) ==
              expected.end()) {
            match = false;
            break;
          }
        }
        if (!match) continue;
        for (const auto& ea : expected) {
          const bool pinned = s[ea.first] == Interval::point(ea.second);
          if (!pinned && std::find(way.assign.begin(), way.assign.end(),
                                   ea) == way.assign.end()) {
            match = false;
            break;
          }
        }
        if (match) {
          covered = true;
          break;
        }
      }
      if (!covered)
        return fail("probe ways do not cover a possible case of net " +
                    std::to_string(pnet));
    }
    if (feasible == 0) probe_dead = true;  // every way contradicted
  }

  // Justify the record's clauses. Each must carry the probe antecedent
  // ¬(net = val); when the probe survived, every other literal must hold
  // at the end of every feasible way.
  for (const JsonValue& cv : clauses_json->array) {
    if (!cv.is_array()) return fail("probe clause is not an array");
    std::vector<WordLit> lits;
    if (!parse_lits(cv, &lits)) return false;
    const bool has_antecedent =
        std::any_of(lits.begin(), lits.end(), [&](const WordLit& l) {
          return l.is_bool && l.net == pnet && l.lo == 1 - val;
        });
    if (!has_antecedent)
      return fail("probe clause lacks the antecedent literal");
    if (!probe_dead) {
      for (const WayState& way : ways) {
        if (!way.feasible) continue;
        const bool satisfied =
            std::any_of(lits.begin(), lits.end(), [&](const WordLit& l) {
              return lit_true(l, way.end[l.net]);
            });
        if (!satisfied)
          return fail("probe clause is not implied by every feasible way");
      }
    }
    justified_.insert(clause_key(lits));
  }
  return true;
}

bool Checker::on_wprobe(const JsonValue& v) {
  std::uint32_t wnet = 0;
  const JsonValue* cases_json = nullptr;
  const JsonValue* clauses_json = nullptr;
  if (!get_u32(v, "net", &wnet) || !get_array(v, "cases", &cases_json) ||
      !get_array(v, "clauses", &clauses_json))
    return fail("malformed wprobe record");
  if (!circuit_.valid(wnet)) return fail("wprobe on undeclared net");

  struct CaseState {
    Interval box;
    bool feasible = false;
    std::vector<Interval> end;
  };
  std::vector<CaseState> cases;
  int feasible = 0;
  for (const JsonValue& cv : cases_json->array) {
    if (!cv.is_object()) return fail("wprobe case is not an object");
    std::int64_t lo = 0;
    std::int64_t hi = 0;
    const JsonValue* steps_json = nullptr;
    const JsonValue* conf_json = cv.find("conf");
    if (!get_int(cv, "lo", &lo) || !get_int(cv, "hi", &hi) ||
        !get_array(cv, "steps", &steps_json) || conf_json == nullptr)
      return fail("malformed wprobe case");
    std::vector<WordStep> steps;
    WordConflict conf;
    if (!parse_steps(*steps_json, &steps) ||
        !parse_conflict(*conf_json, &conf))
      return false;
    CaseState cs;
    cs.box = Interval(lo, hi);
    std::vector<Interval> s = state_;
    bool dead = false;
    s[wnet] = s[wnet].intersect(cs.box);
    if (s[wnet].is_empty()) dead = true;
    if (!replay(s, steps, conf, /*need_contradiction=*/false, &dead))
      return false;
    if (conf.kind != 0 && !dead)
      return fail("wprobe case records a conflict that did not verify");
    cs.feasible = !dead;
    if (cs.feasible) {
      ++feasible;
      cs.end = std::move(s);
    }
    cases.push_back(std::move(cs));
  }

  // The cases must cover the net's whole level-0 domain.
  Interval rest = state_[wnet];
  bool progress = true;
  while (!rest.is_empty() && progress) {
    progress = false;
    for (const CaseState& cs : cases) {
      if (cs.box.contains(rest.lo())) {
        if (cs.box.hi() >= rest.hi()) {
          rest = Interval::empty();
        } else {
          rest = Interval(cs.box.hi() + 1, rest.hi());
        }
        progress = true;
        break;
      }
    }
  }
  if (!rest.is_empty())
    return fail("wprobe cases do not cover the domain of net " +
                std::to_string(wnet));

  if (feasible == 0) {
    refuted_ = true;  // a full domain with every case contradicted
    return true;
  }
  for (const JsonValue& cv : clauses_json->array) {
    if (!cv.is_array()) return fail("wprobe clause is not an array");
    std::vector<WordLit> lits;
    if (!parse_lits(cv, &lits)) return false;
    for (const CaseState& cs : cases) {
      if (!cs.feasible) continue;
      const bool satisfied =
          std::any_of(lits.begin(), lits.end(), [&](const WordLit& l) {
            return lit_true(l, cs.end[l.net]);
          });
      if (!satisfied)
        return fail("wprobe clause is not implied by every feasible case");
    }
    justified_.insert(clause_key(lits));
  }
  return true;
}

bool Checker::on_addc(const JsonValue& v) {
  std::int64_t id = 0;
  const JsonValue* lits_json = nullptr;
  std::vector<WordLit> lits;
  if (!get_int(v, "id", &id) || !get_array(v, "lits", &lits_json))
    return fail("malformed addc record");
  if (!parse_lits(*lits_json, &lits)) return false;
  if (!justified_.contains(clause_key(lits)))
    return fail("added clause " + std::to_string(id) +
                " was never justified");
  return register_clause(id, std::move(lits));
}

bool Checker::on_import(const JsonValue& v) {
  std::int64_t id = 0;
  std::int64_t worker = 0;
  std::int64_t seq = 0;
  const JsonValue* lits_json = nullptr;
  std::vector<WordLit> lits;
  if (!get_int(v, "id", &id) || !get_int(v, "worker", &worker) ||
      !get_int(v, "seq", &seq) || !get_array(v, "lits", &lits_json))
    return fail("malformed import record");
  if (!parse_lits(*lits_json, &lits)) return false;
  if (!options_.trust_imports)
    return fail("clause " + std::to_string(id) + " imported from worker " +
                std::to_string(worker) +
                " is unjustified (rerun with --trust-imports to accept)");
  return register_clause(id, std::move(lits));
}

bool Checker::on_delc(const JsonValue& v) {
  std::int64_t id = 0;
  if (!get_int(v, "id", &id)) return fail("malformed delc record");
  if (!clauses_.contains(id) || deleted_.contains(id))
    return fail("deletion of unknown clause " + std::to_string(id));
  deleted_.insert(id);
  return true;
}

bool Checker::on_end(const JsonValue& v) {
  if (!get_string(v, "verdict", &verdict_)) return false;
  if (verdict_ != "unsat" && verdict_ != "sat" && verdict_ != "timeout" &&
      verdict_ != "cancelled")
    return fail("unknown verdict \"" + verdict_ + "\"");
  if (verdict_ == "unsat" && !refuted_)
    return fail("verdict is unsat but no refutation was established");
  stage_ = Stage::kDone;
  return true;
}

WordCheckResult Checker::run(std::string_view text) {
  WordCheckResult result;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view raw = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (raw.find_first_not_of(" \t\r") == std::string_view::npos) continue;
    ++line_;
    ++result.records;

    JsonValue v;
    std::string parse_error;
    if (!trace::json_parse(raw, &v, &parse_error)) {
      fail("malformed JSON (truncated final step?): " + parse_error);
      break;
    }
    std::string type;
    if (!v.is_object() || !get_string(v, "t", &type)) {
      fail("record without a \"t\" discriminator");
      break;
    }

    bool ok = true;
    if (stage_ == Stage::kDone) {
      ok = fail("record after the end record");
    } else if (stage_ == Stage::kHeader) {
      std::int64_t version = 0;
      if (type != "rtlsat_cert") {
        ok = fail("certificate must start with a rtlsat_cert header");
      } else if (!get_int(v, "version", &version) || version != 1) {
        ok = fail("unsupported certificate version");
      } else {
        stage_ = Stage::kNets;
      }
    } else if (type == "net") {
      ok = stage_ == Stage::kNets ? on_net(v)
                                  : fail("net record after derivations began");
    } else {
      if (stage_ == Stage::kNets && !(ok = freeze_circuit())) {
        // fall through with the error set
      } else if (type == "assume") {
        ok = on_assume(v);
      } else if (type == "n0") {
        ok = on_narrow0(v);
      } else if (type == "conflict0") {
        ok = on_conflict0(v);
      } else if (type == "learn") {
        ok = on_learn(v);
      } else if (type == "cut") {
        ok = on_cut(v);
      } else if (type == "fme0") {
        ok = on_fme0(v);
      } else if (type == "probe") {
        ok = on_probe(v);
      } else if (type == "wprobe") {
        ok = on_wprobe(v);
      } else if (type == "addc") {
        ok = on_addc(v);
      } else if (type == "import") {
        ok = on_import(v);
      } else if (type == "delc") {
        ok = on_delc(v);
      } else if (type == "end") {
        ok = on_end(v);
      } else {
        ok = fail("unknown record type \"" + type + "\"");
      }
    }
    if (!ok) break;
  }

  result.refuted = refuted_;
  result.verdict = verdict_;
  if (!error_.empty()) {
    result.error = error_;
    return result;
  }
  if (stage_ != Stage::kDone) {
    result.error =
        "certificate ends without an end record (truncated file?)";
    return result;
  }
  result.ok = true;
  return result;
}

FmeCheckResult Checker::check_fme(std::string_view fme_json) {
  line_ = 1;
  JsonValue v;
  std::string parse_error;
  FmeData fme;
  FmeCheckResult result;
  if (!trace::json_parse(fme_json, &v, &parse_error)) {
    fail("malformed JSON: " + parse_error);
  } else if (parse_fme(v, &fme) && replay_fme(fme)) {
    result.ok = true;
  }
  result.error = error_;
  return result;
}

}  // namespace

FmeCheckResult check_fme_refutation(std::string_view fme_json) {
  Checker checker(WordCheckOptions{});
  return checker.check_fme(fme_json);
}

WordCheckResult word_check(std::string_view certificate,
                           const WordCheckOptions& options) {
  Checker checker(options);
  return checker.run(certificate);
}

}  // namespace rtlsat::proof
