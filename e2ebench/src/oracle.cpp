#include "oracle.h"

#include <cctype>
#include <cstdio>

#include "bitblast/bitblast.h"

namespace e2e {

Verdict recorded_verdict(const std::string& model, const std::string& property,
                         int bound) {
  // EXPERIMENTS.md, "Table 2 — structural decision strategy": "SAT/UNSAT
  // matches the paper for every family (b01_1: S at bounds ≡ 10 (mod 20), U
  // at ≡ 0; b02_1 U; b04_1 all-S; b13_{1,2,3,5,8} U; b13_40(13) S)". The
  // paper's Table 2 lists the same pattern (b13_1 and b13_5 U at every
  // reported bound). tests/integration/bmc_end_to_end_test.cpp holds these
  // families against the bit-blast oracle.
  if (bound < 1) return Verdict::kUndecided;
  if (model == "b13") {
    if (property == "1" || property == "2" || property == "3" ||
        property == "5" || property == "8")
      return Verdict::kUnsat;
    if (property == "40" && bound == 13) return Verdict::kSat;
  }
  if (model == "b01" && property == "1") {
    if (bound % 20 == 10) return Verdict::kSat;
    if (bound % 20 == 0) return Verdict::kUnsat;
  }
  if (model == "b02" && property == "1") return Verdict::kUnsat;
  if (model == "b04" && property == "1" && bound >= 5) return Verdict::kSat;
  return Verdict::kUndecided;
}

Verdict bitblast_verdict(const ir::Circuit& circuit, ir::NetId goal) {
  const rtlsat::bitblast::CheckResult r =
      rtlsat::bitblast::check_sat(circuit, goal, true);
  switch (r.result) {
    case rtlsat::sat::Result::kSat: return Verdict::kSat;
    case rtlsat::sat::Result::kUnsat: return Verdict::kUnsat;
    default: return Verdict::kUndecided;
  }
}

bool replay_model(const ir::Circuit& circuit, ir::NetId goal,
                  const std::unordered_map<ir::NetId, std::int64_t>& model) {
  for (ir::NetId in : circuit.inputs())
    if (model.find(in) == model.end()) return false;
  const std::vector<std::int64_t> values = circuit.evaluate(model);
  return values[goal] == 1;
}

Verdict inverted(Verdict v) {
  return v == Verdict::kSat ? Verdict::kUnsat : Verdict::kSat;
}

std::string verdict_failure(const std::string& job, Verdict expected,
                            Verdict got) {
  if (got == Verdict::kUndecided || got == expected) return "";
  return job + ": expected " + verdict_name(expected) + ", got " +
         verdict_name(got);
}

namespace {

bool is_delim(char c) {
  return c == '(' || c == ')' || std::isspace(static_cast<unsigned char>(c));
}

// Splits the text into alternating delimiter runs and tokens.
template <typename Fn>
void for_each_token(const std::string& text, Fn&& fn) {
  std::size_t i = 0;
  while (i < text.size()) {
    if (is_delim(text[i])) {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < text.size() && !is_delim(text[j])) ++j;
    fn(i, j);
    i = j;
  }
}

}  // namespace

std::string rename_nets(
    const std::string& text, const std::string& prefix,
    std::unordered_map<std::string, std::string>* renamed) {
  renamed->clear();
  // A token right after '(' is an operator or a declaration keyword; names
  // never appear there, so only the other tokens are candidates.
  const auto opens = [&](std::size_t b) { return b > 0 && text[b - 1] == '('; };
  std::string previous;
  bool previous_opens = false;
  for_each_token(text, [&](std::size_t b, std::size_t e) {
    std::string token = text.substr(b, e - b);
    if (previous_opens &&
        (previous == "input" || previous == "net" || previous == "register") &&
        renamed->find(token) == renamed->end())
      renamed->emplace(token, prefix + std::to_string(renamed->size()));
    previous_opens = opens(b);
    previous = std::move(token);
  });

  std::string out;
  out.reserve(text.size() + text.size() / 8);
  std::size_t copied = 0;
  for_each_token(text, [&](std::size_t b, std::size_t e) {
    if (opens(b)) return;
    auto it = renamed->find(text.substr(b, e - b));
    if (it == renamed->end()) return;
    out.append(text, copied, b - copied);
    out += it->second;
    copied = e;
  });
  out.append(text, copied, std::string::npos);
  return out;
}

std::string seed_prefix(char tag, std::uint64_t seed) {
  char prefix[16];
  std::snprintf(prefix, sizeof(prefix), "%c%04x_", tag,
                static_cast<unsigned>((seed * 2654435761u) & 0xffff));
  return prefix;
}

std::string renamed_name(
    const std::unordered_map<std::string, std::string>& renamed,
    const std::string& name) {
  auto it = renamed.find(name);
  return it == renamed.end() ? name : it->second;
}

}  // namespace e2e
