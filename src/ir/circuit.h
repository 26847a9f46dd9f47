// Word-level netlist: nets, operator nodes, and the builder API.
//
// A Circuit is an append-only DAG of nodes; the node index is the id of the
// net the node drives (one driver per net, combinational only — sequential
// designs live in bmc::SeqCircuit and are unrolled into a Circuit).
//
// The builder hash-conses structurally identical nodes and constant-folds
// where trivially possible, which keeps BMC-unrolled instances close to the
// paper's reported operator counts rather than blowing up with duplicates.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "interval/interval.h"
#include "ir/op.h"
#include "util/assert.h"

namespace rtlsat::ir {

using NetId = std::uint32_t;
inline constexpr NetId kNoNet = 0xffffffffu;
inline constexpr int kMaxWidth = 60;

struct Node {
  Op op = Op::kInput;
  int width = 1;                 // output width in bits
  std::vector<NetId> operands;   // driver nets of the inputs
  std::int64_t imm = 0;          // kConst value, kMulC/kShlC/kShrC k, kExtract hi
  std::int64_t imm2 = 0;         // kExtract lo
  std::string name;              // optional; inputs always named
};

class Circuit {
 public:
  Circuit() = default;
  explicit Circuit(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  std::size_t num_nets() const { return nodes_.size(); }
  const Node& node(NetId id) const {
    RTLSAT_DASSERT(id < nodes_.size());
    return nodes_[id];
  }
  int width(NetId id) const { return node(id).width; }
  bool is_bool(NetId id) const { return node(id).width == 1; }
  // Full unsigned domain ⟨0, 2^w−1⟩ of a net.
  Interval domain(NetId id) const { return Interval::full_width(width(id)); }

  const std::vector<NetId>& inputs() const { return inputs_; }

  // ------------------------------------------------------------- builder

  NetId add_input(std::string name, int width);
  NetId add_const(std::int64_t value, int width);

  // Boolean gates; all operands must be 1-bit.
  NetId add_and(std::vector<NetId> ops);
  NetId add_or(std::vector<NetId> ops);
  NetId add_and(NetId a, NetId b) { return add_and(std::vector<NetId>{a, b}); }
  NetId add_or(NetId a, NetId b) { return add_or(std::vector<NetId>{a, b}); }
  NetId add_not(NetId a);
  NetId add_xor(NetId a, NetId b);
  NetId add_xnor(NetId a, NetId b) { return add_not(add_xor(a, b)); }
  NetId add_implies(NetId a, NetId b) { return add_or(add_not(a), b); }

  // Word operators. add/sub/min/max require equal operand widths; mux
  // requires equal then/else widths and a 1-bit select.
  NetId add_mux(NetId sel, NetId then_net, NetId else_net);
  NetId add_add(NetId a, NetId b);
  NetId add_sub(NetId a, NetId b);
  NetId add_mulc(NetId a, std::int64_t k);
  NetId add_shl(NetId a, int k);
  NetId add_shr(NetId a, int k);
  NetId add_notw(NetId a);
  NetId add_concat(NetId hi, NetId lo);
  NetId add_extract(NetId a, int hi_bit, int lo_bit);
  NetId add_bit(NetId a, int bit) { return add_extract(a, bit, bit); }
  NetId add_zext(NetId a, int width);
  NetId add_trunc(NetId a, int width) { return add_extract(a, width - 1, 0); }
  // min/max lower to comparator + mux — the structure the ITC'99 b04
  // data-path has in the paper's Fig. 2, and the form HDPLL's structural
  // justification understands. The *_raw forms emit dedicated kMin/kMax
  // nodes for users of the propagation engine alone; solver-bound circuits
  // should use the lowered forms (the FME end-game rejects raw nodes whose
  // order is still undecided).
  NetId add_min(NetId a, NetId b) { return add_mux(add_lt(a, b), a, b); }
  NetId add_max(NetId a, NetId b) { return add_mux(add_lt(a, b), b, a); }
  NetId add_min_raw(NetId a, NetId b);
  NetId add_max_raw(NetId a, NetId b);
  // Increment modulo 2^w — the idiom for the benchmark counters.
  NetId add_inc(NetId a) { return add_add(a, add_const(1, width(a))); }

  // Predicates (unsigned). Following §2.1, word equality is represented as
  // a pair of inequalities (a ≤ b) ∧ (b ≤ a), so that a false equality
  // resolves into a Boolean choice of strict inequality rather than a
  // non-convex disequality; 1-bit equality is an XNOR. add_eq_raw emits a
  // dedicated kEq node (propagation-engine users and tests only).
  // gt/ge canonicalize by operand swap.
  NetId add_eq(NetId a, NetId b);
  NetId add_eq_raw(NetId a, NetId b);
  NetId add_ne(NetId a, NetId b);
  NetId add_lt(NetId a, NetId b);
  NetId add_le(NetId a, NetId b);
  NetId add_gt(NetId a, NetId b) { return add_lt(b, a); }
  NetId add_ge(NetId a, NetId b) { return add_le(b, a); }
  NetId add_eqc(NetId a, std::int64_t c) {
    return add_eq(a, add_const(c, width(a)));
  }

  // Appends a node verbatim: no hash-consing, no folding, no width or
  // operand validation. For deserializers and for tests that need
  // deliberately malformed netlists to exercise validate()/lint — circuits
  // built this way must be checked before use.
  NetId add_unchecked(Node node);

  // Re-emits a node with `shape`'s op, width and immediates over
  // `operands` (the images of shape.operands, in order) through the checked
  // builder above, so its folds and hash-consing apply again; `shape` may
  // belong to another circuit. This is the one per-op copy: cone
  // extraction, BMC frame copies, presolve and the fuzz reducer all rebuild
  // through it. Raw nodes stay raw (kMin/kMax/kEq); kNe re-emits as
  // not(eq_raw). Inputs are refused — each caller names its own.
  NetId add_like(const Node& shape, std::span<const NetId> operands);

  // Name an already-built net (for debugging/dumps); inputs keep the name
  // given at creation.
  void set_net_name(NetId id, std::string name);
  // Register an additional lookup name for a net without renaming it —
  // used by frontends where several identifiers alias one hash-consed node.
  void add_name_alias(std::string name, NetId id) {
    RTLSAT_ASSERT(id < nodes_.size());
    names_.emplace(std::move(name), id);
  }
  // Name if set, else "n<id>".
  std::string net_name(NetId id) const;
  // Reverse lookup; kNoNet if no net carries `name`.
  NetId find_net(std::string_view name) const;

  // Simulate the circuit on concrete input values (keyed by input NetId).
  // Used by the oracle tests and the counterexample printer.
  std::vector<std::int64_t> evaluate(
      const std::unordered_map<NetId, std::int64_t>& input_values) const;

  // Structural sanity checks; aborts on the first defect found. Delegates
  // to ir::check_structure (structure_check.h), the shared rule set behind
  // the lint subsystem — lint for a diagnosis, validate() for a guard.
  void validate() const;

  // Counts for the paper tables: word-level operator nodes vs Boolean ones.
  struct OpCounts {
    std::size_t arith = 0;  // word operators + comparators
    std::size_t boolean = 0;
  };
  OpCounts op_counts() const;

  std::string to_dot() const;

  // Canonical digest of `goal`'s fan-in cone: name-independent, dead-node-
  // independent, commutative-operand-normalized — isomorphic property cones
  // hash equal. This is the serve result-cache key (delegates to
  // ir::canonical_cone, see ir/cone.h; use that directly when the full
  // canonical text or the input mapping is needed — the 64-bit digest alone
  // must not be trusted for cache equality).
  std::uint64_t cone_hash(NetId goal) const;

 private:
  NetId push(Node node);
  // Hash-consing lookup; returns kNoNet when no identical node exists.
  NetId find_existing(const Node& node) const;
  void check_bool(NetId id) const {
    RTLSAT_ASSERT_MSG(is_bool(id), "operand must be 1-bit");
  }

  std::string name_;
  std::vector<Node> nodes_;
  std::vector<NetId> inputs_;
  std::unordered_map<std::uint64_t, std::vector<NetId>> structural_hash_;
  std::unordered_map<std::string, NetId> names_;
};

}  // namespace rtlsat::ir
