#include "ir/circuit.h"

#include <algorithm>
#include <sstream>

#include "interval/interval_ops.h"
#include "ir/cone.h"
#include "ir/structure_check.h"

namespace rtlsat::ir {

std::string_view op_name(Op op) {
  switch (op) {
    case Op::kInput: return "input";
    case Op::kConst: return "const";
    case Op::kAnd: return "and";
    case Op::kOr: return "or";
    case Op::kNot: return "not";
    case Op::kXor: return "xor";
    case Op::kMux: return "mux";
    case Op::kAdd: return "add";
    case Op::kSub: return "sub";
    case Op::kMulC: return "mulc";
    case Op::kShlC: return "shl";
    case Op::kShrC: return "shr";
    case Op::kNotW: return "notw";
    case Op::kConcat: return "concat";
    case Op::kExtract: return "extract";
    case Op::kZext: return "zext";
    case Op::kMin: return "min";
    case Op::kMax: return "max";
    case Op::kEq: return "eq";
    case Op::kNe: return "ne";
    case Op::kLt: return "lt";
    case Op::kLe: return "le";
  }
  return "?";
}

namespace {

std::uint64_t hash_node(const Node& n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(static_cast<std::uint64_t>(n.op));
  mix(static_cast<std::uint64_t>(n.width));
  mix(static_cast<std::uint64_t>(n.imm));
  mix(static_cast<std::uint64_t>(n.imm2));
  for (NetId id : n.operands) mix(id);
  return h;
}

bool same_structure(const Node& a, const Node& b) {
  return a.op == b.op && a.width == b.width && a.imm == b.imm &&
         a.imm2 == b.imm2 && a.operands == b.operands;
}

}  // namespace

NetId Circuit::push(Node node) {
  RTLSAT_ASSERT(node.width >= 1 && node.width <= kMaxWidth);
  // Inputs are never shared; everything else is hash-consed.
  if (node.op != Op::kInput) {
    if (NetId existing = find_existing(node); existing != kNoNet)
      return existing;
  }
  const NetId id = static_cast<NetId>(nodes_.size());
  structural_hash_[hash_node(node)].push_back(id);
  if (node.op == Op::kInput) inputs_.push_back(id);
  if (!node.name.empty()) names_.emplace(node.name, id);
  nodes_.push_back(std::move(node));
  return id;
}

NetId Circuit::find_existing(const Node& node) const {
  auto it = structural_hash_.find(hash_node(node));
  if (it == structural_hash_.end()) return kNoNet;
  for (NetId cand : it->second) {
    if (same_structure(nodes_[cand], node)) return cand;
  }
  return kNoNet;
}

NetId Circuit::add_input(std::string name, int width) {
  RTLSAT_ASSERT_MSG(!name.empty(), "inputs must be named");
  Node n;
  n.op = Op::kInput;
  n.width = width;
  n.name = std::move(name);
  return push(std::move(n));
}

NetId Circuit::add_const(std::int64_t value, int width) {
  RTLSAT_ASSERT(Interval::full_width(width).contains(value));
  Node n;
  n.op = Op::kConst;
  n.width = width;
  n.imm = value;
  return push(std::move(n));
}

NetId Circuit::add_and(std::vector<NetId> ops) {
  RTLSAT_ASSERT(ops.size() >= 1);
  if (ops.size() == 1) return ops[0];
  for (NetId id : ops) check_bool(id);
  // Fold constants and duplicates; sort for canonical form.
  std::vector<NetId> kept;
  for (NetId id : ops) {
    const Node& d = node(id);
    if (d.op == Op::kConst) {
      if (d.imm == 0) return add_const(0, 1);
      continue;  // AND with 1 is identity
    }
    kept.push_back(id);
  }
  std::sort(kept.begin(), kept.end());
  kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
  if (kept.empty()) return add_const(1, 1);
  if (kept.size() == 1) return kept[0];
  Node n;
  n.op = Op::kAnd;
  n.width = 1;
  n.operands = std::move(kept);
  return push(std::move(n));
}

NetId Circuit::add_or(std::vector<NetId> ops) {
  RTLSAT_ASSERT(ops.size() >= 1);
  if (ops.size() == 1) return ops[0];
  for (NetId id : ops) check_bool(id);
  std::vector<NetId> kept;
  for (NetId id : ops) {
    const Node& d = node(id);
    if (d.op == Op::kConst) {
      if (d.imm == 1) return add_const(1, 1);
      continue;  // OR with 0 is identity
    }
    kept.push_back(id);
  }
  std::sort(kept.begin(), kept.end());
  kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
  if (kept.empty()) return add_const(0, 1);
  if (kept.size() == 1) return kept[0];
  Node n;
  n.op = Op::kOr;
  n.width = 1;
  n.operands = std::move(kept);
  return push(std::move(n));
}

NetId Circuit::add_not(NetId a) {
  check_bool(a);
  const Node& d = node(a);
  if (d.op == Op::kConst) return add_const(1 - d.imm, 1);
  if (d.op == Op::kNot) return d.operands[0];  // ¬¬x = x
  Node n;
  n.op = Op::kNot;
  n.width = 1;
  n.operands = {a};
  return push(std::move(n));
}

NetId Circuit::add_xor(NetId a, NetId b) {
  check_bool(a);
  check_bool(b);
  if (a == b) return add_const(0, 1);
  const Node& da = node(a);
  const Node& db = node(b);
  if (da.op == Op::kConst) return da.imm ? add_not(b) : b;
  if (db.op == Op::kConst) return db.imm ? add_not(a) : a;
  if (a > b) std::swap(a, b);
  Node n;
  n.op = Op::kXor;
  n.width = 1;
  n.operands = {a, b};
  return push(std::move(n));
}

NetId Circuit::add_mux(NetId sel, NetId then_net, NetId else_net) {
  check_bool(sel);
  RTLSAT_ASSERT(width(then_net) == width(else_net));
  if (then_net == else_net) return then_net;
  const Node& ds = node(sel);
  if (ds.op == Op::kConst) return ds.imm ? then_net : else_net;
  Node n;
  n.op = Op::kMux;
  n.width = width(then_net);
  n.operands = {sel, then_net, else_net};
  return push(std::move(n));
}

NetId Circuit::add_add(NetId a, NetId b) {
  RTLSAT_ASSERT(width(a) == width(b));
  const Node& da = node(a);
  const Node& db = node(b);
  if (da.op == Op::kConst && db.op == Op::kConst) {
    const std::int64_t m = std::int64_t{1} << width(a);
    return add_const((da.imm + db.imm) % m, width(a));
  }
  if (da.op == Op::kConst && da.imm == 0) return b;
  if (db.op == Op::kConst && db.imm == 0) return a;
  if (a > b) std::swap(a, b);
  Node n;
  n.op = Op::kAdd;
  n.width = width(a);
  n.operands = {a, b};
  return push(std::move(n));
}

NetId Circuit::add_sub(NetId a, NetId b) {
  RTLSAT_ASSERT(width(a) == width(b));
  const Node& da = node(a);
  const Node& db = node(b);
  if (da.op == Op::kConst && db.op == Op::kConst) {
    const std::int64_t m = std::int64_t{1} << width(a);
    return add_const(((da.imm - db.imm) % m + m) % m, width(a));
  }
  if (db.op == Op::kConst && db.imm == 0) return a;
  if (a == b) return add_const(0, width(a));
  Node n;
  n.op = Op::kSub;
  n.width = width(a);
  n.operands = {a, b};
  return push(std::move(n));
}

NetId Circuit::add_mulc(NetId a, std::int64_t k) {
  RTLSAT_ASSERT(k >= 0);
  if (k == 0) return add_const(0, width(a));
  if (k == 1) return a;
  Node n;
  n.op = Op::kMulC;
  n.width = width(a);
  n.imm = k;
  n.operands = {a};
  return push(std::move(n));
}

NetId Circuit::add_shl(NetId a, int k) {
  RTLSAT_ASSERT(k >= 0 && k < width(a));
  if (k == 0) return a;
  Node n;
  n.op = Op::kShlC;
  n.width = width(a);
  n.imm = k;
  n.operands = {a};
  return push(std::move(n));
}

NetId Circuit::add_shr(NetId a, int k) {
  RTLSAT_ASSERT(k >= 0 && k < width(a));
  if (k == 0) return a;
  Node n;
  n.op = Op::kShrC;
  n.width = width(a);
  n.imm = k;
  n.operands = {a};
  return push(std::move(n));
}

NetId Circuit::add_notw(NetId a) {
  Node n;
  n.op = Op::kNotW;
  n.width = width(a);
  n.operands = {a};
  return push(std::move(n));
}

NetId Circuit::add_concat(NetId hi, NetId lo) {
  const int w = width(hi) + width(lo);
  RTLSAT_ASSERT(w <= kMaxWidth);
  Node n;
  n.op = Op::kConcat;
  n.width = w;
  n.operands = {hi, lo};
  return push(std::move(n));
}

NetId Circuit::add_extract(NetId a, int hi_bit, int lo_bit) {
  RTLSAT_ASSERT(0 <= lo_bit && lo_bit <= hi_bit && hi_bit < width(a));
  if (lo_bit == 0 && hi_bit == width(a) - 1) return a;
  Node n;
  n.op = Op::kExtract;
  n.width = hi_bit - lo_bit + 1;
  n.imm = hi_bit;
  n.imm2 = lo_bit;
  n.operands = {a};
  return push(std::move(n));
}

NetId Circuit::add_zext(NetId a, int w) {
  RTLSAT_ASSERT(w >= width(a));
  if (w == width(a)) return a;
  Node n;
  n.op = Op::kZext;
  n.width = w;
  n.operands = {a};
  return push(std::move(n));
}

NetId Circuit::add_min_raw(NetId a, NetId b) {
  RTLSAT_ASSERT(width(a) == width(b));
  if (a == b) return a;
  if (a > b) std::swap(a, b);
  Node n;
  n.op = Op::kMin;
  n.width = width(a);
  n.operands = {a, b};
  return push(std::move(n));
}

NetId Circuit::add_max_raw(NetId a, NetId b) {
  RTLSAT_ASSERT(width(a) == width(b));
  if (a == b) return a;
  if (a > b) std::swap(a, b);
  Node n;
  n.op = Op::kMax;
  n.width = width(a);
  n.operands = {a, b};
  return push(std::move(n));
}

NetId Circuit::add_eq(NetId a, NetId b) {
  RTLSAT_ASSERT(width(a) == width(b));
  if (width(a) == 1) return add_xnor(a, b);
  return add_and(add_le(a, b), add_le(b, a));
}

NetId Circuit::add_eq_raw(NetId a, NetId b) {
  RTLSAT_ASSERT(width(a) == width(b));
  if (a == b) return add_const(1, 1);
  const Node& da = node(a);
  const Node& db = node(b);
  if (da.op == Op::kConst && db.op == Op::kConst)
    return add_const(da.imm == db.imm ? 1 : 0, 1);
  if (a > b) std::swap(a, b);
  Node n;
  n.op = Op::kEq;
  n.width = 1;
  n.operands = {a, b};
  return push(std::move(n));
}

NetId Circuit::add_ne(NetId a, NetId b) { return add_not(add_eq(a, b)); }

NetId Circuit::add_lt(NetId a, NetId b) {
  RTLSAT_ASSERT(width(a) == width(b));
  if (a == b) return add_const(0, 1);
  const Node& da = node(a);
  const Node& db = node(b);
  if (da.op == Op::kConst && db.op == Op::kConst)
    return add_const(da.imm < db.imm ? 1 : 0, 1);
  Node n;
  n.op = Op::kLt;
  n.width = 1;
  n.operands = {a, b};
  return push(std::move(n));
}

NetId Circuit::add_le(NetId a, NetId b) {
  RTLSAT_ASSERT(width(a) == width(b));
  if (a == b) return add_const(1, 1);
  const Node& da = node(a);
  const Node& db = node(b);
  if (da.op == Op::kConst && db.op == Op::kConst)
    return add_const(da.imm <= db.imm ? 1 : 0, 1);
  Node n;
  n.op = Op::kLe;
  n.width = 1;
  n.operands = {a, b};
  return push(std::move(n));
}

NetId Circuit::add_unchecked(Node node) {
  const NetId id = static_cast<NetId>(nodes_.size());
  if (node.op == Op::kInput) inputs_.push_back(id);
  if (!node.name.empty()) names_.emplace(node.name, id);
  nodes_.push_back(std::move(node));
  return id;
}

NetId Circuit::add_like(const Node& shape, std::span<const NetId> operands) {
  RTLSAT_ASSERT(operands.size() == shape.operands.size());
  // Read the shape up front: it may be a node of this circuit, which the
  // builder calls below can reallocate.
  const Op op = shape.op;
  const int w = shape.width;
  const std::int64_t imm = shape.imm;
  const std::int64_t imm2 = shape.imm2;
  auto m = [&](std::size_t i) { return operands[i]; };
  switch (op) {
    case Op::kInput: break;
    case Op::kConst: return add_const(imm, w);
    case Op::kAnd:
      return add_and(std::vector<NetId>(operands.begin(), operands.end()));
    case Op::kOr:
      return add_or(std::vector<NetId>(operands.begin(), operands.end()));
    case Op::kNot: return add_not(m(0));
    case Op::kXor: return add_xor(m(0), m(1));
    case Op::kMux: return add_mux(m(0), m(1), m(2));
    case Op::kAdd: return add_add(m(0), m(1));
    case Op::kSub: return add_sub(m(0), m(1));
    case Op::kMulC: return add_mulc(m(0), imm);
    case Op::kShlC: return add_shl(m(0), static_cast<int>(imm));
    case Op::kShrC: return add_shr(m(0), static_cast<int>(imm));
    case Op::kNotW: return add_notw(m(0));
    case Op::kConcat: return add_concat(m(0), m(1));
    case Op::kExtract: return add_extract(m(0), static_cast<int>(imm),
                                          static_cast<int>(imm2));
    case Op::kZext: return add_zext(m(0), w);
    case Op::kMin: return add_min_raw(m(0), m(1));
    case Op::kMax: return add_max_raw(m(0), m(1));
    case Op::kEq: return add_eq_raw(m(0), m(1));
    case Op::kNe: return add_not(add_eq_raw(m(0), m(1)));
    case Op::kLt: return add_lt(m(0), m(1));
    case Op::kLe: return add_le(m(0), m(1));
  }
  RTLSAT_UNREACHABLE("add_like: inputs are named by the caller");
}

void Circuit::set_net_name(NetId id, std::string name) {
  RTLSAT_ASSERT(id < nodes_.size());
  if (!nodes_[id].name.empty()) names_.erase(nodes_[id].name);
  nodes_[id].name = name;
  if (!name.empty()) names_.emplace(std::move(name), id);
}

std::string Circuit::net_name(NetId id) const {
  const Node& n = node(id);
  if (!n.name.empty()) return n.name;
  return "n" + std::to_string(id);
}

NetId Circuit::find_net(std::string_view name) const {
  auto it = names_.find(std::string(name));
  return it == names_.end() ? kNoNet : it->second;
}

std::vector<std::int64_t> Circuit::evaluate(
    const std::unordered_map<NetId, std::int64_t>& input_values) const {
  std::vector<std::int64_t> value(nodes_.size(), 0);
  for (NetId id = 0; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    auto v = [&](std::size_t i) { return value[n.operands[i]]; };
    const std::int64_t m = std::int64_t{1} << n.width;
    switch (n.op) {
      case Op::kInput: {
        auto it = input_values.find(id);
        RTLSAT_ASSERT_MSG(it != input_values.end(),
                          "evaluate: missing input value");
        RTLSAT_ASSERT(domain(id).contains(it->second));
        value[id] = it->second;
        break;
      }
      case Op::kConst: value[id] = n.imm; break;
      case Op::kAnd: {
        std::int64_t acc = 1;
        for (NetId o : n.operands) acc &= value[o];
        value[id] = acc;
        break;
      }
      case Op::kOr: {
        std::int64_t acc = 0;
        for (NetId o : n.operands) acc |= value[o];
        value[id] = acc;
        break;
      }
      case Op::kNot: value[id] = 1 - v(0); break;
      case Op::kXor: value[id] = v(0) ^ v(1); break;
      case Op::kMux: value[id] = v(0) ? v(1) : v(2); break;
      case Op::kAdd: value[id] = (v(0) + v(1)) % m; break;
      case Op::kSub: value[id] = ((v(0) - v(1)) % m + m) % m; break;
      // Multiply and shift compute in uint64: the product/shift of a wide
      // operand overflows int64 (UB) long before the reduction, while
      // unsigned wraparound mod 2^64 is exact for a mod-2^w result because
      // 2^w divides 2^64.
      case Op::kMulC:
        value[id] = static_cast<std::int64_t>(
            (static_cast<std::uint64_t>(v(0)) *
             static_cast<std::uint64_t>(n.imm)) &
            (static_cast<std::uint64_t>(m) - 1));
        break;
      case Op::kShlC:
        value[id] = static_cast<std::int64_t>(
            (static_cast<std::uint64_t>(v(0)) << n.imm) &
            (static_cast<std::uint64_t>(m) - 1));
        break;
      case Op::kShrC: value[id] = v(0) >> n.imm; break;
      case Op::kNotW: value[id] = m - 1 - v(0); break;
      case Op::kConcat:
        value[id] = (v(0) << width(n.operands[1])) | v(1);
        break;
      case Op::kExtract:
        value[id] = (v(0) >> n.imm2) & ((std::int64_t{1} << n.width) - 1);
        break;
      case Op::kZext: value[id] = v(0); break;
      case Op::kMin: value[id] = std::min(v(0), v(1)); break;
      case Op::kMax: value[id] = std::max(v(0), v(1)); break;
      case Op::kEq: value[id] = v(0) == v(1); break;
      case Op::kNe: value[id] = v(0) != v(1); break;
      case Op::kLt: value[id] = v(0) < v(1); break;
      case Op::kLe: value[id] = v(0) <= v(1); break;
    }
    RTLSAT_DASSERT(domain(id).contains(value[id]));
  }
  return value;
}

void Circuit::validate() const {
  check_structure(*this, [this](const StructuralDefect& defect) {
    assert_fail(std::string(structure_defect_id(defect.kind)).c_str(),
                __FILE__, __LINE__,
                (name_ + ", net " + net_name(defect.net) + ": " +
                 defect.message)
                    .c_str());
  });
}

std::uint64_t Circuit::cone_hash(NetId goal) const {
  return canonical_cone(*this, goal).hash;
}

Circuit::OpCounts Circuit::op_counts() const {
  OpCounts counts;
  for (const Node& n : nodes_) {
    if (is_boolean_gate(n.op)) {
      ++counts.boolean;
    } else if (is_word_op(n.op) || is_comparator(n.op)) {
      ++counts.arith;
    }
  }
  return counts;
}

std::string Circuit::to_dot() const {
  std::ostringstream os;
  os << "digraph \"" << name_ << "\" {\n  rankdir=LR;\n";
  for (NetId id = 0; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    os << "  n" << id << " [label=\"" << net_name(id) << "\\n"
       << op_name(n.op);
    if (n.op == Op::kConst) os << ' ' << n.imm;
    os << " w" << n.width << "\"];\n";
    for (NetId o : n.operands) os << "  n" << o << " -> n" << id << ";\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace rtlsat::ir
