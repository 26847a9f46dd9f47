#include "bmc/unroll.h"

#include "trace/trace.h"
#include "util/assert.h"
#include "util/strings.h"

namespace rtlsat::bmc {

using ir::Circuit;
using ir::NetId;
using ir::Node;
using ir::Op;

namespace detail {

std::vector<NetId> copy_frame(const ir::SeqCircuit& seq, Circuit& out,
                              int frame,
                              const std::vector<std::pair<NetId, NetId>>& state) {
  const Circuit& comb = seq.comb();
  std::vector<NetId> map(comb.num_nets(), ir::kNoNet);
  for (const auto& [q, value] : state) map[q] = value;

  std::vector<NetId> operands;
  for (NetId id = 0; id < comb.num_nets(); ++id) {
    if (map[id] != ir::kNoNet) continue;  // register output, pre-mapped
    const Node& n = comb.node(id);
    if (n.op == Op::kInput) {
      map[id] = out.add_input(
          str_format("%s@%d", comb.net_name(id).c_str(), frame), n.width);
      continue;
    }
    operands.clear();
    for (const NetId o : n.operands) operands.push_back(map[o]);
    map[id] = out.add_like(n, operands);
  }
  return map;
}

}  // namespace detail

namespace {

using detail::copy_frame;

BmcInstance unroll_impl(const ir::SeqCircuit& seq, std::string_view property,
                        int bound, bool any_frame) {
  RTLSAT_ASSERT(bound >= 1);
  seq.validate();
  const NetId prop = seq.property(property);
  RTLSAT_ASSERT_MSG(prop != ir::kNoNet, "unknown property");

  BmcInstance instance;
  instance.bound = bound;
  instance.name = str_format("%s_%s(%d)", seq.comb().name().c_str(),
                             std::string(property).c_str(), bound);
  Circuit& out = instance.circuit;
  out.set_name(instance.name);

  // Frame 0 state: reset values.
  std::vector<std::pair<NetId, NetId>> state;
  for (const ir::Register& r : seq.registers())
    state.push_back({r.q, out.add_const(r.init, seq.comb().width(r.q))});

  std::vector<NetId> violations;
  for (int frame = 0; frame < bound; ++frame) {
    const std::vector<NetId> map = copy_frame(seq, out, frame, state);
    instance.frame_map.push_back(map);
    // Next frame's state = this frame's next-state nets.
    state.clear();
    for (const ir::Register& r : seq.registers())
      state.push_back({r.q, map[r.d]});
    if (any_frame && frame + 1 < bound) {
      // The property in the *post-transition* state equals P's value in the
      // next frame's logic; collect intermediate violations by evaluating P
      // of this frame (pre-transition state) for frames ≥ 1.
      if (frame >= 1) violations.push_back(out.add_not(map[prop]));
    }
  }
  // Final frame: evaluate the property over the state after `bound` steps.
  std::vector<NetId> final_map = copy_frame(seq, out, bound, state);
  instance.frame_map.push_back(final_map);
  violations.push_back(out.add_not(final_map[prop]));

  instance.goal =
      violations.size() == 1 ? violations[0] : out.add_or(std::move(violations));
  out.set_net_name(instance.goal, "goal");
  out.validate();
  return instance;
}

}  // namespace

BmcInstance unroll(const ir::SeqCircuit& seq, std::string_view property,
                   int bound) {
  trace::ScopedPhase phase(&trace::global(), nullptr, "unroll");
  BmcInstance instance = unroll_impl(seq, property, bound, /*any_frame=*/false);
  trace::global().record(trace::EventKind::kUnroll, 0,
                         static_cast<std::int64_t>(instance.circuit.num_nets()),
                         bound);
  return instance;
}

BmcInstance unroll_any(const ir::SeqCircuit& seq, std::string_view property,
                       int bound) {
  trace::ScopedPhase phase(&trace::global(), nullptr, "unroll");
  BmcInstance instance = unroll_impl(seq, property, bound, /*any_frame=*/true);
  trace::global().record(trace::EventKind::kUnroll, 0,
                         static_cast<std::int64_t>(instance.circuit.num_nets()),
                         bound);
  return instance;
}

}  // namespace rtlsat::bmc
