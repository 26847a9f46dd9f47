#include "ir/transform.h"

#include "ir/analysis.h"

namespace rtlsat::ir {

TransformResult extract_cone(const Circuit& circuit,
                             const std::vector<NetId>& roots,
                             const NodeRewrite& rewrite) {
  TransformResult result;
  Circuit& out = result.circuit;
  std::vector<NetId>& map = result.net_map;
  out.set_name(circuit.name());
  map.assign(circuit.num_nets(), kNoNet);
  std::vector<NetId> operands;
  for (const NetId id : fanin_cone(circuit, roots).members) {
    NetId image = rewrite ? rewrite(out, id, map) : kNoNet;
    if (image == kNoNet) {
      const Node& n = circuit.node(id);
      if (n.op == Op::kInput) {
        image = out.add_input(circuit.net_name(id), n.width);
      } else {
        operands.clear();
        for (const NetId o : n.operands) operands.push_back(map[o]);
        image = out.add_like(n, operands);
      }
    }
    map[id] = image;
  }
  // Preserve the names of surviving nets.
  for (NetId id = 0; id < circuit.num_nets(); ++id) {
    const NetId mapped = map[id];
    if (mapped == kNoNet) continue;
    const std::string& name = circuit.node(id).name;
    if (name.empty()) continue;
    if (out.node(mapped).name.empty()) {
      out.set_net_name(mapped, name);
    } else if (out.find_net(name) == kNoNet) {
      out.add_name_alias(name, mapped);
    }
  }
  return result;
}

}  // namespace rtlsat::ir
