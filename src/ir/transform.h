// Cone-of-influence extraction. Standard BMC preprocessing — the unrolled
// instances carry logic (unobserved outputs, shift tails) that no property
// depends on.
//
// The cone is rebuilt through Circuit::add_like, so all of the builder's
// canonicalizations (constant folding, hash-consing, operand ordering)
// re-apply to the surviving logic. Callers with rewrites of their own
// (presolve's fact rewrites) pass them as a NodeRewrite and inherit the
// walk and the name-keeping policy.
#pragma once

#include <functional>
#include <vector>

#include "ir/circuit.h"

namespace rtlsat::ir {

struct TransformResult {
  Circuit circuit;
  // old net id → new net id (kNoNet for dropped logic).
  std::vector<NetId> net_map;
};

// Emits the image in `out` of source net `id`, whose operands are already
// mapped in `map`, or returns kNoNet to fall back to the plain copy.
using NodeRewrite =
    std::function<NetId(Circuit& out, NetId id, const std::vector<NetId>& map)>;

// Rebuilds only the transitive fan-in cone of `roots`, in net-id order.
// Inputs keep their names; every other surviving net keeps its name, or
// gets it as an alias when its image already carries one. `rewrite`, when
// set, is offered every cone net before the plain copy.
TransformResult extract_cone(const Circuit& circuit,
                             const std::vector<NetId>& roots,
                             const NodeRewrite& rewrite = nullptr);

}  // namespace rtlsat::ir
