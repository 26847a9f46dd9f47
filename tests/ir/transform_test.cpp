#include "ir/transform.h"

#include <gtest/gtest.h>


namespace rtlsat::ir {
namespace {

TEST(ExtractCone, DropsUnreachableLogic) {
  Circuit c("t");
  const NetId a = c.add_input("a", 8);
  const NetId b = c.add_input("b", 8);
  const NetId used = c.add_lt(a, b);
  c.add_add(a, b);  // dead: no property depends on it
  const auto result = extract_cone(c, {used});
  EXPECT_NE(result.net_map[used], kNoNet);
  EXPECT_LT(result.circuit.num_nets(), c.num_nets());
  // The dead adder is gone.
  const auto counts = result.circuit.op_counts();
  EXPECT_EQ(counts.arith, 1u);  // the comparator only
}

TEST(ExtractCone, PreservesNames) {
  Circuit c("t");
  const NetId a = c.add_input("alpha", 4);
  const NetId s = c.add_inc(a);
  c.set_net_name(s, "succ");
  const auto result = extract_cone(c, {s});
  EXPECT_NE(result.circuit.find_net("alpha"), kNoNet);
  EXPECT_NE(result.circuit.find_net("succ"), kNoNet);
}

}  // namespace
}  // namespace rtlsat::ir
