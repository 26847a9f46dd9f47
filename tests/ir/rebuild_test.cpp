// Every rebuild path (cone extraction, presolve's fact rewrites, BMC frame
// copies) re-emits nodes through Circuit::add_like. These tests pin what
// that shared copy promises: raw nodes stay raw, values are unchanged, and
// copying a copy changes nothing.
#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "bmc/unroll.h"
#include "ir/transform.h"
#include "itc99/itc99.h"
#include "parser/rtl_format.h"
#include "presolve/analyze.h"
#include "presolve/simplify.h"
#include "util/rng.h"

namespace rtlsat::ir {
namespace {

struct RawNets {
  NetId min = kNoNet;
  NetId max = kNoNet;
  NetId eq = kNoNet;
  NetId ne = kNoNet;
};

// add_min_raw / add_max_raw / add_eq_raw nodes plus a kNe node, which no
// builder emits (add_ne lowers), appended with add_unchecked.
RawNets add_raw_ops(Circuit& c, NetId a, NetId b, NetId d) {
  RawNets r;
  r.min = c.add_min_raw(a, b);
  r.max = c.add_max_raw(b, d);
  r.eq = c.add_eq_raw(r.min, r.max);
  Node ne;
  ne.op = Op::kNe;
  ne.width = 1;
  ne.operands = {a, d};
  r.ne = c.add_unchecked(ne);
  return r;
}

bool has_op(const Circuit& c, Op op) {
  for (NetId id = 0; id < c.num_nets(); ++id)
    if (c.node(id).op == op) return true;
  return false;
}

// The raw ops survive unlowered: min/max/eq keep their nodes, kNe becomes
// not(eq_raw), and no comparator of the lowered forms appears.
void expect_raw_kept(const Circuit& c, NetId ne_image) {
  EXPECT_TRUE(has_op(c, Op::kMin));
  EXPECT_TRUE(has_op(c, Op::kMax));
  EXPECT_TRUE(has_op(c, Op::kEq));
  EXPECT_FALSE(has_op(c, Op::kLt));
  EXPECT_FALSE(has_op(c, Op::kLe));
  ASSERT_NE(ne_image, kNoNet);
  const Node& n = c.node(ne_image);
  ASSERT_EQ(n.op, Op::kNot);
  EXPECT_EQ(c.node(n.operands[0]).op, Op::kEq);
}

// Source and rebuilt circuit agree on every mapped root for random inputs
// (inputs matched by name).
void expect_same_values(const Circuit& source, const Circuit& rebuilt,
                        const std::vector<NetId>& roots,
                        const std::vector<NetId>& images, Rng& rng) {
  for (int s = 0; s < 50; ++s) {
    std::unordered_map<NetId, std::int64_t> in_old;
    std::unordered_map<NetId, std::int64_t> in_new;
    for (const NetId in : source.inputs()) {
      const std::int64_t v = rng.range(0, 255);
      in_old[in] = v;
      const NetId image = rebuilt.find_net(source.net_name(in));
      if (image != kNoNet) in_new[image] = v;
    }
    const auto want = source.evaluate(in_old);
    const auto got = rebuilt.evaluate(in_new);
    for (std::size_t i = 0; i < roots.size(); ++i)
      EXPECT_EQ(want[roots[i]], got[images[i]]) << "root " << i;
  }
}

TEST(RawOpRebuild, ExtractConeKeepsRawOps) {
  Circuit c("raw");
  const NetId a = c.add_input("a", 8);
  const NetId b = c.add_input("b", 8);
  const NetId d = c.add_input("d", 8);
  const RawNets r = add_raw_ops(c, a, b, d);
  const std::vector<NetId> roots = {r.min, r.max, r.eq, r.ne};
  const auto result = extract_cone(c, roots);
  expect_raw_kept(result.circuit, result.net_map[r.ne]);
  std::vector<NetId> images;
  for (const NetId root : roots) images.push_back(result.net_map[root]);
  Rng rng(17);
  expect_same_values(c, result.circuit, roots, images, rng);
}

TEST(RawOpRebuild, PresolveSimplifyKeepsRawOps) {
  Circuit c("raw");
  const NetId a = c.add_input("a", 8);
  const NetId b = c.add_input("b", 8);
  const NetId d = c.add_input("d", 8);
  const RawNets r = add_raw_ops(c, a, b, d);
  const std::vector<NetId> roots = {r.min, r.max, r.eq, r.ne};
  const auto result = presolve::simplify(c, roots, presolve::analyze(c));
  expect_raw_kept(result.circuit, result.roots[3]);
  Rng rng(18);
  expect_same_values(c, result.circuit, roots, result.roots, rng);
}

TEST(RawOpRebuild, UnrollKeepsRawOps) {
  SeqCircuit seq("raw");
  Circuit& c = seq.comb();
  const NetId a = c.add_input("a", 8);
  const NetId b = c.add_input("b", 8);
  const NetId q = seq.add_register("q", 8, 3);
  const RawNets r = add_raw_ops(c, a, b, q);
  seq.bind_next(q, r.min);
  seq.add_property("p", c.add_or(r.eq, r.ne));
  const int bound = 4;
  const auto instance = bmc::unroll(seq, "p", bound);
  expect_raw_kept(instance.circuit, instance.frame_map[0][r.ne]);

  // Frame-by-frame evaluation of the comb core against the unrolled
  // circuit, on every comb net of every frame.
  Rng rng(19);
  for (int s = 0; s < 50; ++s) {
    std::unordered_map<NetId, std::int64_t> unrolled_in;
    std::int64_t state = 3;
    std::vector<std::vector<std::int64_t>> frames;
    for (int f = 0; f <= bound; ++f) {
      std::unordered_map<NetId, std::int64_t> in = {{q, state}};
      for (const NetId x : {a, b}) {
        in[x] = rng.range(0, 255);
        unrolled_in[instance.frame_map[f][x]] = in[x];
      }
      frames.push_back(c.evaluate(in));
      state = frames.back()[r.min];
    }
    const auto got = instance.circuit.evaluate(unrolled_in);
    for (int f = 0; f <= bound; ++f)
      for (NetId id = 0; id < c.num_nets(); ++id)
        EXPECT_EQ(frames[f][id], got[instance.frame_map[f][id]])
            << "frame " << f << " net " << c.net_name(id);
  }
}

// Copying a copy changes nothing: the cone of an extracted cone writes out
// byte for byte the same, on every registry model and property.
TEST(ExtractConeIdempotence, RegistryInstances) {
  for (const std::string& model : itc99::available()) {
    const SeqCircuit seq = itc99::build(model);
    for (const Property& p : seq.properties()) {
      for (const int bound : {1, 5, 20}) {
        SCOPED_TRACE(model + "_" + p.name + "(" + std::to_string(bound) + ")");
        const auto instance = bmc::unroll(seq, p.name, bound);
        const auto once = extract_cone(instance.circuit, {instance.goal});
        const auto twice =
            extract_cone(once.circuit, {once.net_map[instance.goal]});
        EXPECT_EQ(parser::write_circuit(twice.circuit),
                  parser::write_circuit(once.circuit));
      }
    }
  }
}

}  // namespace
}  // namespace rtlsat::ir
