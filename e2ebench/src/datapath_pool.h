// The recorded datapath draw shared by the datapath and serve_mix
// workloads: fuzz::generate over Rng(kDatapathDrawSeed) in the generator's
// narrow-width regime (no wide-stress draws), 18–36 operator steps.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace e2e {

constexpr std::uint64_t kDatapathDrawSeed = 7;
constexpr int kDatapathPoolSize = 200;

struct PoolInstance {
  std::string label;  // "dp#<draw index>"
  std::string text;   // .rtl, nets renamed for the benchmark seed
  std::string goal;   // goal net name inside `text`
  Verdict expected = Verdict::kUndecided;  // bit-blast CDCL answer
};

// The first `count` instances of the recorded draw, serialised with every
// net renamed for `seed`, each with its bit-blast answer.
std::vector<PoolInstance> datapath_pool(int count, std::uint64_t seed);

}  // namespace e2e
