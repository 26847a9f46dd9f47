#include "datapath_pool.h"

#include "fuzz/generator.h"
#include "oracle.h"
#include "parser/rtl_format.h"

namespace e2e {

std::vector<PoolInstance> datapath_pool(int count, std::uint64_t seed) {
  rtlsat::fuzz::GeneratorOptions options;
  options.min_steps = 18;
  options.max_steps = 36;
  options.wide_stress_percent = 0;
  rtlsat::Rng rng(kDatapathDrawSeed);
  const std::string prefix = seed_prefix('d', seed);
  std::vector<PoolInstance> pool;
  for (int i = 0; i < count; ++i) {
    const rtlsat::fuzz::FuzzInstance instance =
        rtlsat::fuzz::generate(rng, options);
    PoolInstance p;
    p.label = "dp#" + std::to_string(i);
    std::unordered_map<std::string, std::string> renamed;
    p.text = rename_nets(rtlsat::parser::write_circuit(instance.circuit),
                         prefix, &renamed);
    p.goal = renamed_name(renamed, instance.circuit.net_name(instance.goal));
    p.expected = bitblast_verdict(instance.circuit, instance.goal);
    pool.push_back(std::move(p));
  }
  return pool;
}

}  // namespace e2e
