#include "workload.h"

#include <algorithm>

#include "parser/rtl_format.h"

namespace e2e {

std::unique_ptr<Workload> make_bmc_deep(const WorkloadConfig& config);
std::unique_ptr<Workload> make_bmc_sweep(const WorkloadConfig& config);
std::unique_ptr<Workload> make_datapath(const WorkloadConfig& config);
std::unique_ptr<Workload> make_serve_mix(const WorkloadConfig& config);

const std::vector<WorkloadInfo>& workload_infos() {
  static const std::vector<WorkloadInfo> infos = {
      {"bmc_deep",
       "single ITC'99 b13 BMC solves from .rtl text (+S, +S+P, presolve, "
       "bit-blast): justification, conflicts, learning, parse, CDCL"},
      {"bmc_sweep",
       "b13_1 grown bound by bound: incremental sweep to 300 plus a "
       "certified fresh sweep re-checked by word_check"},
      {"datapath",
       "generated narrow-width combinational instances under HDPLL+S with a "
       "1 s limit: the only load on FME and arith_check"},
      {"serve_mix",
       "in-process rtlsat-serve, 2 closed-loop clients: cold, exact-repeat, "
       "renamed, datapath and warm BMC-session requests"},
  };
  return infos;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadConfig& config) {
  if (name == "bmc_deep") return make_bmc_deep(config);
  if (name == "bmc_sweep") return make_bmc_sweep(config);
  if (name == "datapath") return make_datapath(config);
  if (name == "serve_mix") return make_serve_mix(config);
  return nullptr;
}

rtlsat::core::HdpllOptions hdpll_options(bool structural, bool predicates,
                                         double timeout_seconds) {
  rtlsat::core::HdpllOptions options;
  options.structural_decisions = structural;
  options.predicate_learning = predicates;
  options.timeout_seconds = timeout_seconds;
  return options;
}

Verdict to_verdict(rtlsat::core::SolveStatus status) {
  switch (status) {
    case rtlsat::core::SolveStatus::kSat: return Verdict::kSat;
    case rtlsat::core::SolveStatus::kUnsat: return Verdict::kUnsat;
    default: return Verdict::kUndecided;
  }
}

std::string instance_rtl(rtlsat::bmc::BmcInstance& instance) {
  std::string name;
  for (char ch : instance.name) {
    if (ch == '(') ch = '_';
    if (ch != ')') name += ch;
  }
  instance.circuit.set_name(name);
  return rtlsat::parser::write_circuit(instance.circuit);
}

void add_hdpll_counters(const rtlsat::core::HdpllSolver& solver,
                        const rtlsat::core::SolveResult& result,
                        Counters& c) {
  const rtlsat::Stats& s = solver.stats();
  const auto get = [&](const char* name) {
    return static_cast<double>(s.get(name));
  };
  c["hdpll.decisions"] += get("hdpll.decisions");
  c["hdpll.conflicts"] += get("hdpll.conflicts");
  c["justify.candidates_scanned"] += get("justify.candidates_scanned");
  c["prop.datapath_narrowings"] +=
      static_cast<double>(solver.engine().num_datapath_narrowings());
  c["core.search_s"] += get("time.search_us") * 1e-6;
  c["core.learn_s"] += get("time.predicate_learning_us") * 1e-6;
  c["core.arith_s"] += get("time.arith_check_us") * 1e-6;
  c["hdpll.arith_checks"] += get("hdpll.arith_checks");
  c["hdpll.arith_conflicts"] += get("hdpll.arith_conflicts");
  c["fme.calls"] += get("fme.calls");
  c["learn.probes"] += result.learning.probes;
  c["learn.relations"] += result.learning.relations_learned;
}

Counters layer_metrics(const PassResult& pass) {
  const Counters& c = pass.counters;
  const auto get = [&](const char* name) {
    auto it = c.find(name);
    return it == c.end() ? 0.0 : it->second;
  };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const auto med_ms = [&](const char* name) {
    auto it = pass.samples.find(name);
    return it == pass.samples.end() ? 0.0 : median(it->second) * 1e3;
  };
  Counters m;
  for (const char* name :
       {"parser.parse_s", "parser.bytes", "bmc.unroll_s", "bmc.frame_solve_s",
        "bmc.sweep_s",
        "bmc.frames", "presolve.s", "presolve.nets_removed",
        "presolve.decided", "core.solve_s", "core.search_s",
        "hdpll.decisions", "hdpll.conflicts", "justify.candidates_scanned",
        "prop.datapath_narrowings", "core.learn_s", "learn.probes",
        "learn.relations", "core.arith_s", "hdpll.arith_checks",
        "hdpll.arith_conflicts", "fme.calls", "bitblast.encode_s",
        "sat.solve_s",
        "sat.conflicts", "sat.propagations", "proof.check_s",
        "proof.records", "proof.bytes", "proof.rejected", "cache.lookups",
        "portfolio.races"})
    m[name] = get(name);
  m["justify.scans_per_decision"] =
      ratio(get("justify.candidates_scanned"), get("hdpll.decisions"));
  m["learn.relations_per_probe"] =
      ratio(get("learn.relations"), get("learn.probes"));
  m["serve.service_ms"] = med_ms("serve.service_s");
  m["serve.solve_ms"] = med_ms("serve.solve_s");
  m["serve.wire_ms"] = med_ms("serve.wire_s");
  m["serve.nonsolve_ms"] = med_ms("serve.nonsolve_s");
  auto overruns = pass.samples.find("core.overrun_s");
  m["core.overrun_ms_max"] =
      overruns == pass.samples.end()
          ? 0.0
          : *std::max_element(overruns->second.begin(),
                              overruns->second.end()) *
                1e3;
  m["cache.hit_frac"] = ratio(get("cache.hits"), get("cache.lookups"));
  m["portfolio.bitblast_win_frac"] =
      ratio(get("portfolio.bitblast_wins"), get("portfolio.races"));
  return m;
}

}  // namespace e2e
