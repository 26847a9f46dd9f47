// The four end-to-end workloads behind one interface. A workload builds its
// fixture in setup() — models, instance text, independent answers, a server
// — and then runs its whole job list once per run_pass(). Every job ends in
// PassResult::job() with its latency, whether it was decided, and a failure
// line when its verdict, model replay or certificate check went wrong.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bmc/unroll.h"
#include "core/hdpll.h"
#include "harness.h"

namespace e2e {

struct WorkloadConfig {
  std::uint64_t seed = 1;
  // Scratch directory inside the benchmark's build tree (certificates).
  std::string work_dir = ".";
  // Self-test hooks; the benchmark never sets them. `tiny` shrinks the
  // job list; `flip_first_expected` inverts the first job's expected
  // verdict so the test can watch the failure reach failed_frac.
  bool tiny = false;
  bool flip_first_expected = false;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup() = 0;
  virtual PassResult run_pass(SpanRecorder& spans) = 0;
  // A run makes round(--seconds / this) passes, so every run of a
  // workload has the same number of samples whatever the machine's speed.
  // Set near the pass time on a 4-core x86 box (Release build), or lower
  // where the passes vary more and a run needs more of them.
  virtual double nominal_pass_seconds() const = 0;
  // How many of those passes run first, untimed: their verdicts are
  // checked and counted, but no timing metric uses them. For workloads
  // whose first pass after setup() is often slower than the rest.
  virtual int warmup_passes() const { return 0; }
};

struct WorkloadInfo {
  const char* name;
  const char* why;
};
const std::vector<WorkloadInfo>& workload_infos();

// Null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadConfig& config);

// ---- helpers shared by the workloads --------------------------------------

// HDPLL configurations of the paper's Table 2.
rtlsat::core::HdpllOptions hdpll_options(bool structural, bool predicates,
                                         double timeout_seconds);

Verdict to_verdict(rtlsat::core::SolveStatus status);

// .rtl text of an unrolled instance. The instance name ("b13_1(200)") is
// rewritten to "b13_1_200" first: .rtl names cannot hold parentheses.
std::string instance_rtl(rtlsat::bmc::BmcInstance& instance);

// Adds one solver's counters to the pass: hdpll.*, justify.*, the
// learning report, and the solver's own phase timers (time.*_us) as
// core.search_s / core.learn_s / core.arith_s.
void add_hdpll_counters(const rtlsat::core::HdpllSolver& solver,
                        const rtlsat::core::SolveResult& result,
                        Counters& counters);

// Every per-layer metric the pass counters feed, with the derived ratios.
// Missing inputs read as 0.
Counters layer_metrics(const PassResult& pass);

}  // namespace e2e
