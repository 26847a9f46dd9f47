// datapath: generated combinational instances from src/fuzz's generator in
// its narrow-width regime (the paper's ITC'99 datapaths are 3–10 bits wide),
// solved by HDPLL+S under a fixed 1 s limit per job. This is the only
// traffic on which the FME / arith_check layer does real work.
//
// The instance set is the recorded draw fuzz::generate(Rng(7)) — 200
// instances of 18–36 steps, in draw order — for every benchmark seed; the
// seed renames every net, so the parser sees new bytes while the solver
// sees the same problems. A re-draw per seed would move wall_s by ±25%
// (the few jobs that reach the time limit dominate it), and even a seeded
// job order moves the sub-millisecond p50 by ±10% through the allocator
// state the big jobs leave behind — both larger than the changes this
// workload exists to detect.
#include "datapath_pool.h"
#include "oracle.h"
#include "parser/rtl_format.h"
#include "util/timer.h"
#include "workload.h"

namespace e2e {
namespace {

using namespace rtlsat;

constexpr double kSolveLimitSeconds = 1.0;

struct Job {
  std::string label;
  std::string text;
  std::string goal;
  Verdict expected = Verdict::kUndecided;
};

class Datapath : public Workload {
 public:
  explicit Datapath(const WorkloadConfig& config) : config_(config) {}

  void setup() override {
    jobs_.clear();
    const std::vector<PoolInstance> pool =
        datapath_pool(config_.tiny ? 12 : kDatapathPoolSize, config_.seed);
    for (const PoolInstance& p : pool)
      jobs_.push_back({p.label, p.text, p.goal, p.expected});
    if (config_.flip_first_expected && !jobs_.empty())
      jobs_[0].expected = inverted(jobs_[0].expected);
  }

  double nominal_pass_seconds() const override { return 8.3; }

  PassResult run_pass(SpanRecorder& spans) override {
    PassResult pass;
    Counters& c = pass.counters;
    Timer wall;
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      const Job& job = jobs_[j];
      Scope job_scope(spans, "job", static_cast<int>(j));
      Scope parse_scope(spans, "parser.parse");
      const ir::Circuit circuit = parser::parse_circuit(job.text);
      c["parser.parse_s"] += parse_scope.stop();
      c["parser.bytes"] += static_cast<double>(job.text.size());
      const ir::NetId goal = circuit.find_net(job.goal);

      Scope solve_scope(spans, "core.solve");
      core::HdpllSolver solver(circuit,
                               hdpll_options(true, false, kSolveLimitSeconds));
      solver.assume_bool(goal, true);
      const core::SolveResult result = solver.solve();
      const double solve_s = solve_scope.stop();
      c["core.solve_s"] += solve_s;
      add_hdpll_counters(solver, result, c);
      // How far past its limit a timed-out solve returned.
      if (result.status == core::SolveStatus::kTimeout)
        pass.samples["core.overrun_s"].push_back(solve_s -
                                                 kSolveLimitSeconds);

      const Verdict got = to_verdict(result.status);
      std::string failure = verdict_failure(job.label, job.expected, got);
      if (failure.empty() && got == Verdict::kSat) {
        Scope check(spans, "check.replay");
        if (!replay_model(circuit, goal, result.input_model))
          failure = job.label + ": SAT model replay failed";
      }
      pass.job(job_scope.stop(), got != Verdict::kUndecided, failure);
    }
    pass.wall_s = wall.seconds();
    return pass;
  }

 private:
  WorkloadConfig config_;
  std::vector<Job> jobs_;
};

}  // namespace

std::unique_ptr<Workload> make_datapath(const WorkloadConfig& config) {
  return std::make_unique<Datapath>(config);
}

}  // namespace e2e
