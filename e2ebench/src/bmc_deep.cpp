// bmc_deep: a batch of single solves, one at a time (closed loop, one
// caller). Each job parses an ITC'99 b13 BMC instance from .rtl text and
// produces a checked verdict through one lane: HDPLL (+S or +S+P), the
// presolve lane, or bit-blast CDCL. This is the paper's own traffic.

#include "bitblast/bitblast.h"
#include "bmc/unroll.h"
#include "itc99/itc99.h"
#include "oracle.h"
#include "parser/rtl_format.h"
#include "presolve/simplify.h"
#include "sat/solver.h"
#include "util/timer.h"
#include "workload.h"

namespace e2e {
namespace {

using namespace rtlsat;

enum class Lane { kHdpll, kPresolve, kBitblast };

struct Row {
  const char* label;
  const char* property;
  int bound;
  Lane lane;
  bool predicates;  // +P on top of +S (HDPLL lanes)
};

// What each row loads (measured on a Release build): b13_1(200) +S is the
// justification-heavy search row; b13_5 rows are conflict-heavy; the +S+P
// rows add predicate learning (b13_1(50) is almost all learning); the
// presolve and bit-blast rows load their own layers.
const Row kRows[] = {
    {"b13_1(200) +S", "1", 200, Lane::kHdpll, false},
    {"b13_5(100) +S", "5", 100, Lane::kHdpll, false},
    {"b13_5(200) +S+P", "5", 200, Lane::kHdpll, true},
    {"b13_1(200) +S+P", "1", 200, Lane::kHdpll, true},
    {"b13_1(50) +S+P", "1", 50, Lane::kHdpll, true},
    {"b13_1(200) presolve+S+P", "1", 200, Lane::kPresolve, true},
    {"b13_1(100) bit-blast", "1", 100, Lane::kBitblast, false},
};

const Row kTinyRows[] = {
    {"b13_1(8) +S", "1", 8, Lane::kHdpll, false},
    {"b13_1(8) +S+P", "1", 8, Lane::kHdpll, true},
    {"b13_1(8) presolve+S+P", "1", 8, Lane::kPresolve, true},
    {"b13_1(8) bit-blast", "1", 8, Lane::kBitblast, false},
};

// No row comes close; a job that hits it counts as undecided.
constexpr double kSolveLimitSeconds = 60;

struct Job {
  Row row;
  std::string text;  // the unrolled instance as .rtl
  std::string goal;  // goal net name inside `text`
  Verdict expected = Verdict::kUndecided;
};

class BmcDeep : public Workload {
 public:
  explicit BmcDeep(const WorkloadConfig& config) : config_(config) {}

  void setup() override {
    jobs_.clear();
    const ir::SeqCircuit b13 = itc99::build("b13");
    std::vector<Row> rows;
    if (config_.tiny)
      rows.assign(std::begin(kTinyRows), std::end(kTinyRows));
    else
      rows.assign(std::begin(kRows), std::end(kRows));
    const std::string prefix = seed_prefix('w', config_.seed);
    for (const Row& row : rows) {
      bmc::BmcInstance instance =
          bmc::unroll(b13, row.property, row.bound);
      Job job;
      job.row = row;
      std::unordered_map<std::string, std::string> renamed;
      job.text =
          rename_nets(instance_rtl(instance), prefix, &renamed);
      job.goal =
          renamed_name(renamed, instance.circuit.net_name(instance.goal));
      job.expected = recorded_verdict("b13", row.property, row.bound);
      jobs_.push_back(std::move(job));
    }
    if (config_.flip_first_expected && !jobs_.empty())
      jobs_[0].expected = inverted(jobs_[0].expected);
  }

  double nominal_pass_seconds() const override { return 7.0; }

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

      Verdict got = Verdict::kUndecided;
      std::unordered_map<ir::NetId, std::int64_t> model;
      switch (job.row.lane) {
        case Lane::kHdpll:
          got = solve_hdpll(spans, circuit, goal, job.row, c, &model);
          break;
        case Lane::kPresolve:
          got = solve_presolved(spans, circuit, goal, job.row, c, &model);
          break;
        case Lane::kBitblast:
          got = solve_bitblast(spans, circuit, goal, c, &model);
          break;
      }
      std::string failure = verdict_failure(job.row.label, job.expected, got);
      if (failure.empty() && got == Verdict::kSat) {
        Scope check(spans, "check.replay");
        if (!replay_model(circuit, goal, model))
          failure = std::string(job.row.label) + ": SAT model replay failed";
      }
      const double latency = job_scope.stop();
      pass.job(latency, got != Verdict::kUndecided, failure);
      pass.rows.emplace_back(job.row.label, latency);
    }
    pass.wall_s = wall.seconds();
    return pass;
  }

 private:
  static Verdict solve_hdpll(
      SpanRecorder& spans, const ir::Circuit& circuit, ir::NetId goal,
      const Row& row, Counters& c,
      std::unordered_map<ir::NetId, std::int64_t>* model) {
    Scope solve_scope(spans, "core.solve");
    core::HdpllSolver solver(
        circuit, hdpll_options(true, row.predicates, kSolveLimitSeconds));
    solver.assume_bool(goal, true);
    core::SolveResult result = solver.solve();
    c["core.solve_s"] += solve_scope.stop();
    add_hdpll_counters(solver, result, c);
    *model = std::move(result.input_model);
    return to_verdict(result.status);
  }

  static Verdict solve_presolved(
      SpanRecorder& spans, const ir::Circuit& circuit, ir::NetId goal,
      const Row& row, Counters& c,
      std::unordered_map<ir::NetId, std::int64_t>* model) {
    Scope presolve_scope(spans, "presolve.presolve_goal");
    presolve::GoalPresolve pre = presolve::presolve_goal(circuit, goal, true);
    c["presolve.s"] += presolve_scope.stop();
    c["presolve.nets_removed"] += static_cast<double>(pre.stats.nets_removed);
    if (pre.decided) {
      c["presolve.decided"] += 1;
      *model = std::move(pre.model);
      return pre.sat ? Verdict::kSat : Verdict::kUnsat;
    }
    std::unordered_map<ir::NetId, std::int64_t> simplified_model;
    const Verdict got =
        solve_hdpll(spans, pre.circuit, pre.goal, row, c, &simplified_model);
    // Carry the model back through the net map: an input the rewrite
    // dropped is irrelevant to the goal, so any value (0) replays.
    for (ir::NetId in : circuit.inputs()) {
      const ir::NetId image = pre.net_map[in];
      auto it = simplified_model.find(image);
      (*model)[in] = it == simplified_model.end() ? 0 : it->second;
    }
    return got;
  }

  static Verdict solve_bitblast(
      SpanRecorder& spans, const ir::Circuit& circuit, ir::NetId goal,
      Counters& c, std::unordered_map<ir::NetId, std::int64_t>* model) {
    Scope encode_scope(spans, "bitblast.encode");
    sat::Solver solver;
    bitblast::BitBlaster blaster(circuit, solver);
    blaster.assert_bool(goal, true);
    c["bitblast.encode_s"] += encode_scope.stop();
    Scope solve_scope(spans, "sat.solve");
    const sat::Result result = solver.solve();
    c["sat.solve_s"] += solve_scope.stop();
    c["sat.conflicts"] +=
        static_cast<double>(solver.stats().get("sat.conflicts"));
    c["sat.propagations"] +=
        static_cast<double>(solver.stats().get("sat.propagations"));
    if (result == sat::Result::kSat) {
      for (ir::NetId in : circuit.inputs())
        (*model)[in] = blaster.model_value(in);
      return Verdict::kSat;
    }
    return result == sat::Result::kUnsat ? Verdict::kUnsat
                                         : Verdict::kUndecided;
  }

  WorkloadConfig config_;
  std::vector<Job> jobs_;
};

}  // namespace

std::unique_ptr<Workload> make_bmc_deep(const WorkloadConfig& config) {
  return std::make_unique<BmcDeep>(config);
}

}  // namespace e2e
