// bmc_sweep: one property grown bound by bound, two ways.
//
//  * Incremental: one IncrementalBmc (+S+P) over b13_1, bounds 1..300. Each
//    bound is one job — ensure_bound (the per-frame unroll) then
//    solve_bound (retractable goal assumption, sync_circuit growth).
//  * Certified: a fresh-per-frame bmc::sweep over b13_1, bounds 1..60
//    under +S with certificates saved to disk; the benchmark re-reads every
//    saved certificate and re-checks it with proof::word_check. Each frame
//    is one job: its solve time as the sweep reports it plus the re-check.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bmc/incremental.h"
#include "bmc/sweep.h"
#include "itc99/itc99.h"
#include "oracle.h"
#include "parser/rtl_format.h"
#include "proof/word_check.h"
#include "util/timer.h"
#include "workload.h"

namespace e2e {
namespace {

using namespace rtlsat;

constexpr const char* kProperty = "1";
constexpr double kSolveLimitSeconds = 60;

class BmcSweep : public Workload {
 public:
  explicit BmcSweep(const WorkloadConfig& config)
      : config_(config),
        incremental_bound_(config.tiny ? 10 : 300),
        certified_bound_(config.tiny ? 5 : 60),
        cert_dir_(config.work_dir + "/certs") {}

  void setup() override {
    const ir::SeqCircuit b13 = itc99::build("b13");
    std::unordered_map<std::string, std::string> renamed;
    text_ = rename_nets(parser::write_seq_circuit(b13),
                        seed_prefix('s', config_.seed), &renamed);
    expected_.assign(static_cast<std::size_t>(
                         std::max(incremental_bound_, certified_bound_) + 1),
                     Verdict::kUndecided);
    for (int k = 1; k < static_cast<int>(expected_.size()); ++k)
      expected_[static_cast<std::size_t>(k)] =
          recorded_verdict("b13", kProperty, k);
  }

  double nominal_pass_seconds() const override { return 4.3; }

  PassResult run_pass(SpanRecorder& spans) override {
    PassResult pass;
    Timer wall;
    Scope parse_scope(spans, "parser.parse");
    const ir::SeqCircuit seq = parser::parse_seq_circuit(text_);
    pass.counters["parser.parse_s"] += parse_scope.stop();
    pass.counters["parser.bytes"] += static_cast<double>(text_.size());
    run_incremental(spans, seq, pass);
    run_certified(spans, seq, pass);
    pass.wall_s = wall.seconds();
    return pass;
  }

 private:
  void run_incremental(SpanRecorder& spans, const ir::SeqCircuit& seq,
                       PassResult& pass) {
    Counters& c = pass.counters;
    bmc::IncrementalBmc inc(seq, kProperty,
                            hdpll_options(true, true, kSolveLimitSeconds));
    core::SolveResult last;
    for (int bound = 1; bound <= incremental_bound_; ++bound) {
      Scope job_scope(spans, "job", next_job_++);
      Scope unroll_scope(spans, "bmc.unroll");
      const ir::NetId goal = inc.ensure_bound(bound);
      c["bmc.unroll_s"] += unroll_scope.stop();
      Scope solve_scope(spans, "bmc.solve_bound");
      last = inc.solve_bound(bound);
      c["bmc.frame_solve_s"] += solve_scope.stop();
      c["bmc.frames"] += 1;
      const Verdict got = to_verdict(last.status);
      const std::string label = "incremental " + inc.name(bound);
      Verdict expected = expected_[static_cast<std::size_t>(bound)];
      if (bound == 1 && config_.flip_first_expected)
        expected = inverted(expected);
      std::string failure = verdict_failure(label, expected, got);
      if (failure.empty() && got == Verdict::kSat) {
        Scope check(spans, "check.replay");
        if (!replay_model(inc.circuit(), goal, last.input_model))
          failure = label + ": SAT model replay failed";
      }
      pass.job(job_scope.stop(), got != Verdict::kUndecided, failure);
    }
    add_hdpll_counters(inc.solver(), last, c);
  }

  void run_certified(SpanRecorder& spans, const ir::SeqCircuit& seq,
                     PassResult& pass) {
    Counters& c = pass.counters;
    std::filesystem::remove_all(cert_dir_);
    std::filesystem::create_directories(cert_dir_);
    bmc::SweepOptions options;
    options.solver = hdpll_options(true, false, kSolveLimitSeconds);
    options.certify = true;
    options.cert_dir = cert_dir_;
    options.incremental = false;
    options.stop_at_sat = false;
    Scope sweep_scope(spans, "bmc.sweep");
    const bmc::SweepResult sweep =
        bmc::sweep(seq, kProperty, certified_bound_, options);
    c["bmc.sweep_s"] += sweep_scope.stop();

    for (const bmc::FrameResult& frame : sweep.frames) {
      Scope job_scope(spans, "job", next_job_++);
      c["bmc.frames"] += 1;
      c["bmc.frame_solve_s"] += frame.seconds;
      const Verdict got = to_verdict(frame.status);
      const std::string label = "certified " + frame.name;
      std::string failure = verdict_failure(
          label, expected_[static_cast<std::size_t>(frame.bound)], got);
      if (!frame.cert_error.empty() && failure.empty())
        failure = label + ": in-sweep certificate check: " + frame.cert_error;

      const std::string path =
          bmc::cert_path_for_testing(cert_dir_, frame.name);
      std::ifstream in(path, std::ios::binary);
      std::stringstream buffer;
      buffer << in.rdbuf();
      const std::string cert = buffer.str();
      Scope check_scope(spans, "proof.word_check");
      const proof::WordCheckResult check = proof::word_check(cert);
      c["proof.check_s"] += check_scope.stop();
      c["proof.records"] += static_cast<double>(check.records);
      c["proof.bytes"] += static_cast<double>(cert.size());
      const bool accepted =
          check.ok && (got != Verdict::kUnsat || check.refuted);
      if (!accepted) {
        c["proof.rejected"] += 1;
        if (failure.empty())
          failure = label + ": certificate rejected: " +
                    (check.ok ? "no refutation for an UNSAT verdict"
                              : check.error);
      }
      pass.job(frame.seconds + job_scope.stop(), got != Verdict::kUndecided,
               failure);
    }
    std::filesystem::remove_all(cert_dir_);
  }

  WorkloadConfig config_;
  int incremental_bound_;
  int certified_bound_;
  std::string cert_dir_;
  std::string text_;
  std::vector<Verdict> expected_;  // by bound
  int next_job_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_bmc_sweep(const WorkloadConfig& config) {
  return std::make_unique<BmcSweep>(config);
}

}  // namespace e2e
