// Self-tests of the benchmark's own machinery (run.py --selftest runs this
// binary, then checks the printed metric names against BENCHMARK.json):
//
//   * percentiles and their sample counts;
//   * self-time arithmetic on a synthetic span tree, and Scope nesting;
//   * every workload, shrunk, passes its checks — and with one expected
//     verdict inverted, that job shows up in failed_frac;
//   * the result lines of both modes, printed as "RESULT<trace> <json>".
//
// Exit code 0 iff every check held.
#include <cmath>
#include <cstdio>
#include <string>

#include "report.h"
#include "workload.h"

namespace {

using namespace e2e;

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentiles() {
  const std::vector<double> ten = {10, 2, 3, 4, 5, 6, 7, 8, 9, 1};
  check(near(percentile(ten, 0.5), 5.5), "p50 of 1..10 is 5.5");
  check(near(percentile(ten, 0.95), 9.55), "p95 of 1..10 is 9.55");
  check(near(percentile({4}, 0.95), 4), "percentile of one sample");
  check(percentile({}, 0.5) == 0, "percentile of no samples is 0");
  check(near(interquartile_mean({9, 1, 2, 3, 4, 5, 6, 100}), 4.5),
        "interquartile mean drops the lowest and highest quarter");
  check(near(interquartile_mean({1, 2, 6}), 3),
        "interquartile mean of three samples is their mean");
  const Percentiles p = summarize(ten);
  check(p.samples == 10 && p.beyond_p95 == 1,
        "summary counts 10 samples, 1 beyond p95");
  std::vector<double> many;
  for (int i = 1; i <= 200; ++i) many.push_back(i);
  check(summarize(many).beyond_p95 == 10,
        "200 samples leave 10 beyond p95");
}

void test_self_time() {
  // job.root [0,10] has children parser.a [1,4] (itself with child
  // sat.g [2,3]), core.b [3,6] overlapping a, and core.c [8,12] sticking
  // out of its parent. Covered part of root: [1,6] ∪ [8,10] = 7.
  std::vector<Span> spans = {
      {0, -1, 1, "job.root", 0, 10}, {1, 0, 1, "parser.a", 1, 4},
      {2, 1, 1, "sat.g", 2, 3},      {3, 0, 1, "core.b", 3, 6},
      {4, 0, 1, "core.c", 8, 12},
  };
  const auto self = self_time_by_layer(spans);
  check(near(self.at("job"), 3), "root self time = 10 - 7");
  check(near(self.at("parser"), 2), "child self time excludes grandchild");
  check(near(self.at("sat"), 1), "leaf self time is its duration");
  check(near(self.at("core"), 3 + 4), "layer self time sums its spans");
  double total = 0;
  for (const auto& [layer, seconds] : self) total += seconds;
  check(near(total, 13), "self times add up to the tree's union + overhang");

  SpanRecorder recorder;
  recorder.set_enabled(true);
  {
    Scope outer(recorder, "job.x", 7);
    Scope inner(recorder, "core.y");
    inner.stop();
    Scope sibling(recorder, "parser.z");
  }
  {
    Scope untraced_parent(recorder, "job.w", 8);
    recorder.set_enabled(false);
    Scope hidden(recorder, "core.hidden");
  }
  const std::vector<Span> recorded = recorder.snapshot();
  check(recorded.size() == 4, "disabled recorder records nothing");
  check(recorded[1].parent == 0 && recorded[2].parent == 0,
        "scopes nest under the enclosing scope");
  check(recorded[1].job == 7 && recorded[2].job == 7,
        "inner scopes inherit the job id");
  check(recorded[3].parent == -1 && recorded[3].job == 8,
        "a closed scope restores the parent");
}

Report run_tiny(const std::string& name, bool flip, PassResult* pass) {
  WorkloadConfig config;
  config.seed = 3;
  config.work_dir = ".";
  config.tiny = true;
  config.flip_first_expected = flip;
  std::unique_ptr<Workload> w = make_workload(name, config);
  w->setup();
  SpanRecorder spans;
  RunData data;
  data.setup_s = {0.01};
  for (int i = 0; i < w->warmup_passes(); ++i)
    data.warmup.push_back(w->run_pass(spans));
  data.untraced.push_back(w->run_pass(spans));
  spans.set_enabled(true);
  data.traced.push_back(w->run_pass(spans));
  data.spans = spans.snapshot();
  data.peak_rss_mb = 1;
  *pass = data.untraced.front();
  return make_report(data);
}

void test_workloads() {
  for (const WorkloadInfo& info : workload_infos()) {
    const std::string name = info.name;
    PassResult pass;
    const Report clean = run_tiny(name, false, &pass);
    for (const std::string& f : clean.failures)
      std::printf("  %s\n", f.c_str());
    check(clean.failed == 0 && pass.attempted > 0,
          name + ": tiny run passes every check");
    check(clean.end_to_end.at("correct_frac") == 1,
          name + ": correct_frac is 1 without failures");
    check(clean.per_layer.at("trace.spans") > 0,
          name + ": the traced pass recorded spans");

    const Report flipped = run_tiny(name, true, &pass);
    const int passes = 2 + make_workload(name, {})->warmup_passes();
    const double expected_frac =
        passes / static_cast<double>(flipped.attempted);
    check(flipped.failed == passes,
          name + ": an inverted expected verdict fails its job in every " +
              "pass, warm-up included");
    check(near(flipped.failed_frac, expected_frac) &&
              near(flipped.per_layer.at("failed_frac"), expected_frac),
          name + ": failed_frac = failed / attempted");
    check(near(flipped.end_to_end.at("correct_frac"),
               1.0 - 1.0 / static_cast<double>(pass.attempted)),
          name + ": correct_frac drops by one job");
    check(result_json(flipped, false).rfind("{\"correct\": false", 0) == 0,
          name + ": the result line says correct: false");
    if (name == "datapath") {
      std::printf("RESULT0 %s\n", result_json(clean, false).c_str());
      std::printf("RESULT1 %s\n", result_json(clean, true).c_str());
    }
  }
}

}  // namespace

int main() {
  test_percentiles();
  test_self_time();
  test_workloads();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
