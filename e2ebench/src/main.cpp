// e2ebench: time to a checked verdict on one workload.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--work-dir <dir>] [--spans-out <path>]
//   e2ebench --list-metrics
//
// Sets the workload up several times (setup_s is the median), then runs
// round(--seconds / nominal pass time) whole passes of its job list (at
// least one beyond its warm-up passes, which come first and are checked
// but not timed). With --trace 1 the timed passes alternate untraced and
// traced (at least one of each), and the traced ones record layer spans,
// written to --spans-out when the run ends. The last stdout line is the
// result JSON; the exit code is 1 when any job failed its check. Normally
// started through run.py, which builds this binary first.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>

#include "metrics/memory.h"
#include "report.h"
#include "util/timer.h"
#include "workload.h"

namespace {

using namespace e2e;

constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 200;
constexpr double kSetupSeconds = 0.5;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>] [--spans-out <path>]\n"
               "       %s --list-metrics\n",
               argv0, argv0);
  return 2;
}

void print_report(const std::string& workload, std::uint64_t seed,
                  const RunData& data, const Report& report) {
  std::printf("workload %s  seed %llu  setups %zu  warm-up passes %zu  "
              "untraced passes %zu  traced passes %zu\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              data.setup_s.size(), data.warmup.size(), data.untraced.size(),
              data.traced.size());
  for (const MetricSpec& spec : end_to_end_metrics()) {
    std::printf("  %-16s %14.6f %-5s (n=%zu", spec.name,
                report.end_to_end.at(spec.name), spec.unit,
                report.samples.at(spec.name));
    if (std::strcmp(spec.name, "latency_ms_p95") == 0)
      std::printf(", %zu beyond", report.beyond_p95);
    std::printf(")\n");
  }
  if (!data.traced.empty()) {
    std::printf("  per layer (traced passes):\n");
    for (const MetricSpec& spec : per_layer_metrics()) {
      std::printf("    %-28s %16.6f %s\n", spec.name,
                  report.per_layer.at(spec.name), spec.unit);
    }
  }
  for (const auto* list : {&data.warmup, &data.untraced, &data.traced}) {
    std::printf("  %s pass walls:", list == &data.warmup     ? "warm-up"
                                    : list == &data.untraced ? "untraced"
                                                             : "traced");
    for (const PassResult& p : *list) std::printf(" %.4f", p.wall_s);
    std::printf(" s\n");
  }
  for (const auto& [label, seconds] : report.rows)
    std::printf("  row %-28s %10.4f s\n", label.c_str(), seconds);
  std::printf("  failed %lld of %lld jobs (failed_frac %.6f)\n",
              static_cast<long long>(report.failed),
              static_cast<long long>(report.attempted), report.failed_frac);
  for (const std::string& line : report.failures)
    std::printf("  FAILED %s\n", line.c_str());
}

int run(const std::string& name, const WorkloadConfig& config, double seconds,
        bool trace, const std::string& spans_out) {
  RunData data;
  std::unique_ptr<Workload> workload;
  // Several set-ups, median reported; cheap ones repeat until the total
  // is long enough for a steady median.
  double setup_total = 0;
  while (data.setup_s.size() < kMinSetups ||
         (setup_total < kSetupSeconds &&
          data.setup_s.size() < kMaxSetups)) {
    workload.reset();  // stop the previous fixture before timing the next
    rtlsat::Timer timer;
    workload = make_workload(name, config);
    workload->setup();
    data.setup_s.push_back(timer.seconds());
    setup_total += data.setup_s.back();
  }

  const long warmup = workload->warmup_passes();
  const long passes = std::max<long>(
      trace ? 2 : 1,
      std::lround(seconds / workload->nominal_pass_seconds()) - warmup);
  SpanRecorder spans;
  for (long pass = 0; pass < warmup; ++pass)
    data.warmup.push_back(workload->run_pass(spans));
  for (long pass = 0; pass < passes; ++pass) {
    const bool traced_pass = trace && pass % 2 == 1;
    spans.set_enabled(traced_pass);
    PassResult result = workload->run_pass(spans);
    spans.set_enabled(false);
    (traced_pass ? data.traced : data.untraced).push_back(std::move(result));
  }
  workload.reset();
  data.spans = spans.snapshot();
  const rtlsat::metrics::ProcMemory mem = rtlsat::metrics::read_proc_memory();
  data.peak_rss_mb = static_cast<double>(mem.rss_peak_kb) / 1024.0;

  const Report report = make_report(data);
  if (trace && !spans_out.empty()) {
    std::string error;
    if (!spans.write_jsonl(spans_out, &error))
      std::fprintf(stderr, "e2ebench: %s\n", error.c_str());
  }
  print_report(name, config.seed, data, report);
  std::printf("%s\n", result_json(report, trace).c_str());
  std::fflush(stdout);
  return report.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string spans_out;
  WorkloadConfig config;
  double seconds = -1;
  int trace = -1;
  bool seed_given = false;
  for (int i = 1; i < argc; ++i) {
    const auto arg = [&](const char* flag) {
      return std::strcmp(argv[i], flag) == 0 && i + 1 < argc;
    };
    if (std::strcmp(argv[i], "--list-metrics") == 0) {
      std::printf("%s\n", catalogue_json().c_str());
      return 0;
    } else if (arg("--workload")) {
      workload = argv[++i];
    } else if (arg("--seed")) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
      seed_given = true;
    } else if (arg("--seconds")) {
      seconds = std::atof(argv[++i]);
    } else if (arg("--trace")) {
      trace = std::atoi(argv[++i]);
    } else if (arg("--work-dir")) {
      config.work_dir = argv[++i];
    } else if (arg("--spans-out")) {
      spans_out = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  if (workload.empty() || !seed_given || seconds <= 0 ||
      (trace != 0 && trace != 1))
    return usage(argv[0]);
  if (make_workload(workload, config) == nullptr) {
    std::fprintf(stderr, "e2ebench: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  try {
    return run(workload, config, seconds, trace == 1, spans_out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 2;
  }
}
