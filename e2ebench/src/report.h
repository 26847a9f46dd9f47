// Metric catalogue and the reduction from raw passes to reported metrics.
//
// End-to-end metrics come from untraced passes only; per-layer metrics come
// from traced passes (layer quantities, span self times) plus the tracing
// overhead, which compares the two. BENCHMARK.json is generated from this
// catalogue (run.py --write-benchmark-json), and the runner refuses to
// print a result whose metric names do not match it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace e2e {

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  // "lower" | "higher"
  double bound;        // end-to-end only: allowed regression share
};

const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

struct RunData {
  std::vector<double> setup_s;
  std::vector<PassResult> warmup;  // checked, but timed by no metric
  std::vector<PassResult> untraced;
  std::vector<PassResult> traced;
  std::vector<Span> spans;  // everything the traced passes recorded
  double peak_rss_mb = 0;
};

struct Report {
  std::int64_t attempted = 0;  // every pass, traced or not
  std::int64_t failed = 0;
  double failed_frac = 0;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  std::map<std::string, std::size_t> samples;  // per end-to-end metric
  std::size_t beyond_p95 = 0;  // latency samples above latency_ms_p95
  std::vector<std::string> failures;
  // Median latency per row label (workloads that report rows).
  std::vector<std::pair<std::string, double>> rows;
};

Report make_report(const RunData& data);

// The final stdout line: {"correct", "attempted", "failed", "metrics"} with
// the end-to-end metrics (trace = false) or the per-layer ones.
std::string result_json(const Report& report, bool trace);

// Machine-readable catalogue for run.py: workloads and both metric lists.
std::string catalogue_json();

}  // namespace e2e
