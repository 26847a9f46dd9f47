#include "report.h"

#include <algorithm>
#include <cstdio>

#include "workload.h"

namespace e2e {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", "lower", 0.25},
      {"wall_s", "s", "lower", 0.25},
      {"verdicts_per_s", "1/s", "higher", 0.25},
      {"latency_ms_p50", "ms", "lower", 0.25},
      {"latency_ms_p95", "ms", "lower", 0.25},
      {"decided_frac", "frac", "higher", 0.05},
      {"correct_frac", "frac", "higher", 0.05},
      {"peak_rss_mb", "MB", "lower", 0.20},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"parser.parse_s", "s", "lower", 0},
      {"parser.bytes", "bytes", "lower", 0},
      {"bmc.unroll_s", "s", "lower", 0},
      {"bmc.frame_solve_s", "s", "lower", 0},
      {"bmc.sweep_s", "s", "lower", 0},
      {"bmc.frames", "count", "higher", 0},
      {"presolve.s", "s", "lower", 0},
      {"presolve.nets_removed", "count", "higher", 0},
      {"presolve.decided", "count", "higher", 0},
      {"core.solve_s", "s", "lower", 0},
      {"core.search_s", "s", "lower", 0},
      {"hdpll.decisions", "count", "lower", 0},
      {"hdpll.conflicts", "count", "lower", 0},
      {"justify.candidates_scanned", "count", "lower", 0},
      {"justify.scans_per_decision", "count", "lower", 0},
      {"prop.datapath_narrowings", "count", "lower", 0},
      {"core.learn_s", "s", "lower", 0},
      {"learn.probes", "count", "lower", 0},
      {"learn.relations", "count", "higher", 0},
      {"learn.relations_per_probe", "ratio", "higher", 0},
      {"core.arith_s", "s", "lower", 0},
      {"hdpll.arith_checks", "count", "lower", 0},
      {"hdpll.arith_conflicts", "count", "lower", 0},
      {"fme.calls", "count", "lower", 0},
      {"core.overrun_ms_max", "ms", "lower", 0},
      {"bitblast.encode_s", "s", "lower", 0},
      {"sat.solve_s", "s", "lower", 0},
      {"sat.conflicts", "count", "lower", 0},
      {"sat.propagations", "count", "lower", 0},
      {"proof.check_s", "s", "lower", 0},
      {"proof.records", "count", "lower", 0},
      {"proof.bytes", "bytes", "lower", 0},
      {"proof.rejected", "count", "lower", 0},
      {"serve.service_ms", "ms", "lower", 0},
      {"serve.solve_ms", "ms", "lower", 0},
      {"serve.wire_ms", "ms", "lower", 0},
      {"serve.nonsolve_ms", "ms", "lower", 0},
      {"cache.hit_frac", "frac", "higher", 0},
      {"cache.lookups", "count", "higher", 0},
      {"portfolio.bitblast_win_frac", "frac", "lower", 0},
      {"portfolio.races", "count", "higher", 0},
      {"self.job_s", "s", "lower", 0},
      {"self.parser_s", "s", "lower", 0},
      {"self.bmc_s", "s", "lower", 0},
      {"self.presolve_s", "s", "lower", 0},
      {"self.core_s", "s", "lower", 0},
      {"self.bitblast_s", "s", "lower", 0},
      {"self.sat_s", "s", "lower", 0},
      {"self.proof_s", "s", "lower", 0},
      {"self.serve_s", "s", "lower", 0},
      {"self.check_s", "s", "lower", 0},
      {"trace.overhead_s", "s", "lower", 0},
      {"trace.spans", "count", "lower", 0},
      {"failed_frac", "frac", "lower", 0},
      {"samples.jobs", "count", "higher", 0},
      {"samples.passes", "count", "higher", 0},
      {"samples.setups", "count", "higher", 0},
  };
  return specs;
}

namespace {

// Pass-level figures are interquartile means over the passes.
double central_of(const std::vector<PassResult>& passes,
                  double (*get)(const PassResult&)) {
  std::vector<double> values;
  for (const PassResult& p : passes) values.push_back(get(p));
  return interquartile_mean(values);
}

}  // namespace

Report make_report(const RunData& data) {
  Report r;
  PassResult untraced_all;
  for (const PassResult& p : data.untraced) untraced_all.merge(p);
  for (const auto* list : {&data.warmup, &data.untraced, &data.traced}) {
    for (const PassResult& p : *list) {
      r.attempted += p.attempted;
      r.failed += p.failed;
      r.failures.insert(r.failures.end(), p.failures.begin(),
                        p.failures.end());
    }
  }
  r.failed_frac = r.attempted > 0 ? static_cast<double>(r.failed) /
                                        static_cast<double>(r.attempted)
                                  : 0;

  // ---- end to end (untraced passes) ----
  // Workloads that report rows (bmc_deep: 7 jobs a pass) take their
  // latency percentiles over the per-row median times, not the raw jobs.
  std::map<std::string, std::vector<double>> by_row;
  for (const auto& [label, seconds] : untraced_all.rows)
    by_row[label].push_back(seconds);
  for (const auto& [label, values] : by_row)
    r.rows.emplace_back(label, median(values));
  std::vector<double> latencies = untraced_all.latencies_s;
  if (!r.rows.empty()) {
    latencies.clear();
    for (const auto& row : r.rows) latencies.push_back(row.second);
  }
  const Percentiles lat = summarize(latencies);
  const double attempted = static_cast<double>(untraced_all.attempted);
  auto& e = r.end_to_end;
  e["setup_s"] = median(data.setup_s);
  e["wall_s"] =
      central_of(data.untraced, [](const PassResult& p) { return p.wall_s; });
  e["verdicts_per_s"] = central_of(data.untraced, [](const PassResult& p) {
    return p.wall_s > 0 ? static_cast<double>(p.decided) / p.wall_s : 0.0;
  });
  r.beyond_p95 = lat.beyond_p95;
  e["latency_ms_p50"] = lat.p50 * 1e3;
  e["latency_ms_p95"] = lat.p95 * 1e3;
  e["decided_frac"] =
      attempted > 0 ? static_cast<double>(untraced_all.decided) / attempted : 0;
  e["correct_frac"] =
      attempted > 0
          ? 1.0 - static_cast<double>(untraced_all.failed) / attempted
          : 0;
  e["peak_rss_mb"] = data.peak_rss_mb;
  const std::size_t passes = data.untraced.size();
  r.samples = {{"setup_s", data.setup_s.size()},
               {"wall_s", passes},
               {"verdicts_per_s", passes},
               {"latency_ms_p50", lat.samples},
               {"latency_ms_p95", lat.samples},
               {"decided_frac", untraced_all.attempted},
               {"correct_frac", untraced_all.attempted},
               {"peak_rss_mb", 1}};

  // ---- per layer (traced passes) ----
  auto& l = r.per_layer;
  for (const MetricSpec& spec : per_layer_metrics()) l[spec.name] = 0;
  std::map<std::string, std::vector<double>> layer_values;
  for (const PassResult& p : data.traced)
    for (const auto& [name, value] : layer_metrics(p))
      layer_values[name].push_back(value);
  for (const auto& [name, values] : layer_values) l[name] = median(values);
  const double traced_passes = static_cast<double>(data.traced.size());
  if (traced_passes > 0) {
    for (const auto& [layer, seconds] : self_time_by_layer(data.spans)) {
      const std::string name = "self." + layer + "_s";
      if (l.count(name) != 0) l[name] = seconds / traced_passes;
    }
    l["trace.spans"] = static_cast<double>(data.spans.size()) / traced_passes;
  }
  if (!data.traced.empty() && !data.untraced.empty()) {
    l["trace.overhead_s"] =
        central_of(data.traced, [](const PassResult& p) { return p.wall_s; }) -
        e["wall_s"];
  }
  l["failed_frac"] = r.failed_frac;
  l["samples.jobs"] = static_cast<double>(r.attempted);
  l["samples.passes"] = static_cast<double>(
      data.warmup.size() + data.untraced.size() + data.traced.size());
  l["samples.setups"] = static_cast<double>(data.setup_s.size());
  return r;
}

namespace {

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string result_json(const Report& report, bool trace) {
  std::string out = "{\"correct\": ";
  out += report.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  const auto& specs = trace ? per_layer_metrics() : end_to_end_metrics();
  const auto& values = trace ? report.per_layer : report.end_to_end;
  bool first = true;
  for (const MetricSpec& spec : specs) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += spec.name;
    out += "\": {\"value\": " + number(values.at(spec.name)) +
           ", \"unit\": \"" + spec.unit + "\"}";
  }
  out += "}}";
  return out;
}

std::string catalogue_json() {
  std::string out = "{\"workloads\": [";
  bool first = true;
  for (const WorkloadInfo& w : workload_infos()) {
    if (!first) out += ", ";
    first = false;
    out += std::string("{\"name\": \"") + w.name + "\", \"why\": \"" + w.why +
           "\"}";
  }
  for (const bool trace : {false, true}) {
    out += trace ? "], \"per_layer\": [" : "], \"end_to_end\": [";
    first = true;
    for (const MetricSpec& s :
         trace ? per_layer_metrics() : end_to_end_metrics()) {
      if (!first) out += ", ";
      first = false;
      out += std::string("{\"name\": \"") + s.name + "\", \"unit\": \"" +
             s.unit + "\", \"better\": \"" + s.better + "\"";
      if (!trace) {
        char bound[32];
        std::snprintf(bound, sizeof(bound), "%g", s.bound);
        out += std::string(", \"bound\": ") + bound;
      }
      out += "}";
    }
  }
  out += "]}";
  return out;
}

}  // namespace e2e
