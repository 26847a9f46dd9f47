// Measurement plumbing shared by the end-to-end workloads: percentiles with
// their sample counts, an in-memory span recorder with per-layer self time,
// and the per-pass result every workload returns.
//
// Layer calls are timed from outside — a Scope wraps one call into a public
// rtlsat function — so nothing under src/ carries benchmark code. A Scope
// always measures; it records a span only while the recorder is enabled
// (traced passes), so untraced passes pay two clock reads per layer call.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

// ---- statistics -----------------------------------------------------------

// Linear interpolation between closest ranks (numpy's default method);
// q in [0, 1]. An empty sample yields 0.
double percentile(std::vector<double> samples, double q);
double median(std::vector<double> samples);
// Mean of the samples left after dropping the lowest and highest n/4
// (integer division): steadier than the median when a few passes land in
// a second mode, and still blind to one outlier in four.
double interquartile_mean(std::vector<double> samples);

struct Percentiles {
  double p50 = 0;
  double p95 = 0;
  std::size_t samples = 0;
  // Samples strictly above p95: how many observations the tail rests on.
  std::size_t beyond_p95 = 0;
};
Percentiles summarize(const std::vector<double>& samples);

// ---- spans ----------------------------------------------------------------

struct Span {
  int id = 0;
  int parent = -1;  // -1: a root span
  int job = -1;     // job the span belongs to (-1: none)
  std::string name;
  double start = 0;  // seconds since the recorder was created
  double end = 0;
};

// Thread-safe span store. Parent links follow the calling thread's innermost
// open Scope, so concurrent client threads build independent trees.
class SpanRecorder {
 public:
  SpanRecorder();

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  int open(const std::string& name, int parent, int job, double start);
  void close(int id, double end);
  double now() const;

  std::vector<Span> snapshot() const;
  // One JSON object per line: id, parent, job, name, start, end.
  bool write_jsonl(const std::string& path, std::string* error) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Self time per layer: each span's duration minus the part of it that its
// children cover, summed over spans whose name starts with "<layer>.".
// Layer = the span name up to its first '.'.
std::map<std::string, double> self_time_by_layer(
    const std::vector<Span>& spans);

// Times one layer call and, when the recorder is enabled, records it as a
// span under the thread's current span. job < 0 inherits the enclosing job.
class Scope {
 public:
  Scope(SpanRecorder& recorder, const char* name, int job = -1);
  ~Scope() { stop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  // Ends the span (idempotent) and returns its duration in seconds.
  double stop();

 private:
  SpanRecorder& recorder_;
  std::chrono::steady_clock::time_point start_;
  int id_ = -1;
  int saved_parent_ = -1;
  int saved_job_ = -1;
  bool open_ = true;
  double seconds_ = 0;
};

// ---- pass results ---------------------------------------------------------

// Named per-pass layer quantities: times in seconds, counts, or sums that a
// workload turns into ratios when it reports.
using Counters = std::map<std::string, double>;

enum class Verdict { kSat, kUnsat, kUndecided };
const char* verdict_name(Verdict v);

struct PassResult {
  double wall_s = 0;
  std::vector<double> latencies_s;  // one per job
  std::int64_t attempted = 0;
  std::int64_t decided = 0;
  std::int64_t failed = 0;
  Counters counters;
  // Per-job distributions behind median-style layer metrics.
  std::map<std::string, std::vector<double>> samples;
  // Per-job labels and latencies for workloads that report rows.
  std::vector<std::pair<std::string, double>> rows;
  std::vector<std::string> failures;  // one line per failed job

  // Records one finished job. `failure` non-empty marks it failed.
  void job(double latency_s, bool decided, const std::string& failure);
  void merge(const PassResult& other);
};

}  // namespace e2e
