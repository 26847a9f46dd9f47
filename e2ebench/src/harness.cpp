#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace e2e {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

double interquartile_mean(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t drop = samples.size() / 4;
  double sum = 0;
  for (std::size_t i = drop; i < samples.size() - drop; ++i)
    sum += samples[i];
  return sum / static_cast<double>(samples.size() - 2 * drop);
}

Percentiles summarize(const std::vector<double>& samples) {
  Percentiles out;
  out.samples = samples.size();
  out.p50 = percentile(samples, 0.50);
  out.p95 = percentile(samples, 0.95);
  out.beyond_p95 = static_cast<std::size_t>(
      std::count_if(samples.begin(), samples.end(),
                    [&](double s) { return s > out.p95; }));
  return out;
}

// ---- spans ----------------------------------------------------------------

namespace {
thread_local int t_parent = -1;
thread_local int t_job = -1;
}  // namespace

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

double SpanRecorder::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int SpanRecorder::open(const std::string& name, int parent, int job,
                       double start) {
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.id = static_cast<int>(spans_.size());
  span.parent = parent;
  span.job = job;
  span.name = name;
  span.start = start;
  span.end = start;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanRecorder::close(int id, double end) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = end;
}

std::vector<Span> SpanRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanRecorder::write_jsonl(const std::string& path,
                               std::string* error) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    *error = "cannot write " + path;
    return false;
  }
  for (const Span& s : snapshot()) {
    std::fprintf(f,
                 "{\"id\":%d,\"parent\":%d,\"job\":%d,\"name\":\"%s\","
                 "\"start\":%.9f,\"end\":%.9f}\n",
                 s.id, s.parent, s.job, s.name.c_str(), s.start, s.end);
  }
  std::fclose(f);
  return true;
}

std::map<std::string, double> self_time_by_layer(
    const std::vector<Span>& spans) {
  std::map<int, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans)
    if (s.parent >= 0) children[s.parent].emplace_back(s.start, s.end);

  std::map<std::string, double> out;
  for (const Span& s : spans) {
    double covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the children's intervals, clipped to the parent.
      std::vector<std::pair<double, double>> iv = it->second;
      std::sort(iv.begin(), iv.end());
      double cur_lo = 0, cur_hi = -1;
      bool have = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start);
        hi = std::min(hi, s.end);
        if (hi <= lo) continue;
        if (have && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
          continue;
        }
        if (have) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        have = true;
      }
      if (have) covered += cur_hi - cur_lo;
    }
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out[layer] += (s.end - s.start) - covered;
  }
  return out;
}

Scope::Scope(SpanRecorder& recorder, const char* name, int job)
    : recorder_(recorder),
      start_(std::chrono::steady_clock::now()),
      saved_parent_(t_parent),
      saved_job_(t_job) {
  if (job >= 0) t_job = job;
  if (recorder_.enabled()) {
    id_ = recorder_.open(name, t_parent, t_job, recorder_.now());
    t_parent = id_;
  }
}

double Scope::stop() {
  if (!open_) return seconds_;
  open_ = false;
  seconds_ = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start_)
                 .count();
  if (id_ >= 0) recorder_.close(id_, recorder_.now());
  t_parent = saved_parent_;
  t_job = saved_job_;
  return seconds_;
}

// ---- pass results ---------------------------------------------------------

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kSat: return "sat";
    case Verdict::kUnsat: return "unsat";
    case Verdict::kUndecided: return "undecided";
  }
  return "?";
}

void PassResult::job(double latency_s, bool job_decided,
                     const std::string& failure) {
  latencies_s.push_back(latency_s);
  ++attempted;
  if (job_decided) ++decided;
  if (!failure.empty()) {
    ++failed;
    failures.push_back(failure);
  }
}

void PassResult::merge(const PassResult& other) {
  latencies_s.insert(latencies_s.end(), other.latencies_s.begin(),
                     other.latencies_s.end());
  attempted += other.attempted;
  decided += other.decided;
  failed += other.failed;
  for (const auto& [name, value] : other.counters) counters[name] += value;
  for (const auto& [name, values] : other.samples)
    samples[name].insert(samples[name].end(), values.begin(), values.end());
  rows.insert(rows.end(), other.rows.begin(), other.rows.end());
  failures.insert(failures.end(), other.failures.begin(),
                  other.failures.end());
}

}  // namespace e2e
