// serve_mix: an in-process rtlsat-serve on loopback driven by a closed loop
// of 2 client connections. Server: 2 solve workers × 2-wide portfolio
// (HDPLL+S+P against bit-blast) = 4 solver threads at most.
//
// Traffic, in one fixed order per client (--seed renames nets only):
//   * cold ITC'99 instances (miss → parse → canonical cone → race);
//   * byte-identical repeats of an earlier cold request (exact-tier hits);
//   * net-renamed copies of an earlier cold request (canonical-cone hits
//     with witness transfer and replay);
//   * generated datapath instances from the recorded draw;
//   * BMC-session requests with a rising bound (warm IncrementalBmc).
// A repeat or renamed copy always follows its cold request on the same
// connection, so each hit is deterministic.
//
// Every pass starts from an empty cache: passes after the first restart
// the server before their timer starts. The first pass after setup() is
// often the slowest of a run, so it is an untimed warm-up.
//
// On some datapath requests bit-blast answers in about a millisecond, yet
// the race returns only when the HDPLL loser leaves arith_check, up to
// about 1.3 s later (README.md, known gaps). Whether a request stalls
// depends on timing, so pass times vary by about ±15%; wall_s is an
// interquartile mean over passes for that reason.
#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bmc/unroll.h"
#include "datapath_pool.h"
#include "itc99/itc99.h"
#include "oracle.h"
#include "parser/rtl_format.h"
#include "serve/client.h"
#include "serve/server.h"
#include "util/timer.h"
#include "workload.h"

namespace e2e {
namespace {

using namespace rtlsat;

constexpr double kBudgetSeconds = 10;
constexpr int kClients = 2;

struct ColdInstance {
  const char* model;
  const char* property;
  int bound;
};

// Instances the recorded verdict table covers (oracle.cpp).
const ColdInstance kColdPool[] = {
    {"b01", "1", 10}, {"b01", "1", 20}, {"b01", "1", 30}, {"b01", "1", 40},
    {"b01", "1", 50}, {"b01", "1", 60}, {"b01", "1", 70}, {"b01", "1", 80},
    {"b02", "1", 5},  {"b02", "1", 10}, {"b02", "1", 15}, {"b02", "1", 20},
    {"b02", "1", 25}, {"b02", "1", 30}, {"b04", "1", 5},  {"b04", "1", 10},
    {"b04", "1", 15}, {"b04", "1", 20}, {"b04", "1", 25}, {"b04", "1", 30},
    {"b13", "1", 5},  {"b13", "1", 10}, {"b13", "1", 15}, {"b13", "1", 20},
    {"b13", "1", 25}, {"b13", "1", 30}, {"b13", "2", 5},  {"b13", "2", 10},
    {"b13", "2", 15}, {"b13", "2", 20}, {"b13", "3", 5},  {"b13", "3", 10},
    {"b13", "3", 15}, {"b13", "3", 20}, {"b13", "5", 5},  {"b13", "5", 10},
    {"b13", "5", 15}, {"b13", "5", 20}, {"b13", "8", 5},  {"b13", "8", 10},
    {"b13", "8", 15}, {"b13", "8", 20}, {"b13", "40", 13}, {"b01", "1", 90},
    {"b02", "1", 35}, {"b04", "1", 35}, {"b13", "2", 25}, {"b13", "5", 25},
    // Larger b13 frames: 100-400 KB of text per request, races of a few
    // hundred milliseconds, and canonical-cone hits on big circuits.
    {"b13", "1", 40}, {"b13", "1", 50}, {"b13", "1", 60}, {"b13", "1", 70},
    {"b13", "1", 80}, {"b13", "1", 100}, {"b13", "5", 30}, {"b13", "5", 40},
    {"b13", "5", 50}, {"b13", "5", 60}, {"b13", "2", 30}, {"b13", "2", 40},
    {"b13", "2", 50}, {"b13", "3", 30}, {"b13", "3", 40}, {"b13", "3", 50},
};
constexpr int kDatapathRequests = 64;
// The request order does not depend on --seed, which renames nets only:
// which requests overlap decides which races hold a worker, so a seeded
// order moved wall_s from seed to seed.
constexpr std::uint64_t kOrderSeed = 11;
constexpr int kBmcRequestsPerClient = 24;  // bounds 2, 4, ..., 48
// Client c sweeps b13 property kBmcProperty[c].
const char* const kBmcProperty[kClients] = {"1", "5"};

enum class Kind { kCold, kRepeat, kRenamed, kDatapath, kBmc };

struct Request {
  Kind kind = Kind::kCold;
  std::string label;
  serve::SolveRequest request;
  Verdict expected = Verdict::kUndecided;
  // Parsed request circuit for SAT-model replay (comb requests only).
  std::shared_ptr<const ir::Circuit> circuit;
  double order_key = 0;
};

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kCold: return "cold";
    case Kind::kRepeat: return "repeat";
    case Kind::kRenamed: return "renamed";
    case Kind::kDatapath: return "datapath";
    case Kind::kBmc: return "bmc";
  }
  return "?";
}

double unit(Rng& rng) {
  return static_cast<double>(rng.next() >> 11) * (1.0 / 9007199254740992.0);
}

class ServeMix : public Workload {
 public:
  explicit ServeMix(const WorkloadConfig& config) : config_(config) {}
  ~ServeMix() override { stop_server(); }

  void setup() override {
    stop_server();
    for (auto& list : lists_) list.clear();
    Rng rng(kOrderSeed);
    const std::string prefix = seed_prefix('c', config_.seed);
    const std::string copy_prefix = seed_prefix('r', config_.seed);

    std::map<std::string, ir::SeqCircuit> models;
    const int cold_count =
        config_.tiny ? 4 : static_cast<int>(std::size(kColdPool));
    for (int i = 0; i < cold_count; ++i) {
      const ColdInstance& cold = kColdPool[i];
      auto it = models.find(cold.model);
      if (it == models.end())
        it = models.emplace(cold.model, itc99::build(cold.model)).first;
      bmc::BmcInstance instance =
          bmc::unroll(it->second, cold.property, cold.bound);
      const std::string text = instance_rtl(instance);
      const std::string goal = instance.circuit.net_name(instance.goal);
      const Verdict expected =
          recorded_verdict(cold.model, cold.property, cold.bound);
      const std::string label = instance.name;
      const int client = i % kClients;
      const double cold_key = 0.7 * unit(rng);

      Request first = comb_request(Kind::kCold, label, text, goal, prefix,
                                   expected);
      first.order_key = cold_key;
      Request repeat = first;
      repeat.kind = Kind::kRepeat;
      repeat.order_key = cold_key + (1 - cold_key) * unit(rng);
      Request copy = comb_request(Kind::kRenamed, label, text, goal,
                                  copy_prefix, expected);
      copy.order_key = cold_key + (1 - cold_key) * unit(rng);
      for (Request* r : {&first, &repeat, &copy})
        lists_[client].push_back(std::move(*r));
    }

    const std::vector<PoolInstance> pool =
        datapath_pool(config_.tiny ? 2 : kDatapathRequests, config_.seed);
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const PoolInstance& p = pool[i];
      Request r;
      r.kind = Kind::kDatapath;
      r.label = p.label;
      r.request.rtl = p.text;
      r.request.goal = p.goal;
      r.request.budget_seconds = kBudgetSeconds;
      r.expected = p.expected;
      r.circuit =
          std::make_shared<const ir::Circuit>(parser::parse_circuit(p.text));
      r.order_key = unit(rng);
      lists_[i % kClients].push_back(std::move(r));
    }

    const ir::SeqCircuit b13 = itc99::build("b13");
    std::unordered_map<std::string, std::string> renamed;
    const std::string seq_text =
        rename_nets(parser::write_seq_circuit(b13), prefix, &renamed);
    const int bmc_requests = config_.tiny ? 3 : kBmcRequestsPerClient;
    for (int c = 0; c < kClients; ++c) {
      for (int j = 0; j < bmc_requests; ++j) {
        Request r;
        r.kind = Kind::kBmc;
        r.request.seq_rtl = seq_text;
        r.request.property = kBmcProperty[c];
        r.request.bound = 2 * (j + 1);
        r.request.budget_seconds = kBudgetSeconds;
        r.label = std::string("b13_") + kBmcProperty[c] + "(" +
                  std::to_string(r.request.bound) + ") session";
        r.expected = recorded_verdict("b13", kBmcProperty[c], r.request.bound);
        r.order_key = (j + unit(rng)) / bmc_requests;
        lists_[c].push_back(std::move(r));
      }
    }
    for (auto& list : lists_)
      std::stable_sort(list.begin(), list.end(),
                       [](const Request& a, const Request& b) {
                         return a.order_key < b.order_key;
                       });
    if (config_.flip_first_expected && !lists_[0].empty())
      lists_[0][0].expected = inverted(lists_[0][0].expected);
    start_server();
  }

  // A pass takes 2.5-4 s and varies with the stalls above, so a run
  // makes 8 of them in 25 s: one warm-up and 7 timed.
  double nominal_pass_seconds() const override { return 3.0; }
  int warmup_passes() const override { return 1; }

  PassResult run_pass(SpanRecorder& spans) override {
    if (server_used_) {
      stop_server();
      start_server();
    }
    server_used_ = true;
    PassResult results[kClients];
    Timer wall;
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        try {
          run_client(spans, c, results[c]);
        } catch (const std::exception& e) {
          results[c].job(0, false, "client " + std::to_string(c) + ": " +
                                       e.what());
        }
      });
    }
    for (std::thread& t : clients) t.join();
    PassResult pass;
    for (const PassResult& r : results) pass.merge(r);
    pass.wall_s = wall.seconds();
    return pass;
  }

 private:
  Request comb_request(Kind kind, const std::string& label,
                       const std::string& text, const std::string& goal,
                       const std::string& prefix, Verdict expected) {
    Request r;
    r.kind = kind;
    r.label = label;
    std::unordered_map<std::string, std::string> renamed;
    r.request.rtl = rename_nets(text, prefix, &renamed);
    r.request.goal = renamed_name(renamed, goal);
    r.request.budget_seconds = kBudgetSeconds;
    r.expected = expected;
    r.circuit = std::make_shared<const ir::Circuit>(
        parser::parse_circuit(r.request.rtl));
    return r;
  }

  void start_server() {
    serve::ServerOptions options;
    options.solve_workers = 2;
    options.solve_jobs = 2;
    options.default_budget_seconds = kBudgetSeconds;
    server_ = std::make_unique<serve::Server>(options);
    std::string error;
    if (!server_->start(&error)) {
      server_.reset();
      throw std::runtime_error("serve_mix: server start failed: " + error);
    }
    server_used_ = false;
  }

  void stop_server() {
    if (server_ == nullptr) return;
    server_->drain();
    server_->wait();
    server_.reset();
  }

  void run_client(SpanRecorder& spans, int c, PassResult& out) {
    serve::Client client;
    std::string error;
    if (!client.connect("127.0.0.1", server_->port(), &error)) {
      for (const Request& r : lists_[c])
        out.job(0, false, r.label + ": connect failed: " + error);
      return;
    }
    Counters& counters = out.counters;
    int job_id = c * 100000;
    for (const Request& r : lists_[c]) {
      Scope job_scope(spans, "job", job_id++);
      const std::string label =
          std::string(kind_name(r.kind)) + " " + r.label;
      serve::ResultMsg result;
      Scope call_scope(spans, "serve.client_solve");
      const bool ok = client.solve(r.request, &result, &error);
      const double latency = call_scope.stop();
      if (!ok) {
        out.job(job_scope.stop(), false, label + ": " + error);
        // The connection is unusable after a transport error.
        if (!client.connected() &&
            !client.connect("127.0.0.1", server_->port(), &error))
          break;
        continue;
      }
      const Verdict got = result.verdict == "sat"     ? Verdict::kSat
                          : result.verdict == "unsat" ? Verdict::kUnsat
                                                      : Verdict::kUndecided;
      out.samples["serve.service_s"].push_back(result.service_seconds);
      out.samples["serve.wire_s"].push_back(latency - result.service_seconds);
      if (r.kind != Kind::kBmc) {
        counters["cache.lookups"] += 1;
        if (result.cache_hit) counters["cache.hits"] += 1;
      }
      if (!result.cache_hit) {
        out.samples["serve.solve_s"].push_back(result.solve_seconds);
        out.samples["serve.nonsolve_s"].push_back(result.service_seconds -
                                                  result.solve_seconds);
        if (r.kind != Kind::kBmc && got != Verdict::kUndecided) {
          counters["portfolio.races"] += 1;
          if (result.winner == "bitblast")
            counters["portfolio.bitblast_wins"] += 1;
        }
      }
      std::string failure = verdict_failure(label, r.expected, got);
      if (failure.empty() && got == Verdict::kSat && r.circuit != nullptr) {
        Scope check(spans, "check.replay");
        if (!replay_named_model(*r.circuit, r.request.goal, result.model))
          failure = label + ": SAT model replay failed";
      }
      out.job(job_scope.stop(), got != Verdict::kUndecided, failure);
    }
    client.disconnect();
  }

  static bool replay_named_model(
      const ir::Circuit& circuit, const std::string& goal,
      const std::vector<std::pair<std::string, std::int64_t>>& named) {
    std::unordered_map<ir::NetId, std::int64_t> model;
    for (const auto& [name, value] : named) {
      const ir::NetId net = circuit.find_net(name);
      if (net == ir::kNoNet) return false;
      model[net] = value;
    }
    const ir::NetId goal_net = circuit.find_net(goal);
    return goal_net != ir::kNoNet && replay_model(circuit, goal_net, model);
  }

  WorkloadConfig config_;
  std::vector<Request> lists_[kClients];
  std::unique_ptr<serve::Server> server_;
  bool server_used_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_serve_mix(const WorkloadConfig& config) {
  return std::make_unique<ServeMix>(config);
}

}  // namespace e2e
