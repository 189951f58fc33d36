// engine-large: in-process solves by concurrent callers (one per usable
// CPU, at most four), each rotating over nine instances mapped from hgb
// files.

#include <unistd.h>

#include <atomic>
#include <iostream>
#include <thread>

#include "checker.hpp"
#include "common.hpp"
#include "fleet.hpp"
#include "hypergraph/binary.hpp"
#include "hypergraph/generators.hpp"
#include "hypergraph/io.hpp"
#include "hypergraph/weights.hpp"
#include "serve.hpp"

namespace solvebench {

namespace api = hypercover::api;
namespace hg = hypercover::hg;

namespace {

constexpr double kEps = 0.5;
/// p90: at least 100 samples per run, guaranteed by kMinRequests.
constexpr double kTailQ = 0.90;
constexpr std::size_t kMinRequests = 108;
/// Concurrent callers: one per usable CPU, at most four.
constexpr std::uint32_t kMaxCallers = 4;
/// Untimed rotations per caller in set-up.
constexpr std::size_t kWarmupRotations = 2;

struct LargeInstance {
  std::string name;
  std::string path;
  std::int64_t planted_opt = 0;
  hg::Hypergraph graph;  // mapped from `path`
  InstanceFacts facts;
  std::uint64_t reference = 0;  // answer hash of the set-up solve
};

/// Instances per family: the per-seed differences of one instance
/// (round counts vary with the seed) average out over three.
constexpr std::uint32_t kPerFamily = 3;

/// Generates kPerFamily instances of each of the three families from the
/// seed and writes each as hgb.
std::vector<LargeInstance> generate(std::uint64_t seed) {
  std::vector<LargeInstance> out;
  for (std::uint32_t k = 0; k < kPerFamily; ++k) {
    const std::uint64_t base = seed * 1000 + 10 * k;
    const std::string tag = std::string(1, '-').append(std::to_string(k));
    {
      LargeInstance& inst = out.emplace_back();
      inst.name = "uniform-r3" + tag;
      inst.path = "engine-uniform" + tag + ".hgb";
      hg::write_binary_file(
          inst.path, hg::random_uniform(24000, 64000, 3,
                                        hg::exponential_weights(12), base + 1));
    }
    {
      LargeInstance& inst = out.emplace_back();
      inst.name = "setcover-r5" + tag;
      inst.path = "engine-setcover" + tag + ".hgb";
      hg::write_binary_file(
          inst.path, hg::random_set_cover(10000, 20000, 5,
                                          hg::exponential_weights(12), base + 2));
    }
    {
      const hg::PlantedInstance p =
          hg::planted_cover(40000, 80000, 3, 4000, 4, base + 3);
      LargeInstance& inst = out.emplace_back();
      inst.name = "planted-r3" + tag;
      inst.path = "engine-planted" + tag + ".hgb";
      inst.planted_opt = p.optimal_weight;
      hg::write_binary_file(inst.path, p.graph);
    }
  }
  return out;
}

api::SolveRequest request() {
  api::SolveRequest req;
  req.eps = kEps;
  req.engine.threads = 1;
  return req;
}

/// One untimed check of an answer: independent checks plus bit identity
/// with the instance's first (set-up) answer. Returns what failed, or "".
std::string check(const LargeInstance& inst, const api::Solution& sol,
                  bool cert_valid) {
  const AnswerView view{&sol.in_cover, &sol.duals, sol.cover_weight,
                        sol.net.transcript_hash};
  if (!cert_valid) return inst.name + ": certificate invalid";
  if (std::string err = check_answer(inst.graph, inst.facts, kEps, view);
      !err.empty()) {
    return inst.name + ": " + err;
  }
  if (answer_hash(view) != inst.reference) {
    return inst.name + ": answer differs from the first solve";
  }
  return "";
}

/// What one caller gathered in a window.
struct CallerLog {
  std::vector<double> latency_ms;
  /// Request times per instance (index into the instance list).
  std::vector<std::vector<double>> instance_ms;
  double busy_ms = 0;  // summed request time: checks stay off the clock
  double cpu_ms = 0;   // thread CPU time inside the solving calls
  std::uint64_t attempted = 0;
  std::vector<std::string> problems;
};

struct Window {
  std::vector<CallerLog> callers;
  std::vector<double> rss_mb;  // process resident size, once a second

  [[nodiscard]] std::vector<double> latencies() const {
    std::vector<double> all;
    for (const CallerLog& c : callers) {
      all.insert(all.end(), c.latency_ms.begin(), c.latency_ms.end());
    }
    return all;
  }
  /// Sum over callers of each caller's median rate over its rotations
  /// (requests per second of request time). A burst of steal time on
  /// a shared host slows the rotations it falls in, not the median.
  [[nodiscard]] double throughput_rps(std::size_t rotation) const {
    double rps = 0;
    for (const CallerLog& c : callers) {
      std::vector<double> rates;
      for (std::size_t lo = 0; lo + rotation <= c.latency_ms.size();
           lo += rotation) {
        double ms = 0;
        for (std::size_t i = lo; i < lo + rotation; ++i) ms += c.latency_ms[i];
        rates.push_back(static_cast<double>(rotation) / (ms / 1e3));
      }
      rps += median(rates);
    }
    return rps;
  }
  [[nodiscard]] double cpu_ms_per_request() const {
    double cpu = 0;
    double n = 0;
    for (const CallerLog& c : callers) {
      cpu += c.cpu_ms;
      n += static_cast<double>(c.latency_ms.size());
    }
    return cpu / n;
  }
  [[nodiscard]] std::vector<double> instance_ms(std::size_t i) const {
    std::vector<double> all;
    for (const CallerLog& c : callers) {
      all.insert(all.end(), c.instance_ms[i].begin(), c.instance_ms[i].end());
    }
    return all;
  }
};

/// `callers` closed loops in parallel, each rotating over every instance
/// from its own starting offset, each until `seconds` of request time;
/// then more whole rotations until the callers together made at least
/// `min_requests`. The instances are only read, so callers share them.
Window window(const std::vector<LargeInstance>& insts, std::uint32_t callers,
              double seconds, std::size_t min_requests) {
  Window w;
  w.callers.resize(callers);
  const std::size_t per_caller = (min_requests + callers - 1) / callers;
  std::atomic<std::uint32_t> running{callers};
  std::vector<std::thread> threads;
  for (std::uint32_t c = 0; c < callers; ++c) {
    threads.emplace_back([&insts, &running, c, callers, seconds, per_caller,
                          &log = w.callers[c]] {
      const api::SolveRequest req = request();
      log.instance_ms.resize(insts.size());
      std::size_t next = insts.size() * c / callers;
      while (log.busy_ms < seconds * 1e3 ||
             log.latency_ms.size() < per_caller) {
        for (std::size_t r = 0; r < insts.size(); ++r, ++next) {
          const std::size_t i = next % insts.size();
          ++log.attempted;
          const double cpu0 = thread_cpu_ms();
          const auto t = Clock::now();
          const api::Solution sol = api::solve("mwhvc", insts[i].graph, req);
          const double ms = ms_since(t);
          log.cpu_ms += thread_cpu_ms() - cpu0;
          log.busy_ms += ms;
          log.latency_ms.push_back(ms);
          log.instance_ms[i].push_back(ms);
          if (std::string err = check(insts[i], sol, sol.certificate.valid());
              !err.empty() && log.problems.size() < 20) {
            log.problems.push_back(std::move(err));
          }
        }
      }
      running.fetch_sub(1);
    });
  }
  // The resident size once a second while every caller runs.
  auto next_sample = Clock::now() + std::chrono::seconds(1);
  while (running.load() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (Clock::now() >= next_sample && running.load() == callers) {
      w.rss_mb.push_back(sample_process(::getpid()).rss_mb);
      next_sample += std::chrono::seconds(1);
    }
  }
  for (std::thread& t : threads) t.join();
  if (w.rss_mb.empty()) w.rss_mb.push_back(sample_process(::getpid()).rss_mb);
  return w;
}

/// Folds a window's request counts and check failures into the report.
void account(const Window& w, Report& report) {
  for (const CallerLog& c : w.callers) {
    report.attempted += c.attempted;
    for (const std::string& p : c.problems) report.fail_check(p);
  }
}

}  // namespace

void run_engine_large(const RunOptions& opt, Report& report) {
  const auto gen_start = Clock::now();
  std::vector<LargeInstance> insts = generate(opt.seed);
  const double gen_ms = ms_since(gen_start);
  const std::uint32_t callers = std::min(usable_cpus(), kMaxCallers);

  // Set-up: map every instance and solve each once, which gives the
  // reference answer all later solves must equal; then every caller
  // makes kWarmupRotations untimed rotations at once.
  {
    const api::SolveRequest req = request();
    for (LargeInstance& inst : insts) {
      inst.graph = hg::map_file(inst.path);
      inst.facts = facts_of(inst.graph, inst.planted_opt);
      const api::Solution sol = api::solve("mwhvc", inst.graph, req);
      inst.reference = answer_hash({&sol.in_cover, &sol.duals,
                                    sol.cover_weight, sol.net.transcript_hash});
      if (std::string err = check(inst, sol, sol.certificate.valid());
          !err.empty()) {
        report.fail_check(err);
      }
    }
  }
  account(window(insts, callers, 0,
                 callers * insts.size() * kWarmupRotations),
          report);
  const double setup_s = (ms_since(opt.t0) - gen_ms) / 1e3;

  if (!opt.trace) {
    const Window w = window(insts, callers, opt.seconds, kMinRequests);
    account(w, report);
    const std::vector<double> latency_ms = w.latencies();
    report.set("setup_s", setup_s, "s");
    report.set("throughput_rps", w.throughput_rps(insts.size()), "requests/s");
    report.set("latency_p50_ms", median(latency_ms), "ms");
    report.set("latency_tail_ms", quantile(latency_ms, kTailQ), "ms");
    report.set("cpu_ms_per_request", w.cpu_ms_per_request(), "ms");
    report.set("rss_mb", median(w.rss_mb), "MiB");
    std::cerr << "engine-large: " << callers << " callers, "
              << latency_ms.size() << " requests, tail = p" << kTailQ * 100
              << "; p50 per instance:";
    for (std::size_t i = 0; i < insts.size(); ++i) {
      std::cerr << " " << insts[i].name << " " << median(w.instance_ms(i))
                << " ms";
    }
    std::cerr << "\n";
    return;
  }

  // Traced run, with one caller so that the two halves compare: half the
  // time untraced through api::solve, half stepped call by call with the
  // driver's spans, then ingest timings and a fleet probe for the
  // serving layers.
  SpanLog log;
  Samples samples;
  const Window plain = window(insts, 1, opt.seconds / 2, kMinRequests / 2);
  account(plain, report);
  double traced_busy_ms = 0;
  std::size_t traced_requests = 0;
  std::vector<std::vector<double>> traced_ms(insts.size());
  const api::SolveRequest req = request();
  while (traced_busy_ms < opt.seconds / 2 * 1e3 ||
         traced_requests < kMinRequests / 2) {
    for (std::size_t i = 0; i < insts.size(); ++i) {
      ++report.attempted;
      SteppedSolve s = stepped_solve(insts[i].graph, req, &log, &samples);
      const double ms = s.setup_ms + s.step_ms + s.finish_ms + s.certify_ms;
      traced_busy_ms += ms;
      ++traced_requests;
      traced_ms[i].push_back(ms);
      if (std::string err = check(insts[i], s.solution, s.certificate_valid);
          !err.empty()) {
        report.fail_check(err);
      }
    }
  }
  // Two paths to one total: the stepped phases must add up to the
  // one-shot api::solve wall time of the same instance. The two medians
  // come from different halves of the run, so a slow host phase in one
  // half moves them apart.
  constexpr double kPhaseSumBound = 0.35;
  for (std::size_t i = 0; i < insts.size(); ++i) {
    const double plain_ms = median(plain.instance_ms(i));
    const double stepped_ms = median(traced_ms[i]);
    std::cerr << "engine-large: " << insts[i].name << " api::solve p50 "
              << plain_ms << " ms, stepped phases p50 " << stepped_ms
              << " ms\n";
    if (std::abs(stepped_ms - plain_ms) > kPhaseSumBound * plain_ms) {
      report.fail_check(insts[i].name +
                        ": stepped phases disagree with api::solve wall time");
    }
  }
  const CallerLog& one = plain.callers.front();
  const double plain_rps =
      static_cast<double>(one.latency_ms.size()) / (one.busy_ms / 1e3);
  const double traced_rps =
      static_cast<double>(traced_requests) / (traced_busy_ms / 1e3);
  std::cerr << "obs: untraced " << plain_rps << " rps, traced " << traced_rps
            << " rps\n";
  samples.add("obs.tracing_overhead_pct",
              (plain_rps - traced_rps) / plain_rps * 100);

  for (LargeInstance& inst : insts) {
    const std::string text = hg::to_text(inst.graph);
    time_ingest(inst.path, text, 1, log, samples);
  }
  // Every traced run reports all per-layer metrics, and its trace must
  // hold all five layers (client..engine), so engine-large, which has
  // no fleet of its own, probes a short-lived one. Release the large
  // graphs first.
  insts.clear();
  probe_standalone_fleet(opt, log, samples, report);
  emit_layer_metrics(samples, report);
  write_trace(opt, log);
}

}  // namespace solvebench
