// serve-cold and serve-hot: closed-loop client connections (four and
// three) through hypercover_router to three hypercover_served backends; plus the
// serving-layer probe and the per-layer report of the traced run.

#include "serve.hpp"

#include <atomic>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include "hypergraph/binary.hpp"
#include "hypergraph/generators.hpp"
#include "hypergraph/io.hpp"
#include "hypergraph/weights.hpp"
#include "obs/trace_json.hpp"
#include "router/ring.hpp"
#include "server/wire.hpp"
#include "util/prng.hpp"
#include "verify/verify.hpp"

namespace solvebench {

namespace api = hypercover::api;
namespace hg = hypercover::hg;
namespace obs = hypercover::obs;
namespace server = hypercover::server;

namespace {

constexpr std::uint32_t kBackends = 3;
/// Client connections: four on serve-cold and three on serve-hot, or
/// one per usable CPU (the affinity mask, as nproc counts them) on a
/// smaller host. With four connections the serve-hot hit latency
/// switched between two modes (about 2.7 and 3.5 ms) from run to run;
/// with three, one per backend, it stayed in one.
std::uint32_t client_count(bool hot) {
  return std::min(usable_cpus(), hot ? 3U : 4U);
}
constexpr std::size_t kColdPool = 256;
/// Warm-up requests per client on serve-cold.
constexpr std::size_t kColdWarmup = 24;
constexpr std::uint32_t kHotVertices = 20000;
constexpr std::size_t kHotEps = 16;
/// Tail percentile of both serve workloads: p90, taken as the median of
/// the p90s of equal-count slices of the window in completion order, so
/// one slow host phase moves one slice, not the whole figure. Each slice
/// keeps >= 10 samples beyond it. (serve-hot supports p99, but its p99
/// spread 28-32 % between runs of a quiet host: it measures how often
/// a 4 ms hit meets a scheduler tick, not the serving path.)
constexpr double kColdTailQ = 0.90;
constexpr double kHotTailQ = 0.90;
constexpr std::size_t kColdTailSlices = 5;
constexpr std::size_t kHotTailSlices = 10;
/// Served answers re-solved in-process and compared bit for bit.
constexpr std::size_t kSampleChecks = 4;

/// serve-cold walks one global key sequence: key k solves pool instance
/// k % kColdPool at eps 0.5 + lap / 1024, so no (instance, eps) repeats.
double cold_eps(std::uint64_t key) {
  return 0.5 + static_cast<double>(key / kColdPool) / 1024.0;
}

/// serve-hot's 16 eps values, 0.20 .. 0.95.
double hot_eps(std::size_t j) { return 0.2 + 0.05 * static_cast<double>(j); }

server::SolveKnobs knobs_for(double eps) {
  server::SolveKnobs k;
  k.eps = eps;
  return k;
}

AnswerView view_of(const server::WireResult& r) {
  return AnswerView{&r.in_cover, &r.duals, r.cover_weight, r.transcript_hash};
}

/// Parses one un-labelled series value from a Prometheus exposition.
double scrape(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name + " ", 0) == 0) {
      return std::stod(line.substr(name.size() + 1));
    }
  }
  return 0;
}

std::string scrape_text(const std::string& address) {
  server::Client c;
  c.connect(address, 30000);
  return c.metrics_text();
}

/// One client connection and everything its requests gather.
struct ClientState {
  std::unique_ptr<server::Client> client;
  std::uint32_t index = 0;
  /// Timed requests: (completion time in ns, latency in ms).
  std::vector<std::pair<std::uint64_t, double>> timed;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t answered = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::vector<std::string> problems;
  // serve-hot: the instance this connection staged and, per eps, the
  // cold answer every later hit must equal.
  std::size_t hot_instance = 0;
  std::vector<server::WireResult> cold_answers;
  std::vector<std::uint64_t> cold_hashes;
  std::size_t next_j = 0;
};

void connect(ClientState& cs, const std::string& address) {
  cs.client = std::make_unique<server::Client>();
  cs.client->connect(address, 60000);
  cs.client->set_busy_retry(server::BusyRetryPolicy{
      .max_retries = 8, .base_delay_ms = 10, .max_delay_ms = 1000,
      .seed = cs.index + 1});
}

class ServeRun {
 public:
  ServeRun(const RunOptions& opt, bool hot, Report& report)
      : opt_(opt), hot_(hot), report_(report) {}

  void run();

 private:
  void generate();
  void setup();
  void cold_request(ClientState& cs, std::uint64_t key, bool timed,
                    bool traced);
  void hot_request(ClientState& cs, std::size_t j, bool timed, bool traced);
  /// Runs every client's loop for `seconds`, sampling the fleet's
  /// resident size once a second into `rss_mb` when given; returns the
  /// wall seconds from the start until the last client stopped.
  double window(double seconds, bool traced,
                std::vector<double>* rss_mb = nullptr);
  void reconnect(ClientState& cs);
  void sample_checks();
  void traced_extras(double plain_rps, double traced_rps);

  const RunOptions& opt_;
  const bool hot_;
  Report& report_;
  std::vector<ServeInstance> insts_;
  std::unique_ptr<Fleet> fleet_;
  std::vector<ClientState> clients_;
  std::atomic<std::uint64_t> next_key_{0};
  SentTotals sent_;
  SpanLog log_;
  Samples samples_;
  // Served answers kept for the in-process comparison: (instance, eps,
  // answer hash).
  struct Sample {
    std::size_t instance;
    double eps;
    std::uint64_t hash;
  };
  std::vector<Sample> sample_answers_;
  std::mutex sample_mu_;
};

void ServeRun::generate() {
  if (hot_) {
    for (std::uint32_t i = 0; i < client_count(true); ++i) {
      insts_.push_back(
          make_serve_instance(kHotVertices, false, opt_.seed * 1000 + i));
    }
    return;
  }
  hypercover::util::Xoshiro256StarStar rng(opt_.seed);
  for (std::size_t i = 0; i < kColdPool; ++i) {
    const auto n = static_cast<std::uint32_t>(2000 + rng.below(4001));
    insts_.push_back(
        make_serve_instance(n, i % 8 == 7, opt_.seed * 100000 + i));
  }
}

void ServeRun::reconnect(ClientState& cs) {
  try {
    connect(cs, fleet_->router_address());
    if (hot_) {
      (void)cs.client->submit_graph_text(insts_[cs.hot_instance].text);
    }
  } catch (const std::exception& ex) {
    cs.problems.push_back(std::string("reconnect failed: ") + ex.what());
  }
}

void ServeRun::cold_request(ClientState& cs, std::uint64_t key, bool timed,
                            bool traced) {
  const std::size_t idx = key % kColdPool;
  const ServeInstance& inst = insts_[idx];
  const double eps = cold_eps(key);
  ++cs.attempted;
  RequestStamps at;
  server::WireResult res;
  bool cert_ok = false;
  try {
    cs.client->set_tracing(traced);
    at.start = obs::now_ns();
    (void)cs.client->submit_graph_text(inst.text);
    at.submit_end = obs::now_ns();
    res = cs.client->solve("mwhvc", knobs_for(eps));
    at.solve_end = obs::now_ns();
    cert_ok = hypercover::verify::certify(inst.graph, res.in_cover, res.duals)
                  .valid();
    at.certify_end = obs::now_ns();
  } catch (const std::exception& ex) {
    ++cs.failed;
    cs.problems.push_back(std::string("request failed: ") + ex.what());
    reconnect(cs);
    return;
  }
  ++cs.answered;
  ++cs.misses;
  if (timed) {
    cs.timed.emplace_back(at.certify_end,
                          static_cast<double>(at.certify_end - at.start) / 1e6);
  }
  if (traced) {
    record_traced_request(res, at, "", log_, samples_);
    samples_.add("server.submit_ms",
                 static_cast<double>(at.submit_end - at.start) / 1e6);
    samples_.add("server.solve_ms",
                 static_cast<double>(at.solve_end - at.submit_end) / 1e6);
    samples_.add("verify.certify_ms",
                 static_cast<double>(at.certify_end - at.solve_end) / 1e6);
    if (cs.answered % 32 == 1) {
      samples_.add("server.result_bytes",
                   static_cast<double>(result_payload_bytes(res)));
    }
  }
  // Off the clock: the independent checks.
  if (!cert_ok) cs.problems.push_back("client certificate invalid");
  if (res.cache_hit) cs.problems.push_back("a cold key hit the cache");
  if (std::string err = check_answer(inst.graph, inst.facts, eps, view_of(res));
      !err.empty()) {
    cs.problems.push_back("instance " + std::to_string(idx) + ": " + err);
  }
  if (key < kSampleChecks) {
    const std::lock_guard<std::mutex> lock(sample_mu_);
    sample_answers_.push_back({idx, eps, answer_hash(view_of(res))});
  }
}

void ServeRun::hot_request(ClientState& cs, std::size_t j, bool timed,
                           bool traced) {
  const ServeInstance& inst = insts_[cs.hot_instance];
  ++cs.attempted;
  RequestStamps at;
  server::WireResult res;
  bool cert_ok = false;
  try {
    cs.client->set_tracing(traced);
    at.start = obs::now_ns();
    at.submit_end = at.start;
    res = cs.client->solve("mwhvc", knobs_for(hot_eps(j)));
    at.solve_end = obs::now_ns();
    cert_ok = hypercover::verify::certify(inst.graph, res.in_cover, res.duals)
                  .valid();
    at.certify_end = obs::now_ns();
  } catch (const std::exception& ex) {
    ++cs.failed;
    cs.problems.push_back(std::string("request failed: ") + ex.what());
    reconnect(cs);
    return;
  }
  ++cs.answered;
  ++cs.hits;
  if (timed) {
    cs.timed.emplace_back(at.certify_end,
                          static_cast<double>(at.certify_end - at.start) / 1e6);
  }
  if (traced) {
    record_traced_request(res, at, "", log_, samples_);
    samples_.add("server.solve_ms",
                 static_cast<double>(at.solve_end - at.start) / 1e6);
    samples_.add("verify.certify_ms",
                 static_cast<double>(at.certify_end - at.solve_end) / 1e6);
    if (cs.answered % 256 == 1) {
      samples_.add("server.result_bytes",
                   static_cast<double>(result_payload_bytes(res)));
    }
  }
  if (!cert_ok) cs.problems.push_back("client certificate invalid");
  if (!res.cache_hit) cs.problems.push_back("a filled key missed the cache");
  if (answer_hash(view_of(res)) != cs.cold_hashes[j]) {
    cs.problems.push_back("a cache hit differs from its cold answer");
  }
}

void ServeRun::setup() {
  fleet_ = std::make_unique<Fleet>(opt_.served_bin, opt_.router_bin,
                                   kBackends);
  clients_.resize(client_count(hot_));
  std::vector<std::thread> threads;
  for (std::uint32_t i = 0; i < clients_.size(); ++i) {
    threads.emplace_back([this, i] {
      ClientState& cs = clients_[i];
      cs.index = i;
      try {
        connect(cs, fleet_->router_address());
        if (!hot_) {
          // Warm-up: the first keys of the global sequence.
          for (std::size_t r = 0; r < kColdWarmup; ++r) {
            cold_request(cs, next_key_.fetch_add(1), false, false);
          }
          return;
        }
        // Stage, fill all 16 keys cold, then one warm-up lap of hits.
        cs.hot_instance = i;
        (void)cs.client->submit_graph_text(insts_[i].text);
        for (std::size_t j = 0; j < kHotEps; ++j) {
          server::WireResult res =
              cs.client->solve("mwhvc", knobs_for(hot_eps(j)));
          if (res.cache_hit) cs.problems.push_back("a fill hit the cache");
          cs.cold_hashes.push_back(answer_hash(view_of(res)));
          cs.cold_answers.push_back(std::move(res));
          ++cs.answered;
          ++cs.misses;
        }
        for (std::size_t j = 0; j < kHotEps; ++j) {
          hot_request(cs, j, false, false);
        }
      } catch (const std::exception& ex) {
        ++cs.failed;
        cs.problems.push_back(std::string("set-up failed: ") + ex.what());
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

double ServeRun::window(double seconds, bool traced,
                        std::vector<double>* rss_mb) {
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (ClientState& cs : clients_) {
    // A serve-hot client whose set-up failed has no keys to hit.
    if (hot_ && cs.cold_hashes.size() != kHotEps) continue;
    threads.emplace_back([this, &cs, deadline, traced] {
      while (Clock::now() < deadline) {
        if (hot_) {
          hot_request(cs, cs.next_j, true, traced);
          cs.next_j = (cs.next_j + 1) % kHotEps;
        } else {
          cold_request(cs, next_key_.fetch_add(1), true, traced);
        }
      }
    });
  }
  // The fleet's resident size, once a second while the clients run.
  if (rss_mb != nullptr) {
    for (auto next = start + std::chrono::seconds(1); next < deadline;
         next += std::chrono::seconds(1)) {
      std::this_thread::sleep_until(next);
      rss_mb->push_back(fleet_->sample().rss_mb);
    }
  }
  for (std::thread& t : threads) t.join();
  return ms_since(start) / 1e3;
}

void ServeRun::sample_checks() {
  // Full independent checks of the serve-hot fills (kept off the clock).
  for (const ClientState& cs : clients_) {
    const ServeInstance& inst = insts_[cs.hot_instance];
    for (std::size_t j = 0; j < cs.cold_answers.size(); ++j) {
      if (std::string err = check_answer(inst.graph, inst.facts, hot_eps(j),
                                         view_of(cs.cold_answers[j]));
          !err.empty()) {
        report_.fail_check("hot fill: " + err);
      }
    }
    if (hot_ && cs.cold_answers.size() == kHotEps) {
      for (const std::size_t j : {std::size_t{0}, kHotEps - 1}) {
        sample_answers_.push_back(
            {cs.hot_instance, hot_eps(j), cs.cold_hashes[j]});
      }
    }
  }
  // A fixed sample of served answers against in-process api::solve.
  if (sample_answers_.size() < kSampleChecks) {
    report_.fail_check("too few served answers for the in-process sample");
  }
  for (const Sample& s : sample_answers_) {
    const ServeInstance& inst = insts_[s.instance];
    const api::Solution sol =
        api::solve("mwhvc", inst.graph, server::to_request(knobs_for(s.eps)));
    const AnswerView v{&sol.in_cover, &sol.duals, sol.cover_weight,
                       sol.net.transcript_hash};
    if (answer_hash(v) != s.hash) {
      report_.fail_check("a served answer differs from in-process api::solve");
    }
  }
}

void ServeRun::traced_extras(double plain_rps, double traced_rps) {
  std::cerr << "obs: untraced " << plain_rps << " rps, traced " << traced_rps
            << " rps\n";
  samples_.add("obs.tracing_overhead_pct",
               (plain_rps - traced_rps) / plain_rps * 100);
  // The serving layers the window did not reach (cold solves on
  // serve-hot, hits on serve-cold, the direct path on both).
  probe_fleet(*fleet_, insts_[0], log_, samples_, sent_, report_);
  // In-process engine and ingest on this workload's own instances, at
  // one engine thread as a backend runs them.
  api::SolveRequest req;
  req.eps = hot_ ? hot_eps(0) : 0.5;
  const std::size_t engine_probes = hot_ ? insts_.size() : 8;
  for (std::size_t i = 0; i < engine_probes; ++i) {
    const SteppedSolve s = stepped_solve(insts_[i].graph, req, &log_, &samples_);
    if (!s.certificate_valid) report_.fail_check("in-process probe invalid");
  }
  for (std::size_t i = 0; i < (hot_ ? 1 : 4); ++i) {
    const std::string path = "probe-" + std::to_string(i) + ".hgb";
    hg::write_binary_file(path, insts_[i].graph);
    time_ingest(path, insts_[i].text, 3, log_, samples_);
  }
}

void ServeRun::run() {
  const auto gen_start = Clock::now();
  generate();
  const double gen_ms = ms_since(gen_start);

  setup();
  const double setup_s = (ms_since(opt_.t0) - gen_ms) / 1e3;

  for (ClientState& cs : clients_) cs.timed.clear();
  const ProcSample before = fleet_->sample();
  const double seconds = opt_.trace ? opt_.seconds / 2 : opt_.seconds;
  std::vector<double> rss_mb;
  const std::uint64_t start_ns = obs::now_ns();
  const double elapsed = window(seconds, false, &rss_mb);
  const ProcSample after = fleet_->sample();
  std::vector<std::pair<std::uint64_t, double>> timed;
  for (const ClientState& cs : clients_) {
    timed.insert(timed.end(), cs.timed.begin(), cs.timed.end());
  }
  std::sort(timed.begin(), timed.end());
  std::vector<double> latencies;
  for (const auto& t : timed) latencies.push_back(t.second);
  const auto completed = static_cast<double>(latencies.size());
  const double rps = completed / elapsed;
  // The completion rate in consecutive equal-count slices of about a
  // second each. Steal time on a shared host comes in bursts that stall
  // every connection at once; the median slice is the rate the fleet
  // sustains between them.
  std::vector<double> slice_rps;
  const auto rate_slices = std::max<std::size_t>(1, static_cast<std::size_t>(elapsed));
  std::uint64_t slice_start = start_ns;
  for (std::size_t k = 0; k < rate_slices; ++k) {
    const std::size_t lo = timed.size() * k / rate_slices;
    const std::size_t hi = timed.size() * (k + 1) / rate_slices;
    if (hi == lo) continue;
    const std::uint64_t slice_end = timed[hi - 1].first;
    slice_rps.push_back(static_cast<double>(hi - lo) /
                        (static_cast<double>(slice_end - slice_start) / 1e9));
    slice_start = slice_end;
  }
  const double tail_q = hot_ ? kHotTailQ : kColdTailQ;
  const std::size_t slices = hot_ ? kHotTailSlices : kColdTailSlices;
  std::cerr << (hot_ ? "serve-hot: " : "serve-cold: ") << latencies.size()
            << " timed requests in " << elapsed << " s (" << rps
            << " rps; median slice " << median(slice_rps)
            << "), tail = median of p" << tail_q * 100 << " over " << slices
            << " slices\n";
  if (latencies.size() < slices * min_samples_for_tail(tail_q)) {
    std::cerr << "warning: too few samples for the tail percentile\n";
  }

  double traced_rps = 0;
  if (opt_.trace) {
    for (ClientState& cs : clients_) cs.timed.clear();
    std::uint64_t traced_done = 0;
    const double traced_elapsed = window(opt_.seconds / 2, true);
    for (const ClientState& cs : clients_) traced_done += cs.timed.size();
    traced_rps = static_cast<double>(traced_done) / traced_elapsed;
  } else {
    report_.set("setup_s", setup_s, "s");
    report_.set("throughput_rps", median(slice_rps), "requests/s");
    report_.set("latency_p50_ms", median(latencies), "ms");
    report_.set("latency_tail_ms", sliced_quantile(latencies, tail_q, slices),
                "ms");
    report_.set("cpu_ms_per_request", (after.cpu_ms - before.cpu_ms) / completed,
                "ms");
    report_.set("rss_mb", median(rss_mb), "MiB");
  }

  for (ClientState& cs : clients_) {
    report_.attempted += cs.attempted;
    report_.failed += cs.failed;
    sent_.router_solves += cs.answered;
    sent_.expect_hits += cs.hits;
    sent_.expect_misses += cs.misses;
    for (const std::string& p : cs.problems) report_.fail_check(p);
    cs.client.reset();
  }
  if (opt_.trace) traced_extras(rps, traced_rps);
  check_fleet_totals(*fleet_, sent_, opt_.trace ? &samples_ : nullptr,
                     report_);
  fleet_->stop();
  sample_checks();
  if (opt_.trace) {
    emit_layer_metrics(samples_, report_);
    write_trace(opt_, log_);
  }
}

}  // namespace

ServeInstance make_serve_instance(std::uint32_t n, bool planted,
                                  std::uint64_t seed) {
  ServeInstance inst;
  const std::uint32_t m = n * 8 / 3;
  std::int64_t planted_opt = 0;
  if (planted) {
    hg::PlantedInstance p = hg::planted_cover(n, m, 3, n / 10, 4, seed);
    inst.graph = std::move(p.graph);
    planted_opt = p.optimal_weight;
  } else {
    inst.graph = hg::random_uniform(n, m, 3, hg::exponential_weights(12), seed);
  }
  inst.text = hg::to_text(inst.graph);
  inst.facts = facts_of(inst.graph, planted_opt);
  return inst;
}

void run_serve(const RunOptions& opt, bool hot, Report& report) {
  ServeRun(opt, hot, report).run();
}

std::size_t result_payload_bytes(const server::WireResult& res) {
  server::WireResult copy = res;
  copy.spans.clear();
  server::PayloadWriter w;
  server::encode_result(w, copy);
  return w.take().size();
}

void record_traced_request(server::WireResult& res, const RequestStamps& at,
                           const std::string& prefix, SpanLog& log,
                           Samples& samples) {
  obs::SpanRecord* root = nullptr;
  for (obs::SpanRecord& s : res.spans) {
    if (std::string_view(s.name) == "client.solve" && s.parent_span_id == 0) {
      root = &s;
    }
  }
  if (root == nullptr) return;
  auto children_of = [&res](std::uint64_t id) {
    std::vector<const obs::SpanRecord*> out;
    for (const obs::SpanRecord& s : res.spans) {
      if (s.parent_span_id == id) out.push_back(&s);
    }
    return out;
  };
  samples.add(prefix + "obs.unattributed_ms",
              uncovered_ms(*root, children_of(root->span_id)));
  std::size_t slices = 0;
  for (const obs::SpanRecord& s : res.spans) {
    const std::string_view name(s.name);
    const double ms = static_cast<double>(s.dur_ns) / 1e6;
    if (name == "router.attempt") {
      samples.add(prefix + "router.attempt_self_ms",
                  uncovered_ms(s, children_of(s.span_id)));
    } else if (name == "server.admit") {
      samples.add(prefix + "server.admit_ms", ms);
    } else if (name == "server.queue_wait") {
      samples.add(prefix + "api.queue_wait_ms", ms);
    } else if (name == "batch.slice") {
      ++slices;
    }
  }
  if (slices > 0) {
    samples.add(prefix + "api.slices_per_solve", static_cast<double>(slices));
  }
  if (log.full()) return;
  // The driver's spans around the public calls become the parents of
  // the program's client.solve tree.
  const std::uint64_t trace = root->trace_id;
  const std::uint64_t req =
      log.add("bench.request", trace, 0, at.start, at.certify_end);
  if (at.submit_end > at.start) {
    log.add("bench.submit_graph", trace, req, at.start, at.submit_end);
  }
  root->parent_span_id =
      log.add("bench.solve", trace, req, at.submit_end, at.solve_end);
  log.add("bench.certify", trace, req, at.solve_end, at.certify_end);
  log.add_all(res.spans);
}

void probe_fleet(const Fleet& fleet, const ServeInstance& inst,
                 SpanLog& log, Samples& samples, SentTotals& sent,
                 Report& report) {
  constexpr int kSubmits = 3;
  constexpr int kColdProbes = 6;
  constexpr int kDirectPairs = 30;
  server::Client c;
  c.connect(fleet.router_address(), 60000);
  for (int i = 0; i < kSubmits; ++i) {
    const std::uint64_t t0 = obs::now_ns();
    (void)c.submit_graph_text(inst.text);
    samples.add("probe.server.submit_ms",
                static_cast<double>(obs::now_ns() - t0) / 1e6);
  }
  // Cold solves on keys no workload uses, traced end to end.
  c.set_tracing(true);
  server::WireResult last;
  double last_eps = 0;
  for (int i = 0; i < kColdProbes; ++i) {
    last_eps = 0.7003 + 0.01 * i;
    RequestStamps at;
    at.start = obs::now_ns();
    at.submit_end = at.start;
    server::WireResult res = c.solve("mwhvc", knobs_for(last_eps));
    at.solve_end = obs::now_ns();
    const bool ok =
        hypercover::verify::certify(inst.graph, res.in_cover, res.duals)
            .valid();
    at.certify_end = obs::now_ns();
    samples.add("probe.server.solve_ms",
                static_cast<double>(at.solve_end - at.start) / 1e6);
    samples.add("probe.server.result_bytes",
                static_cast<double>(result_payload_bytes(res)));
    record_traced_request(res, at, "probe.", log, samples);
    if (!ok || res.cache_hit ||
        !check_answer(inst.graph, inst.facts, last_eps, view_of(res))
             .empty()) {
      report.fail_check("probe cold solve failed its checks");
    }
    ++sent.router_solves;
    ++sent.expect_misses;
    last = std::move(res);
  }
  // Hits on the last key, alternately through the router and straight
  // to the backend that owns it; the difference of the medians is what
  // forwarding costs.
  c.set_tracing(false);
  const std::uint64_t want = answer_hash(view_of(last));
  const hypercover::router::HashRing ring(fleet.backend_addresses());
  server::Client direct;
  direct.connect(fleet.backend_addresses()[ring.primary(last.solve_digest)],
                 60000);
  (void)direct.submit_graph_text(inst.text);
  std::vector<double> via_router;
  std::vector<double> straight;
  for (int i = 0; i < kDirectPairs; ++i) {
    for (server::Client* cl : {&c, &direct}) {
      const auto t = Clock::now();
      const server::WireResult res = cl->solve("mwhvc", knobs_for(last_eps));
      (cl == &c ? via_router : straight).push_back(ms_since(t));
      if (!res.cache_hit || answer_hash(view_of(res)) != want) {
        report.fail_check("probe hit missed or differs from its cold answer");
      }
      ++sent.expect_hits;
    }
    ++sent.router_solves;
  }
  samples.add("router.forward_ms", median(via_router) - median(straight));
}

void check_fleet_totals(const Fleet& fleet, const SentTotals& sent,
                        Samples* samples, Report& report) {
  double misses = 0;
  double hits = 0;
  for (const std::string& addr : fleet.backend_addresses()) {
    const std::string text = scrape_text(addr);
    misses += scrape(text, "hc_server_cache_misses_total");
    hits += scrape(text, "hc_server_cache_hits_total");
  }
  const std::string router_text = scrape_text(fleet.router_address());
  const double router_solves = scrape(router_text, "hc_router_solves_total");
  std::cerr << "totals: backend misses " << misses << " (clients sent "
            << sent.expect_misses << " cold), backend hits " << hits
            << " (expected " << sent.expect_hits << "), router solves "
            << router_solves << " (clients " << sent.router_solves << ")\n";
  if (misses != static_cast<double>(sent.expect_misses)) {
    report.fail_check("backend cache misses differ from the cold solves sent");
  }
  if (hits != static_cast<double>(sent.expect_hits)) {
    report.fail_check("backend cache hits differ from the hits expected");
  }
  if (router_solves != static_cast<double>(sent.router_solves)) {
    report.fail_check("router solves differ from the client solves");
  }
  if (samples == nullptr) return;
  server::Client c;
  c.connect(fleet.router_address(), 30000);
  const server::ServerStats st = c.stats();
  const double looked_up = static_cast<double>(st.cache_hits + st.cache_misses);
  std::cerr << "server: cache hit ratio base " << st.cache_hits << " / "
            << looked_up << ", evictions " << st.cache_evictions << "\n";
  samples->add("server.cache_hit_ratio",
               looked_up > 0 ? static_cast<double>(st.cache_hits) / looked_up
                             : 0);
  samples->add("server.cache_evictions",
               static_cast<double>(st.cache_evictions));
  samples->add("server.busy_rejections",
               static_cast<double>(st.busy_rejections));
  samples->add("router.attempts_per_request",
               scrape(router_text, "hc_router_attempts_total") /
                   std::max(1.0, router_solves));
  samples->add("router.retries", scrape(router_text, "hc_router_retries_total"));
}

void probe_standalone_fleet(const RunOptions& opt, SpanLog& log,
                            Samples& samples, Report& report) {
  const ServeInstance inst =
      make_serve_instance(kHotVertices, false, opt.seed * 1000 + 99);
  Fleet fleet(opt.served_bin, opt.router_bin, kBackends);
  SentTotals sent;
  probe_fleet(fleet, inst, log, samples, sent, report);
  check_fleet_totals(fleet, sent, &samples, report);
  fleet.stop();
}

void emit_layer_metrics(const Samples& samples, Report& report) {
  // Medians for times, means for per-solve counts; window samples win
  // over the probe's where both exist.
  struct Spec {
    const char* name;
    const char* unit;
    bool mean;
  };
  static const Spec kSpecs[] = {
      {"hypergraph.map_ms", "ms", false},
      {"hypergraph.parse_ms", "ms", false},
      {"engine.setup_ms", "ms", false},
      {"engine.step_ms", "ms", false},
      {"engine.finish_ms", "ms", false},
      {"engine.ns_per_agent_step", "ns", false},
      {"engine.rounds", "count", true},
      {"engine.agent_steps", "count", true},
      {"engine.messages", "count", true},
      {"engine.slots_processed", "count", true},
      {"verify.certify_ms", "ms", false},
      {"api.queue_wait_ms", "ms", false},
      {"api.slices_per_solve", "count", true},
      {"server.submit_ms", "ms", false},
      {"server.solve_ms", "ms", false},
      {"server.admit_ms", "ms", false},
      {"server.cache_hit_ratio", "ratio", true},
      {"server.cache_evictions", "count", true},
      {"server.busy_rejections", "count", true},
      {"server.result_bytes", "bytes", true},
      {"router.forward_ms", "ms", true},
      {"router.attempt_self_ms", "ms", false},
      {"router.attempts_per_request", "count", true},
      {"router.retries", "count", true},
      {"obs.tracing_overhead_pct", "%", true},
      {"obs.unattributed_ms", "ms", false},
  };
  for (const Spec& s : kSpecs) {
    std::string name = s.name;
    if (samples.count(name) == 0) name = "probe." + name;
    if (samples.count(name) == 0) {
      report.fail_check(std::string("no samples for ") + s.name);
    }
    report.set(s.name, s.mean ? samples.mean_of(name) : samples.median_of(name),
               s.unit);
  }
}

void write_trace(const RunOptions& opt, SpanLog& log) {
  const std::vector<obs::SpanRecord> spans = log.take();
  obs::write_chrome_trace(opt.trace_out, spans);
  std::cerr << "trace: " << spans.size() << " spans written to "
            << opt.trace_out << "\n";
}

}  // namespace solvebench
