#include "common.hpp"

#include <sched.h>
#include <time.h>

#include <fstream>
#include <sstream>

#include "hypergraph/binary.hpp"
#include "hypergraph/io.hpp"
#include "verify/verify.hpp"

namespace solvebench {

namespace api = hypercover::api;
namespace hg = hypercover::hg;
namespace obs = hypercover::obs;

std::uint32_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::uint32_t>(std::max(CPU_COUNT(&set), 1));
}

double thread_cpu_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

std::size_t min_samples_for_tail(double q) {
  return static_cast<std::size_t>(std::ceil(10.0 / (1.0 - q) - 1e-9));
}

std::uint64_t SpanLog::add(const char* name, std::uint64_t trace_id,
                           std::uint64_t parent, std::uint64_t start_ns,
                           std::uint64_t end_ns, std::uint64_t arg) {
  obs::SpanRecord rec;
  rec.trace_id = trace_id;
  rec.span_id = obs::new_id();
  rec.parent_span_id = parent;
  rec.start_ns = start_ns;
  rec.dur_ns = end_ns - start_ns;
  rec.arg = arg;
  rec.proc = static_cast<std::uint8_t>(obs::Proc::kClient);
  rec.set_name(name);
  const std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= cap_) return 0;
  spans_.push_back(rec);
  return rec.span_id;
}

void SpanLog::add_all(const std::vector<obs::SpanRecord>& spans) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), spans.begin(), spans.end());
}

bool SpanLog::full() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size() >= cap_;
}

std::vector<obs::SpanRecord> SpanLog::take() {
  const std::lock_guard<std::mutex> lock(mu_);
  return std::move(spans_);
}

double uncovered_ms(const obs::SpanRecord& parent,
                    const std::vector<const obs::SpanRecord*>& children) {
  const std::uint64_t lo = parent.start_ns;
  const std::uint64_t hi = parent.start_ns + parent.dur_ns;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
  for (const obs::SpanRecord* c : children) {
    const std::uint64_t a = std::max(lo, c->start_ns);
    const std::uint64_t b = std::min(hi, c->start_ns + c->dur_ns);
    if (a < b) iv.emplace_back(a, b);
  }
  std::sort(iv.begin(), iv.end());
  std::uint64_t covered = 0;
  std::uint64_t reach = lo;
  for (const auto& [a, b] : iv) {
    const std::uint64_t from = std::max(a, reach);
    if (b > from) {
      covered += b - from;
      reach = b;
    }
  }
  return static_cast<double>(parent.dur_ns - covered) / 1e6;
}

void Samples::add(const std::string& name, double value) {
  const std::lock_guard<std::mutex> lock(mu_);
  values_[name].push_back(value);
}

double Samples::median_of(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = values_.find(name);
  return it == values_.end() ? 0 : median(it->second);
}

double Samples::mean_of(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = values_.find(name);
  if (it == values_.end() || it->second.empty()) return 0;
  double sum = 0;
  for (const double v : it->second) sum += v;
  return sum / static_cast<double>(it->second.size());
}

std::size_t Samples::count(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = values_.find(name);
  return it == values_.end() ? 0 : it->second.size();
}

SteppedSolve stepped_solve(const hg::Hypergraph& g,
                           const api::SolveRequest& req, SpanLog* log,
                           Samples* samples) {
  SteppedSolve out;
  const std::uint64_t t0 = obs::now_ns();
  auto run = api::make_run("mwhvc", g, req);
  const std::uint64_t t1 = obs::now_ns();
  while (!run->done()) run->step_round();
  const std::uint64_t t2 = obs::now_ns();
  out.solution = run->finish();
  out.stats = out.solution.net;
  const std::uint64_t t3 = obs::now_ns();
  const hypercover::verify::Certificate cert = hypercover::verify::certify(
      g, out.solution.in_cover, out.solution.duals);
  const std::uint64_t t4 = obs::now_ns();
  out.certificate_valid = cert.valid();
  out.setup_ms = static_cast<double>(t1 - t0) / 1e6;
  out.step_ms = static_cast<double>(t2 - t1) / 1e6;
  out.finish_ms = static_cast<double>(t3 - t2) / 1e6;
  out.certify_ms = static_cast<double>(t4 - t3) / 1e6;
  if (log != nullptr) {
    const std::uint64_t trace = obs::new_id();
    const std::uint64_t root = log->add("bench.request", trace, 0, t0, t4);
    log->add("bench.make_run", trace, root, t0, t1);
    log->add("bench.step_rounds", trace, root, t1, t2, out.stats.rounds);
    log->add("bench.finish", trace, root, t2, t3);
    log->add("bench.certify", trace, root, t3, t4);
  }
  if (samples != nullptr) {
    samples->add("engine.setup_ms", out.setup_ms);
    samples->add("engine.step_ms", out.step_ms);
    samples->add("engine.finish_ms", out.finish_ms);
    samples->add("verify.certify_ms", out.certify_ms);
    if (out.stats.agent_steps > 0) {
      samples->add("engine.ns_per_agent_step",
                   out.step_ms * 1e6 /
                       static_cast<double>(out.stats.agent_steps));
    }
    samples->add("engine.rounds", out.stats.rounds);
    samples->add("engine.agent_steps",
                 static_cast<double>(out.stats.agent_steps));
    samples->add("engine.messages",
                 static_cast<double>(out.stats.total_messages));
    samples->add("engine.slots_processed",
                 static_cast<double>(out.stats.slots_processed));
  }
  return out;
}

void time_ingest(const std::string& hgb_path, const std::string& text,
                 int reps, SpanLog& log, Samples& samples) {
  const std::uint64_t trace = obs::new_id();
  for (int i = 0; i < reps; ++i) {
    const std::uint64_t t0 = obs::now_ns();
    const hg::Hypergraph mapped = hg::map_file(hgb_path);
    const std::uint64_t t1 = obs::now_ns();
    log.add("bench.map_file", trace, 0, t0, t1, mapped.num_vertices());
    samples.add("hypergraph.map_ms", static_cast<double>(t1 - t0) / 1e6);
  }
  for (int i = 0; i < reps; ++i) {
    std::istringstream in(text);
    const std::uint64_t t0 = obs::now_ns();
    const hg::Hypergraph parsed = hg::read_text(in);
    const std::uint64_t t1 = obs::now_ns();
    log.add("bench.read_text", trace, 0, t0, t1, parsed.num_vertices());
    samples.add("hypergraph.parse_ms", static_cast<double>(t1 - t0) / 1e6);
  }
}

}  // namespace solvebench
