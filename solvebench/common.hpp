#pragma once
// Shared pieces of the solve-path benchmark driver: run options, timing,
// quantiles, the driver's own spans, and the result report.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "congest/stats.hpp"
#include "hypergraph/hypergraph.hpp"
#include "obs/obs.hpp"

namespace solvebench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

[[nodiscard]] inline double median(const std::vector<double>& v) {
  return quantile(v, 0.5);
}

/// Median over `slices` consecutive equal-count slices of `v` (in the
/// order given) of each slice's q-quantile.
[[nodiscard]] inline double sliced_quantile(const std::vector<double>& v,
                                            double q, std::size_t slices) {
  std::vector<double> per_slice;
  for (std::size_t k = 0; k < slices; ++k) {
    const auto lo = static_cast<std::ptrdiff_t>(v.size() * k / slices);
    const auto hi = static_cast<std::ptrdiff_t>(v.size() * (k + 1) / slices);
    if (hi > lo) {
      per_slice.push_back(
          quantile(std::vector<double>(v.begin() + lo, v.begin() + hi), q));
    }
  }
  return median(per_slice);
}

/// Command-line settings of one benchmark run.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string served_bin;
  std::string router_bin;
  std::string trace_out;
  /// Process start, the origin of setup_s.
  Clock::time_point t0;
};

/// CPUs this process may run on (its affinity mask, as nproc counts
/// them), at least 1.
[[nodiscard]] std::uint32_t usable_cpus();

/// CPU time of the calling thread in milliseconds.
[[nodiscard]] double thread_cpu_ms();

/// Named metrics with units, printed as the run's JSON result line.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::map<std::string, std::pair<double, std::string>> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fail_check(const std::string& what) {
    correct = false;
    if (problems.size() < 20) problems.push_back(what);
  }
};

/// The driver's own spans plus the spans the program returned, written
/// as one Chrome-trace file. Thread-safe; keeps at most `cap` spans.
class SpanLog {
 public:
  explicit SpanLog(std::size_t cap = 200000) : cap_(cap) {}

  /// Records a driver span [start_ns, end_ns] named `name` under
  /// (trace_id, parent); returns its span id (0 when full).
  std::uint64_t add(const char* name, std::uint64_t trace_id,
                    std::uint64_t parent, std::uint64_t start_ns,
                    std::uint64_t end_ns, std::uint64_t arg = 0);
  /// Appends spans recorded by the program (client, router, server).
  void add_all(const std::vector<hypercover::obs::SpanRecord>& spans);
  [[nodiscard]] bool full() const;
  [[nodiscard]] std::vector<hypercover::obs::SpanRecord> take();

 private:
  mutable std::mutex mu_;
  std::size_t cap_;
  std::vector<hypercover::obs::SpanRecord> spans_;
};

/// Milliseconds of `parent` that none of `children` covers (children are
/// clipped to the parent's interval; overlaps count once).
[[nodiscard]] double uncovered_ms(
    const hypercover::obs::SpanRecord& parent,
    const std::vector<const hypercover::obs::SpanRecord*>& children);

/// Named samples gathered by the traced run (thread-safe), reduced to
/// the per-layer metrics at the end.
class Samples {
 public:
  void add(const std::string& name, double value);
  [[nodiscard]] double median_of(const std::string& name) const;
  [[nodiscard]] double mean_of(const std::string& name) const;
  [[nodiscard]] std::size_t count(const std::string& name) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> values_;
};

/// Timings of one in-process request split at the public calls:
/// api::make_run, step_round until done, finish, verify::certify.
struct SteppedSolve {
  double setup_ms = 0;
  double step_ms = 0;
  double finish_ms = 0;
  double certify_ms = 0;
  hypercover::congest::RunStats stats;
  hypercover::api::Solution solution;
  bool certificate_valid = false;
};

/// Runs one stepped solve; with `log` set, records bench.* spans for
/// each call under a fresh trace and adds the phase samples (engine.*,
/// verify.certify_ms) to `samples`.
[[nodiscard]] SteppedSolve stepped_solve(
    const hypercover::hg::Hypergraph& g,
    const hypercover::api::SolveRequest& req, SpanLog* log,
    Samples* samples);

/// Times map_file on `hgb_path` and read_text on `text` (`reps` each)
/// into hypergraph.map_ms / hypergraph.parse_ms.
void time_ingest(const std::string& hgb_path, const std::string& text,
                 int reps, SpanLog& log, Samples& samples);

/// Smallest sample that leaves at least ten samples beyond quantile `q`
/// (1000 for p99, 100 for p90, 40 for p75).
[[nodiscard]] std::size_t min_samples_for_tail(double q);

// Workloads. Each fills `report` with the end-to-end metrics (untraced)
// or the per-layer metrics (traced).
void run_engine_large(const RunOptions& opt, Report& report);
void run_serve(const RunOptions& opt, bool hot, Report& report);

}  // namespace solvebench
