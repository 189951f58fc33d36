#pragma once
// The serving side of the benchmark: per-request span digestion, the
// fleet layer probe of the traced run, and the per-layer report.

#include <cstdint>
#include <string>

#include "checker.hpp"
#include "common.hpp"
#include "fleet.hpp"
#include "server/client.hpp"

namespace solvebench {

/// An instance as a client holds it: the graph (for re-verification and
/// checks), its text form (what is submitted), and the checker's view.
struct ServeInstance {
  hypercover::hg::Hypergraph graph;
  std::string text;
  InstanceFacts facts;
};

/// Solves a client sent through the router, by expected cache outcome,
/// plus solves sent straight to a backend. Compared with the program's
/// own counters at the end of every run.
struct SentTotals {
  std::uint64_t router_solves = 0;
  std::uint64_t expect_misses = 0;
  std::uint64_t expect_hits = 0;
};

/// Wall-clock stamps of one request's calls (obs::now_ns).
struct RequestStamps {
  std::uint64_t start = 0;
  std::uint64_t submit_end = 0;  // == start when nothing was submitted
  std::uint64_t solve_end = 0;
  std::uint64_t certify_end = 0;
};

/// Folds one traced request into the log and the samples: the driver's
/// bench.* spans become the parents of the client.solve tree, and the
/// tree yields admit, queue-wait, slice, router self and unattributed
/// times. `prefix` is "" in a timed window and "probe." in the probe.
void record_traced_request(hypercover::server::WireResult& res,
                           const RequestStamps& at, const std::string& prefix,
                           SpanLog& log, Samples& samples);

/// Size of the Result frame payload the server sent for `res`.
[[nodiscard]] std::size_t result_payload_bytes(
    const hypercover::server::WireResult& res);

/// The traced run's probe of the serving layers on a live fleet: a few
/// submits, a few traced cold solves on fresh keys, then hits through
/// the router alternated with hits sent straight to the owning backend.
void probe_fleet(const Fleet& fleet, const ServeInstance& inst,
                 SpanLog& log, Samples& samples, SentTotals& sent,
                 Report& report);

/// Scrapes the router and every backend, records the fleet counters as
/// samples, and checks them against what the clients sent.
void check_fleet_totals(const Fleet& fleet, const SentTotals& sent,
                        Samples* samples, Report& report);

/// Starts a fleet, probes it with a 20k-vertex instance made from the
/// seed, checks its totals and stops it (engine-large's traced run).
void probe_standalone_fleet(const RunOptions& opt, SpanLog& log,
                            Samples& samples, Report& report);

/// Reduces the samples to every per-layer metric of the report.
void emit_layer_metrics(const Samples& samples, Report& report);

/// Writes the collected spans as one Chrome-trace file.
void write_trace(const RunOptions& opt, SpanLog& log);

/// The rank-3 instance shape of the serving workloads: average degree
/// 8, weights 2^0..2^12.
[[nodiscard]] ServeInstance make_serve_instance(std::uint32_t n,
                                                bool planted,
                                                std::uint64_t seed);

}  // namespace solvebench
