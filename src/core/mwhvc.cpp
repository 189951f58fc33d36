#include "core/mwhvc.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "congest/engine.hpp"
#include "congest/thread_pool.hpp"

namespace hypercover::core {

namespace {

using Engine = congest::Engine<MwhvcProtocol>;

/// Relative tolerance for double-arithmetic invariant checks (DESIGN.md §2).
constexpr double kTol = 1e-9;

/// Re-verifies the paper's invariants from the agents' state at an
/// iteration boundary (after phase D of iteration i):
///   - Claim 1:  Σ_{e in E'(v)} bid_i(e) <= 0.5^{l_i(v)+1} w(v)  (v not in C)
///   - Claim 2 feasibility:  Σ_{e in E(v)} δ_i(e) <= w(v)
///   - Eq. 1 sandwich with the previous iteration's duals.
class InvariantChecker {
 public:
  InvariantChecker(const hg::Hypergraph& g, bool enabled)
      : graph_(&g), enabled_(enabled) {
    if (enabled_) prev_delta_.assign(g.num_edges(), 0.0);
  }

  /// Records δ_0 (the duals set by the init replies) as the Eq. 1 baseline.
  void capture_baseline(Engine& eng) {
    if (!enabled_) return;
    for (hg::EdgeId e = 0; e < graph_->num_edges(); ++e) {
      prev_delta_[e] = eng.edge_agent(e).dual();
    }
  }

  /// Returns an error description, or empty if all invariants hold.
  std::string check(Engine& eng, std::uint32_t iteration) {
    if (!enabled_) return {};
    const hg::Hypergraph& g = *graph_;
    std::ostringstream err;
    for (hg::VertexId v = 0; v < g.num_vertices(); ++v) {
      const auto& va = eng.vertex_agent(v);
      const double w = static_cast<double>(g.weight(v));
      double delta_sum = 0, prev_sum = 0, active_bid_sum = 0;
      for (const hg::EdgeId e : g.edges_of(v)) {
        const auto& ea = eng.edge_agent(e);
        delta_sum += ea.dual();
        prev_sum += prev_delta_[e];
        if (!ea.covered()) active_bid_sum += ea.bid();
      }
      // Dual feasibility (Claim 2) holds for every vertex, terminated or not.
      if (delta_sum > w * (1.0 + kTol)) {
        err << "iteration " << iteration << ": dual packing violated at v="
            << v << " (sum=" << delta_sum << " > w=" << w << ")";
        return err.str();
      }
      if (va.halted()) continue;
      // Claim 1 on the live bids.
      const double bid_cap = std::ldexp(w, -(int(va.level()) + 1));
      if (active_bid_sum > bid_cap * (1.0 + kTol)) {
        err << "iteration " << iteration << ": Claim 1 violated at v=" << v
            << " (bids=" << active_bid_sum << " > " << bid_cap << ")";
        return err.str();
      }
      // Eq. 1: w(1 - 0.5^l) <= Σ δ_{i-1} <= (1 - 0.5^{l+1}) w,  for i >= 1.
      if (iteration >= 1) {
        const double lo = w * (1.0 - std::ldexp(1.0, -int(va.level())));
        const double hi = w * (1.0 - std::ldexp(1.0, -(int(va.level()) + 1)));
        if (prev_sum < lo * (1.0 - kTol) - kTol ||
            prev_sum > hi * (1.0 + kTol) + kTol) {
          err << "iteration " << iteration << ": Eq.1 violated at v=" << v
              << " (l=" << va.level() << " sum=" << prev_sum << " not in ["
              << lo << ", " << hi << "])";
          return err.str();
        }
      }
    }
    for (hg::EdgeId e = 0; e < g.num_edges(); ++e) {
      prev_delta_[e] = eng.edge_agent(e).dual();
    }
    return {};
  }

 private:
  const hg::Hypergraph* graph_;
  bool enabled_;
  std::vector<double> prev_delta_;
};

}  // namespace

/// Owns everything a stepwise run needs with a stable address: the engine
/// and its agents hold pointers into cfg/trace, so Impl lives on the heap
/// and MwhvcRun stays movable.
struct MwhvcRun::Impl {
  Impl(const hg::Hypergraph& graph, const MwhvcOptions& options)
      : g(&graph), opts(options), checker(graph, options.check_invariants) {}

  const hg::Hypergraph* g;
  MwhvcOptions opts;
  MwhvcResult res;                // derived params filled at construction
  Trace trace;
  Config cfg;
  VertexIncidenceState vertex_state;
  std::unique_ptr<Engine> eng;    // null on an edge-free instance
  InvariantChecker checker;
  std::uint32_t round = 0;
  std::uint32_t iteration = 0;
};

MwhvcRun::MwhvcRun(const hg::Hypergraph& g, const MwhvcOptions& opts) {
  if (!(opts.eps > 0.0) || opts.eps > 1.0) {
    throw std::invalid_argument("solve_mwhvc: eps must be in (0, 1]");
  }
  if (opts.alpha_mode == AlphaMode::kFixed && opts.alpha_fixed < 2.0) {
    throw std::invalid_argument("solve_mwhvc: alpha must be >= 2 (Theorem 8)");
  }
  const std::uint32_t rank = std::max<std::uint32_t>(g.rank(), 1);
  if (opts.f_override != 0 && opts.f_override < rank) {
    throw std::invalid_argument(
        "solve_mwhvc: f_override below the instance rank");
  }

  impl_ = std::make_unique<Impl>(g, opts);
  MwhvcResult& res = impl_->res;
  res.algorithm = opts.appendix_c ? "mwhvc-apxc" : "mwhvc";
  res.f = opts.f_override != 0 ? opts.f_override : rank;
  res.beta = beta_for(res.f, opts.eps);
  res.z = level_cap(res.f, opts.eps);
  res.alpha_global =
      theorem9_alpha(res.f, opts.eps, std::max(g.max_degree(), 3u), opts.gamma);
  Config& cfg = impl_->cfg;
  cfg.graph = &g;
  cfg.beta = res.beta;
  cfg.z = res.z;
  cfg.alpha_mode = opts.alpha_mode;
  cfg.alpha_fixed = opts.alpha_fixed;
  cfg.alpha_global = res.alpha_global;
  if (opts.alpha_mode == AlphaMode::kLocalPerEdge) {
    std::vector<std::uint32_t> degrees(g.num_vertices());
    for (hg::VertexId v = 0; v < g.num_vertices(); ++v) {
      degrees[v] = g.degree(v);
    }
    cfg.alpha_by_degree =
        theorem9_alpha_table(res.f, opts.eps, opts.gamma, degrees);
  }
  cfg.appendix_c = opts.appendix_c;
  cfg.trace = &impl_->trace;
  res.in_cover.assign(g.num_vertices(), false);
  res.duals.assign(g.num_edges(), 0.0);

  if (g.num_edges() == 0) {  // nothing to cover
    res.levels.assign(g.num_vertices(), 0);
    res.net.completed = true;
    return;
  }

  Trace& trace = impl_->trace;
  trace.enabled = opts.collect_trace;
  trace.z = res.z;
  if (trace.enabled) {
    trace.edge_raises.assign(g.num_edges(), 0);
    trace.edge_halvings.assign(g.num_edges(), 0);
    trace.stuck_per_level.assign(std::size_t{g.num_vertices()} * res.z, 0);
  }

  impl_->eng = std::make_unique<Engine>(g, opts.engine);
  configure_agents(*impl_->eng, cfg, impl_->vertex_state);
}

MwhvcRun::~MwhvcRun() = default;
MwhvcRun::MwhvcRun(MwhvcRun&&) noexcept = default;
MwhvcRun& MwhvcRun::operator=(MwhvcRun&&) noexcept = default;

void MwhvcRun::step_round() {
  Impl& im = *impl_;
  // No-op once done (edge-free instances are done from the start), so an
  // extra step never inflates the round count past the one-shot solve.
  if (im.eng == nullptr || im.eng->all_halted()) return;
  im.eng->step_round();
  ++im.round;
  // The init replies (round index 1) fix δ_0, the Eq. 1 baseline.
  if (im.opts.check_invariants && im.round == 2) {
    im.checker.capture_baseline(*im.eng);
  }
  // Iteration i's phase D executes in round 4i+1; check at its boundary.
  if (im.opts.check_invariants && im.round >= 6 && (im.round - 2) % 4 == 0) {
    ++im.iteration;
    if (im.res.invariants_ok) {
      std::string violation = im.checker.check(*im.eng, im.iteration);
      if (!violation.empty()) {
        im.res.invariants_ok = false;
        im.res.invariant_violation = std::move(violation);
      }
    }
  }
}

bool MwhvcRun::done() const {
  return impl_->eng == nullptr || impl_->eng->all_halted();
}

std::uint32_t MwhvcRun::rounds() const { return impl_->round; }

std::size_t MwhvcRun::live_agents() const {
  return impl_->eng ? impl_->eng->live_agents() : 0;
}

const congest::RunStats& MwhvcRun::stats() const {
  return impl_->eng ? impl_->eng->stats() : impl_->res.net;
}

std::uint32_t MwhvcRun::max_rounds() const {
  return impl_->opts.engine.max_rounds;
}

const MwhvcOptions& MwhvcRun::options() const { return impl_->opts; }

double MwhvcRun::alpha_for(std::uint32_t local_delta) const {
  return impl_->cfg.alpha_for(local_delta);
}

MwhvcResult MwhvcRun::finish_result() {
  Impl& im = *impl_;
  MwhvcResult res = std::move(im.res);
  if (im.eng == nullptr) return res;  // edge-free result is already final

  const hg::Hypergraph& g = *im.g;
  Engine& eng = *im.eng;
  res.net = eng.stats();
  res.net.rounds = im.round;
  res.net.completed = eng.all_halted();
  res.iterations =
      im.round > 2 ? (im.round - 2 + 3) / 4 : 0;  // ceil((rounds - 2) / 4)

  res.levels.resize(g.num_vertices());
  for (hg::VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto& va = eng.vertex_agent(v);
    res.levels[v] = va.level();
    if (va.in_cover()) {
      res.in_cover[v] = true;
      res.cover_weight += g.weight(v);
    }
    // Trace scalars are folded out of per-agent counters here rather than
    // mutated inside steps, so they are exact under the parallel engine.
    im.trace.stuck_events += va.stuck_count();
    im.trace.max_level = std::max(im.trace.max_level, va.traced_max_level());
    im.trace.max_level_incr_per_iter =
        std::max(im.trace.max_level_incr_per_iter, va.max_incr_per_iter());
  }
  for (hg::EdgeId e = 0; e < g.num_edges(); ++e) {
    res.duals[e] = eng.edge_agent(e).dual();
    res.dual_total += res.duals[e];
    im.trace.raise_events += eng.edge_agent(e).raises();
  }
  res.trace = std::move(im.trace);
  res.outcome = finish_outcome(res.net.completed);
  return res;
}

api::Solution MwhvcRun::finish() {
  MwhvcResult res = finish_result();
  return api::Solution(std::move(static_cast<api::Solution&>(res)));
}

MwhvcResult solve_mwhvc(const hg::Hypergraph& g, const MwhvcOptions& opts) {
  MwhvcRun run(g, opts);
  api::drive(run);
  return run.finish_result();
}

std::vector<MwhvcResult> solve_mwhvc_batch(std::span<const MwhvcBatchJob> jobs,
                                           std::uint32_t threads) {
  std::vector<MwhvcResult> results(jobs.size());
  std::vector<std::exception_ptr> errors(jobs.size());
  const unsigned workers = std::min<std::size_t>(
      resolve_thread_count(threads), std::max<std::size_t>(jobs.size(), 1));
  congest::ThreadPool pool(workers);
  std::atomic<std::size_t> cursor{0};
  pool.run([&](unsigned) {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) return;
      try {
        if (jobs[i].graph == nullptr) {
          throw std::invalid_argument("solve_mwhvc_batch: null graph");
        }
        MwhvcOptions opts = jobs[i].opts;
        opts.engine.threads = 1;     // parallelism is across jobs
        opts.engine.pool = nullptr;  // concurrent engines must not share one
        results[i] = solve_mwhvc(*jobs[i].graph, opts);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  });
  for (auto& err : errors) {
    if (err) std::rethrow_exception(err);
  }
  return results;
}

std::vector<MwhvcResult> solve_mwhvc_sweep(const hg::Hypergraph& g,
                                           std::span<const double> epsilons,
                                           const MwhvcOptions& base,
                                           std::uint32_t threads) {
  std::vector<MwhvcBatchJob> jobs(epsilons.size());
  for (std::size_t i = 0; i < epsilons.size(); ++i) {
    jobs[i].graph = &g;
    jobs[i].opts = base;
    jobs[i].opts.eps = epsilons[i];
  }
  return solve_mwhvc_batch(jobs, threads);
}

double f_approx_epsilon(const hg::Hypergraph& g) {
  double max_w = 1;
  for (const hg::Weight w : g.weights()) {
    max_w = std::max(max_w, static_cast<double>(w));
  }
  const double n = std::max<double>(g.num_vertices(), 1);
  return std::clamp(1.0 / (n * max_w), 1e-12, 1.0);
}

}  // namespace hypercover::core
