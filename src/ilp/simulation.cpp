#include "ilp/simulation.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "congest/engine.hpp"
#include "ilp/to_hypergraph.hpp"
#include "util/math.hpp"

namespace hypercover::ilp {

namespace {

constexpr std::uint32_t kMaxSupport = 20;

// ---------------------------------------------------------------------------
// Messages. The preamble exchanges (w, H-degree) pairs — O(f log n) bits,
// the paper's O(f)-round row exchange compressed into one message whose
// size is accounted honestly. Per-iteration traffic is O(1) bits upward
// and <= 2 f(A) mask bits downward, as §5.2 prescribes.
// ---------------------------------------------------------------------------

enum class VTag : std::uint8_t { kInit, kCovered, kStep, kRaise, kStuck };

struct VarMsg {
  VTag tag{VTag::kInit};
  std::int64_t weight = 0;     // kInit
  std::uint32_t hdegree = 0;   // kInit: H-degree of u_j
  std::uint8_t leveled = 0;    // kStep (Appendix C: at most one increment)
  [[nodiscard]] std::uint32_t bit_size() const {
    switch (tag) {
      case VTag::kInit:
        return 3 + util::bit_width_or_one(static_cast<std::uint64_t>(weight)) +
               util::bit_width_or_one(hdegree);
      case VTag::kStep:
        return 3 + 1;
      default:
        return 3;
    }
  }
};

enum class CTag : std::uint8_t { kInit, kPhaseB, kPhaseD };

struct ConsMsg {
  CTag tag{CTag::kInit};
  std::uint8_t count = 0;                    // kInit: |σ_i|
  std::int64_t weights[kMaxSupport] = {};    // kInit
  std::uint32_t hdegrees[kMaxSupport] = {};  // kInit
  std::uint32_t covered_mask = 0;            // kPhaseB
  std::uint32_t level_mask = 0;              // kPhaseB
  std::uint32_t raise_mask = 0;              // kPhaseD
  [[nodiscard]] std::uint32_t bit_size() const {
    switch (tag) {
      case CTag::kInit: {
        std::uint32_t bits = 2;
        for (std::uint32_t t = 0; t < count; ++t) {
          bits += util::bit_width_or_one(
                      static_cast<std::uint64_t>(weights[t])) +
                  util::bit_width_or_one(hdegrees[t]);
        }
        return bits;
      }
      case CTag::kPhaseB:
        return 2 + 2 * count;
      case CTag::kPhaseD:
        return 2 + count;
    }
    return 2;
  }
};

struct Shared {
  const CoveringIlp* zo = nullptr;
  const hg::Hypergraph* net = nullptr;  // support hypergraph of the rows
  double beta = 0;
  std::uint32_t z = 0;
  std::uint32_t rank = 0;  // f' of the clause hypergraph
  core::AlphaMode alpha_mode = core::AlphaMode::kLocalPerEdge;
  double alpha_fixed = 2.0;
  /// Clause member-masks per constraint, in the shared enumeration order.
  std::vector<std::vector<std::uint32_t>> clauses;
  /// H-degree of every variable (clause occurrences across constraints).
  std::vector<std::uint32_t> hdeg;
  /// core::theorem9_alpha_table over hdeg, used by both Theorem 9 modes:
  /// a clause's local degree is the H-degree of one of its members.
  std::vector<double> alpha_by_hdeg;

  [[nodiscard]] double alpha_for(std::uint32_t local_delta) const {
    return alpha_mode == core::AlphaMode::kFixed ? alpha_fixed
                                                 : alpha_by_hdeg[local_delta];
  }
};

// ---------------------------------------------------------------------------
// Variable node: simulates vertex u_j plus the bids of every clause
// containing j, replicated from constraint masks.
// ---------------------------------------------------------------------------

struct SimVarAgent {
  const Shared* cfg = nullptr;
  std::uint32_t j = 0;
  double weight = 0;
  std::uint32_t num_cons = 0;  // incident constraints

  /// Per incident constraint (local index), the simulated clause states.
  struct ClauseState {
    std::uint32_t member_mask = 0;
    double bid = 0;
    double delta = 0;
    double alpha = 2.0;
    bool covered = false;
    bool contains_me = false;
  };
  std::vector<std::vector<ClauseState>> sim;  // [local cons][clause]
  std::vector<std::uint32_t> my_pos;          // j's position within σ_i

  double sum_delta = 0;  // Σ δ over clauses containing j (frozen included)
  std::uint32_t level = 0;
  double alpha_max = 2.0;
  std::uint32_t active_count = 0;  // uncovered clauses containing j
  bool in_cover_flag = false;
  bool halted_flag = false;
  std::uint8_t pending_leveled = 0;

  void configure(const Shared* shared, hg::VertexId v) {
    cfg = shared;
    j = v;
    weight = static_cast<double>(cfg->zo->weight(v));
    num_cons = cfg->net->degree(v);
    sim.resize(num_cons);
    my_pos.resize(num_cons);
    const auto edges = cfg->net->edges_of(v);
    for (std::uint32_t c = 0; c < num_cons; ++c) {
      const auto row = cfg->zo->row(edges[c]);
      for (std::uint32_t t = 0; t < row.size(); ++t) {
        if (row[t].var == v) my_pos[c] = t;
      }
      const auto& masks = cfg->clauses[edges[c]];
      sim[c].resize(masks.size());
      for (std::size_t q = 0; q < masks.size(); ++q) {
        sim[c][q].member_mask = masks[q];
        sim[c][q].contains_me = (masks[q] >> my_pos[c]) & 1;
        if (sim[c][q].contains_me) ++active_count;
      }
    }
  }

  template <class Ctx>
  void step(Ctx& ctx) {
    const std::uint32_t r = ctx.round();
    if (r == 0) {
      if (num_cons > 0) {
        VarMsg m;
        m.tag = VTag::kInit;
        m.weight = static_cast<std::int64_t>(weight);
        m.hdegree = cfg->hdeg[j];
        ctx.broadcast(m);
      }
      if (active_count == 0) halted_flag = true;  // appears in no clause
      return;
    }
    if (r < 2) return;
    switch ((r - 2) % 4) {
      case 0:
        phase_a(ctx);
        break;
      case 2:
        phase_c(ctx);
        break;
      default:
        break;
    }
  }

  // Phase A: fold init or raise masks, beta-tightness, level increment.
  template <class Ctx>
  void phase_a(Ctx& ctx) {
    if (ctx.round() == 2) {
      fold_init(ctx);
    } else {
      fold_raise_masks(ctx);
    }
    if (sum_delta >= (1.0 - cfg->beta) * weight) {
      join_cover(ctx);
      return;
    }
    // Appendix C guarantees at most one increment (Corollary 21); the
    // same ulp guard as the distributed engine keeps tie behaviour equal.
    std::uint32_t incr = 0;
    while (level < cfg->z &&
           sum_delta - weight * (1.0 - std::ldexp(1.0, -(int(level) + 1))) >
               weight * 1e-12) {
      ++level;
      ++incr;
    }
    if (level >= cfg->z) {
      join_cover(ctx);
      return;
    }
    pending_leveled = incr > 0 ? 1 : 0;
    VarMsg m;
    m.tag = VTag::kStep;
    m.leveled = pending_leveled;
    broadcast_active(ctx, m);
  }

  // Phase C: fold coverage + halvings, decide raise/stuck.
  template <class Ctx>
  void phase_c(Ctx& ctx) {
    const auto in = ctx.inbox();
    for (std::uint32_t c = 0; c < num_cons; ++c) {
      const ConsMsg* m = in.get(c);
      if (m == nullptr) continue;  // constraint finished earlier
      for (auto& cl : sim[c]) {
        if (cl.covered) continue;
        if ((cl.member_mask & m->covered_mask) != 0) {
          cl.covered = true;  // δ frozen
          if (cl.contains_me) --active_count;
          continue;
        }
        const int h = std::popcount(cl.member_mask & m->level_mask);
        if (h > 0) cl.bid = std::ldexp(cl.bid, -h);
      }
    }
    if (active_count == 0) {
      halted_flag = true;
      return;
    }
    double bids = 0;
    for (const auto& per_cons : sim) {
      for (const auto& cl : per_cons) {
        if (cl.contains_me && !cl.covered) bids += cl.bid;
      }
    }
    const double threshold =
        std::ldexp(weight, -(int(level) + 1)) / alpha_max;
    VarMsg m;
    m.tag = bids <= threshold ? VTag::kRaise : VTag::kStuck;
    broadcast_active(ctx, m);
  }

  template <class Ctx>
  void fold_init(Ctx& ctx) {
    const auto in = ctx.inbox();
    for (std::uint32_t c = 0; c < num_cons; ++c) {
      const ConsMsg* m = in.get(c);
      for (auto& cl : sim[c]) {
        // bid0 = 0.5 w(v*)/hdeg(v*) over the clause's members, first
        // strictly-better scan in row order (= H member order).
        std::int64_t best_w = 0;
        std::uint32_t best_d = 1;
        std::uint32_t local_delta = 0;
        bool first = true;
        for (std::uint32_t t = 0; t < m->count; ++t) {
          if (!((cl.member_mask >> t) & 1)) continue;
          local_delta = std::max(local_delta, m->hdegrees[t]);
          const bool better =
              first || static_cast<double>(m->weights[t]) * best_d <
                           static_cast<double>(best_w) * m->hdegrees[t];
          if (better) {
            best_w = m->weights[t];
            best_d = m->hdegrees[t];
            first = false;
          }
        }
        cl.bid = 0.5 * static_cast<double>(best_w) /
                 static_cast<double>(best_d);
        cl.delta = cl.bid;
        cl.alpha = cfg->alpha_for(local_delta);
        if (cl.contains_me) {
          sum_delta += cl.delta;
          alpha_max = std::max(alpha_max, cl.alpha);
        }
      }
    }
  }

  template <class Ctx>
  void fold_raise_masks(Ctx& ctx) {
    const auto in = ctx.inbox();
    for (std::uint32_t c = 0; c < num_cons; ++c) {
      const ConsMsg* m = in.get(c);
      if (m == nullptr) continue;
      for (auto& cl : sim[c]) {
        if (cl.covered) continue;
        if ((m->raise_mask & cl.member_mask) == cl.member_mask) {
          cl.bid *= cl.alpha;
        }
        const double growth = 0.5 * cl.bid;  // Appendix C variant
        cl.delta += growth;
        if (cl.contains_me) sum_delta += growth;
      }
    }
  }

  template <class Ctx>
  void join_cover(Ctx& ctx) {
    in_cover_flag = true;
    halted_flag = true;
    VarMsg m;
    m.tag = VTag::kCovered;
    broadcast_active(ctx, m);
  }

  /// Sends to constraints that still have an uncovered clause with j.
  template <class Ctx>
  void broadcast_active(Ctx& ctx, const VarMsg& m) {
    for (std::uint32_t c = 0; c < num_cons; ++c) {
      bool live = false;
      for (const auto& cl : sim[c]) {
        if (cl.contains_me && !cl.covered) {
          live = true;
          break;
        }
      }
      if (live) ctx.send(c, m);
    }
  }

  [[nodiscard]] bool halted() const noexcept { return halted_flag; }
  [[nodiscard]] bool in_cover() const noexcept { return in_cover_flag; }
};

// ---------------------------------------------------------------------------
// Constraint node: pure mask aggregator (no bid arithmetic; §5.2).
// ---------------------------------------------------------------------------

struct SimConsAgent {
  const Shared* cfg = nullptr;
  hg::EdgeId i = 0;
  std::uint32_t support = 0;
  std::vector<std::uint32_t> open_clauses;  // member masks, uncovered
  bool halted_flag = false;

  void configure(const Shared* shared, hg::EdgeId e) {
    cfg = shared;
    i = e;
    support = cfg->net->edge_size(e);
    open_clauses = cfg->clauses[e];
  }

  template <class Ctx>
  void step(Ctx& ctx) {
    const std::uint32_t r = ctx.round();
    if (r == 0) return;
    if (r == 1) {
      init_reply(ctx);
      return;
    }
    switch ((r - 2) % 4) {
      case 1:
        phase_b(ctx);
        break;
      case 3:
        phase_d(ctx);
        break;
      default:
        break;
    }
  }

  template <class Ctx>
  void init_reply(Ctx& ctx) {
    ConsMsg m;
    m.tag = CTag::kInit;
    m.count = static_cast<std::uint8_t>(support);
    const auto in = ctx.inbox();
    for (std::uint32_t t = 0; t < support; ++t) {
      const VarMsg* vm = in.get(t);
      // A member in no clause halts at round 0 but still sent its init.
      m.weights[t] = vm != nullptr ? vm->weight : 1;
      m.hdegrees[t] = vm != nullptr ? vm->hdegree : 1;
    }
    ctx.broadcast(m);
  }

  template <class Ctx>
  void phase_b(Ctx& ctx) {
    ConsMsg m;
    m.tag = CTag::kPhaseB;
    m.count = static_cast<std::uint8_t>(support);
    const auto in = ctx.inbox();
    for (std::uint32_t t = 0; t < support; ++t) {
      const VarMsg* vm = in.get(t);
      if (vm == nullptr) continue;  // member retired: none of its clauses live
      if (vm->tag == VTag::kCovered) m.covered_mask |= 1u << t;
      if (vm->tag == VTag::kStep && vm->leveled) m.level_mask |= 1u << t;
    }
    // Members of just-covered clauses must still hear this covered_mask,
    // so the recipient set is computed before dropping those clauses.
    std::uint32_t live = 0;
    for (const std::uint32_t mask : open_clauses) live |= mask;
    std::erase_if(open_clauses, [&](std::uint32_t mask) {
      return (mask & m.covered_mask) != 0;
    });
    for (std::uint32_t t = 0; t < support; ++t) {
      if ((live >> t) & 1) ctx.send(t, m);
    }
    if (open_clauses.empty()) halted_flag = true;
  }

  template <class Ctx>
  void phase_d(Ctx& ctx) {
    ConsMsg m;
    m.tag = CTag::kPhaseD;
    m.count = static_cast<std::uint8_t>(support);
    const auto in = ctx.inbox();
    for (std::uint32_t t = 0; t < support; ++t) {
      const VarMsg* vm = in.get(t);
      if (vm != nullptr && vm->tag == VTag::kRaise) m.raise_mask |= 1u << t;
    }
    broadcast_live(ctx, m);
  }

  /// Sends to members that still appear in an open clause.
  template <class Ctx>
  void broadcast_live(Ctx& ctx, const ConsMsg& m) {
    std::uint32_t live = 0;
    for (const std::uint32_t mask : open_clauses) live |= mask;
    for (std::uint32_t t = 0; t < support; ++t) {
      if ((live >> t) & 1) ctx.send(t, m);
    }
  }

  [[nodiscard]] bool halted() const noexcept { return halted_flag; }
};

struct SimProtocol {
  using VertexMsg = VarMsg;
  using EdgeMsg = ConsMsg;
  using VertexAgent = SimVarAgent;
  using EdgeAgent = SimConsAgent;
};

}  // namespace

SimulationResult simulate_zero_one(const CoveringIlp& zo,
                                   const SimulationOptions& opts) {
  if (!(opts.eps > 0.0) || opts.eps > 1.0) {
    throw std::invalid_argument("simulate_zero_one: eps must be in (0, 1]");
  }
  if (zo.row_support() > std::min(opts.max_support, kMaxSupport)) {
    throw std::invalid_argument("simulate_zero_one: row support too large");
  }

  SimulationResult res;
  res.x.assign(zo.num_vars(), 0);
  if (zo.num_constraints() == 0) {
    res.feasible = true;
    res.net.completed = true;
    return res;
  }

  // The ILP network as a hypergraph: vertex j = variable, edge i = σ_i.
  hg::Builder nb;
  for (std::uint32_t j = 0; j < zo.num_vars(); ++j) {
    nb.add_vertex(zo.weight(j));
  }
  std::vector<hg::VertexId> support;
  for (std::uint32_t i = 0; i < zo.num_constraints(); ++i) {
    support.clear();
    for (const Entry& ent : zo.row(i)) support.push_back(ent.var);
    nb.add_edge(std::span<const hg::VertexId>(support));
  }
  const hg::Hypergraph net = nb.build();

  Shared shared;
  shared.zo = &zo;
  shared.net = &net;
  shared.alpha_mode = opts.alpha_mode;
  shared.alpha_fixed = opts.alpha_fixed;
  shared.clauses.resize(zo.num_constraints());
  shared.hdeg.assign(zo.num_vars(), 0);
  for (std::uint32_t i = 0; i < zo.num_constraints(); ++i) {
    const auto row = zo.row(i);
    shared.clauses[i] = violated_clause_masks(row, zo.rhs(i));
    for (const std::uint32_t mask : shared.clauses[i]) {
      res.clause_edges += 1;
      res.rank = std::max(
          res.rank, static_cast<std::uint32_t>(std::popcount(mask)));
      for (std::uint32_t t = 0; t < row.size(); ++t) {
        if ((mask >> t) & 1) ++shared.hdeg[row[t].var];
      }
    }
  }
  shared.rank = std::max(res.rank, 1u);
  shared.beta = core::beta_for(shared.rank, opts.eps);
  shared.z = core::level_cap(shared.rank, opts.eps);
  if (opts.alpha_mode != core::AlphaMode::kFixed) {
    shared.alpha_by_hdeg = core::theorem9_alpha_table(
        shared.rank, opts.eps, opts.gamma, shared.hdeg);
  }
  res.beta = shared.beta;
  res.z = shared.z;

  congest::Engine<SimProtocol> eng(net, opts.engine);
  for (hg::VertexId v = 0; v < net.num_vertices(); ++v) {
    eng.vertex_agents()[v].configure(&shared, v);
  }
  for (hg::EdgeId e = 0; e < net.num_edges(); ++e) {
    eng.edge_agents()[e].configure(&shared, e);
  }
  res.net = eng.run();
  res.iterations =
      res.net.rounds > 2 ? (res.net.rounds - 2 + 3) / 4 : 0;

  for (std::uint32_t j = 0; j < zo.num_vars(); ++j) {
    res.x[j] = eng.vertex_agent(j).in_cover() ? 1 : 0;
    if (res.x[j]) res.objective += zo.weight(j);
  }
  res.feasible = zo.feasible(res.x);
  // Dual certificate: a clause's δ is frozen at coverage; members that
  // joined the cover earlier hold stale (smaller) replicas, and δ only
  // grows, so the final value is the max over the constraint's members.
  for (std::uint32_t i = 0; i < zo.num_constraints(); ++i) {
    const auto row = zo.row(i);
    std::vector<double> clause_delta(shared.clauses[i].size(), 0.0);
    for (const Entry& ent : row) {
      const auto& agent = eng.vertex_agent(ent.var);
      const auto edges = net.edges_of(ent.var);
      for (std::uint32_t c = 0; c < edges.size(); ++c) {
        if (edges[c] != i) continue;
        for (std::size_t q = 0; q < agent.sim[c].size(); ++q) {
          clause_delta[q] = std::max(clause_delta[q], agent.sim[c][q].delta);
        }
        break;
      }
    }
    for (const double d : clause_delta) res.dual_total += d;
  }
  return res;
}

}  // namespace hypercover::ilp
