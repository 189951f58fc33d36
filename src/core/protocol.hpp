#pragma once
// Algorithm MWHVC (§3.2) as CONGEST agents.
//
// Round schedule (Appendix B). Two init rounds, then 4 rounds per
// iteration i >= 1:
//
//   r = 0  V->E  InitInfo{w(v), |E(v)|}                      (step 2)
//   r = 1  E->V  InitReply{w(v*), |E(v*)|, Delta(e)}         (step 2)
//   ---- iteration i, phase A: r ≡ 2 (mod 4) ----------------------------
//          V: fold in last iteration's Result (δ += bid),    (step 3f tail)
//             beta-tightness check -> join C + Covered msgs, (step 3a)
//             level increments k_v,                          (step 3d)
//          V->E  Covered | Levels{k_v}
//   ---- phase B: r ≡ 3 (mod 4) ------------------------------------------
//          E: covered propagation or halvings h_e = Σ k_v,   (steps 3b, 3d)
//          E->V  Covered | Halved{h_e}
//   ---- phase C: r ≡ 0 (mod 4) ------------------------------------------
//          V: drop covered edges (3c), halve local bids,
//             raise/stuck decision,                          (step 3e)
//          V->E  Raise | Stuck
//   ---- phase D: r ≡ 1 (mod 4) ------------------------------------------
//          E: multiply bid by alpha iff all said Raise,      (step 3f)
//             δ(e) += bid (or bid/2 in the Appendix C variant),
//          E->V  Result{raised}
//
// Both endpoints of a link maintain bid(e) with bit-identical double
// operations, so no bid value ever travels in a message (matching
// Appendix B item 4: only the "was multiplied by alpha" bit is sent).

#include <cstdint>
#include <vector>

#include "core/params.hpp"
#include "hypergraph/hypergraph.hpp"
#include "util/math.hpp"

namespace hypercover::core {

// ---------------------------------------------------------------------------
// Messages. Realistic bit sizes: 3 tag bits plus the payload width; weights
// and degrees cost their binary width (the paper assumes both are poly(n),
// i.e. O(log n) bits).
// ---------------------------------------------------------------------------

enum class VTag : std::uint8_t { kInitInfo, kCovered, kLevels, kRaise, kStuck };

struct VertexToEdgeMsg {
  VTag tag{VTag::kInitInfo};
  std::int64_t weight = 0;    // kInitInfo
  std::uint32_t degree = 0;   // kInitInfo
  std::uint32_t levels = 0;   // kLevels: number of level increments

  [[nodiscard]] std::uint32_t bit_size() const {
    constexpr std::uint32_t kTag = 3;
    switch (tag) {
      case VTag::kInitInfo:
        return kTag +
               util::bit_width_or_one(static_cast<std::uint64_t>(weight)) +
               util::bit_width_or_one(degree);
      case VTag::kLevels:
        return kTag + util::bit_width_or_one(levels);
      case VTag::kCovered:
      case VTag::kRaise:
      case VTag::kStuck:
        return kTag;
    }
    return kTag;
  }
};

enum class ETag : std::uint8_t { kInitReply, kCovered, kHalved, kResult };

struct EdgeToVertexMsg {
  ETag tag{ETag::kInitReply};
  std::int64_t min_weight = 0;      // kInitReply: w(v*)
  std::uint32_t min_degree = 0;     // kInitReply: |E(v*)|
  std::uint32_t local_delta = 0;    // kInitReply: Delta(e)
  std::uint32_t halvings = 0;       // kHalved: h_e
  std::uint8_t raised = 0;          // kResult

  [[nodiscard]] std::uint32_t bit_size() const {
    constexpr std::uint32_t kTag = 3;
    switch (tag) {
      case ETag::kInitReply:
        return kTag +
               util::bit_width_or_one(static_cast<std::uint64_t>(min_weight)) +
               util::bit_width_or_one(min_degree) +
               util::bit_width_or_one(local_delta);
      case ETag::kHalved:
        return kTag + util::bit_width_or_one(halvings);
      case ETag::kResult:
        return kTag + 1;
      case ETag::kCovered:
        return kTag;
    }
    return kTag;
  }
};

// ---------------------------------------------------------------------------
// Shared run configuration and instrumentation sink.
// ---------------------------------------------------------------------------

/// Optional per-run instrumentation. All counters are exact. The vectors
/// are sized by the driver when tracing is enabled; agents write only
/// their own disjoint slots, so tracing is safe under the parallel engine.
/// The scalar aggregates are folded out of per-agent counters by the
/// driver after the run (solve_mwhvc), never mutated inside a step.
struct Trace {
  bool enabled = false;
  std::uint64_t raise_events = 0;        // edge bid multiplied by alpha
  std::uint64_t stuck_events = 0;        // vertex sent "stuck"
  std::uint32_t max_level = 0;           // max l(v) ever reached
  std::uint32_t max_level_incr_per_iter = 0;  // Corollary 21 check
  std::vector<std::uint32_t> edge_raises;     // per edge (enabled only)
  std::vector<std::uint32_t> edge_halvings;   // per edge (enabled only)
  /// stuck_per_level[v * z + l] = # stuck iterations v spent at level l.
  std::vector<std::uint32_t> stuck_per_level;
  std::uint32_t z = 0;
};

struct Config {
  const hg::Hypergraph* graph = nullptr;
  double beta = 0;
  std::uint32_t z = 0;
  AlphaMode alpha_mode = AlphaMode::kLocalPerEdge;
  double alpha_fixed = 2.0;   ///< used when alpha_mode == kFixed
  double alpha_global = 2.0;  ///< Theorem 9 on the global Delta
  /// kLocalPerEdge: theorem9_alpha_table over the graph's vertex degrees.
  /// Delta(e) is the degree of one of e's members, so every lookup hits.
  std::vector<double> alpha_by_degree;
  bool appendix_c = false;  ///< one-level-per-iteration variant
  Trace* trace = nullptr;   ///< nullable

  /// The alpha an edge with local degree bound `local_delta` uses.
  [[nodiscard]] double alpha_for(std::uint32_t local_delta) const {
    switch (alpha_mode) {
      case AlphaMode::kFixed:
        return alpha_fixed;
      case AlphaMode::kGlobalDelta:
        return alpha_global;
      case AlphaMode::kLocalPerEdge:
        return alpha_by_degree[local_delta];
    }
    return 2.0;
  }
};

/// The vertex agents' per-incidence state, one flat array per field in
/// the graph's CSR incidence order: local index k of vertex v is slot
/// first(v) + k, first(v) = Σ_{u < v} |E(u)|. The run owns the arrays and
/// each agent views its own range, so parallel shards write disjoint
/// slots.
struct VertexIncidenceState {
  std::vector<double> bid;           ///< local replica of bid(e)
  std::vector<double> alpha;         ///< alpha(e)
  std::vector<std::uint8_t> active;  ///< e in E'(v)?
};

// ---------------------------------------------------------------------------
// Agents.
// ---------------------------------------------------------------------------

class MwhvcVertexAgent {
 public:
  /// Must be called on every agent before the engine runs (see
  /// configure_agents). `first` is the vertex's first slot in `state`.
  void configure(const Config* cfg, hg::VertexId id,
                 VertexIncidenceState& state, std::size_t first) {
    cfg_ = cfg;
    id_ = id;
    const auto& g = *cfg_->graph;
    weight_ = static_cast<double>(g.weight(id));
    degree_ = g.degree(id);
    bid_ = state.bid.data() + first;
    alpha_ = state.alpha.data() + first;
    active_ = state.active.data() + first;
    active_count_ = degree_;
  }

  template <class Ctx>
  void step(Ctx& ctx) {
    const std::uint32_t r = ctx.round();
    if (r == 0) {
      if (degree_ == 0) {  // isolated vertex: nothing to cover
        halted_ = true;
        return;
      }
      VertexToEdgeMsg msg;
      msg.tag = VTag::kInitInfo;
      msg.weight = static_cast<std::int64_t>(weight_);
      msg.degree = degree_;
      ctx.broadcast(msg);
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
        break;  // edge phases
    }
  }

  [[nodiscard]] bool halted() const noexcept { return halted_; }
  [[nodiscard]] bool in_cover() const noexcept { return in_cover_; }
  [[nodiscard]] std::uint32_t level() const noexcept { return level_; }
  [[nodiscard]] double dual_sum() const noexcept { return sum_delta_; }
  /// Sum of bids over still-uncovered incident edges (Claim 1 LHS).
  [[nodiscard]] double active_bid_sum() const noexcept {
    double s = 0;
    for (std::uint32_t k = 0; k < degree_; ++k) {
      if (active_[k]) s += bid_[k];
    }
    return s;
  }
  [[nodiscard]] double weight() const noexcept { return weight_; }
  [[nodiscard]] std::uint32_t active_edges() const noexcept {
    return active_count_;
  }
  /// Iterations this vertex reported "stuck" (Trace::stuck_events share).
  [[nodiscard]] std::uint64_t stuck_count() const noexcept {
    return stuck_count_;
  }
  /// Highest level reached while still below z (Trace::max_level share).
  [[nodiscard]] std::uint32_t traced_max_level() const noexcept {
    return traced_max_level_;
  }
  /// Most level increments in one iteration (Corollary 21 check).
  [[nodiscard]] std::uint32_t max_incr_per_iter() const noexcept {
    return max_incr_per_iter_;
  }

 private:
  // Phase A: fold Result/InitReply, beta-tightness (3a), levels (3d),
  // send Covered or Levels.
  template <class Ctx>
  void phase_a(Ctx& ctx) {
    if (ctx.round() == 2) {
      fold_init_replies(ctx);
    } else {
      fold_results(ctx);
    }

    // Step 3a: beta-tightness -> join the cover.
    if (sum_delta_ >= (1.0 - cfg_->beta) * weight_) {
      join_cover(ctx);
      return;
    }

    // Step 3d: raise level while the dual sum exceeds the level threshold.
    // The comparison carries an ulp-scale relative guard: the Appendix C
    // analysis is *tight* at sum == w(1 - 0.5^{l+1}) (where exact reals do
    // not increment), and non-dyadic bids make doubles land a few ulps
    // above such boundaries. See DESIGN.md, numeric-representation note.
    std::uint32_t incr = 0;
    while (level_ < cfg_->z &&
           sum_delta_ - weight_ * (1.0 - std::ldexp(1.0, -(int(level_) + 1))) >
               weight_ * 1e-12) {
      ++level_;
      ++incr;
    }
    if (level_ >= cfg_->z) {
      // Claim 4: reaching z implies beta-tightness; in exact arithmetic the
      // 3a check fires first, with doubles it may be a final-ulp tie.
      join_cover(ctx);
      return;
    }
    if (incr > max_incr_per_iter_) max_incr_per_iter_ = incr;
    if (level_ > traced_max_level_) traced_max_level_ = level_;
    // Halve the local copies now; the edge applies the same halvings in
    // phase B, plus those requested by sibling vertices (folded in phase C).
    if (incr > 0) {
      for (std::uint32_t k = 0; k < degree_; ++k) {
        if (active_[k]) bid_[k] = std::ldexp(bid_[k], -int(incr));
      }
    }
    pending_incr_ = incr;
    VertexToEdgeMsg msg;
    msg.tag = VTag::kLevels;
    msg.levels = incr;
    for (std::uint32_t k = 0; k < degree_; ++k) {
      if (active_[k]) ctx.send(k, msg);
    }
  }

  // Phase C: fold Covered/Halved (3b/3c/3d), decide raise/stuck (3e).
  template <class Ctx>
  void phase_c(Ctx& ctx) {
    const auto in = ctx.inbox();
    for (std::uint32_t k = 0; k < degree_; ++k) {
      if (!active_[k]) continue;
      const EdgeToVertexMsg* msg = in.get(k);
      if (msg == nullptr) continue;  // never happens for active edges
      if (msg->tag == ETag::kCovered) {
        active_[k] = 0;  // step 3c: E'(v) <- E'(v) \ {e}; δ(e) stays frozen
        --active_count_;
      } else {
        // Apply the halvings requested by *other* members of the edge; our
        // own pending_incr_ halvings were applied locally in phase A.
        const std::uint32_t others = msg->halvings - pending_incr_;
        if (others > 0) bid_[k] = std::ldexp(bid_[k], -int(others));
      }
    }
    pending_incr_ = 0;
    if (active_count_ == 0) {  // all incident edges covered: terminate
      halted_ = true;
      return;
    }
    // Step 3e: raise iff Σ_{e in E'(v)} bid(e) <= (1/alpha_v) 0.5^{l+1} w(v),
    // where alpha_v dominates every incident edge's multiplier so that an
    // all-raise iteration keeps Claim 1 intact.
    const double threshold =
        std::ldexp(weight_, -(int(level_) + 1)) / alpha_max_;
    const bool raise = active_bid_sum() <= threshold;
    if (!raise) {
      ++stuck_count_;
      if (Trace* t = cfg_->trace; t != nullptr && t->enabled) {
        ++t->stuck_per_level[std::size_t{id_} * t->z + level_];
      }
    }
    VertexToEdgeMsg msg;
    msg.tag = raise ? VTag::kRaise : VTag::kStuck;
    for (std::uint32_t k = 0; k < degree_; ++k) {
      if (active_[k]) ctx.send(k, msg);
    }
  }

  template <class Ctx>
  void fold_init_replies(Ctx& ctx) {
    const auto in = ctx.inbox();
    for (std::uint32_t k = 0; k < degree_; ++k) {
      const EdgeToVertexMsg* msg = in.get(k);
      // Every edge replies in round 1.
      bid_[k] = 0.5 * static_cast<double>(msg->min_weight) /
                static_cast<double>(msg->min_degree);
      sum_delta_ += bid_[k];
      alpha_[k] = cfg_->alpha_for(msg->local_delta);
      if (alpha_[k] > alpha_max_) alpha_max_ = alpha_[k];
    }
  }

  template <class Ctx>
  void fold_results(Ctx& ctx) {
    const auto in = ctx.inbox();
    for (std::uint32_t k = 0; k < degree_; ++k) {
      if (!active_[k]) continue;
      const EdgeToVertexMsg* msg = in.get(k);
      if (msg->raised != 0) bid_[k] *= alpha_[k];
      sum_delta_ += cfg_->appendix_c ? 0.5 * bid_[k] : bid_[k];
    }
  }

  template <class Ctx>
  void join_cover(Ctx& ctx) {
    in_cover_ = true;
    halted_ = true;
    VertexToEdgeMsg msg;
    msg.tag = VTag::kCovered;
    for (std::uint32_t k = 0; k < degree_; ++k) {
      if (active_[k]) ctx.send(k, msg);
    }
  }

  const Config* cfg_ = nullptr;
  hg::VertexId id_ = 0;
  double weight_ = 0;
  std::uint32_t degree_ = 0;
  std::uint32_t level_ = 0;
  double sum_delta_ = 0;          // Σ_{e in E(v)} δ(e), covered edges included
  // This vertex's range of the run's VertexIncidenceState, by local index.
  double* bid_ = nullptr;
  double* alpha_ = nullptr;
  std::uint8_t* active_ = nullptr;
  std::uint32_t active_count_ = 0;
  double alpha_max_ = 2.0;
  std::uint32_t pending_incr_ = 0;  // own halvings already applied locally
  std::uint64_t stuck_count_ = 0;
  std::uint32_t traced_max_level_ = 0;
  std::uint32_t max_incr_per_iter_ = 0;
  bool in_cover_ = false;
  bool halted_ = false;
};

class MwhvcEdgeAgent {
 public:
  void configure(const Config* cfg, hg::EdgeId id) {
    cfg_ = cfg;
    id_ = id;
    size_ = cfg_->graph->edge_size(id);
  }

  template <class Ctx>
  void step(Ctx& ctx) {
    const std::uint32_t r = ctx.round();
    if (r == 0) return;  // init messages are in flight
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
        break;  // vertex phases
    }
  }

  [[nodiscard]] bool halted() const noexcept { return halted_; }
  [[nodiscard]] bool covered() const noexcept { return covered_; }
  [[nodiscard]] double dual() const noexcept { return delta_; }
  [[nodiscard]] double bid() const noexcept { return bid_; }
  [[nodiscard]] double alpha() const noexcept { return alpha_; }
  [[nodiscard]] std::uint32_t raises() const noexcept { return raises_; }

 private:
  // Step 2: gather (w, |E(v)|), pick the argmin normalized weight, announce.
  template <class Ctx>
  void init_reply(Ctx& ctx) {
    std::int64_t best_w = 0;
    std::uint32_t best_d = 1;
    std::uint32_t local_delta = 0;
    bool first = true;
    const auto in = ctx.inbox();
    for (std::uint32_t j = 0; j < size_; ++j) {
      const VertexToEdgeMsg* msg = in.get(j);
      if (local_delta < msg->degree) local_delta = msg->degree;
      const bool better =
          first || static_cast<double>(msg->weight) * best_d <
                       static_cast<double>(best_w) * msg->degree;
      if (better) {
        best_w = msg->weight;
        best_d = msg->degree;
        first = false;
      }
    }
    bid_ = 0.5 * static_cast<double>(best_w) / static_cast<double>(best_d);
    delta_ = bid_;
    alpha_ = cfg_->alpha_for(local_delta);
    EdgeToVertexMsg msg;
    msg.tag = ETag::kInitReply;
    msg.min_weight = best_w;
    msg.min_degree = best_d;
    msg.local_delta = local_delta;
    ctx.broadcast(msg);
  }

  // Phase B: covered propagation (3b) else apply halvings (3d).
  template <class Ctx>
  void phase_b(Ctx& ctx) {
    std::uint32_t halvings = 0;
    bool now_covered = false;
    const auto in = ctx.inbox();
    for (std::uint32_t j = 0; j < size_; ++j) {
      const VertexToEdgeMsg* msg = in.get(j);
      if (msg->tag == VTag::kCovered) {
        now_covered = true;
      } else {
        halvings += msg->levels;
      }
    }
    if (now_covered) {
      covered_ = true;
      halted_ = true;
      EdgeToVertexMsg msg;
      msg.tag = ETag::kCovered;
      ctx.broadcast(msg);  // step 3b; the cover vertex has already halted
      return;
    }
    if (halvings > 0) {
      bid_ = std::ldexp(bid_, -int(halvings));
      if (Trace* t = cfg_->trace; t != nullptr && t->enabled) {
        t->edge_halvings[id_] += halvings;
      }
    }
    EdgeToVertexMsg msg;
    msg.tag = ETag::kHalved;
    msg.halvings = halvings;
    ctx.broadcast(msg);
  }

  // Phase D (step 3f): multiply by alpha iff unanimous raise; grow δ(e).
  template <class Ctx>
  void phase_d(Ctx& ctx) {
    bool all_raise = true;
    const auto in = ctx.inbox();
    for (std::uint32_t j = 0; j < size_; ++j) {
      const VertexToEdgeMsg* msg = in.get(j);
      if (msg->tag != VTag::kRaise) all_raise = false;
    }
    if (all_raise) {
      bid_ *= alpha_;
      ++raises_;
      if (Trace* t = cfg_->trace; t != nullptr && t->enabled) {
        ++t->edge_raises[id_];
      }
    }
    delta_ += cfg_->appendix_c ? 0.5 * bid_ : bid_;
    EdgeToVertexMsg msg;
    msg.tag = ETag::kResult;
    msg.raised = all_raise ? 1 : 0;
    ctx.broadcast(msg);
  }

  const Config* cfg_ = nullptr;
  hg::EdgeId id_ = 0;
  std::uint32_t size_ = 0;
  double bid_ = 0;
  double delta_ = 0;
  double alpha_ = 2.0;
  std::uint32_t raises_ = 0;
  bool covered_ = false;
  bool halted_ = false;
};

/// Protocol bundle for congest::Engine.
struct MwhvcProtocol {
  using VertexMsg = VertexToEdgeMsg;
  using EdgeMsg = EdgeToVertexMsg;
  using VertexAgent = MwhvcVertexAgent;
  using EdgeAgent = MwhvcEdgeAgent;
};

/// Sizes `state` for cfg.graph and configures every agent of `eng`, a
/// congest::Engine<MwhvcProtocol> over that graph. `cfg` and `state` must
/// outlive the engine's run.
template <class Engine>
void configure_agents(Engine& eng, const Config& cfg,
                      VertexIncidenceState& state) {
  const hg::Hypergraph& g = *cfg.graph;
  state.bid.assign(g.num_incidences(), 0.0);
  state.alpha.assign(g.num_incidences(), 2.0);
  state.active.assign(g.num_incidences(), 1);
  std::size_t first = 0;
  for (hg::VertexId v = 0; v < g.num_vertices(); ++v) {
    eng.vertex_agents()[v].configure(&cfg, v, state, first);
    first += g.degree(v);
  }
  for (hg::EdgeId e = 0; e < g.num_edges(); ++e) {
    eng.edge_agents()[e].configure(&cfg, e);
  }
}

}  // namespace hypercover::core
