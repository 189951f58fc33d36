#include "checker.hpp"

#include <bit>
#include <cmath>
#include <cstring>

#include "api/registry.hpp"
#include "hypergraph/generators.hpp"
#include "hypergraph/weights.hpp"

namespace solvebench {

namespace hg = hypercover::hg;

InstanceFacts facts_of(const hg::Hypergraph& g, std::int64_t planted_opt) {
  InstanceFacts facts;
  facts.planted_opt = planted_opt;
  for (hg::EdgeId e = 0; e < g.num_edges(); ++e) {
    facts.rank = std::max(facts.rank,
                          static_cast<std::uint32_t>(g.vertices_of(e).size()));
  }
  return facts;
}

std::string check_answer(const hg::Hypergraph& g, const InstanceFacts& facts,
                         double eps, const AnswerView& answer) {
  const std::vector<bool>& cover = *answer.in_cover;
  const std::vector<double>& duals = *answer.duals;
  if (cover.size() != g.num_vertices()) return "cover has the wrong length";
  if (duals.size() != g.num_edges()) return "duals have the wrong length";

  std::vector<double> load(g.num_vertices(), 0.0);
  double dual_sum = 0;
  for (hg::EdgeId e = 0; e < g.num_edges(); ++e) {
    const double d = duals[e];
    if (!std::isfinite(d) || d < 0) {
      return "dual of edge " + std::to_string(e) + " is negative or not finite";
    }
    dual_sum += d;
    bool covered = false;
    for (const hg::VertexId v : g.vertices_of(e)) {
      covered = covered || cover[v];
      load[v] += d;
    }
    if (!covered) return "edge " + std::to_string(e) + " is uncovered";
  }
  std::int64_t weight = 0;
  for (hg::VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto w = static_cast<double>(g.weight(v));
    if (load[v] > w * (1 + 1e-9)) {
      return "vertex " + std::to_string(v) + " is over-packed";
    }
    if (cover[v]) weight += g.weight(v);
  }
  if (weight != answer.reported_weight) {
    return "reported cover weight differs from the cover";
  }
  const double factor = facts.rank + eps;
  const auto wc = static_cast<double>(weight);
  if (wc > factor * dual_sum * (1 + 1e-9)) {
    return "w(C) exceeds (rank + eps) * sum of duals";
  }
  if (facts.planted_opt > 0 &&
      wc > factor * static_cast<double>(facts.planted_opt) * (1 + 1e-9)) {
    return "w(C) exceeds (rank + eps) * planted optimum";
  }
  return "";
}

std::uint64_t answer_hash(const AnswerView& answer) {
  // FNV-1a over 64-bit words, then a final mix.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto fold = [&h](std::uint64_t word) {
    h ^= word;
    h *= 0x100000001b3ULL;
  };
  fold(answer.in_cover->size());
  std::uint64_t word = 0;
  std::size_t bits = 0;
  for (const bool b : *answer.in_cover) {
    word = (word << 1) | (b ? 1 : 0);
    if (++bits == 64) {
      fold(word);
      word = 0;
      bits = 0;
    }
  }
  fold(word);
  fold(answer.duals->size());
  for (const double d : *answer.duals) fold(std::bit_cast<std::uint64_t>(d));
  fold(answer.transcript_hash);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

std::string checker_self_test() {
  const hg::PlantedInstance planted =
      hg::planted_cover(400, 900, 3, 40, 5, /*seed=*/17);
  const InstanceFacts facts = facts_of(planted.graph, planted.optimal_weight);
  const double eps = 0.5;
  hypercover::api::SolveRequest req;
  req.eps = eps;
  const hypercover::api::Solution sol =
      hypercover::api::solve("mwhvc", planted.graph, req);

  auto view = [](const std::vector<bool>& c, const std::vector<double>& d,
                 std::int64_t w, std::uint64_t t) {
    return AnswerView{&c, &d, w, t};
  };
  const AnswerView clean = view(sol.in_cover, sol.duals, sol.cover_weight,
                                sol.net.transcript_hash);
  if (std::string err = check_answer(planted.graph, facts, eps, clean); !err.empty()) {
    return "clean answer rejected: " + err;
  }
  const std::uint64_t reference = answer_hash(clean);

  // One uncovered edge: drop every member of edge 0 from the cover.
  std::vector<bool> uncovered = sol.in_cover;
  std::int64_t uncovered_weight = sol.cover_weight;
  for (const hg::VertexId v : planted.graph.vertices_of(0)) {
    if (uncovered[v]) uncovered_weight -= planted.graph.weight(v);
    uncovered[v] = false;
  }
  if (check_answer(planted.graph, facts, eps,
                   view(uncovered, sol.duals, uncovered_weight,
                        sol.net.transcript_hash))
          .empty()) {
    return "an uncovered edge was accepted";
  }

  // One over-packed vertex: push one edge's dual past its lightest
  // member's weight.
  std::vector<double> packed = sol.duals;
  packed[0] += static_cast<double>(planted.graph.weight(
                   planted.graph.vertices_of(0)[0])) +
               1.0;
  if (check_answer(planted.graph, facts, eps,
                   view(sol.in_cover, packed, sol.cover_weight,
                        sol.net.transcript_hash))
          .empty()) {
    return "an over-packed vertex was accepted";
  }

  // One flipped dual bit: the lowest mantissa bit of the first non-zero
  // dual. Feasibility may survive it; bit identity must not.
  std::vector<double> flipped = sol.duals;
  for (double& d : flipped) {
    if (d != 0) {
      d = std::bit_cast<double>(std::bit_cast<std::uint64_t>(d) ^ 1ULL);
      break;
    }
  }
  const AnswerView flipped_view = view(sol.in_cover, flipped, sol.cover_weight,
                                       sol.net.transcript_hash);
  if (check_answer(planted.graph, facts, eps, flipped_view).empty() &&
      answer_hash(flipped_view) == reference) {
    return "a flipped dual bit was accepted";
  }
  return "";
}

}  // namespace solvebench
