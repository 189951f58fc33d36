// Lock-step tests of the MWHVC protocol's message schedule (Appendix B):
// who sends what in which round, when agents halt, and how coverage
// propagates — stepping the engine round by round and inspecting agents.

#include <gtest/gtest.h>

#include "congest/engine.hpp"
#include "core/mwhvc.hpp"
#include "core/params.hpp"
#include "core/protocol.hpp"
#include "hypergraph/generators.hpp"
#include "hypergraph/weights.hpp"

namespace hypercover::core {
namespace {

using Engine = congest::Engine<MwhvcProtocol>;

struct Fixture {
  hg::Hypergraph graph;
  Config cfg;
  Trace trace;
  VertexIncidenceState vertex_state;
  std::unique_ptr<Engine> eng;

  explicit Fixture(hg::Hypergraph g, double eps = 0.5)
      : graph(std::move(g)) {
    const std::uint32_t f = std::max(graph.rank(), 1u);
    cfg.graph = &graph;
    cfg.beta = beta_for(f, eps);
    cfg.z = level_cap(f, eps);
    cfg.alpha_mode = AlphaMode::kFixed;
    cfg.alpha_fixed = 2.0;
    cfg.trace = &trace;
    eng = std::make_unique<Engine>(graph);
    configure_agents(*eng, cfg, vertex_state);
  }

  void steps(int k) {
    for (int i = 0; i < k; ++i) eng->step_round();
  }
};

hg::Hypergraph single_edge(hg::Weight w0, hg::Weight w1) {
  hg::Builder b;
  b.add_vertex(w0);
  b.add_vertex(w1);
  b.add_edge({0, 1});
  return b.build();
}

TEST(Schedule, InitRoundsExchangeWeightAndDegree) {
  Fixture fx(single_edge(6, 2));
  fx.steps(2);  // rounds 0 (V->E) and 1 (E->V)
  // After the init reply, the edge holds bid0 = 0.5 * min normalized
  // weight = 0.5 * min(6/1, 2/1) = 1, and delta = bid0.
  EXPECT_DOUBLE_EQ(fx.eng->edge_agent(0).bid(), 1.0);
  EXPECT_DOUBLE_EQ(fx.eng->edge_agent(0).dual(), 1.0);
  // Vertices have not folded it yet (they do at round 2, phase A).
  EXPECT_DOUBLE_EQ(fx.eng->vertex_agent(0).dual_sum(), 0.0);
  fx.steps(1);
  EXPECT_DOUBLE_EQ(fx.eng->vertex_agent(0).dual_sum(), 1.0);
  EXPECT_DOUBLE_EQ(fx.eng->vertex_agent(1).dual_sum(), 1.0);
}

TEST(Schedule, CheapVertexTightensAndJoins) {
  // w1 = 2: bid0 = 1 = w1/2; vertex 1 needs sum >= (1-beta) * 2 = 1.6.
  // Iteration 1: vertex 1 is stuck (1 > 0.25 * 2 / 2)... the dual grows by
  // bid each phase D regardless, so sum reaches 2 and vertex 1 joins at
  // the next phase A.
  Fixture fx(single_edge(6, 2));
  fx.steps(2 + 4);  // init + iteration 1
  EXPECT_DOUBLE_EQ(fx.eng->edge_agent(0).dual(), 2.0);
  EXPECT_FALSE(fx.eng->vertex_agent(1).in_cover());
  fx.steps(1);  // phase A of iteration 2: tightness fires
  EXPECT_TRUE(fx.eng->vertex_agent(1).in_cover());
  EXPECT_TRUE(fx.eng->vertex_agent(1).halted());
  EXPECT_FALSE(fx.eng->vertex_agent(0).in_cover());
  // Edge learns in phase B, halts; vertex 0 learns in phase C, halts.
  fx.steps(1);
  EXPECT_TRUE(fx.eng->edge_agent(0).halted());
  EXPECT_TRUE(fx.eng->edge_agent(0).covered());
  fx.steps(1);
  EXPECT_TRUE(fx.eng->vertex_agent(0).halted());
  EXPECT_TRUE(fx.eng->all_halted());
}

TEST(Schedule, IsolatedVertexHaltsInRoundZero) {
  hg::Builder b;
  b.add_vertices(2, 3);
  b.add_edge({0, 1});
  b.add_vertex(7);  // isolated
  Fixture fx(b.build());
  fx.steps(1);
  EXPECT_TRUE(fx.eng->vertex_agent(2).halted());
  EXPECT_FALSE(fx.eng->vertex_agent(0).halted());
}

TEST(Schedule, FourRoundsPerIteration) {
  // On a triangle with unit weights nothing covers before a few
  // iterations; rounds between quiescent states step in multiples of 4.
  Fixture fx(hg::cycle(3, hg::unit_weights(), 0));
  const auto res = solve_mwhvc(hg::cycle(3, hg::unit_weights(), 0));
  EXPECT_TRUE(res.net.completed);
  EXPECT_GE(res.net.rounds, 2u);
  // rounds = 2 init + 4 * iterations (+ <= 3 drain rounds).
  EXPECT_LE(res.net.rounds, 2 + 4 * res.iterations + 3);
}

TEST(Schedule, DualReplicasStayConsistent) {
  // After every phase-A round (vertices folded phase-D results), the
  // vertex's dual sum must equal the sum of its edges' duals exactly
  // (bit-identical replication — DESIGN.md §4).
  Fixture fx(hg::random_uniform(30, 60, 3, hg::uniform_weights(50), 3));
  for (int round = 0; round < 60 && !fx.eng->all_halted(); ++round) {
    fx.eng->step_round();
    if (round < 2 || (round - 2) % 4 != 0) continue;
    for (hg::VertexId v = 0; v < fx.graph.num_vertices(); ++v) {
      const auto& va = fx.eng->vertex_agent(v);
      if (va.halted()) continue;
      double expect = 0;
      for (const hg::EdgeId e : fx.graph.edges_of(v)) {
        expect += fx.eng->edge_agent(e).dual();
      }
      ASSERT_DOUBLE_EQ(va.dual_sum(), expect) << "v=" << v << " r=" << round;
    }
  }
}

TEST(Schedule, BidReplicasMatchEdgesAtIterationEnd) {
  Fixture fx(hg::random_uniform(24, 50, 2, hg::uniform_weights(20), 8));
  // Check right after each phase C (replicas synced, before phase D).
  for (int round = 0; round < 60 && !fx.eng->all_halted(); ++round) {
    fx.eng->step_round();
    if (round < 2 || (round - 2) % 4 != 2) continue;
    for (hg::VertexId v = 0; v < fx.graph.num_vertices(); ++v) {
      const auto& va = fx.eng->vertex_agent(v);
      if (va.halted()) continue;
      double expect = 0;
      for (const hg::EdgeId e : fx.graph.edges_of(v)) {
        if (!fx.eng->edge_agent(e).covered()) {
          expect += fx.eng->edge_agent(e).bid();
        }
      }
      ASSERT_DOUBLE_EQ(va.active_bid_sum(), expect)
          << "v=" << v << " r=" << round;
    }
  }
}

TEST(Schedule, MessageBitsMatchAppendixB) {
  // Appendix B inventory: init messages O(log n); level increments
  // O(log z); raise/stuck/covered O(1); result 1 bit (+tag).
  VertexToEdgeMsg covered;
  covered.tag = VTag::kCovered;
  EXPECT_EQ(covered.bit_size(), 3u);
  VertexToEdgeMsg raise;
  raise.tag = VTag::kRaise;
  EXPECT_EQ(raise.bit_size(), 3u);
  VertexToEdgeMsg lv;
  lv.tag = VTag::kLevels;
  lv.levels = 5;
  EXPECT_EQ(lv.bit_size(), 3u + 3u);
  VertexToEdgeMsg init;
  init.tag = VTag::kInitInfo;
  init.weight = 1000;
  init.degree = 16;
  EXPECT_EQ(init.bit_size(), 3u + 10u + 5u);
  EdgeToVertexMsg result;
  result.tag = ETag::kResult;
  EXPECT_EQ(result.bit_size(), 4u);
  EdgeToVertexMsg halved;
  halved.tag = ETag::kHalved;
  halved.halvings = 3;
  EXPECT_EQ(halved.bit_size(), 3u + 2u);
}

TEST(Schedule, CoveredEdgeDualsFreeze) {
  Fixture fx(single_edge(6, 2));
  fx.steps(2 + 4 + 2);  // until the edge halts covered
  ASSERT_TRUE(fx.eng->edge_agent(0).covered());
  const double frozen = fx.eng->edge_agent(0).dual();
  fx.steps(4);
  EXPECT_DOUBLE_EQ(fx.eng->edge_agent(0).dual(), frozen);
}

TEST(Schedule, NoMessagesAfterQuiescence) {
  Fixture fx(single_edge(6, 2));
  while (!fx.eng->all_halted()) fx.eng->step_round();
  const auto msgs = fx.eng->stats().total_messages;
  fx.steps(3);
  EXPECT_EQ(fx.eng->stats().total_messages, msgs);
}

}  // namespace
}  // namespace hypercover::core
