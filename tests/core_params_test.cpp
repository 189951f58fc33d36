// Tests for §3.1 / Theorem 9 parameter selection: beta, the level cap z,
// the alpha rule and its per-run degree table, and the Theorem 8
// iteration budget.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/mwhvc.hpp"
#include "core/params.hpp"
#include "hypergraph/hypergraph.hpp"

namespace hypercover::core {
namespace {

TEST(Params, BetaFormula) {
  EXPECT_DOUBLE_EQ(beta_for(2, 1.0), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(beta_for(2, 0.5), 0.5 / 2.5);
  EXPECT_DOUBLE_EQ(beta_for(1, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(beta_for(5, 0.25), 0.25 / 5.25);
}

TEST(Params, BetaValidation) {
  EXPECT_THROW((void)beta_for(0, 0.5), std::invalid_argument);
  EXPECT_THROW((void)beta_for(2, 0.0), std::invalid_argument);
  EXPECT_THROW((void)beta_for(2, 1.5), std::invalid_argument);
  EXPECT_THROW((void)beta_for(2, -0.1), std::invalid_argument);
}

TEST(Params, LevelCapMatchesCeilLog) {
  // z = ceil(log2(1/beta)) = ceil(log2((f+eps)/eps)).
  EXPECT_EQ(level_cap(1, 1.0), 1u);   // 1/beta = 2
  EXPECT_EQ(level_cap(2, 1.0), 2u);   // 1/beta = 3
  EXPECT_EQ(level_cap(2, 0.5), 3u);   // 1/beta = 5
  EXPECT_EQ(level_cap(3, 0.1), 5u);   // 1/beta = 31
  EXPECT_EQ(level_cap(2, 0.001), 11u);
}

TEST(Params, LevelCapGrowsLogarithmicallyInInverseEps) {
  const std::uint32_t z1 = level_cap(2, 0.1);
  const std::uint32_t z2 = level_cap(2, 0.1 / 1024);
  EXPECT_NEAR(static_cast<double>(z2 - z1), 10.0, 1.0);
}

TEST(Params, AlphaAtLeastTwo) {
  for (const std::uint32_t delta : {1u, 3u, 16u, 1u << 10, 1u << 20}) {
    for (const double eps : {1.0, 0.5, 0.01}) {
      for (const std::uint32_t f : {1u, 2u, 5u}) {
        EXPECT_GE(theorem9_alpha(f, eps, delta, 0.001), 2.0);
      }
    }
  }
}

TEST(Params, AlphaGrowsForHugeDeltaSmallF) {
  // log D / (f log(f/eps) loglog D) with f=1, eps=1: log(f/eps) clamps
  // to 1, so alpha ~ log D / loglog D > 2 for large D.
  const double a = theorem9_alpha(1, 1.0, 1u << 30, 0.5);
  EXPECT_GT(a, 2.0);
  const double larger = theorem9_alpha(1, 1.0, 1u << 31, 0.5);
  EXPECT_GE(larger, a * 0.99);
}

TEST(Params, AlphaFallsBackToTwoWhenTermSmall) {
  // Large f drives the candidate below (log D)^{gamma/2} -> alpha = 2.
  EXPECT_DOUBLE_EQ(theorem9_alpha(64, 0.01, 1u << 10, 0.001), 2.0);
}

TEST(Params, AlphaValidation) {
  EXPECT_THROW((void)theorem9_alpha(2, 0.5, 8, 0.0), std::invalid_argument);
  EXPECT_THROW((void)theorem9_alpha(0, 0.5, 8, 0.001), std::invalid_argument);
}

TEST(Params, AlphaTableHoldsEachListedDegree) {
  const std::vector<std::uint32_t> degrees = {300, 5, 300, 1};
  const auto table = theorem9_alpha_table(1, 1.0, 0.001, degrees);
  ASSERT_EQ(table.size(), 301u);
  for (const std::uint32_t d : {0u, 1u, 2u}) EXPECT_EQ(table[d], 2.0);
  EXPECT_EQ(table[5], theorem9_alpha(1, 1.0, 5, 0.001));
  EXPECT_EQ(table[300], theorem9_alpha(1, 1.0, 300, 0.001));
  EXPECT_GT(table[300], 2.0);
  EXPECT_EQ(table[4], 0.0);  // absent degree: never looked up
  EXPECT_EQ(theorem9_alpha_table(1, 1.0, 0.001, {}).size(), 3u);
  EXPECT_THROW((void)theorem9_alpha_table(1, 1.0, 0.0, degrees),
               std::invalid_argument);
}

// Vertex v_d has degree d, through d singleton edges {v_d}: rank 1 and
// eps = 1 make Theorem 9's alpha exceed 2 from moderate degrees on.
hg::Hypergraph graph_with_degrees(const std::vector<std::uint32_t>& degrees) {
  hg::Builder b;
  for (const std::uint32_t d : degrees) {
    const hg::VertexId v = b.add_vertex(1 + d % 7);
    for (std::uint32_t k = 0; k < d; ++k) b.add_edge({v});
  }
  return b.build();
}

TEST(Params, RunAlphaLookupMatchesTheorem9PerMode) {
  const std::vector<std::uint32_t> degrees = {0, 1, 2, 3, 5, 17, 300, 4096};
  const hg::Hypergraph g = graph_with_degrees(degrees);
  ASSERT_EQ(g.rank(), 1u);
  MwhvcOptions opts;
  opts.eps = 1.0;

  opts.alpha_mode = AlphaMode::kLocalPerEdge;
  const MwhvcRun local(g, opts);
  bool some_above_two = false;
  for (const std::uint32_t d : degrees) {
    EXPECT_EQ(local.alpha_for(d), theorem9_alpha(1, 1.0, d, opts.gamma))
        << "degree " << d;
    if (d < 3) {
      EXPECT_EQ(local.alpha_for(d), 2.0) << "degree " << d;
    }
    some_above_two = some_above_two || local.alpha_for(d) > 2.0;
  }
  EXPECT_TRUE(some_above_two);

  opts.alpha_mode = AlphaMode::kFixed;
  opts.alpha_fixed = 3.5;
  const MwhvcRun fixed(g, opts);
  for (const std::uint32_t d : degrees) EXPECT_EQ(fixed.alpha_for(d), 3.5);

  opts.alpha_mode = AlphaMode::kGlobalDelta;
  const MwhvcRun global(g, opts);
  const double alpha_global = theorem9_alpha(1, 1.0, 4096, opts.gamma);
  EXPECT_GT(alpha_global, 2.0);
  for (const std::uint32_t d : degrees) {
    EXPECT_EQ(global.alpha_for(d), alpha_global);
  }
}

TEST(Params, Theorem8BudgetComposition) {
  const auto b = theorem8_budget(2, 0.5, 1u << 10, 2.0, false);
  const std::uint32_t z = level_cap(2, 0.5);
  // raise budget: log2(Delta * 2^{f z}) / log2(alpha) = (10 + 2z) / 1.
  EXPECT_DOUBLE_EQ(b.raise_budget, 10.0 + 2.0 * z);
  EXPECT_DOUBLE_EQ(b.stuck_budget, 2.0 * z * 2.0);
  EXPECT_DOUBLE_EQ(b.total(), b.raise_budget + b.stuck_budget);
}

TEST(Params, Theorem8BudgetAppendixCDoubles) {
  const auto base = theorem8_budget(3, 0.25, 256, 4.0, false);
  const auto varc = theorem8_budget(3, 0.25, 256, 4.0, true);
  EXPECT_DOUBLE_EQ(varc.stuck_budget, 2.0 * base.stuck_budget);
  EXPECT_DOUBLE_EQ(varc.raise_budget, base.raise_budget);
}

TEST(Params, Theorem8BudgetLargerAlphaFewerRaises) {
  const auto a2 = theorem8_budget(2, 0.5, 1u << 20, 2.0, false);
  const auto a8 = theorem8_budget(2, 0.5, 1u << 20, 8.0, false);
  EXPECT_LT(a8.raise_budget, a2.raise_budget);
  EXPECT_GT(a8.stuck_budget, a2.stuck_budget);
}

}  // namespace
}  // namespace hypercover::core
