#pragma once
// Parameter selection for Algorithm MWHVC (§3.1 and Theorem 9).
//
//   beta = eps / (f + eps)            — tightness threshold (§3.1)
//   z    = ceil(log2(1/beta))         — level cap (§4.2, Claim 4)
//   alpha — the bid multiplier (Theorem 9): for a constant gamma > 0,
//
//       alpha = max(2, log D / (f log(f/eps) loglog D))
//                   if log D / (f log(f/eps) loglog D) >= (log D)^(gamma/2)
//       alpha = 2   otherwise
//
// Alpha may be derived from the global maximum degree Delta or, per the
// remark before Theorem 9, from the local degree Delta(e) = max_{v in e}
// |E(v)| of each hyperedge independently. In the per-edge mode a run
// tabulates alpha once over the distinct vertex degrees when it is built
// (theorem9_alpha_table): Delta(e) is always the degree of one of e's
// members, so every edge's alpha is a table load, never a fresh
// evaluation.
//
// params.cpp is the one unit allowed to call libm transcendentals (log,
// pow, exp, trig, ...). Their results may differ in the last ulp across
// libm builds, so keeping them in one audited unit that only derives
// run parameters keeps the solver core's arithmetic to exactly rounded
// operations (+ - * /, sqrt, ldexp). scripts/determinism_lint.py enforces
// this (rule `transcendental`).

#include <cstdint>
#include <span>
#include <vector>

namespace hypercover::core {

/// How the bid multiplier alpha is chosen.
enum class AlphaMode {
  kGlobalDelta,   ///< Theorem 9 formula on the global max degree Delta.
  kLocalPerEdge,  ///< Theorem 9 formula on Delta(e) per edge (default).
  kFixed,         ///< A caller-supplied constant (ablation studies).
};

/// beta = eps/(f + eps). Requires f >= 1 and 0 < eps <= 1.
[[nodiscard]] double beta_for(std::uint32_t f, double eps);

/// z = ceil(log2(1/beta)): the number of levels; every level stays < z
/// (Claim 4). z = O(log(f/eps)).
[[nodiscard]] std::uint32_t level_cap(std::uint32_t f, double eps);

/// The Theorem 9 alpha rule evaluated on degree bound `delta`.
/// Always returns a value >= 2. `gamma` is the paper's constant (0.001 in
/// the stated bound); smaller gamma widens the range where the optimal
/// log D / loglog D term dominates.
[[nodiscard]] double theorem9_alpha(std::uint32_t f, double eps,
                                    std::uint32_t delta, double gamma);

/// theorem9_alpha tabulated by degree: entry d equals
/// theorem9_alpha(f, eps, d, gamma) for every d in `degrees`, evaluated
/// once per distinct value, and entries 0..2 are always 2. Other entries
/// are 0, which is never a valid alpha. Size max(max(degrees), 2) + 1.
[[nodiscard]] std::vector<double> theorem9_alpha_table(
    std::uint32_t f, double eps, double gamma,
    std::span<const std::uint32_t> degrees);

/// Analytic iteration bound of Theorem 8 for the given parameters:
///   #iterations <= C * (log_alpha(Delta * 2^(f z)) + f * z * alpha)
/// evaluated with C = 1 for the e-raise term (Lemma 6 is exact, not
/// asymptotic) and per-level stuck budget alpha (Lemma 7; 2 alpha in the
/// Appendix C variant). Used by tests/benches to compare measured counts
/// against the proof's budget.
struct IterationBudget {
  double raise_budget = 0;  ///< log_alpha(Delta * 2^(f z))  (Lemma 6)
  double stuck_budget = 0;  ///< f * z * alpha               (Lemma 7, per edge)
  [[nodiscard]] double total() const noexcept {
    return raise_budget + stuck_budget;
  }
};

[[nodiscard]] IterationBudget theorem8_budget(std::uint32_t f, double eps,
                                              std::uint32_t delta, double alpha,
                                              bool appendix_c_variant);

/// Resolves a requested worker count (MwhvcOptions::engine.threads, batch
/// APIs): 0 means one worker per hardware thread, anything else passes
/// through. Always returns >= 1. Thread count never affects results — the
/// engine is bit-deterministic at any value — only wall-clock time.
[[nodiscard]] std::uint32_t resolve_thread_count(
    std::uint32_t requested) noexcept;

}  // namespace hypercover::core
