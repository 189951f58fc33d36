#pragma once
// Independent output checker for the solve-path benchmark.
//
// Re-derives every property of an answer from the raw instance with its
// own loops: it never calls verify::certify and never trusts a field the
// solver reported. The checks run off the clock, between or after the
// timed calls.

#include <cstdint>
#include <string>
#include <vector>

#include "hypergraph/hypergraph.hpp"

namespace solvebench {

/// The parts of an answer the checker reads (a Solution or a WireResult).
struct AnswerView {
  const std::vector<bool>* in_cover = nullptr;
  const std::vector<double>* duals = nullptr;
  std::int64_t reported_weight = 0;
  std::uint64_t transcript_hash = 0;
};

/// What the checker knows about an instance besides its graph.
struct InstanceFacts {
  /// Largest edge size, counted from the edge lists.
  std::uint32_t rank = 0;
  /// Planted optimum weight (0 when the optimum is unknown).
  std::int64_t planted_opt = 0;
};

/// Counts the rank of `g` from its edge lists.
[[nodiscard]] InstanceFacts facts_of(const hypercover::hg::Hypergraph& g,
                                     std::int64_t planted_opt = 0);

/// Checks one answer: every edge covered, duals >= 0 and packing-feasible
/// to 1e-9 relative, w(C) equal to the reported weight and at most
/// (rank + eps) * sum(duals), and on planted instances at most
/// (rank + eps) * OPT. Returns "" when the answer passes, else the first
/// violation.
[[nodiscard]] std::string check_answer(const hypercover::hg::Hypergraph& g,
                                       const InstanceFacts& facts, double eps,
                                       const AnswerView& answer);

/// 64-bit fingerprint of (cover, dual bit patterns, transcript hash), so
/// two answers compare bit for bit without keeping both.
[[nodiscard]] std::uint64_t answer_hash(const AnswerView& answer);

/// Feeds the checker corrupted answers to a small solved instance (one
/// uncovered edge, one over-packed vertex, one flipped dual bit) and
/// returns "" only if the clean answer passes and every corruption is
/// rejected.
[[nodiscard]] std::string checker_self_test();

}  // namespace solvebench
