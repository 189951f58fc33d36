#include "core/params.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "congest/thread_pool.hpp"

namespace hypercover::core {

namespace {

void validate(std::uint32_t f, double eps) {
  if (f < 1) throw std::invalid_argument("mwhvc params: rank f must be >= 1");
  if (!(eps > 0.0) || eps > 1.0) {
    throw std::invalid_argument("mwhvc params: eps must be in (0, 1]");
  }
}

/// log2(f/eps) clamped to >= 1 so products with it never vanish
/// (the paper treats f, eps as constants; f = 1, eps = 1 would make the
/// raw log zero).
double log_f_over_eps(std::uint32_t f, double eps) {
  return std::max(std::log2(static_cast<double>(f) / eps), 1.0);
}

/// log2(log2(x)) clamped to >= 1, with x clamped to >= 4 first: the
/// alpha rule divides by it, and small degrees would make it <= 0.
/// theorem9_alpha only calls it for x >= 3 (assumption (iii)).
double log_log_clamped(double x) {
  const double l = std::log2(std::max(x, 4.0));
  return std::max(std::log2(l), 1.0);
}

}  // namespace

double beta_for(std::uint32_t f, double eps) {
  validate(f, eps);
  return eps / (static_cast<double>(f) + eps);
}

std::uint32_t level_cap(std::uint32_t f, double eps) {
  const double beta = beta_for(f, eps);
  // z = ceil(log2(1/beta)); 1/beta = (f + eps)/eps >= 2 for f >= 1.
  const double raw = std::ceil(std::log2(1.0 / beta));
  return static_cast<std::uint32_t>(std::max(raw, 1.0));
}

double theorem9_alpha(std::uint32_t f, double eps, std::uint32_t delta,
                      double gamma) {
  validate(f, eps);
  if (gamma <= 0.0) throw std::invalid_argument("theorem9_alpha: gamma <= 0");
  if (delta < 3) return 2.0;  // assumption (iii): Delta >= 3 for the formula
  const double log_d = std::log2(static_cast<double>(delta));
  const double loglog_d = log_log_clamped(static_cast<double>(delta));
  const double candidate = log_d / (f * log_f_over_eps(f, eps) * loglog_d);
  if (candidate >= std::pow(log_d, gamma / 2.0)) {
    return std::max(2.0, candidate);
  }
  return 2.0;
}

std::vector<double> theorem9_alpha_table(
    std::uint32_t f, double eps, double gamma,
    std::span<const std::uint32_t> degrees) {
  std::uint32_t max_degree = 2;
  for (const std::uint32_t d : degrees) max_degree = std::max(max_degree, d);
  std::vector<double> table(std::size_t{max_degree} + 1, 0.0);
  for (std::uint32_t d = 0; d < 3; ++d) {
    table[d] = theorem9_alpha(f, eps, d, gamma);
  }
  for (const std::uint32_t d : degrees) {
    if (table[d] == 0.0) table[d] = theorem9_alpha(f, eps, d, gamma);
  }
  return table;
}

IterationBudget theorem8_budget(std::uint32_t f, double eps,
                                std::uint32_t delta, double alpha,
                                bool appendix_c_variant) {
  validate(f, eps);
  if (alpha < 2.0) throw std::invalid_argument("theorem8_budget: alpha < 2");
  const std::uint32_t z = level_cap(f, eps);
  IterationBudget b;
  // Lemma 6: raises <= log_alpha(Delta * 2^(f z)).
  const double log2_arg =
      std::log2(std::max<double>(delta, 1)) + static_cast<double>(f) * z;
  b.raise_budget = log2_arg / std::log2(alpha);
  // Lemma 7 (Lemma 22 for the Appendix C variant): per vertex and level at
  // most alpha (resp. 2 alpha) stuck iterations; an edge waits on at most
  // f vertices x z levels.
  const double per_level = appendix_c_variant ? 2.0 * alpha : alpha;
  b.stuck_budget = static_cast<double>(f) * z * per_level;
  return b;
}

std::uint32_t resolve_thread_count(std::uint32_t requested) noexcept {
  return congest::ThreadPool::resolve(requested);
}

}  // namespace hypercover::core
