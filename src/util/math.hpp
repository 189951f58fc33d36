#pragma once
// Small integer/real math helpers shared across modules.

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>

namespace hypercover::util {

/// floor(log2(x)) for x >= 1.
[[nodiscard]] constexpr int floor_log2(std::uint64_t x) noexcept {
  assert(x >= 1);
  return 63 - std::countl_zero(x);
}

/// ceil(log2(x)) for x >= 1.
[[nodiscard]] constexpr int ceil_log2(std::uint64_t x) noexcept {
  assert(x >= 1);
  return x == 1 ? 0 : 64 - std::countl_zero(x - 1);
}

/// Number of bits needed to represent x (>= 1 even for x == 0, since a
/// message carrying the value 0 still occupies one bit).
[[nodiscard]] constexpr int bit_width_or_one(std::uint64_t x) noexcept {
  return x == 0 ? 1 : 64 - std::countl_zero(x);
}

/// Integer power with overflow assertion (debug builds).
[[nodiscard]] constexpr std::uint64_t ipow(std::uint64_t base,
                                           unsigned exp) noexcept {
  std::uint64_t r = 1;
  while (exp-- > 0) {
    assert(base == 0 || r <= UINT64_MAX / (base == 0 ? 1 : base));
    r *= base;
  }
  return r;
}

/// One mixing step of the 64-bit sequence hash used for engine
/// transcripts and the public instance/solve digests (util/digest.hpp):
/// folds `v` into the running hash `h`. Order-sensitive by design — a
/// transcript and a graph are both sequences.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t h,
                                            std::uint64_t v) noexcept {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

/// True if |a - b| <= tol * max(1, |a|, |b|).
[[nodiscard]] inline bool approx_equal(double a, double b,
                                       double tol = 1e-9) noexcept {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= tol * scale;
}

}  // namespace hypercover::util
