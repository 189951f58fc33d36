// Known-bad corpus: libm transcendentals in the solver core.
// LINT-AS-PATH: src/core/bad_transcendental.cpp
// Linted as if it lived in src/core, where only the audited unit
// src/core/params.cpp may call them. sqrt and ldexp are exact or
// correctly rounded and stay allowed; member calls, longer identifiers,
// comments and string literals are inert. This file is lint input, not
// part of the build.
#include <cmath>

double bad_calls(double x, double y) {
  double s = std::log(x);                    // LINT-EXPECT: transcendental
  s += log2(x);                              // LINT-EXPECT: transcendental
  s += std::pow(x, 0.5);                     // LINT-EXPECT: transcendental
  s += exp(y);                               // LINT-EXPECT: transcendental
  s += std::expm1 (y);                       // LINT-EXPECT: transcendental
  s += std::sin(x) ;                         // LINT-EXPECT: transcendental
  s += atan2(y, x);                          // LINT-EXPECT: transcendental
  s += std::tanh(y);                         // LINT-EXPECT: transcendental
  s += std::cbrt(x);                         // LINT-EXPECT: transcendental
  s += std::hypot(x, y);                     // LINT-EXPECT: transcendental
  s += powf(static_cast<float>(x), 2.0f);    // LINT-EXPECT: transcendental
  return s;
}

// Declaring a function with a libm name fires too: the solver core
// should not shadow those names.
struct Logger {
  void log(const char* what);                // LINT-EXPECT: transcendental
};

double allowed(double x, Logger& logger, Logger* sink) {
  // A comment naming std::log2(x) or pow(x, y) is not a finding.
  const char* doc = "alpha = log(D) / loglog(D)";
  logger.log(doc);
  sink->log(doc);
  double r = std::sqrt(x) + std::ldexp(x, -3) + std::fabs(x);
  r += std::ceil(x) + std::floor(x);
  return r;
}

// [[hypercover::nondet_ok: audited: a display-only figure that never
//    reaches a transcript, a dual or a digest.]]
double audited(double x) { return std::log10(x); }
