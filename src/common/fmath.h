#ifndef TASQ_COMMON_FMATH_H_
#define TASQ_COMMON_FMATH_H_

#include <cmath>
#include <limits>
#include <string>

#include "common/check.h"
#include "common/status.h"

/// Checked transcendental math for TASQ's log-log pipeline.
///
/// The PCC power law `runtime = b * A^a` is fitted in log space and the
/// NN/GNN losses exponentiate predicted parameters, so a single log(0),
/// exp overflow, or NaN gradient silently poisons the fit and every
/// allocation decision downstream. This header is the one place raw
/// `std::log/exp/pow/sqrt` may appear in src/ (enforced by
/// scripts/tasq_check.py num, rule raw-transcendental); everything else calls
/// through one of three tiers:
///
///   - `Safe*` returning `Result<double>`: for API paths where a domain
///     violation is data-dependent and the caller must handle it. These
///     functions validate the domain BEFORE evaluating, so they never
///     raise a floating-point exception themselves — they stay silent
///     even when the TASQ_FPE harness has hardware traps enabled.
///   - `Checked*` returning double: for hot loops whose domain is locally
///     guaranteed. They TASQ_DCHECK the contract (live in sanitizer
///     builds), and under TASQ_FPE a violated contract traps at the raw
///     call in release too.
///   - `Clamped*`/`Stable*` total functions: mathematically total
///     reformulations (stable sigmoid/softplus, exp clamped to the finite
///     range) for code that must accept any finite input.
///
/// NaN discipline: ordered comparisons (`<`, `<=`, ...) on NaN raise
/// FE_INVALID, which the TASQ_FPE test harness turns into a trap. Guards
/// in this header therefore test `std::isfinite`/`std::isnan` (quiet)
/// before any ordered comparison, and deployed call sites must do the
/// same when their inputs may be NaN.

namespace tasq {

/// Largest x with exp(x) finite: log(DBL_MAX) rounded down.
inline constexpr double kMaxExpArg = 709.78271289338396;

/// Returns `x` when it is finite, `fallback` otherwise. The quiet clamp
/// for contexts that cannot fail (hashing, display, scaling fallbacks).
inline double FiniteOr(double x, double fallback) {
  return std::isfinite(x) ? x : fallback;
}

/// log(x) for finite x > 0; typed error otherwise. Never raises an FP
/// exception: the domain is rejected before std::log runs.
TASQ_NODISCARD inline Result<double> SafeLog(double x) {
  if (!std::isfinite(x) || x <= 0.0) {
    return Status::OutOfRange("SafeLog: x must be finite and positive, got " +
                              std::to_string(x));
  }
  return std::log(x);
}

/// exp(x) for finite x that does not overflow; typed error otherwise.
/// Underflow to +0 is well-defined and allowed.
TASQ_NODISCARD inline Result<double> SafeExp(double x) {
  if (!std::isfinite(x) || x > kMaxExpArg) {
    return Status::OutOfRange("SafeExp: exp(" + std::to_string(x) +
                              ") is not finite");
  }
  return std::exp(x);
}

/// num / den with the IEEE hazards rejected up front: non-finite operands,
/// den == 0, and quotients that would overflow to infinity.
TASQ_NODISCARD inline Result<double> SafeDiv(double num, double den) {
  if (!std::isfinite(num) || !std::isfinite(den)) {
    return Status::OutOfRange("SafeDiv: operands must be finite");
  }
  if (den == 0.0) {  // num: float-eq exact IEEE zero is the singular divisor
    return Status::OutOfRange("SafeDiv: division by zero");
  }
  // |den| >= 1 cannot overflow (|num| <= DBL_MAX). For |den| < 1 the
  // product below stays finite, so the overflow test itself cannot trap.
  if (std::fabs(den) < 1.0 &&
      std::fabs(num) >= std::fabs(den) * std::numeric_limits<double>::max()) {
    return Status::OutOfRange("SafeDiv: quotient overflows");
  }
  return num / den;
}

/// pow(base, exponent) with every NaN/overflow route rejected up front:
/// non-finite operands, 0 to a negative power, a negative base with a
/// non-integer exponent, and results beyond DBL_MAX. Magnitudes that
/// underflow toward 0 are well-defined and allowed.
TASQ_NODISCARD inline Result<double> SafePow(double base, double exponent) {
  if (!std::isfinite(base) || !std::isfinite(exponent)) {
    return Status::OutOfRange("SafePow: operands must be finite");
  }
  if (base == 0.0) {  // num: float-eq pow's domain splits at exact zero
    if (exponent > 0.0) return 0.0;
    if (exponent == 0.0) return 1.0;  // num: float-eq IEEE pow(0,0) == 1
    return Status::OutOfRange("SafePow: 0 raised to a negative power");
  }
  if (base < 0.0 && exponent != std::nearbyint(exponent)) {
    return Status::OutOfRange(
        "SafePow: negative base needs an integer exponent");
  }
  // |result| = exp(exponent * log|base|); test the magnitude in log space
  // without forming a product that could itself overflow. log|base| is
  // never subnormal (the smallest nonzero |log| is ~1.1e-16 at 1 +/- ulp),
  // so the division below stays finite.
  double log_base = std::log(std::fabs(base));
  if (log_base != 0.0) {  // num: float-eq |base| == 1 has magnitude 1 always
    bool grows = (log_base > 0.0) == (exponent > 0.0);
    if (grows && std::fabs(exponent) > kMaxExpArg / std::fabs(log_base)) {
      return Status::OutOfRange("SafePow: result overflows");
    }
  }
  return std::pow(base, exponent);
}

/// log(x) for call sites that locally guarantee finite x > 0 (e.g. behind
/// a std::max floor on validated data). The contract is DCHECKed; under
/// TASQ_FPE a violation traps at the raw call in release builds too.
inline double CheckedLog(double x) {
  TASQ_DCHECK(std::isfinite(x));
  TASQ_DCHECK_GT(x, 0.0);
  return std::log(x);
}

/// log1p(x) for call sites that locally guarantee finite x > -1 — in this
/// repo always log1p(max(0, count)) feature transforms, where the floor
/// makes the domain trivially safe.
inline double CheckedLog1p(double x) {
  TASQ_DCHECK(std::isfinite(x));
  TASQ_DCHECK_GT(x, -1.0);
  return std::log1p(x);
}

/// sqrt(x) for call sites that locally guarantee x >= 0 (sums of squares,
/// degrees with self-loops). +infinity is tolerated (sqrt(inf) = inf,
/// raises nothing); NaN and negatives are contract violations.
inline double CheckedSqrt(double x) {
  TASQ_DCHECK(!std::isnan(x));
  TASQ_DCHECK_GE(x, 0.0);
  return std::sqrt(x);
}

/// pow for call sites whose inputs cannot produce NaN (positive base, or
/// integer exponent). Overflow to +/-infinity is tolerated here — the
/// TASQ_FPE harness still traps it — but a NaN result (domain error) is a
/// contract violation.
inline double CheckedPow(double base, double exponent) {
  double result = std::pow(base, exponent);
  TASQ_DCHECK(!std::isnan(result));
  return result;
}

/// exp(x) clamped to the finite range: arguments above log(DBL_MAX) return
/// DBL_MAX instead of overflowing to +infinity (and trapping under
/// TASQ_FPE). Underflow to +0 is left alone. NaN propagates quietly and is
/// a DCHECKed contract violation.
inline double ClampedExp(double x) {
  TASQ_DCHECK(!std::isnan(x));
  if (std::isnan(x)) return x;
  if (x > kMaxExpArg) return std::numeric_limits<double>::max();
  return std::exp(x);
}

/// 1 / (1 + exp(-x)) evaluated so exp never sees a positive argument:
/// total over all finite x, trap-free under TASQ_FPE for any magnitude.
inline double StableSigmoid(double x) {
  TASQ_DCHECK(!std::isnan(x));
  if (std::isnan(x)) return x;
  if (x >= 0.0) {
    double e = std::exp(-x);
    return 1.0 / (1.0 + e);
  }
  double e = std::exp(x);
  return e / (1.0 + e);
}

/// log(1 + exp(x)) via the overflow-free max(x, 0) + log1p(exp(-|x|))
/// form; its derivative is StableSigmoid.
inline double StableSoftplus(double x) {
  TASQ_DCHECK(!std::isnan(x));
  if (std::isnan(x)) return x;
  return (x > 0.0 ? x : 0.0) + std::log1p(std::exp(-std::fabs(x)));
}

}  // namespace tasq

#endif  // TASQ_COMMON_FMATH_H_
