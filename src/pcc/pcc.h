#ifndef TASQ_PCC_PCC_H_
#define TASQ_PCC_PCC_H_

#include <vector>

#include "common/status.h"

namespace tasq {

/// Largest token count a scoring request may name (its reference; for
/// XGBoost, any count it scores). Scoring multiplies the count before it
/// compares anything: the what-if grid forms (reference - lo) * i, up to
/// 0.8 * reference * 1,023 at the largest grid, and XGBoost's window forms
/// reference * (1 + window_fraction). The first overflows to inf past
/// about 2.2e305 (an FE_OVERFLOW trap under TASQ_FPE, an `ok` report with
/// inf tokens without it). At 1e9 both products stay below 1e13, while
/// the bound sits far above any real allocation: the generator's largest
/// reference over seeds 1-8 x 5,000 jobs is 2,375 tokens.
inline constexpr double kMaxReferenceTokens = 1e9;

/// One point of a performance characteristic curve: run time at a token
/// allocation.
struct PccSample {
  double tokens = 0.0;
  double runtime_seconds = 0.0;
};

/// A power-law performance characteristic curve (paper §4.1, Eq. 2):
///
///   runtime(A) = b * A^a
///
/// where `A` is the token allocation. Amdahl's law is the special case
/// a = -1. The curve is monotone non-increasing in A exactly when the signs
/// of `a` and `b` are inconsistent (for a physically meaningful curve,
/// b > 0 and a <= 0).
struct PowerLawPcc {
  /// Exponent of the power law.
  double a = 0.0;
  /// Scale of the power law (runtime at A = 1).
  double b = 0.0;

  /// Run time at `tokens` (point prediction). Requires tokens > 0.
  double EvalRunTime(double tokens) const;

  /// True when run time does not increase with tokens: a and b have
  /// inconsistent signs (or a == 0, a flat curve).
  bool IsMonotoneNonIncreasing() const;

  /// The smallest allocation whose run time stays within
  /// `max_slowdown_fraction` of the run time at `reference_tokens`
  /// (the user-specified performance constraint of §2.1). For the power
  /// law runtime(A)/runtime(ref) = (A/ref)^a, so the bound is
  /// A >= ref * (1 + s)^(1/a). Returns reference_tokens for a
  /// non-monotone curve or non-positive arguments; a == 0 (flat curve)
  /// allows any allocation down to 1 token.
  double MinTokensForSlowdown(double reference_tokens,
                              double max_slowdown_fraction) const;

  /// The optimal token count under a diminishing-returns threshold: the
  /// allocation at which adding one token improves run time by less than
  /// `min_improvement_percent` percent (paper §2.1 / §4.4, f'(A)/f(A) = p%).
  /// For the power law the relative slope is a/A, so the threshold point is
  /// A* = |a| * 100 / p, clamped to [1, max_tokens]. Requires a monotone
  /// non-increasing curve and positive arguments; otherwise returns
  /// max_tokens (no safe saving opportunity).
  double OptimalTokens(double min_improvement_percent,
                       double max_tokens) const;
};

/// Result of fitting a power law to PCC samples in log-log space.
struct PowerLawFit {
  PowerLawPcc pcc;
  /// R^2 of the straight-line fit in log-log space (Figure 9 bottom).
  double log_log_r2 = 0.0;
};

/// Fits `runtime = b * A^a` by ordinary least squares on
/// log(runtime) = log(b) + a*log(A) (paper §4.1, Figure 9). Requires at
/// least two samples with strictly positive tokens and run time and at
/// least two distinct token values.
TASQ_NODISCARD Result<PowerLawFit> FitPowerLaw(const std::vector<PccSample>& samples);

/// True when the sampled curve (sorted by tokens internally) never increases
/// by more than `tolerance_percent` of the preceding value as tokens grow —
/// the paper's "Pattern (Non-Increase)" metric, with the §5.1 10% tolerance
/// available for noisy ground truth.
bool IsCurveMonotoneNonIncreasing(std::vector<PccSample> samples,
                                  double tolerance_percent = 0.0);

/// Numeric counterpart of PowerLawPcc::OptimalTokens for *sampled* curves
/// (e.g., the XGBoost-SS spline): walking down from the largest sampled
/// token count, returns the smallest allocation at which giving up the
/// next step's tokens would still cost less than `min_improvement_percent`
/// of run time per token — the paper's gradient-descent-with-termination
/// formulation (§2.1) applied to a discrete curve. Requires >= 2 samples
/// with positive tokens; non-monotone segments terminate the walk (beyond
/// them the curve is not a trustworthy trade-off).
TASQ_NODISCARD Result<double> OptimalTokensFromSamples(const std::vector<PccSample>& samples,
                                        double min_improvement_percent);

/// Finds the elbow of a sampled PCC (Figure 3's red marker): the sample
/// with maximum distance below the chord from the first to the last sample
/// after normalizing both axes to [0,1]. Requires >= 3 samples spanning a
/// nonzero token and runtime range.
TASQ_NODISCARD Result<double> FindElbowTokens(std::vector<PccSample> samples);

/// A natural cubic smoothing spline (Reinsch/Green-Silverman formulation)
/// used to build the XGBoost-SS curve from point predictions: minimizes
/// sum_i (y_i - f(x_i))^2 + lambda * integral f''(t)^2 dt over natural
/// cubic splines with knots at the x_i.
///
/// lambda = 0 interpolates the points; larger lambda approaches the least-
/// squares straight line. Evaluation outside [x_front, x_back] extrapolates
/// linearly (a natural spline has zero second derivative at the ends).
class SmoothingSpline {
 public:
  /// Fits the spline. Requires >= 3 strictly increasing x values and
  /// lambda >= 0.
  TASQ_NODISCARD static Result<SmoothingSpline> Fit(const std::vector<double>& x,
                                     const std::vector<double>& y,
                                     double lambda);

  /// Evaluates the fitted spline at `x`.
  double Eval(double x) const;

  /// The knots: the fitted x values.
  const std::vector<double>& knots() const { return x_; }

 private:
  SmoothingSpline(std::vector<double> x, std::vector<double> f,
                  std::vector<double> gamma)
      : x_(std::move(x)), f_(std::move(f)), gamma_(std::move(gamma)) {}

  std::vector<double> x_;
  /// Smoothed values at the knots.
  std::vector<double> f_;
  /// Second derivatives at all knots (natural: first and last are zero).
  std::vector<double> gamma_;
};

}  // namespace tasq

#endif  // TASQ_PCC_PCC_H_
