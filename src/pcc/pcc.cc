#include "pcc/pcc.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/fmath.h"
#include "common/stats.h"

namespace tasq {
namespace {

// Solves the dense system `a * x = rhs` in place by Gaussian elimination
// with partial pivoting. `a` is row-major n x n. Returns false when the
// matrix is (numerically) singular.
bool SolveDense(std::vector<double>& a, std::vector<double>& rhs, size_t n) {
  for (size_t col = 0; col < n; ++col) {
    size_t pivot = col;
    for (size_t r = col + 1; r < n; ++r) {
      if (std::fabs(a[r * n + col]) > std::fabs(a[pivot * n + col])) pivot = r;
    }
    if (std::fabs(a[pivot * n + col]) < 1e-12) return false;
    if (pivot != col) {
      for (size_t c = 0; c < n; ++c) std::swap(a[col * n + c], a[pivot * n + c]);
      std::swap(rhs[col], rhs[pivot]);
    }
    for (size_t r = col + 1; r < n; ++r) {
      double factor = a[r * n + col] / a[col * n + col];
      // num: float-eq exact-zero factor: skipping is a pure optimization
      if (factor == 0.0) continue;
      for (size_t c = col; c < n; ++c) a[r * n + c] -= factor * a[col * n + c];
      rhs[r] -= factor * rhs[col];
    }
  }
  for (size_t row = n; row > 0; --row) {
    size_t r = row - 1;
    double acc = rhs[r];
    for (size_t c = r + 1; c < n; ++c) acc -= a[r * n + c] * rhs[c];
    rhs[r] = acc / a[r * n + r];
  }
  return true;
}

void SortByTokens(std::vector<PccSample>& samples) {
  std::sort(samples.begin(), samples.end(),
            [](const PccSample& lhs, const PccSample& rhs) {
              return lhs.tokens < rhs.tokens;
            });
}

}  // namespace

double PowerLawPcc::EvalRunTime(double tokens) const {
  // Fitted curves carry finite a and positive b (FitPowerLaw rejects
  // anything else), so a NaN here means the caller fed a negative token
  // count or a hand-built degenerate curve.
  return b * CheckedPow(tokens, a);
}

bool PowerLawPcc::IsMonotoneNonIncreasing() const {
  // num: float-eq the exactly-flat curve is the monotone edge case
  if (a == 0.0) return true;
  return (a < 0.0) != (b < 0.0);
}

double PowerLawPcc::MinTokensForSlowdown(
    double reference_tokens, double max_slowdown_fraction) const {
  if (reference_tokens < 1.0) reference_tokens = 1.0;
  if (!IsMonotoneNonIncreasing() || max_slowdown_fraction < 0.0) {
    return reference_tokens;
  }
  // num: float-eq only the exactly-flat curve short-circuits
  if (a == 0.0) return 1.0;  // Flat curve: any allocation performs alike.
  double min_tokens =
      reference_tokens * CheckedPow(1.0 + max_slowdown_fraction, 1.0 / a);
  min_tokens = std::clamp(min_tokens, 1.0, reference_tokens);
  // The paper's core guarantee (§"PCC modeling"): on a monotone
  // non-increasing curve with a positive scale, shrinking to min_tokens
  // slows the job by at most the requested fraction relative to the
  // reference allocation. (b <= 0 models degenerate negative "runtimes";
  // the bound is meaningless there.)
  if (b > 0.0) {
    TASQ_DCHECK_LE(EvalRunTime(min_tokens),
                   EvalRunTime(reference_tokens) *
                       (1.0 + max_slowdown_fraction) * (1.0 + 1e-9));
  }
  return min_tokens;
}

double PowerLawPcc::OptimalTokens(double min_improvement_percent,
                                  double max_tokens) const {
  if (max_tokens < 1.0) max_tokens = 1.0;
  if (!IsMonotoneNonIncreasing() || min_improvement_percent <= 0.0) {
    return max_tokens;
  }
  // d(runtime)/dA / runtime = a / A, so the marginal improvement per token
  // drops below p% at A* = |a| * 100 / p.
  double optimal = std::fabs(a) * 100.0 / min_improvement_percent;
  optimal = std::clamp(optimal, 1.0, max_tokens);
  // An allocation outside [1, max_tokens] can never be handed to the
  // scheduler; the clamp above is the last line of defense.
  TASQ_DCHECK_GE(optimal, 1.0);
  TASQ_DCHECK_LE(optimal, max_tokens);
  return optimal;
}

Result<PowerLawFit> FitPowerLaw(const std::vector<PccSample>& samples) {
  std::vector<double> log_tokens;
  std::vector<double> log_runtime;
  log_tokens.reserve(samples.size());
  log_runtime.reserve(samples.size());
  for (const PccSample& s : samples) {
    // isfinite runs first: an ordered comparison on NaN raises
    // FE_INVALID, which the TASQ_FPE harness turns into a trap, and a
    // non-finite sample reaching std::log would poison the whole fit.
    if (!std::isfinite(s.tokens) || !std::isfinite(s.runtime_seconds) ||
        s.tokens <= 0.0 || s.runtime_seconds <= 0.0) {
      continue;
    }
    log_tokens.push_back(CheckedLog(s.tokens));
    log_runtime.push_back(CheckedLog(s.runtime_seconds));
  }
  if (log_tokens.size() < 2) {
    return Status::InvalidArgument(
        "power-law fit needs at least two samples with positive, finite "
        "tokens and run time");
  }
  LineFit line = FitLine(log_tokens, log_runtime);
  if (!line.ok) {
    return Status::InvalidArgument(
        "power-law fit needs at least two distinct token values");
  }
  // A usable fit needs a finite exponent and a positive finite scale.
  // Extreme-but-finite samples (runtimes near DBL_MAX or denormal) can
  // push the intercept past exp's range, so these are typed errors on
  // the data, not internal invariants.
  if (!std::isfinite(line.slope) || !std::isfinite(line.intercept)) {
    return Status::OutOfRange("power-law fit diverged in log space");
  }
  Result<double> scale = SafeExp(line.intercept);
  if (!scale.ok() || scale.value() <= 0.0) {
    return Status::OutOfRange(
        "power-law scale exp(intercept) is not a positive finite value");
  }
  PowerLawFit fit;
  fit.pcc.a = line.slope;
  fit.pcc.b = scale.value();
  fit.log_log_r2 = line.r2;
  return fit;
}

bool IsCurveMonotoneNonIncreasing(std::vector<PccSample> samples,
                                  double tolerance_percent) {
  SortByTokens(samples);
  for (size_t i = 1; i < samples.size(); ++i) {
    if (samples[i].tokens == samples[i - 1].tokens) continue;
    double allowed =
        samples[i - 1].runtime_seconds * (1.0 + tolerance_percent / 100.0);
    if (samples[i].runtime_seconds > allowed + 1e-12) return false;
  }
  return true;
}

Result<double> OptimalTokensFromSamples(const std::vector<PccSample>& samples,
                                        double min_improvement_percent) {
  if (min_improvement_percent <= 0.0) {
    return Status::InvalidArgument("improvement threshold must be positive");
  }
  std::vector<PccSample> valid;
  valid.reserve(samples.size());
  for (const PccSample& s : samples) {
    // isfinite first — see FitPowerLaw; the walk below compares runtimes
    // and a NaN would both trap under TASQ_FPE and corrupt the answer.
    if (std::isfinite(s.tokens) && std::isfinite(s.runtime_seconds) &&
        s.tokens > 0.0 && s.runtime_seconds > 0.0) {
      valid.push_back(s);
    }
  }
  if (valid.size() < 2) {
    return Status::InvalidArgument(
        "optimal-token search needs at least two positive samples");
  }
  SortByTokens(valid);
  size_t i = valid.size() - 1;
  while (i > 0) {
    const PccSample& here = valid[i];
    const PccSample& lower = valid[i - 1];
    double delta_tokens = here.tokens - lower.tokens;
    if (delta_tokens <= 0.0) {  // Duplicate token value; skip.
      --i;
      continue;
    }
    double delta_runtime = lower.runtime_seconds - here.runtime_seconds;
    if (delta_runtime < 0.0) break;  // Non-monotone segment: stop here.
    double relative_cost_per_token =
        delta_runtime / here.runtime_seconds / delta_tokens;
    if (relative_cost_per_token >= min_improvement_percent / 100.0) {
      // Below this point each surrendered token costs too much run time.
      break;
    }
    --i;
  }
  // The walk only ever lands on one of the filtered samples, all of which
  // carry positive token counts.
  TASQ_DCHECK_GT(valid[i].tokens, 0.0);
  return valid[i].tokens;
}

Result<double> FindElbowTokens(std::vector<PccSample> samples) {
  SortByTokens(samples);
  if (samples.size() < 3) {
    return Status::InvalidArgument("elbow detection needs at least 3 samples");
  }
  double x0 = samples.front().tokens;
  double x1 = samples.back().tokens;
  double y0 = samples.front().runtime_seconds;
  double y1 = samples.back().runtime_seconds;
  double x_range = x1 - x0;
  double y_range = std::fabs(y1 - y0);
  if (x_range <= 0.0 || y_range <= 0.0) {
    return Status::InvalidArgument(
        "elbow detection needs a nonzero token and runtime range");
  }
  double best_distance = 0.0;
  double best_tokens = samples.front().tokens;
  for (const PccSample& s : samples) {
    double xn = (s.tokens - x0) / x_range;
    double yn = (s.runtime_seconds - y0) / (y1 - y0);
    // Chord in normalized space runs from (0,0) to (1,1). A convex
    // decreasing curve drops steeply first, so its normalized points rise
    // above the chord; the elbow is the point of maximum excess.
    double distance = yn - xn;
    if (distance > best_distance) {
      best_distance = distance;
      best_tokens = s.tokens;
    }
  }
  if (best_distance <= 0.0) {
    return Status::OutOfRange("curve has no elbow (not convex decreasing)");
  }
  // The elbow is one of the input samples, so it lies inside the scanned
  // token range by construction.
  TASQ_DCHECK_GE(best_tokens, x0);
  TASQ_DCHECK_LE(best_tokens, x1);
  return best_tokens;
}

Result<SmoothingSpline> SmoothingSpline::Fit(const std::vector<double>& x,
                                             const std::vector<double>& y,
                                             double lambda) {
  size_t n = x.size();
  if (n < 3 || y.size() != n) {
    return Status::InvalidArgument(
        "smoothing spline needs >= 3 points and matching x/y sizes");
  }
  if (lambda < 0.0) {
    return Status::InvalidArgument("lambda must be non-negative");
  }
  for (size_t i = 1; i < n; ++i) {
    if (x[i] <= x[i - 1]) {
      return Status::InvalidArgument("x values must be strictly increasing");
    }
  }
  std::vector<double> h(n - 1);
  for (size_t i = 0; i + 1 < n; ++i) h[i] = x[i + 1] - x[i];

  size_t m = n - 2;  // Number of interior knots.
  // Q is n x m: column j couples interior knot j+1 to its neighbors.
  auto q_entry = [&](size_t row, size_t col) -> double {
    if (row == col) return 1.0 / h[col];
    if (row == col + 1) return -1.0 / h[col] - 1.0 / h[col + 1];
    if (row == col + 2) return 1.0 / h[col + 1];
    return 0.0;
  };
  // System matrix M = R + lambda * Q^T Q (m x m, dense for simplicity —
  // PCC grids are tens of points).
  std::vector<double> mat(m * m, 0.0);
  for (size_t j = 0; j < m; ++j) {
    mat[j * m + j] += (h[j] + h[j + 1]) / 3.0;
    if (j + 1 < m) {
      mat[j * m + (j + 1)] += h[j + 1] / 6.0;
      mat[(j + 1) * m + j] += h[j + 1] / 6.0;
    }
  }
  for (size_t j = 0; j < m; ++j) {
    for (size_t k = j; k < m && k <= j + 2; ++k) {
      double dot = 0.0;
      // Columns j and k of Q overlap only on rows [max start, min end].
      size_t lo = std::max(j, k);
      size_t hi = std::min(j + 2, k + 2);
      for (size_t row = lo; row <= hi; ++row) {
        dot += q_entry(row, j) * q_entry(row, k);
      }
      mat[j * m + k] += lambda * dot;
      if (k != j) mat[k * m + j] += lambda * dot;
    }
  }
  std::vector<double> rhs(m, 0.0);
  for (size_t j = 0; j < m; ++j) {
    rhs[j] = q_entry(j, j) * y[j] + q_entry(j + 1, j) * y[j + 1] +
             q_entry(j + 2, j) * y[j + 2];
  }
  if (!SolveDense(mat, rhs, m)) {
    return Status::Internal("smoothing spline system is singular");
  }
  // Fitted values f = y - lambda * Q * gamma_interior.
  std::vector<double> f = y;
  for (size_t j = 0; j < m; ++j) {
    f[j] -= lambda * q_entry(j, j) * rhs[j];
    f[j + 1] -= lambda * q_entry(j + 1, j) * rhs[j];
    f[j + 2] -= lambda * q_entry(j + 2, j) * rhs[j];
  }
  std::vector<double> gamma(n, 0.0);
  for (size_t j = 0; j < m; ++j) gamma[j + 1] = rhs[j];
  // Eval() indexes f_ and gamma_ by knot position; a size mismatch with x_
  // would be silent memory corruption there, not a wrong answer.
  TASQ_CHECK_EQ(f.size(), n);
  TASQ_CHECK_EQ(gamma.size(), n);
  return SmoothingSpline(x, std::move(f), std::move(gamma));
}

double SmoothingSpline::Eval(double x) const {
  size_t n = x_.size();
  if (x <= x_.front()) {
    double h = x_[1] - x_[0];
    double slope = (f_[1] - f_[0]) / h - h * gamma_[1] / 6.0;
    return f_.front() + slope * (x - x_.front());
  }
  if (x >= x_.back()) {
    double h = x_[n - 1] - x_[n - 2];
    double slope = (f_[n - 1] - f_[n - 2]) / h + h * gamma_[n - 2] / 6.0;
    return f_.back() + slope * (x - x_.back());
  }
  size_t hi = static_cast<size_t>(
      std::upper_bound(x_.begin(), x_.end(), x) - x_.begin());
  size_t lo = hi - 1;
  double h = x_[hi] - x_[lo];
  double a = (x_[hi] - x) / h;
  double b = (x - x_[lo]) / h;
  return a * f_[lo] + b * f_[hi] +
         ((a * a * a - a) * gamma_[lo] + (b * b * b - b) * gamma_[hi]) * h *
             h / 6.0;
}

}  // namespace tasq
