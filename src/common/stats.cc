#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/fmath.h"

namespace tasq {

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double StdDev(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  double mean = Mean(values);
  double acc = 0.0;
  for (double v : values) acc += (v - mean) * (v - mean);
  return CheckedSqrt(acc / static_cast<double>(values.size()));
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = static_cast<size_t>(std::ceil(pos));
  double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

std::vector<double> AbsolutePercentErrors(const std::vector<double>& predicted,
                                          const std::vector<double>& actual) {
  std::vector<double> errors;
  size_t n = std::min(predicted.size(), actual.size());
  errors.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    // num: float-eq exact zero is the one undefined denominator
    if (actual[i] == 0.0) continue;
    errors.push_back(std::fabs(predicted[i] - actual[i]) /
                     std::fabs(actual[i]) * 100.0);
  }
  return errors;
}

double MedianAbsolutePercentError(const std::vector<double>& predicted,
                                  const std::vector<double>& actual) {
  return Median(AbsolutePercentErrors(predicted, actual));
}

double MeanAbsolutePercentError(const std::vector<double>& predicted,
                                const std::vector<double>& actual) {
  return Mean(AbsolutePercentErrors(predicted, actual));
}

double EmpiricalCdf(const std::vector<double>& values, double x) {
  if (values.empty()) return 0.0;
  size_t count = 0;
  for (double v : values) {
    if (v <= x) ++count;
  }
  return static_cast<double>(count) / static_cast<double>(values.size());
}

double KsStatistic(std::vector<double> a, std::vector<double> b) {
  if (a.empty() || b.empty()) return 1.0;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  size_t ia = 0;
  size_t ib = 0;
  double d = 0.0;
  double na = static_cast<double>(a.size());
  double nb = static_cast<double>(b.size());
  while (ia < a.size() && ib < b.size()) {
    double x = std::min(a[ia], b[ib]);
    while (ia < a.size() && a[ia] <= x) ++ia;
    while (ib < b.size() && b[ib] <= x) ++ib;
    double fa = static_cast<double>(ia) / na;
    double fb = static_cast<double>(ib) / nb;
    d = std::max(d, std::fabs(fa - fb));
  }
  return d;
}

LineFit FitLine(const std::vector<double>& x, const std::vector<double>& y) {
  LineFit fit;
  if (x.size() < 2 || x.size() != y.size()) return fit;
  double mx = Mean(x);
  double my = Mean(y);
  double sxx = 0.0;
  double sxy = 0.0;
  double syy = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    sxx += (x[i] - mx) * (x[i] - mx);
    sxy += (x[i] - mx) * (y[i] - my);
    syy += (y[i] - my) * (y[i] - my);
  }
  // num: float-eq a degenerate (constant-x) design is exactly sxx == 0
  if (sxx == 0.0) return fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  // R^2 = 1 - SS_res / SS_tot; a constant target (syy == 0) is perfectly
  // fitted by the horizontal line.
  // num: float-eq constant target: R^2 of the horizontal line is 1
  if (syy == 0.0) {
    fit.r2 = 1.0;
  } else {
    double ss_res = 0.0;
    for (size_t i = 0; i < x.size(); ++i) {
      double r = y[i] - (fit.intercept + fit.slope * x[i]);
      ss_res += r * r;
    }
    fit.r2 = 1.0 - ss_res / syy;
  }
  fit.ok = true;
  return fit;
}

}  // namespace tasq
