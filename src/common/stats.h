#ifndef TASQ_COMMON_STATS_H_
#define TASQ_COMMON_STATS_H_

#include <cstddef>
#include <vector>

namespace tasq {

/// Descriptive statistics and error metrics used by the evaluation harness.
/// All functions take values by const reference and are pure; functions that
/// need sorted input sort a local copy.

/// Arithmetic mean; returns 0 for an empty vector.
double Mean(const std::vector<double>& values);

/// Population standard deviation; returns 0 for fewer than two values.
double StdDev(const std::vector<double>& values);

/// Linear-interpolated quantile, q in [0,1]; returns 0 for an empty vector.
double Quantile(std::vector<double> values, double q);

/// Median (Quantile at 0.5).
double Median(std::vector<double> values);

/// Absolute percentage errors |pred - actual| / |actual| * 100 per element.
/// Elements with actual == 0 are skipped.
std::vector<double> AbsolutePercentErrors(const std::vector<double>& predicted,
                                          const std::vector<double>& actual);

/// Median of AbsolutePercentErrors — the paper's "Median AE (Run Time)".
double MedianAbsolutePercentError(const std::vector<double>& predicted,
                                  const std::vector<double>& actual);

/// Mean of AbsolutePercentErrors — the paper's "MeanAPE".
double MeanAbsolutePercentError(const std::vector<double>& predicted,
                                const std::vector<double>& actual);

/// One point of an empirical CDF: fraction of `values` that are <= x.
double EmpiricalCdf(const std::vector<double>& values, double x);

/// Two-sample Kolmogorov-Smirnov statistic: the maximum vertical distance
/// between the empirical CDFs of `a` and `b`. Returns 1.0 if either sample
/// is empty (maximal mismatch), matching the use in job-subset selection
/// where an empty sample can never represent the population.
double KsStatistic(std::vector<double> a, std::vector<double> b);

/// Ordinary least squares line fit y = intercept + slope * x.
/// Requires at least two points with distinct x; `ok` is set accordingly.
struct LineFit {
  double slope = 0.0;
  double intercept = 0.0;
  /// Coefficient of determination of the fit (1 = perfect).
  double r2 = 0.0;
  bool ok = false;
};
LineFit FitLine(const std::vector<double>& x, const std::vector<double>& y);

}  // namespace tasq

#endif  // TASQ_COMMON_STATS_H_
