#ifndef TASQ_SKYLINE_SKYLINE_H_
#define TASQ_SKYLINE_SKYLINE_H_

#include <cstddef>
#include <vector>

#include "common/status.h"

namespace tasq {

/// A job's resource-consumption *skyline*: the number of tokens in use at
/// each 1-second tick of the job's execution (the paper's Figure 1).
///
/// The skyline is the central data structure of TASQ: the cluster simulator
/// produces one per run, AREPAS transforms one into skylines at alternate
/// token allocations, and allocation policies are evaluated against one.
/// Usage values are doubles so that fractional token accounting (e.g., the
/// tail tick of a stretched AREPAS section) is representable, but cluster
/// runs always produce integral values.
class Skyline {
 public:
  /// Constructs an empty skyline (zero duration).
  Skyline() = default;

  /// Constructs a skyline from per-second usage samples. Negative samples
  /// are clamped to zero.
  explicit Skyline(std::vector<double> usage);

  /// Number of 1-second ticks (the job run time in seconds).
  size_t duration_seconds() const { return usage_.size(); }

  /// Token usage at tick `t`; 0 when out of range.
  double UsageAt(size_t t) const {
    return t < usage_.size() ? usage_[t] : 0.0;
  }

  /// Total token-seconds under the curve — the quantity AREPAS preserves.
  double Area() const;

  /// Maximum instantaneous token usage.
  double Peak() const;

  const std::vector<double>& values() const { return usage_; }

  bool operator==(const Skyline& other) const = default;

 private:
  std::vector<double> usage_;
};

/// A maximal contiguous chunk of a skyline that lies entirely at-or-under or
/// entirely over a threshold allocation (Algorithm 1, lines 1-4).
struct SkylineSection {
  /// First tick of the section (inclusive).
  size_t start = 0;
  /// One past the last tick (exclusive).
  size_t end = 0;
  /// True when every tick in [start, end) has usage > threshold.
  bool over_threshold = false;

  size_t length() const { return end - start; }
};

/// Splits `skyline` into maximal contiguous sections relative to
/// `threshold`, in time order. A tick belongs to an over-threshold section
/// iff its usage strictly exceeds the threshold (usage exactly at the
/// threshold fits under the new allocation and stays unchanged).
/// The concatenation of the returned sections covers the skyline exactly.
std::vector<SkylineSection> SplitSections(const Skyline& skyline,
                                          double threshold);

/// Utilization bands for the Figure-5 decomposition of a skyline. Each tick
/// is classified by its usage relative to the skyline peak.
struct UtilizationBands {
  /// Fraction of peak below which a tick counts as near-minimum ("red").
  double minimum_fraction = 0.2;
  /// Fraction of peak below which a tick counts as low ("pink"); at or
  /// above this a tick is moderate-high ("green").
  double low_fraction = 0.5;
};

/// Seconds spent in each utilization band.
struct UtilizationSummary {
  double seconds_minimum = 0.0;
  double seconds_low = 0.0;
  double seconds_high = 0.0;

  double total() const { return seconds_minimum + seconds_low + seconds_high; }
};

/// Classifies each tick of `skyline` into bands relative to its peak.
/// An all-zero skyline classifies every tick as near-minimum.
UtilizationSummary ClassifyUtilization(const Skyline& skyline,
                                       const UtilizationBands& bands = {});

/// Resource-allocation policies from Figure 1. A policy maps a skyline to a
/// per-tick *allocated* token series (always >= usage so the job is never
/// starved under the modeled policy).
enum class AllocationPolicy {
  /// A fixed user/default token request, independent of the skyline.
  kDefault,
  /// Allocate the skyline peak for the whole duration (AutoToken-style).
  kPeak,
  /// At each tick allocate the maximum usage over the *remaining* lifetime,
  /// i.e., progressively release tokens that will never be needed again.
  kAdaptivePeak,
};

/// Computes the per-tick allocation series for `policy`. `default_tokens` is
/// used only by kDefault; if it is below the skyline peak it is raised to
/// the peak (a real default allocation gates admission, so a job cannot use
/// more than it was granted).
std::vector<double> AllocationSeries(const Skyline& skyline,
                                     AllocationPolicy policy,
                                     double default_tokens = 0.0);

/// Token-seconds allocated but unused under `allocation`:
/// sum_t (allocation[t] - usage[t]). `allocation` must cover the skyline
/// duration and dominate usage at every tick.
TASQ_NODISCARD Result<double> OverAllocation(const Skyline& skyline,
                              const std::vector<double>& allocation);

}  // namespace tasq

#endif  // TASQ_SKYLINE_SKYLINE_H_
