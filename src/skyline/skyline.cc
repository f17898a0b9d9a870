#include "skyline/skyline.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace tasq {

Skyline::Skyline(std::vector<double> usage) : usage_(std::move(usage)) {
  for (double& v : usage_) {
    if (v < 0.0) v = 0.0;
  }
}

double Skyline::Area() const {
  double area = 0.0;
  for (double v : usage_) area += v;
  // Usage is clamped non-negative at construction, so a negative or NaN
  // area means a tick was corrupted after the fact.
  TASQ_DCHECK_GE(area, 0.0);
  return area;
}

double Skyline::Peak() const {
  double peak = 0.0;
  for (double v : usage_) peak = std::max(peak, v);
  return peak;
}

std::vector<SkylineSection> SplitSections(const Skyline& skyline,
                                          double threshold) {
  std::vector<SkylineSection> sections;
  const auto& values = skyline.values();
  if (values.empty()) return sections;
  SkylineSection current{0, 1, values[0] > threshold};
  for (size_t t = 1; t < values.size(); ++t) {
    bool over = values[t] > threshold;
    if (over == current.over_threshold) {
      current.end = t + 1;
    } else {
      sections.push_back(current);
      current = SkylineSection{t, t + 1, over};
    }
  }
  sections.push_back(current);
  // Sections must partition [0, duration): contiguous, in order, non-empty.
  // AREPAS relies on this to copy/flatten each tick exactly once.
  TASQ_DCHECK_EQ(sections.front().start, 0u);
  TASQ_DCHECK_EQ(sections.back().end, values.size());
  for (size_t i = 1; i < sections.size(); ++i) {
    TASQ_DCHECK_EQ(sections[i].start, sections[i - 1].end);
    TASQ_DCHECK_LT(sections[i].start, sections[i].end);
  }
  return sections;
}

UtilizationSummary ClassifyUtilization(const Skyline& skyline,
                                       const UtilizationBands& bands) {
  UtilizationSummary summary;
  double peak = skyline.Peak();
  for (double v : skyline.values()) {
    if (peak <= 0.0 || v < bands.minimum_fraction * peak) {
      summary.seconds_minimum += 1.0;
    } else if (v < bands.low_fraction * peak) {
      summary.seconds_low += 1.0;
    } else {
      summary.seconds_high += 1.0;
    }
  }
  // Every tick lands in exactly one band (the sums are exact: whole
  // seconds counted by 1.0 increments).
  TASQ_DCHECK_EQ(
      summary.seconds_minimum + summary.seconds_low + summary.seconds_high,
      static_cast<double>(skyline.values().size()));
  return summary;
}

std::vector<double> AllocationSeries(const Skyline& skyline,
                                     AllocationPolicy policy,
                                     double default_tokens) {
  const auto& usage = skyline.values();
  std::vector<double> allocation(usage.size());
  switch (policy) {
    case AllocationPolicy::kDefault: {
      double level = std::max(default_tokens, skyline.Peak());
      std::fill(allocation.begin(), allocation.end(), level);
      break;
    }
    case AllocationPolicy::kPeak: {
      double peak = skyline.Peak();
      std::fill(allocation.begin(), allocation.end(), peak);
      break;
    }
    case AllocationPolicy::kAdaptivePeak: {
      // Suffix maxima: at tick t allocate the largest usage still ahead.
      double running = 0.0;
      for (size_t i = usage.size(); i > 0; --i) {
        running = std::max(running, usage[i - 1]);
        allocation[i - 1] = running;
      }
      break;
    }
  }
  // No policy may starve the job: the allocation covers usage at every
  // tick (kDefault/kPeak allocate >= Peak(); kAdaptivePeak is a suffix max).
  for (size_t t = 0; t < usage.size(); ++t) {
    TASQ_DCHECK_GE(allocation[t], usage[t]);
  }
  return allocation;
}

Result<double> OverAllocation(const Skyline& skyline,
                              const std::vector<double>& allocation) {
  const auto& usage = skyline.values();
  if (allocation.size() < usage.size()) {
    return Status::InvalidArgument(
        "allocation series shorter than skyline duration");
  }
  double waste = 0.0;
  for (size_t t = 0; t < usage.size(); ++t) {
    if (allocation[t] + 1e-9 < usage[t]) {
      return Status::InvalidArgument(
          "allocation below usage: the policy would starve the job");
    }
    waste += allocation[t] - usage[t];
  }
  return waste;
}

}  // namespace tasq
