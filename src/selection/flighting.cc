#include "selection/flighting.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"

namespace tasq {

Result<FlightedJob> FlightHarness::FlightJob(const Job& job) const {
  FlightedJob flighted;
  flighted.job_id = job.id;
  flighted.reference_tokens = job.default_tokens;

  ClusterSimulator simulator;
  int repetitions = std::max(1, config_.repetitions);

  for (size_t f = 0; f < kFlightTokenFractions.size(); ++f) {
    double tokens = std::max(
        1.0, std::round(job.default_tokens * kFlightTokenFractions[f]));
    FlightRecord record;
    record.job_id = job.id;
    record.tokens = tokens;
    std::vector<std::pair<double, Skyline>> runs;
    for (int rep = 0; rep < repetitions; ++rep) {
      RunConfig run_config;
      run_config.tokens = tokens;
      run_config.noise = config_.noise;
      // Seed varies per (job, token fraction, repetition): every flight is
      // an independent noisy execution.
      run_config.seed = config_.seed ^
                        (static_cast<uint64_t>(job.id) * 1000003ULL) ^
                        (static_cast<uint64_t>(f) * 7919ULL) ^
                        (static_cast<uint64_t>(rep) * 104729ULL);
      Result<RunResult> run = simulator.Run(job.plan, run_config);
      if (!run.ok()) return run.status();
      record.repetition_runtimes.push_back(run.value().runtime_seconds);
      runs.emplace_back(run.value().runtime_seconds,
                        std::move(run.value().skyline));
    }
    // Representative execution: the repetition with the median run time.
    std::sort(runs.begin(), runs.end(),
              [](const auto& lhs, const auto& rhs) {
                return lhs.first < rhs.first;
              });
    const auto& median_run = runs[runs.size() / 2];
    record.runtime_seconds = median_run.first;
    record.skyline = median_run.second;
    flighted.flights.push_back(std::move(record));
  }

  // Filter (1): at least two flights.
  flighted.enough_flights = flighted.flights.size() >= 2;
  // Filter (2): usage never exceeded the allocation.
  flighted.within_allocation = true;
  for (const FlightRecord& record : flighted.flights) {
    if (record.skyline.Peak() > record.tokens + 1e-9) {
      flighted.within_allocation = false;
      break;
    }
  }
  // Filter (3): run time monotone non-increasing in tokens, within
  // tolerance. Flights are ordered by descending tokens, so run time must
  // be non-decreasing along the list.
  flighted.monotone = true;
  for (size_t i = 1; i < flighted.flights.size(); ++i) {
    double more_tokens = flighted.flights[i - 1].runtime_seconds;
    double fewer_tokens = flighted.flights[i].runtime_seconds;
    double allowed =
        fewer_tokens * (1.0 + kFlightMonotoneTolerancePercent / 100.0);
    if (more_tokens > allowed) {
      flighted.monotone = false;
      break;
    }
  }
  return flighted;
}

std::vector<FlightedJob> FlightHarness::FlightJobs(
    const std::vector<Job>& jobs) const {
  // Flights are independent and seeded per (job, fraction, repetition), so
  // they parallelize with results identical to a serial run.
  std::vector<Result<FlightedJob>> results(jobs.size(),
                                           Status::Internal("not run"));
  ParallelFor(jobs.size(),
              [&](size_t i) { results[i] = FlightJob(jobs[i]); });
  std::vector<FlightedJob> out;
  out.reserve(jobs.size());
  for (Result<FlightedJob>& flighted : results) {
    if (flighted.ok()) out.push_back(std::move(flighted.value()));
  }
  return out;
}

}  // namespace tasq
