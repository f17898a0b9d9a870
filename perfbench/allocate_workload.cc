// The `allocate` workload: a bursty multi-tenant submission trace shaped
// like bench/ext_arbiter_policies (8 tenants, a 600-token pool, bursts of
// 4-12 jobs). One operation allocates the whole trace: every job is scored
// through a PccServer, requests its bounded (10% slowdown) recommendation,
// and the predicted PCCs become the Karma arbiter's beliefs as the trace
// runs through ClusterScheduler::Run. The traced run alternates a plain
// operation with one whose arbiter is wrapped in a timing forwarder.

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <string>

#include "arbiter/allocation_arbiter.h"
#include "bench.h"
#include "common/rng.h"
#include "serve/server.h"
#include "simcluster/cluster_scheduler.h"

namespace perfbench {
namespace {

constexpr int64_t kTraceFirstJob = 1000;
constexpr int64_t kTraceJobs = 1000;
constexpr int kTenants = 8;
constexpr double kPoolTokens = 600.0;
constexpr double kKarmaCredits = 40000.0;
constexpr int kSetups = 3;

double ClampToPool(double tokens) {
  return std::min(kPoolTokens, std::max(1.0, tokens));
}

struct AllocateInputs {
  std::unique_ptr<tasq::Tasq> pipeline;
  std::vector<tasq::Job> jobs;
  /// The trace at the users' own (default) requests; entry i is jobs[i].
  std::vector<tasq::Submission> trace;
};

AllocateInputs SetUp(uint64_t seed) {
  AllocateInputs inputs;
  inputs.pipeline = TrainServingPipeline(seed);
  inputs.jobs = JobSource(seed).Jobs(kTraceFirstJob, kTraceJobs);
  tasq::Rng rng(seed ^ 0x6275727374ULL);
  double burst_start = 0.0;
  size_t i = 0;
  while (i < inputs.jobs.size()) {
    burst_start += rng.LogNormal(std::log(220.0), 0.8);
    int64_t burst = rng.UniformInt(4, 12);
    for (int64_t k = 0; k < burst && i < inputs.jobs.size(); ++k, ++i) {
      tasq::Submission submission;
      submission.job_id = inputs.jobs[i].id;
      submission.tenant_id = static_cast<int64_t>(i % kTenants);
      submission.arrival_seconds = burst_start + rng.Uniform(0.0, 5.0);
      submission.requested_tokens = ClampToPool(inputs.jobs[i].default_tokens);
      submission.plan = inputs.jobs[i].plan;
      inputs.trace.push_back(std::move(submission));
    }
  }
  return inputs;
}

/// Times every call into the wrapped arbiter.
class TimedArbiter : public tasq::AllocationArbiter {
 public:
  TimedArbiter(tasq::AllocationArbiter& inner, Ledger::Layer& layer)
      : inner_(inner), layer_(layer) {}

  void Reset(const tasq::SchedulerConfig& config,
             const std::vector<tasq::Submission>& submissions) override {
    inner_.Reset(config, submissions);
  }

  std::vector<tasq::TokenGrant> Arbitrate(
      const tasq::ArbitrationContext& context) override {
    Ledger::Span span(layer_);
    return inner_.Arbitrate(context);
  }

 private:
  tasq::AllocationArbiter& inner_;
  Ledger::Layer& layer_;
};

struct Allocation {
  std::vector<tasq::WhatIfReport> reports;
  std::vector<tasq::ScheduledJob> scheduled;
  double requested_tokens = 0.0;
  double seconds = 0.0;
  double schedule_seconds = 0.0;
};

/// One operation. With a ledger, spans cover the scoring and the
/// scheduler run, and the arbiter is timed through TimedArbiter.
Allocation Allocate(const AllocateInputs& inputs, Ledger* ledger) {
  Allocation allocation;
  Clock::time_point start = Clock::now();
  {
    std::optional<Ledger::Span> span;
    if (ledger != nullptr) span.emplace((*ledger)["serve.score"]);
    std::vector<tasq::ScoreRequest> requests(inputs.jobs.size());
    for (size_t i = 0; i < inputs.jobs.size(); ++i) {
      requests[i].graph = inputs.jobs[i].graph;
      requests[i].reference_tokens = inputs.trace[i].requested_tokens;
    }
    tasq::PccServer server(*inputs.pipeline);
    for (auto& result : server.ScoreBatch(std::move(requests))) {
      if (!result.ok()) Die("score", result.status());
      allocation.reports.push_back(std::move(result.value()));
    }
  }
  std::vector<tasq::Submission> submissions = inputs.trace;
  tasq::PccBeliefs beliefs;
  for (size_t i = 0; i < submissions.size(); ++i) {
    submissions[i].requested_tokens =
        ClampToPool(allocation.reports[i].bounded.tokens);
    allocation.requested_tokens += submissions[i].requested_tokens;
    beliefs[submissions[i].job_id] = allocation.reports[i].pcc;
  }
  tasq::ArbiterOptions options;
  options.policy = tasq::ArbiterPolicy::kKarma;
  options.karma_initial_credits = kKarmaCredits;
  auto arbiter = tasq::MakeArbiter(options, std::move(beliefs));
  tasq::NoiseModel noise;
  noise.enabled = true;
  tasq::ClusterScheduler scheduler(
      tasq::SchedulerConfig{kPoolTokens, false, noise, 99});
  Clock::time_point run_start = Clock::now();
  tasq::Result<std::vector<tasq::ScheduledJob>> scheduled = [&]() {
    if (ledger == nullptr) {
      return scheduler.Run(std::move(submissions), arbiter.get());
    }
    TimedArbiter timed(*arbiter, (*ledger)["arbiter.arbitrate"]);
    return scheduler.Run(std::move(submissions), &timed);
  }();
  allocation.schedule_seconds = SecondsSince(run_start);
  if (!scheduled.ok()) Die("schedule", scheduled.status());
  allocation.scheduled = std::move(scheduled.value());
  allocation.seconds = SecondsSince(start);
  return allocation;
}

}  // namespace

void RunAllocate(const RunOptions& options, Outcome& outcome) {
  std::vector<double> setup_seconds;
  AllocateInputs inputs;
  for (int i = 0; i < kSetups; ++i) {
    inputs = AllocateInputs();
    Clock::time_point start = Clock::now();
    inputs = SetUp(options.seed);
    setup_seconds.push_back(SecondsSince(start));
  }
  auto& metrics = outcome.metrics;

  if (options.trace) {
    // Alternate plain and traced operations; report means per operation.
    Ledger ledger;
    std::vector<double> e2e;
    double schedule_seconds = 0.0;
    double p95_wait = 0.0;
    Clock::time_point start = Clock::now();
    while (e2e.empty() || SecondsSince(start) < options.seconds) {
      e2e.push_back(Allocate(inputs, nullptr).seconds);
      Allocation traced = Allocate(inputs, &ledger);
      schedule_seconds += traced.schedule_seconds;
      p95_wait =
          tasq::SummarizeTrace(traced.scheduled, kPoolTokens).p95_wait_seconds;
      outcome.attempted += 2;
    }
    double ops = static_cast<double>(e2e.size());
    double e2e_s = 0.0;
    for (double s : e2e) e2e_s += s / ops;
    const Ledger::Layer& arbiter = ledger["arbiter.arbitrate"];
    double score_s = ledger["serve.score"].seconds / ops;
    double arbiter_s = arbiter.seconds / ops;
    double schedule_s = schedule_seconds / ops - arbiter_s;
    metrics["serve.score_s"] = score_s;
    metrics["simcluster.schedule_s"] = schedule_s;
    metrics["arbiter.arbitrate_us"] =
        arbiter.calls > 0 ? 1e6 * arbiter.seconds /
                                static_cast<double>(arbiter.calls)
                          : 0.0;
    metrics["arbiter.calls"] = static_cast<double>(arbiter.calls) / ops;
    metrics["simcluster.p95_wait_s"] = p95_wait;
    metrics["alloc.e2e_s"] = e2e_s;
    metrics["alloc.unattributed_s"] = e2e_s - score_s - schedule_s - arbiter_s;
    outcome.Note("allocate ledger: %zu operations, %.3f s end to end: score "
                 "%.3f s, schedule %.3f s, arbiter %.3f s (%.0f calls)",
                 e2e.size(), e2e_s, score_s, schedule_s, arbiter_s,
                 static_cast<double>(arbiter.calls) / ops);
    return;
  }

  // Direct reports for the output check.
  std::vector<uint64_t> expected;
  for (size_t i = 0; i < inputs.jobs.size(); ++i) {
    auto report = tasq::BuildWhatIfReport(*inputs.pipeline,
                                          inputs.jobs[i].graph,
                                          tasq::ModelKind::kNn,
                                          inputs.trace[i].requested_tokens);
    if (!report.ok()) Die("direct report", report.status());
    expected.push_back(ReportDigest(report.value()));
  }

  std::vector<double> op_seconds;
  std::string first_trace;
  Allocation first;
  Clock::time_point start = Clock::now();
  while (op_seconds.size() < 2 || SecondsSince(start) < options.seconds) {
    Allocation allocation = Allocate(inputs, nullptr);
    op_seconds.push_back(allocation.seconds);
    ++outcome.attempted;
    uint64_t differing = 0;
    for (size_t i = 0; i < expected.size(); ++i) {
      if (ReportDigest(allocation.reports[i]) != expected[i]) ++differing;
    }
    outcome.attempted += expected.size();
    outcome.failed += differing;
    if (differing > 0) outcome.Fail("served report differs from direct");
    std::string trace = tasq::FormatTrace(allocation.scheduled);
    if (first_trace.empty()) {
      first_trace = std::move(trace);
      first = std::move(allocation);
    } else {
      outcome.Check(trace == first_trace,
                    "same seed schedules the same trace");
    }
  }

  double default_tokens = 0.0;
  for (const tasq::Submission& submission : inputs.trace) {
    default_tokens += submission.requested_tokens;
  }
  double total_seconds = 0.0;
  for (double s : op_seconds) total_seconds += s;
  double p95_wait =
      tasq::SummarizeTrace(first.scheduled, kPoolTokens).p95_wait_seconds;
  metrics["setup_s"] = Median(setup_seconds);
  metrics["p50_us"] = 1e6 * Median(op_seconds);
  metrics["throughput_per_s"] =
      static_cast<double>(kTraceJobs) * static_cast<double>(op_seconds.size()) /
      total_seconds;
  metrics["holdout_ape_pct"] =
      HoldoutApePct(*inputs.pipeline, ObserveHoldout(options.seed));
  metrics["tokens_saved_pct"] =
      100.0 * (1.0 - first.requested_tokens / default_tokens);
  metrics["peak_rss_mb"] = PeakRssMb();
  outcome.Note("allocate seed %llu: %zu operations of %lld jobs, median "
               "%.3f s, simulated p95 wait %.1f s, trace digest %016llx",
               static_cast<unsigned long long>(options.seed),
               op_seconds.size(), static_cast<long long>(kTraceJobs),
               Median(op_seconds), p95_wait,
               static_cast<unsigned long long>(
                   std::hash<std::string>()(first_trace)));
}

}  // namespace perfbench
