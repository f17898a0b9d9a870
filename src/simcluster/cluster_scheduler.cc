#include "simcluster/cluster_scheduler.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <queue>

#include "common/check.h"
#include "common/stats.h"

namespace tasq {
namespace {

struct Completion {
  double time;
  double tokens;
  /// Index into the submissions vector; the final release retires the job
  /// from the running set. Adaptive-release partial returns reuse the
  /// struct with `final_release == false`.
  size_t job_index;
  bool final_release;
  bool operator>(const Completion& other) const { return time > other.time; }
};

}  // namespace

std::vector<TokenGrant> FifoGangGrants(const ArbitrationContext& context) {
  std::vector<TokenGrant> grants;
  double remaining = context.free_tokens;
  for (const PendingJob& pending : context.pending) {
    double request = pending.submission->requested_tokens;
    // Head-of-line blocking: the first job that does not fit stops
    // admission entirely (no backfilling).
    if (request > remaining + 1e-9) break;
    grants.push_back(TokenGrant{pending.index, request});
    remaining -= request;
  }
  return grants;
}

Result<std::vector<ScheduledJob>> ClusterScheduler::Run(
    std::vector<Submission> submissions, AllocationArbiter* arbiter) const {
  for (const Submission& submission : submissions) {
    if (submission.requested_tokens < 1.0 ||
        submission.requested_tokens > config_.cluster_tokens) {
      return Status::InvalidArgument(
          "request must be within [1, cluster_tokens]");
    }
    Status valid = submission.plan.Validate();
    if (!valid.ok()) return valid;
  }
  if (arbiter != nullptr && config_.adaptive_release) {
    return Status::InvalidArgument(
        "adaptive_release is not supported with an arbiter: arbiter grants "
        "are held whole until completion");
  }
  // Admission order: by arrival, ties by submission order (stable).
  std::vector<size_t> order(submissions.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return submissions[a].arrival_seconds < submissions[b].arrival_seconds;
  });

  ClusterSimulator simulator;
  std::vector<ScheduledJob> results(submissions.size());
  std::priority_queue<Completion, std::vector<Completion>, std::greater<>>
      completions;
  std::deque<size_t> queue;  // Indices into `submissions`, FIFO.
  std::vector<RunningJob> running;
  double free_tokens = config_.cluster_tokens;
  double now = 0.0;
  size_t next_arrival = 0;

  if (arbiter != nullptr) arbiter->Reset(config_, submissions);

  // Starts submission `idx` now, holding `granted` tokens (in
  // [1, request]) for its whole runtime.
  auto start_job = [&](size_t idx, double granted) {
    const Submission& submission = submissions[idx];
    free_tokens -= granted;
    // Admission gate: a job is only admitted when its grant fits, so the
    // pool can dip at most an epsilon below zero (the admission
    // comparison tolerates 1e-9 of float noise).
    TASQ_CHECK_GE(free_tokens, -1e-9);
    RunConfig run_config;
    run_config.tokens = granted;
    run_config.noise = config_.noise;
    run_config.seed = config_.seed ^
                      (static_cast<uint64_t>(submission.job_id) *
                       0x9E3779B97F4A7C15ULL);
    Result<RunResult> run = simulator.Run(submission.plan, run_config);
    // Plans were validated upfront; a failure here is internal.
    double runtime = run.ok() ? run.value().runtime_seconds : 0.0;
    ScheduledJob& out = results[idx];
    out.job_id = submission.job_id;
    out.tenant_id = submission.tenant_id;
    out.arrival_seconds = submission.arrival_seconds;
    out.start_seconds = now;
    out.runtime_seconds = runtime;
    out.finish_seconds = now + runtime;
    out.requested_tokens = submission.requested_tokens;
    out.granted_tokens = granted;
    // Causality: a job cannot start before it arrives, and no job
    // finishes before it starts (runtimes are non-negative).
    TASQ_CHECK_GE(out.start_seconds, out.arrival_seconds);
    TASQ_CHECK_GE(out.finish_seconds, out.start_seconds);
    if (config_.adaptive_release && run.ok()) {
      // Progressive release: hold only the suffix maximum of the job's
      // usage — tokens the job will never need again return to the pool
      // as soon as that is known (one tick after the fact).
      const auto& usage = run.value().skyline.values();
      std::vector<double> level(usage.size());
      double running_max = 0.0;
      for (size_t t = usage.size(); t > 0; --t) {
        running_max = std::max(running_max, std::min(usage[t - 1], granted));
        level[t - 1] = running_max;
      }
      double held = granted;
      for (size_t t = 0; t < level.size(); ++t) {
        if (level[t] < held) {
          completions.push(Completion{now + static_cast<double>(t) + 1.0,
                                      held - level[t], idx, false});
          held = level[t];
        }
      }
      completions.push(Completion{out.finish_seconds, held, idx, true});
    } else {
      completions.push(Completion{out.finish_seconds, granted, idx, true});
    }
    running.push_back(RunningJob{idx, submission.tenant_id, granted});
  };

  // Admission at one event: the arbiter's grants, or FIFO gang admission
  // without one. `pending` lives outside so events reuse its capacity.
  std::vector<PendingJob> pending;
  auto admit = [&]() {
    pending.clear();
    for (size_t idx : queue) {
      pending.push_back(PendingJob{idx, &submissions[idx]});
    }
    ArbitrationContext context{now, free_tokens, config_.cluster_tokens,
                               pending, running};
    std::vector<TokenGrant> grants = arbiter != nullptr
                                         ? arbiter->Arbitrate(context)
                                         : FifoGangGrants(context);
    // Validate the decision: grants reference distinct pending jobs, stay
    // within [1, request], and fit the free pool. A violation is a policy
    // bug, not a user error.
    std::sort(grants.begin(), grants.end(),
              [](const TokenGrant& a, const TokenGrant& b) {
                return a.index < b.index;
              });
    if (grants.empty() && completions.empty() &&
        next_arrival >= order.size() && !queue.empty()) {
      // No-starvation backstop: no token is held or still due back (under
      // adaptive release a job's last partial return can come after its
      // final one, so an empty running set does not mean an idle pool),
      // no more events will arrive, and the policy still granted nothing
      // (e.g. a credit-broke Karma tenant whose request exceeds its fair
      // share). Force-admit the oldest pending job at its full request;
      // it fits the idle pool because requests were validated against
      // cluster_tokens.
      size_t idx = queue.front();
      queue.pop_front();
      start_job(idx, submissions[idx].requested_tokens);
      return;
    }
    double granted_total = 0.0;
    size_t previous_index = 0;
    bool first = true;
    for (const TokenGrant& grant : grants) {
      TASQ_CHECK(first || grant.index > previous_index);
      first = false;
      previous_index = grant.index;
      const Submission& submission = submissions[grant.index];
      TASQ_CHECK_GE(grant.tokens, 1.0 - 1e-9);
      TASQ_CHECK_LE(grant.tokens, submission.requested_tokens + 1e-9);
      granted_total += grant.tokens;
      bool was_pending = false;
      for (auto it = queue.begin(); it != queue.end(); ++it) {
        if (*it == grant.index) {
          queue.erase(it);
          was_pending = true;
          break;
        }
      }
      TASQ_CHECK(was_pending);
      start_job(grant.index, std::min(grant.tokens,
                                      submission.requested_tokens));
    }
    TASQ_CHECK_LE(granted_total, context.free_tokens + 1e-6);
  };

  // One event loop: batch all events at the same instant (completions
  // free their tokens first, then simultaneous arrivals join the queue),
  // so admission decides with the full picture of the event.
  while (next_arrival < order.size() || !completions.empty()) {
    double arrival_time =
        next_arrival < order.size()
            ? submissions[order[next_arrival]].arrival_seconds
            : 1e300;
    double completion_time =
        !completions.empty() ? completions.top().time : 1e300;
    now = std::max(now, std::min(arrival_time, completion_time));
    while (!completions.empty() && completions.top().time <= now) {
      const Completion& done = completions.top();
      free_tokens += done.tokens;
      // Releases return only what was held: the pool never exceeds the
      // cluster's capacity (within accumulated float noise).
      TASQ_CHECK_LE(free_tokens, config_.cluster_tokens + 1e-6);
      if (done.final_release) {
        for (auto it = running.begin(); it != running.end(); ++it) {
          if (it->index == done.job_index) {
            running.erase(it);
            break;
          }
        }
      }
      completions.pop();
    }
    while (next_arrival < order.size() &&
           submissions[order[next_arrival]].arrival_seconds <= now) {
      queue.push_back(order[next_arrival]);
      ++next_arrival;
    }
    admit();
  }
  // Drain: every submission fits the cluster (validated above), so the
  // queue must be empty and every reserved token returned to the pool.
  TASQ_CHECK(queue.empty());
  TASQ_CHECK_LE(std::fabs(free_tokens - config_.cluster_tokens),
                1e-6 * std::max(1.0, config_.cluster_tokens));
  return results;
}

TraceSummary SummarizeTrace(const std::vector<ScheduledJob>& trace,
                            double cluster_tokens) {
  // Degenerate inputs return the all-zero summary; every division below
  // is guarded so this never raises an FP exception (the fpe leg runs
  // these paths with FE_INVALID trapping).
  TraceSummary summary;
  if (trace.empty() || cluster_tokens <= 0.0) return summary;
  std::vector<double> waits;
  std::vector<double> runtimes;
  double first_arrival = 1e300;
  double last_finish = 0.0;
  double reserved_token_seconds = 0.0;
  for (const ScheduledJob& job : trace) {
    waits.push_back(job.wait_seconds());
    runtimes.push_back(job.runtime_seconds);
    first_arrival = std::min(first_arrival, job.arrival_seconds);
    last_finish = std::max(last_finish, job.finish_seconds);
    // Arbiter traces hold the grant, not the request; hand-built jobs
    // may carry only a request.
    double held = job.granted_tokens > 0.0 ? job.granted_tokens
                                           : job.requested_tokens;
    reserved_token_seconds += held * job.runtime_seconds;
  }
  summary.mean_wait_seconds = Mean(waits);
  summary.median_wait_seconds = Median(waits);
  summary.p95_wait_seconds = Quantile(waits, 0.95);
  summary.mean_runtime_seconds = Mean(runtimes);
  summary.span_seconds = std::max(0.0, last_finish - first_arrival);
  if (summary.span_seconds > 0.0) {
    summary.mean_reserved_fraction =
        reserved_token_seconds / (cluster_tokens * summary.span_seconds);
  }
  return summary;
}

}  // namespace tasq
