#include "arbiter/allocation_arbiter.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <queue>
#include <utility>

#include "common/check.h"
#include "common/stats.h"

namespace tasq {

namespace {

constexpr double kEps = 1e-9;
/// Water-filling step for the partial-grant policies.
constexpr double kTokenQuantum = 1.0;
/// A partial grant below max(1, fraction * request) is considered not
/// worth starting; the job waits instead.
constexpr double kMinGrantFraction = 0.25;
/// Karma: credits charged per over-fair-share token-second.
constexpr double kKarmaPrice = 1.0;

/// Analytic runtime bound of a plan at an allocation: perfect scaling of
/// the total work, floored at the critical path (the simulator can only
/// be slower than this, never faster).
double AnalyticRuntime(const JobPlan& plan, double tokens) {
  double work = plan.TotalWorkTokenSeconds();
  double denom = std::max(1.0, tokens);
  return std::max(plan.CriticalPathSeconds(), work / denom);
}

}  // namespace

const char* ArbiterPolicyName(ArbiterPolicy policy) {
  switch (policy) {
    case ArbiterPolicy::kFifoGang: return "fifo";
    case ArbiterPolicy::kWelfareMax: return "welfare";
    case ArbiterPolicy::kMaxMinFair: return "maxmin";
    case ArbiterPolicy::kKarma: return "karma";
  }
  return "unknown";
}

PolicyArbiter::PolicyArbiter(ArbiterOptions options, PccBeliefs beliefs)
    : options_(options), beliefs_(std::move(beliefs)) {}

double PolicyArbiter::PredictRuntime(const Submission& submission,
                                     double tokens) const {
  double clamped = std::max(1.0, tokens);
  auto it = beliefs_.find(submission.job_id);
  if (it != beliefs_.end() && it->second.b > 0.0 &&
      it->second.IsMonotoneNonIncreasing()) {
    double predicted = it->second.EvalRunTime(clamped);
    if (std::isfinite(predicted) && predicted > 0.0) return predicted;
  }
  return AnalyticRuntime(submission.plan, clamped);
}

namespace {

/// Floor below which a partial grant is not worth starting.
double MinGrant(double requested) {
  return std::max(1.0, std::min(requested, kMinGrantFraction * requested));
}

// ---------------------------------------------------------------------------
// kFifoGang — the scheduler's default strict-FIFO gang admission, offered
// as a policy so the baseline sits in the same sweeps as the others.
class FifoGangArbiter final : public PolicyArbiter {
 public:
  FifoGangArbiter(ArbiterOptions options, PccBeliefs beliefs)
      : PolicyArbiter(std::move(options), std::move(beliefs)) {}

  void Reset(const SchedulerConfig&, const std::vector<Submission>&) override {
  }

  std::vector<TokenGrant> Arbitrate(const ArbitrationContext& ctx) override {
    return FifoGangGrants(ctx);
  }
};

// ---------------------------------------------------------------------------
// kWelfareMax — greedy water-filling on PCC marginal gains.
class WelfareMaxArbiter final : public PolicyArbiter {
 public:
  WelfareMaxArbiter(ArbiterOptions options, PccBeliefs beliefs)
      : PolicyArbiter(std::move(options), std::move(beliefs)) {}

  void Reset(const SchedulerConfig&, const std::vector<Submission>&) override {
  }

  std::vector<TokenGrant> Arbitrate(const ArbitrationContext& ctx) override {
    size_t n = ctx.pending.size();
    if (n == 0) return {};
    std::vector<double> cap(n);
    std::vector<double> seed(n);
    std::vector<double> grant(n, 0.0);
    // Seed order: highest predicted throughput at entry grant first. A
    // whole job is the unit of admission, so seeding ranks jobs by the
    // welfare they contribute the moment they start.
    std::vector<size_t> by_value(n);
    std::vector<double> seed_value(n);
    for (size_t i = 0; i < n; ++i) {
      const Submission& sub = *ctx.pending[i].submission;
      cap[i] = sub.requested_tokens;
      seed[i] = MinGrant(cap[i]);
      seed_value[i] = 1.0 / PredictRuntime(sub, seed[i]);
      by_value[i] = i;
    }
    std::stable_sort(by_value.begin(), by_value.end(),
                     [&](size_t a, size_t b) {
                       if (seed_value[a] != seed_value[b]) {
                         return seed_value[a] > seed_value[b];
                       }
                       return a < b;  // Ties: arrival order.
                     });
    double remaining = ctx.free_tokens;
    for (size_t i : by_value) {
      if (seed[i] <= remaining + kEps) {
        grant[i] = seed[i];
        remaining -= seed[i];
      }
    }
    // Water-fill the rest one quantum at a time toward the job whose
    // predicted throughput gains the most from it.
    struct Step {
      double gain;
      size_t pos;
    };
    auto worse = [](const Step& a, const Step& b) {
      if (a.gain != b.gain) return a.gain < b.gain;
      return a.pos > b.pos;  // Ties: arrival order wins.
    };
    std::priority_queue<Step, std::vector<Step>, decltype(worse)> heap(worse);
    auto marginal_gain = [&](size_t i) {
      const Submission& sub = *ctx.pending[i].submission;
      double step = std::min(kTokenQuantum, cap[i] - grant[i]);
      if (step <= kEps) return 0.0;
      return 1.0 / PredictRuntime(sub, grant[i] + step) -
             1.0 / PredictRuntime(sub, grant[i]);
    };
    for (size_t i = 0; i < n; ++i) {
      if (grant[i] > 0.0 && cap[i] - grant[i] > kEps) {
        double gain = marginal_gain(i);
        if (gain > 0.0) heap.push(Step{gain, i});
      }
    }
    while (remaining > kEps && !heap.empty()) {
      Step best = heap.top();
      heap.pop();
      size_t i = best.pos;
      double step = std::min({kTokenQuantum, cap[i] - grant[i], remaining});
      if (step <= kEps) continue;
      grant[i] += step;
      remaining -= step;
      if (cap[i] - grant[i] > kEps) {
        double gain = marginal_gain(i);
        if (gain > 0.0) heap.push(Step{gain, i});
      }
    }
    std::vector<TokenGrant> grants;
    for (size_t i = 0; i < n; ++i) {
      if (grant[i] > 0.0) {
        grants.push_back(TokenGrant{ctx.pending[i].index, grant[i]});
      }
    }
    return grants;
  }
};

// ---------------------------------------------------------------------------
// kMaxMinFair — progressive filling across tenants with demand caps.
class MaxMinFairArbiter final : public PolicyArbiter {
 public:
  MaxMinFairArbiter(ArbiterOptions options, PccBeliefs beliefs)
      : PolicyArbiter(std::move(options), std::move(beliefs)) {}

  void Reset(const SchedulerConfig&, const std::vector<Submission>&) override {
  }

  std::vector<TokenGrant> Arbitrate(const ArbitrationContext& ctx) override {
    if (ctx.pending.empty()) return {};
    // Current holdings per tenant: fairness levels count what a tenant
    // already occupies, so a tenant with running jobs ranks behind an
    // idle one.
    std::map<int64_t, double> usage;
    for (const RunningJob& running : ctx.running) {
      usage[running.tenant_id] += running.granted_tokens;
    }
    std::map<int64_t, double> demand;
    for (const PendingJob& pending : ctx.pending) {
      demand[pending.submission->tenant_id] +=
          pending.submission->requested_tokens;
    }
    // Progressive filling in quanta: always raise the tenant with the
    // lowest level (holdings + new budget) until demands are met or the
    // pool is dry. Ties break toward the smaller tenant id.
    std::map<int64_t, double> budget;
    double remaining = ctx.free_tokens;
    while (remaining > kEps) {
      int64_t best_tenant = 0;
      double best_level = 0.0;
      bool found = false;
      for (const auto& [tenant, tenant_demand] : demand) {
        if (tenant_demand <= kEps) continue;
        double level = usage[tenant] + budget[tenant];
        if (!found || level < best_level - kEps) {
          best_tenant = tenant;
          best_level = level;
          found = true;
        }
      }
      if (!found) break;
      double step =
          std::min({kTokenQuantum, demand[best_tenant], remaining});
      budget[best_tenant] += step;
      demand[best_tenant] -= step;
      remaining -= step;
    }
    // Each tenant spends its budget on its own jobs FIFO: full requests
    // first, then at most one partial grant above the floor.
    std::vector<TokenGrant> grants;
    double unspent = remaining;
    for (const PendingJob& pending : ctx.pending) {
      const Submission& sub = *pending.submission;
      double& tenant_budget = budget[sub.tenant_id];
      double request = sub.requested_tokens;
      if (request <= tenant_budget + kEps) {
        grants.push_back(TokenGrant{pending.index, request});
        tenant_budget -= request;
      } else if (tenant_budget >= MinGrant(request)) {
        grants.push_back(TokenGrant{pending.index, tenant_budget});
        tenant_budget = 0.0;
      }
    }
    // Work conservation: tokens the budgets could not place (floors, or
    // demands smaller than the pool) backfill remaining jobs FIFO.
    for (const auto& [tenant, tenant_budget] : budget) {
      unspent += tenant_budget;
      (void)tenant;
    }
    if (unspent > kEps) {
      for (const PendingJob& pending : ctx.pending) {
        bool already = false;
        for (const TokenGrant& grant : grants) {
          if (grant.index == pending.index) {
            already = true;
            break;
          }
        }
        if (already) continue;
        double request = pending.submission->requested_tokens;
        if (request <= unspent + kEps) {
          grants.push_back(TokenGrant{pending.index, request});
          unspent -= request;
        }
      }
    }
    return grants;
  }
};

// ---------------------------------------------------------------------------
// kKarma — per-tenant credit accounts with bounded debt.
class KarmaArbiter final : public PolicyArbiter {
 public:
  KarmaArbiter(ArbiterOptions options, PccBeliefs beliefs)
      : PolicyArbiter(std::move(options), std::move(beliefs)) {}

  void Reset(const SchedulerConfig&,
             const std::vector<Submission>& submissions) override {
    credits_.clear();
    for (const Submission& submission : submissions) {
      credits_[submission.tenant_id] = options_.karma_initial_credits;
    }
    expected_credit_sum_ =
        options_.karma_initial_credits * static_cast<double>(credits_.size());
  }

  std::vector<TokenGrant> Arbitrate(const ArbitrationContext& ctx) override {
    if (ctx.pending.empty() || credits_.empty()) return {};
    double fair_share =
        ctx.cluster_tokens / static_cast<double>(credits_.size());
    std::map<int64_t, double> usage;
    for (const RunningJob& running : ctx.running) {
      usage[running.tenant_id] += running.granted_tokens;
    }
    double remaining = ctx.free_tokens;
    std::vector<TokenGrant> grants;
    for (const PendingJob& pending : ctx.pending) {
      const Submission& sub = *pending.submission;
      double request = sub.requested_tokens;
      double top = std::min(request, remaining);
      double floor = MinGrant(request);
      if (top < floor - kEps) continue;
      // Scan grant candidates from the full request downward on a
      // bounded grid: the largest affordable grant wins. Usage within
      // the fair share costs nothing; the over-share part costs
      // price x over x predicted runtime, payable from credits down to
      // -kKarmaMaxDebt.
      double tenant_usage = usage[sub.tenant_id];
      double step = std::max(kTokenQuantum, (top - floor) / 64.0);
      double granted = 0.0;
      double cost = 0.0;
      for (double g = top; g >= floor - kEps; g -= step) {
        double candidate = std::max(g, floor);
        double over = tenant_usage + candidate -
                      std::max(tenant_usage, fair_share);
        double candidate_cost =
            over <= 0.0 ? 0.0
                        : over * PredictRuntime(sub, candidate) * kKarmaPrice;
        if (credits_[sub.tenant_id] - candidate_cost >= -kKarmaMaxDebt - kEps) {
          granted = candidate;
          cost = candidate_cost;
          break;
        }
      }
      if (granted <= 0.0) continue;
      if (cost > 0.0) {
        credits_[sub.tenant_id] -= cost;
        DistributeToDonors(cost, sub.tenant_id, fair_share, usage);
      }
      usage[sub.tenant_id] += granted;
      remaining -= granted;
      grants.push_back(TokenGrant{pending.index, granted});
      TASQ_DCHECK_LE(std::fabs(CreditSum() - expected_credit_sum_),
                     1e-6 * std::max(1.0, std::fabs(expected_credit_sum_)));
    }
    return grants;
  }

 private:
  double CreditSum() const {
    double sum = 0.0;
    for (const auto& [tenant, balance] : credits_) {
      sum += balance;
      (void)tenant;
    }
    return sum;
  }

  /// Pays `cost` credits to the tenants currently below their fair share,
  /// proportional to their headroom — the zero-sum transfer that keeps
  /// total credits constant (Karma's donate/borrow ledger).
  void DistributeToDonors(double cost, int64_t payer, double fair_share,
                          const std::map<int64_t, double>& usage) {
    double total_headroom = 0.0;
    for (const auto& [tenant, balance] : credits_) {
      if (tenant == payer) continue;
      auto it = usage.find(tenant);
      double used = it == usage.end() ? 0.0 : it->second;
      total_headroom += std::max(0.0, fair_share - used);
      (void)balance;
    }
    if (total_headroom > kEps) {
      for (auto& [tenant, balance] : credits_) {
        if (tenant == payer) continue;
        auto it = usage.find(tenant);
        double used = it == usage.end() ? 0.0 : it->second;
        balance += cost * std::max(0.0, fair_share - used) / total_headroom;
      }
      return;
    }
    // Every other tenant is at or over its share (possible only through
    // float dust, since the payer bursting implies aggregate headroom):
    // split evenly so the ledger still balances.
    double others = static_cast<double>(credits_.size()) - 1.0;
    if (others <= 0.0) return;
    for (auto& [tenant, balance] : credits_) {
      if (tenant != payer) balance += cost / others;
    }
  }

  double expected_credit_sum_ = 0.0;
};

}  // namespace

std::unique_ptr<PolicyArbiter> MakeArbiter(const ArbiterOptions& options,
                                           PccBeliefs beliefs) {
  switch (options.policy) {
    case ArbiterPolicy::kFifoGang:
      return std::make_unique<FifoGangArbiter>(options, std::move(beliefs));
    case ArbiterPolicy::kWelfareMax:
      return std::make_unique<WelfareMaxArbiter>(options, std::move(beliefs));
    case ArbiterPolicy::kMaxMinFair:
      return std::make_unique<MaxMinFairArbiter>(options, std::move(beliefs));
    case ArbiterPolicy::kKarma:
      return std::make_unique<KarmaArbiter>(options, std::move(beliefs));
  }
  TASQ_CHECK(false);  // Unknown arbiter policy.
  return nullptr;
}

PccBeliefs BeliefsFromPlans(const std::vector<Submission>& submissions) {
  PccBeliefs beliefs;
  for (const Submission& submission : submissions) {
    std::vector<PccSample> samples;
    for (double tokens = 1.0; tokens <= 1024.0; tokens *= 2.0) {
      samples.push_back(
          PccSample{tokens, AnalyticRuntime(submission.plan, tokens)});
    }
    Result<PowerLawFit> fit = FitPowerLaw(samples);
    if (fit.ok() && fit.value().pcc.IsMonotoneNonIncreasing()) {
      beliefs[submission.job_id] = fit.value().pcc;
    }
  }
  return beliefs;
}

std::vector<Submission> WithInflatedRequests(
    std::vector<Submission> submissions, int64_t tenant_id, double factor,
    double cap) {
  for (Submission& submission : submissions) {
    if (submission.tenant_id != tenant_id) continue;
    submission.requested_tokens =
        std::clamp(submission.requested_tokens * factor, 1.0, cap);
  }
  return submissions;
}

std::string FormatTrace(const std::vector<ScheduledJob>& trace) {
  std::string out;
  out.reserve(trace.size() * 96);
  char line[192];
  for (const ScheduledJob& job : trace) {
    std::snprintf(line, sizeof(line),
                  "job=%lld tenant=%lld arrive=%.6f start=%.6f finish=%.6f "
                  "req=%.3f grant=%.3f\n",
                  static_cast<long long>(job.job_id),
                  static_cast<long long>(job.tenant_id), job.arrival_seconds,
                  job.start_seconds, job.finish_seconds, job.requested_tokens,
                  job.granted_tokens);
    out += line;
  }
  return out;
}

TenantMetrics ComputeTenantMetrics(const std::vector<ScheduledJob>& trace,
                                   double cluster_tokens) {
  TenantMetrics metrics;
  if (trace.empty() || cluster_tokens <= 0.0) return metrics;
  double first_arrival = 1e300;
  double last_finish = 0.0;
  double served_token_seconds = 0.0;
  std::vector<double> waits;
  std::vector<double> latencies;
  std::map<int64_t, std::vector<double>> tenant_latencies;
  for (const ScheduledJob& job : trace) {
    first_arrival = std::min(first_arrival, job.arrival_seconds);
    last_finish = std::max(last_finish, job.finish_seconds);
    double held =
        job.granted_tokens > 0.0 ? job.granted_tokens : job.requested_tokens;
    double service = held * job.runtime_seconds;
    served_token_seconds += service;
    metrics.tenant_service_token_seconds[job.tenant_id] += service;
    waits.push_back(job.wait_seconds());
    double latency = job.finish_seconds - job.arrival_seconds;
    latencies.push_back(latency);
    tenant_latencies[job.tenant_id].push_back(latency);
  }
  double span = std::max(0.0, last_finish - first_arrival);
  if (span > 0.0) {
    metrics.utilization = served_token_seconds / (cluster_tokens * span);
  }
  double sum = 0.0;
  double sum_squares = 0.0;
  for (const auto& [tenant, service] : metrics.tenant_service_token_seconds) {
    sum += service;
    sum_squares += service * service;
    (void)tenant;
  }
  double n = static_cast<double>(metrics.tenant_service_token_seconds.size());
  // All-zero service means nothing ran; call that perfectly fair rather
  // than dividing 0/0.
  metrics.jain_fairness =
      sum_squares > 0.0 ? (sum * sum) / (n * sum_squares) : 1.0;
  metrics.p95_wait_seconds = Quantile(waits, 0.95);
  metrics.mean_latency_seconds = Mean(latencies);
  for (const auto& [tenant, values] : tenant_latencies) {
    metrics.tenant_mean_latency_seconds[tenant] = Mean(values);
  }
  return metrics;
}

double LiarsGain(const TenantMetrics& honest, const TenantMetrics& lying,
                 int64_t tenant_id) {
  auto honest_it = honest.tenant_mean_latency_seconds.find(tenant_id);
  auto lying_it = lying.tenant_mean_latency_seconds.find(tenant_id);
  if (honest_it == honest.tenant_mean_latency_seconds.end() ||
      lying_it == lying.tenant_mean_latency_seconds.end()) {
    return 0.0;
  }
  if (honest_it->second <= 0.0) return 0.0;
  return (honest_it->second - lying_it->second) / honest_it->second;
}

}  // namespace tasq
