#ifndef TASQ_ARBITER_ALLOCATION_ARBITER_H_
#define TASQ_ARBITER_ALLOCATION_ARBITER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "pcc/pcc.h"
#include "simcluster/cluster_scheduler.h"

namespace tasq {

/// Multi-tenant allocation policies over the shared token pool (ROADMAP
/// item 2). The paper optimizes one job's request in isolation; these
/// policies solve the *global* problem at every scheduling event: which
/// pending jobs start now, and at what grant, given the jobs' predicted
/// PCCs and a finite pool shared by competing tenants.
enum class ArbiterPolicy : int {
  /// Strict FIFO gang admission at the full request (FifoGangGrants, the
  /// scheduler's default), kept as the baseline.
  kFifoGang = 0,
  /// Maximize total predicted throughput: seed jobs by their predicted
  /// throughput at entry grant, then water-fill the pool one quantum at a
  /// time toward the highest marginal gain (d(1/runtime)/d(tokens) from
  /// the PCC). Deliberately strategy-naive: a tenant that inflates its
  /// request raises its grant cap and entry grant, so lying pays.
  kWelfareMax,
  /// Max-min fairness with demand caps: progressive filling raises the
  /// lowest-usage tenant first until demands are met or the pool is dry;
  /// each tenant spends its share on its own jobs FIFO.
  kMaxMinFair,
  /// Karma-style credit accounts (Vuppalapati et al.): usage within the
  /// per-tenant fair share is free; bursting beyond it costs credits
  /// (price x over-share token-seconds, predicted from the PCC) paid to
  /// the tenants currently donating headroom. Debt is bounded, so a
  /// persistent liar goes broke and collapses back to its fair share.
  kKarma,
};

inline constexpr int kArbiterPolicyCount = 4;

/// Short lowercase slug ("fifo", "welfare", "maxmin", "karma") used in
/// tables and BENCH_arbiter.json keys.
const char* ArbiterPolicyName(ArbiterPolicy policy);

/// Karma: how far below zero a tenant's balance may go.
inline constexpr double kKarmaMaxDebt = 0.0;

/// The policy and its knobs.
struct ArbiterOptions {
  ArbiterPolicy policy = ArbiterPolicy::kFifoGang;
  /// Karma: initial per-tenant credit balance (token-second units).
  double karma_initial_credits = 5000.0;
};

/// The arbiter's belief about each job's performance characteristic
/// curve, keyed by job_id. Jobs without an entry fall back to the plan's
/// analytic bound max(critical_path, work / tokens).
using PccBeliefs = std::map<int64_t, PowerLawPcc>;

/// Base of all policy implementations. Exposes the Karma credit accounts
/// (empty for the other policies) so tests can assert credit
/// conservation and debt bounds.
class PolicyArbiter : public AllocationArbiter {
 public:
  const ArbiterOptions& options() const { return options_; }
  /// Per-tenant credit balances; populated by kKarma only.
  const std::map<int64_t, double>& tenant_credits() const { return credits_; }

 protected:
  PolicyArbiter(ArbiterOptions options, PccBeliefs beliefs);

  /// Predicted runtime of `submission` at `tokens`: the job's PCC belief
  /// when one is known and monotone, else the plan's analytic bound.
  double PredictRuntime(const Submission& submission, double tokens) const;

  ArbiterOptions options_;
  PccBeliefs beliefs_;
  std::map<int64_t, double> credits_;
};

/// Builds the arbiter for `options.policy`.
std::unique_ptr<PolicyArbiter> MakeArbiter(const ArbiterOptions& options,
                                           PccBeliefs beliefs);

/// Fits a power-law PCC belief per submission from the plan's analytic
/// runtime bound max(critical_path, work / tokens) sampled at doubling
/// token counts — the stand-in for a trained TASQ model when arbitrating
/// synthetic traces. Jobs whose fit diverges are simply omitted (the
/// arbiter falls back to the analytic bound itself).
PccBeliefs BeliefsFromPlans(const std::vector<Submission>& submissions);

/// Returns `submissions` with tenant `tenant_id`'s requests multiplied by
/// `factor` and clamped to [1, cap] — the misreporting-tenant model used
/// to measure strategy-proofness.
std::vector<Submission> WithInflatedRequests(
    std::vector<Submission> submissions, int64_t tenant_id, double factor,
    double cap);

/// Canonical one-line-per-job text rendering of a trace (submission
/// order, fixed precision). Byte-identical renderings are the
/// determinism and golden-test currency.
std::string FormatTrace(const std::vector<ScheduledJob>& trace);

/// Cross-tenant outcome metrics of one scheduled trace.
struct TenantMetrics {
  /// Granted token-seconds over pool x span (how busy the pool was).
  double utilization = 0.0;
  /// Jain's fairness index over per-tenant granted token-seconds
  /// (1 = perfectly equal service).
  double jain_fairness = 0.0;
  double p95_wait_seconds = 0.0;
  double mean_latency_seconds = 0.0;
  std::map<int64_t, double> tenant_service_token_seconds;
  std::map<int64_t, double> tenant_mean_latency_seconds;
};

TenantMetrics ComputeTenantMetrics(const std::vector<ScheduledJob>& trace,
                                   double cluster_tokens);

/// Relative mean-latency advantage tenant `tenant_id` gained by lying:
/// (honest - lying) / honest of its mean end-to-end latency. Positive
/// means misreporting paid off; a strategy-proof policy keeps this near
/// zero. Returns 0 when the tenant is absent or has no latency.
double LiarsGain(const TenantMetrics& honest, const TenantMetrics& lying,
                 int64_t tenant_id);

}  // namespace tasq

#endif  // TASQ_ARBITER_ALLOCATION_ARBITER_H_
