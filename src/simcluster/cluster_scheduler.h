#ifndef TASQ_SIMCLUSTER_CLUSTER_SCHEDULER_H_
#define TASQ_SIMCLUSTER_CLUSTER_SCHEDULER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "simcluster/cluster_simulator.h"
#include "simcluster/job_plan.h"

namespace tasq {

/// One job submitted to the shared cluster with a guaranteed token request.
struct Submission {
  int64_t job_id = 0;
  double arrival_seconds = 0.0;
  /// Tokens to reserve for the job's whole lifetime (SCOPE's guaranteed
  /// allocation: the job cannot start until the full request is free).
  /// This is the *user-reported* demand — a strategic tenant may inflate
  /// it, which is exactly what the arbiter policies are measured against.
  double requested_tokens = 1.0;
  JobPlan plan;
  /// Owning tenant (user / virtual cluster). The FIFO baseline ignores it;
  /// the multi-tenant arbiter policies allocate across tenants.
  int64_t tenant_id = 0;
};

/// Scheduling outcome of one submission.
struct ScheduledJob {
  int64_t job_id = 0;
  double arrival_seconds = 0.0;
  double start_seconds = 0.0;
  double finish_seconds = 0.0;
  double requested_tokens = 0.0;
  double runtime_seconds = 0.0;
  /// Tokens actually granted and held for the job's lifetime. Equals
  /// requested_tokens under FIFO gang admission; an arbiter may grant
  /// less (partial grant) but never more.
  double granted_tokens = 0.0;
  int64_t tenant_id = 0;

  double wait_seconds() const { return start_seconds - arrival_seconds; }
};

/// Configuration of the shared cluster.
struct SchedulerConfig {
  /// Total tokens in the cluster's pool.
  double cluster_tokens = 1000.0;
  /// When true, running jobs progressively release tokens they will never
  /// need again (the suffix maximum of their usage skyline) back to the
  /// pool — the adaptive-peak policy of the paper's [9] baseline. Jobs
  /// still gang-admit at their full request. Not supported together with
  /// an arbiter (arbiter grants are held whole until completion).
  bool adaptive_release = false;
  NoiseModel noise;
  uint64_t seed = 0;
};

/// A job waiting in the queue, as seen by an arbiter. `index` refers to
/// the submissions vector passed to ClusterScheduler::Run; `pending` views
/// are always in arrival order (ties by submission order).
struct PendingJob {
  size_t index = 0;
  // own: borrowed views the caller's submissions vector for one Run call
  const Submission* submission = nullptr;
};

/// A job currently holding tokens, as seen by an arbiter.
struct RunningJob {
  size_t index = 0;
  int64_t tenant_id = 0;
  double granted_tokens = 0.0;
};

/// One admission decision: start pending job `index` now, holding `tokens`
/// for its whole runtime. `tokens` must lie in [1, requested_tokens] and
/// the grants of one arbitration must sum to at most the free pool.
struct TokenGrant {
  size_t index = 0;
  double tokens = 0.0;
};

/// Everything an arbiter may condition on at one scheduling event. The
/// referenced vectors are owned by the scheduler and valid only for the
/// duration of the Arbitrate call.
struct ArbitrationContext {
  double now = 0.0;
  double free_tokens = 0.0;
  double cluster_tokens = 0.0;
  const std::vector<PendingJob>& pending;
  const std::vector<RunningJob>& running;
};

/// Strict FIFO gang admission: grants pending jobs their full request in
/// arrival order and stops at the first one that does not fit the free
/// pool (no backfilling). ClusterScheduler::Run admits through it when no
/// arbiter is given, and the kFifoGang policy returns it.
std::vector<TokenGrant> FifoGangGrants(const ArbitrationContext& context);

/// Decides, at each scheduling event, which queued jobs start now and at
/// what token grant. Implementations (welfare-maximizing, max-min fair,
/// Karma credits, and the FIFO baseline) live in src/arbiter; simcluster
/// only defines the contract so the layer DAG stays acyclic.
///
/// Contract: Arbitrate must be deterministic given (Reset inputs, call
/// sequence); grants must reference distinct pending indices with tokens
/// in [1, requested_tokens] summing to at most free_tokens. Jobs not
/// granted simply stay queued and are offered again at the next event.
class AllocationArbiter {
 public:
  virtual ~AllocationArbiter() = default;

  /// Called once per Run before any event, with the full (validated)
  /// submission trace; stateful policies reset their accounts here.
  virtual void Reset(const SchedulerConfig& config,
                     const std::vector<Submission>& submissions) = 0;

  /// Returns the grants for this scheduling event (may be empty).
  virtual std::vector<TokenGrant> Arbitrate(
      const ArbitrationContext& context) = 0;
};

/// A gang-admission scheduler over a finite token pool — the cluster-
/// level substrate behind the paper's §1 motivation that smaller token
/// requests "reduce job wait time and improve overall resource
/// availability".
///
/// Submissions queue in arrival order. At every scheduling event the
/// admission policy sees the pending queue, the running set, and the free
/// pool, and returns the grants to start now: FifoGangGrants by default
/// (strict FIFO, so over-allocation directly translates into head-of-line
/// blocking), or an arbiter's. Admitted jobs run on a private
/// ClusterSimulator at their granted allocation and hold it until
/// completion (or, with adaptive_release, its suffix maximum).
class ClusterScheduler {
 public:
  explicit ClusterScheduler(SchedulerConfig config)
      : config_(std::move(config)) {}

  /// Simulates the whole submission trace in one event loop: at each
  /// event instant, completions free their tokens first, simultaneous
  /// arrivals then join the queue, and admission runs last — through
  /// `arbiter` (Reset first) when given, else FifoGangGrants. If no token
  /// is held or still due back, the trace is exhausted, and admission
  /// still grants nothing, the oldest pending job is force-admitted at its
  /// full request so every trace drains (no-starvation backstop, see
  /// DESIGN.md). Fails if any request exceeds the pool or any plan is
  /// invalid. Results are in submission order.
  TASQ_NODISCARD Result<std::vector<ScheduledJob>> Run(
      std::vector<Submission> submissions,
      AllocationArbiter* arbiter = nullptr) const;

  const SchedulerConfig& config() const { return config_; }

 private:
  SchedulerConfig config_;
};

/// Aggregate queueing statistics for a scheduled trace.
struct TraceSummary {
  double mean_wait_seconds = 0.0;
  double median_wait_seconds = 0.0;
  double p95_wait_seconds = 0.0;
  double mean_runtime_seconds = 0.0;
  /// Makespan of the whole trace (last finish - first arrival).
  double span_seconds = 0.0;
  /// Mean fraction of the pool reserved over the span.
  double mean_reserved_fraction = 0.0;
};

/// Summarizes a trace returned by ClusterScheduler::Run. Reservation
/// accounting uses granted tokens when present (arbiter traces) and falls
/// back to requested tokens for hand-built jobs. Degenerate inputs — an
/// empty trace, a non-positive pool, or a zero-length span (e.g. a single
/// zero-runtime job) — return all-zero summaries rather than dividing by
/// zero.
TraceSummary SummarizeTrace(const std::vector<ScheduledJob>& trace,
                            double cluster_tokens);

}  // namespace tasq

#endif  // TASQ_SIMCLUSTER_CLUSTER_SCHEDULER_H_
