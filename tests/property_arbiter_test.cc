// Policy-generic property battery over the allocation arbiter: every
// policy (FIFO gang, welfare-max, max-min fair, Karma) must satisfy the
// fairness-independent invariants — conservation (held tokens never
// exceed the pool at any instant), no starvation (every job eventually
// starts), pool monotonicity (a bigger pool never increases any job's
// wait), Karma credit conservation (the credit ledger is zero-sum), and
// byte-identical determinism across same-seed runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "arbiter/allocation_arbiter.h"
#include "common/rng.h"
#include "simcluster/cluster_scheduler.h"
#include "workload/generator.h"

namespace tasq {
namespace {

constexpr int kNumTenants = 6;

struct BatteryCase {
  ArbiterPolicy policy;
  uint64_t seed;
};

std::string CaseName(const ::testing::TestParamInfo<BatteryCase>& info) {
  return std::string(ArbiterPolicyName(info.param.policy)) + "_seed" +
         std::to_string(info.param.seed);
}

/// A bursty multi-tenant trace: the regime where arbitration decisions
/// actually differ (an idle pool admits everything immediately).
std::vector<Submission> MakeTrace(uint64_t seed, int64_t num_jobs,
                                  double cluster_tokens) {
  WorkloadConfig config;
  config.seed = seed;
  WorkloadGenerator generator(config);
  auto jobs = generator.Generate(static_cast<int64_t>(seed) * 1000, num_jobs);
  Rng rng(seed * 7919 + 1);
  std::vector<Submission> submissions;
  double burst_start = 0.0;
  size_t i = 0;
  while (i < jobs.size()) {
    burst_start += rng.LogNormal(std::log(60.0), 0.7);
    int64_t burst = rng.UniformInt(2, 6);
    for (int64_t k = 0; k < burst && i < jobs.size(); ++k, ++i) {
      Submission submission;
      submission.job_id = jobs[i].id;
      submission.tenant_id = static_cast<int64_t>(i % kNumTenants);
      submission.arrival_seconds = burst_start + rng.Uniform(0.0, 3.0);
      submission.requested_tokens =
          std::min(cluster_tokens, std::max(1.0, jobs[i].default_tokens));
      submission.plan = jobs[i].plan;
      submissions.push_back(std::move(submission));
    }
  }
  return submissions;
}

std::vector<ScheduledJob> RunPolicy(const std::vector<Submission>& submissions,
                                    ArbiterPolicy policy,
                                    double cluster_tokens,
                                    std::unique_ptr<PolicyArbiter>* out =
                                        nullptr) {
  ArbiterOptions options;
  options.policy = policy;
  auto arbiter = MakeArbiter(options, BeliefsFromPlans(submissions));
  ClusterScheduler scheduler(SchedulerConfig{cluster_tokens, false, {}, 11});
  auto trace = scheduler.Run(submissions, arbiter.get());
  EXPECT_TRUE(trace.ok());
  if (out != nullptr) *out = std::move(arbiter);
  return trace.ok() ? trace.value() : std::vector<ScheduledJob>{};
}

class ArbiterPropertyTest : public ::testing::TestWithParam<BatteryCase> {};

TEST_P(ArbiterPropertyTest, ConservationHeldNeverExceedsPool) {
  const double pool = 400.0;
  auto submissions = MakeTrace(GetParam().seed, 60, pool);
  auto trace = RunPolicy(submissions, GetParam().policy, pool);
  ASSERT_EQ(trace.size(), submissions.size());
  // Sweep the trace's acquire/release events in time order; at any
  // instant the held tokens must fit the pool. Releases sort before
  // acquisitions at the same time stamp (the scheduler frees completed
  // grants before admitting into the same event).
  struct Event {
    double time;
    double delta;  // Positive acquires, negative releases.
  };
  std::vector<Event> events;
  for (const ScheduledJob& job : trace) {
    events.push_back(Event{job.start_seconds, job.granted_tokens});
    events.push_back(Event{job.finish_seconds, -job.granted_tokens});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     if (a.time != b.time) return a.time < b.time;
                     return a.delta < b.delta;
                   });
  double held = 0.0;
  for (const Event& event : events) {
    held += event.delta;
    EXPECT_LE(held, pool + 1e-6);
    EXPECT_GE(held, -1e-6);
  }
}

TEST_P(ArbiterPropertyTest, NoStarvationEveryJobRuns) {
  const double pool = 300.0;
  auto submissions = MakeTrace(GetParam().seed, 50, pool);
  auto trace = RunPolicy(submissions, GetParam().policy, pool);
  ASSERT_EQ(trace.size(), submissions.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    const ScheduledJob& job = trace[i];
    EXPECT_EQ(job.job_id, submissions[i].job_id);
    EXPECT_GE(job.start_seconds, job.arrival_seconds);
    EXPECT_GE(job.finish_seconds, job.start_seconds);
    EXPECT_GE(job.granted_tokens, 1.0 - 1e-9);
    EXPECT_LE(job.granted_tokens, submissions[i].requested_tokens + 1e-9);
  }
}

TEST_P(ArbiterPropertyTest, PoolMonotonicityMoreTokensNeverHurt) {
  auto submissions = MakeTrace(GetParam().seed, 40, 300.0);
  auto small_pool = RunPolicy(submissions, GetParam().policy, 300.0);
  auto large_pool = RunPolicy(submissions, GetParam().policy, 600.0);
  ASSERT_EQ(small_pool.size(), large_pool.size());
  // Doubling the pool must not increase the trace's mean wait under any
  // policy. Per-job monotonicity additionally holds for the gang
  // baseline; the partial-grant policies are subject to Graham-style
  // scheduling anomalies (a bigger pool changes grant sizes, which can
  // reorder individual completions), so per-job it is deliberately not
  // asserted for them — see DESIGN.md "Cluster arbiter".
  TraceSummary small_summary = SummarizeTrace(small_pool, 300.0);
  TraceSummary large_summary = SummarizeTrace(large_pool, 600.0);
  EXPECT_LE(large_summary.mean_wait_seconds,
            small_summary.mean_wait_seconds + 1e-6);
  if (GetParam().policy == ArbiterPolicy::kFifoGang) {
    for (size_t i = 0; i < small_pool.size(); ++i) {
      EXPECT_LE(large_pool[i].wait_seconds(),
                small_pool[i].wait_seconds() + 1e-6)
          << "job " << small_pool[i].job_id << " waits longer with 2x pool";
    }
  }
}

TEST_P(ArbiterPropertyTest, DeterminismByteIdenticalReruns) {
  const double pool = 350.0;
  auto submissions = MakeTrace(GetParam().seed, 50, pool);
  auto first = RunPolicy(submissions, GetParam().policy, pool);
  auto second = RunPolicy(submissions, GetParam().policy, pool);
  EXPECT_EQ(FormatTrace(first), FormatTrace(second));
}

TEST_P(ArbiterPropertyTest, KarmaCreditLedgerIsZeroSum) {
  if (GetParam().policy != ArbiterPolicy::kKarma) {
    GTEST_SKIP() << "credit ledger applies to kKarma only";
  }
  const double pool = 300.0;
  auto submissions = MakeTrace(GetParam().seed, 50, pool);
  std::unique_ptr<PolicyArbiter> arbiter;
  auto trace = RunPolicy(submissions, GetParam().policy, pool, &arbiter);
  ASSERT_EQ(trace.size(), submissions.size());
  ASSERT_NE(arbiter, nullptr);
  const auto& credits = arbiter->tenant_credits();
  ASSERT_FALSE(credits.empty());
  double initial_sum = arbiter->options().karma_initial_credits *
                       static_cast<double>(credits.size());
  double sum = 0.0;
  for (const auto& [tenant, balance] : credits) {
    // Debt stays within the bound for every account.
    EXPECT_GE(balance, -kKarmaMaxDebt - 1e-6);
    sum += balance;
    (void)tenant;
  }
  // Bursts move credits between accounts but never create or destroy
  // them: the total equals the initial endowment.
  EXPECT_NEAR(sum, initial_sum, 1e-6 * std::max(1.0, initial_sum));
}

std::vector<BatteryCase> AllCases() {
  std::vector<BatteryCase> cases;
  for (int p = 0; p < kArbiterPolicyCount; ++p) {
    for (uint64_t seed : {3u, 17u}) {
      cases.push_back(BatteryCase{static_cast<ArbiterPolicy>(p), seed});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Policies, ArbiterPropertyTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

}  // namespace
}  // namespace tasq
