// Extension experiment (ROADMAP item 2): multi-tenant arbitration of the
// shared token pool. Replays a bursty multi-tenant submission trace under
// the four arbiter policies (FIFO gang baseline, welfare-maximizing
// water-filling, max-min fair progressive filling, Karma credits) and
// reports utilization, Jain's fairness index across tenants, p95 wait,
// mean latency — and the liar's gain: how much a tenant that inflates its
// requests 3x improves its own mean latency under each policy. Karma
// should bound that gain; welfare-max is deliberately exploitable.

#include <cstdio>
#include <iostream>

#include "arbiter/allocation_arbiter.h"
#include "bench/bench_util.h"
#include "bench/machine_stamp.h"
#include "simcluster/cluster_scheduler.h"

namespace tasq {

int Main() {
  auto sizes = bench::BenchSizes::FromEnv();
  auto generator = bench::MakeGenerator();
  int64_t num_jobs = std::max<int64_t>(400, sizes.survey_jobs * 5 / 2);
  constexpr int kNumTenants = 8;
  constexpr double kClusterTokens = 600.0;
  constexpr int64_t kLiarTenant = 0;
  constexpr double kInflation = 3.0;

  // Bursty arrivals: tenants submit in bursts of 4-12 jobs landing within
  // a few seconds, separated by lognormal lulls — the regime where
  // arbitration matters (an idle pool needs no policy).
  auto incoming = generator.Generate(40000, num_jobs);
  Rng rng(515151);
  std::vector<Submission> honest;
  double burst_start = 0.0;
  size_t i = 0;
  while (i < incoming.size()) {
    burst_start += rng.LogNormal(std::log(220.0), 0.8);
    int64_t burst = rng.UniformInt(4, 12);
    for (int64_t k = 0; k < burst && i < incoming.size(); ++k, ++i) {
      Submission submission;
      submission.job_id = incoming[i].id;
      submission.tenant_id = static_cast<int64_t>(i % kNumTenants);
      submission.arrival_seconds = burst_start + rng.Uniform(0.0, 5.0);
      submission.requested_tokens = std::min(
          kClusterTokens, std::max(1.0, incoming[i].default_tokens));
      submission.plan = incoming[i].plan;
      honest.push_back(std::move(submission));
    }
  }
  std::vector<Submission> lying = WithInflatedRequests(
      honest, kLiarTenant, kInflation, kClusterTokens);
  PccBeliefs beliefs = BeliefsFromPlans(honest);

  NoiseModel noise;
  noise.enabled = true;
  ClusterScheduler scheduler(SchedulerConfig{kClusterTokens, false, noise, 99});

  PrintBanner(std::cout,
              "Extension: multi-tenant arbiter policies (shared pool)");
  std::printf(
      "pool %.0f tokens, %lld jobs, %d tenants, bursty arrivals;\n"
      "liar run: tenant %lld inflates requests %.0fx (capped at the pool)\n\n",
      kClusterTokens, static_cast<long long>(honest.size()), kNumTenants,
      static_cast<long long>(kLiarTenant), kInflation);

  TextTable table({"Policy", "utilization", "Jain index", "p95 wait (s)",
                   "mean latency (s)", "liar's gain"});
  bench::BenchJson json;
  bench::SetMachineStamp(json);
  json.Set("jobs", static_cast<uint64_t>(honest.size()));
  json.Set("tenants", kNumTenants);
  json.Set("pool_tokens", kClusterTokens);
  json.Set("liar_inflation", kInflation);
  for (int p = 0; p < kArbiterPolicyCount; ++p) {
    ArbiterOptions options;
    options.policy = static_cast<ArbiterPolicy>(p);
    // Credits are denominated in over-share token-seconds; size the
    // endowment to a few typical bursts (~60 tokens x ~300 s each) so
    // honest bursting is affordable while persistent inflation is not.
    options.karma_initial_credits = 40000.0;
    const char* slug = ArbiterPolicyName(options.policy);
    auto honest_arbiter = MakeArbiter(options, beliefs);
    auto honest_trace = scheduler.Run(honest, honest_arbiter.get());
    auto lying_arbiter = MakeArbiter(options, beliefs);
    auto lying_trace = scheduler.Run(lying, lying_arbiter.get());
    if (!honest_trace.ok() || !lying_trace.ok()) {
      std::fprintf(stderr, "%s trace failed\n", slug);
      return 1;
    }
    TenantMetrics metrics =
        ComputeTenantMetrics(honest_trace.value(), kClusterTokens);
    TenantMetrics lying_metrics =
        ComputeTenantMetrics(lying_trace.value(), kClusterTokens);
    double gain = LiarsGain(metrics, lying_metrics, kLiarTenant);
    table.AddRow({slug, Cell(metrics.utilization, 3),
                  Cell(metrics.jain_fairness, 3),
                  Cell(metrics.p95_wait_seconds, 0),
                  Cell(metrics.mean_latency_seconds, 0),
                  Cell(100.0 * gain, 1) + "%"});
    json.Set(std::string("util_") + slug, metrics.utilization);
    json.Set(std::string("jain_") + slug, metrics.jain_fairness);
    json.Set(std::string("p95_wait_s_") + slug, metrics.p95_wait_seconds);
    json.Set(std::string("mean_latency_s_") + slug,
             metrics.mean_latency_seconds);
    json.Set(std::string("liar_gain_") + slug, gain);
  }
  std::cout << table.ToString();
  std::cout
      << "\nExpected shape: welfare-max posts the lowest mean latency but "
         "rewards the liar (positive gain); max-min and Karma hold Jain "
         "near 1.0, and Karma prices the liar's burst in credits so its "
         "gain stays near zero — the strategy-proofness argument for "
         "credit-based arbitration.\n";
  json.WriteFile("BENCH_arbiter.json");
  return 0;
}

}  // namespace tasq

int main() { return tasq::Main(); }
