#include "spark/autoexecutor.h"

#include <algorithm>
#include <cmath>

#include "tasq/tasq.h"

namespace tasq {

/// Noise of the one observed run per query that AutoExecutor trains on.
constexpr NoiseModel kObservationNoise = {.enabled = true};

Result<ExecutorRunResult> RunOnExecutors(const JobPlan& plan, int executors,
                                         const SparkPlatformConfig& platform,
                                         const NoiseModel& noise,
                                         uint64_t seed) {
  if (executors < 1) {
    return Status::InvalidArgument("executor count must be at least 1");
  }
  if (platform.cores_per_executor < 1) {
    return Status::InvalidArgument("cores per executor must be at least 1");
  }
  ClusterSimulator simulator;
  RunConfig config;
  config.tokens =
      static_cast<double>(executors) *
      static_cast<double>(platform.cores_per_executor);
  config.noise = noise;
  config.seed = seed;
  Result<RunResult> run = simulator.Run(plan, config);
  if (!run.ok()) return run.status();
  // Convert the core-level skyline into executor units.
  double cores = static_cast<double>(platform.cores_per_executor);
  std::vector<double> executor_usage = run.value().skyline.values();
  for (double& v : executor_usage) v /= cores;
  ExecutorRunResult result;
  result.executor_skyline = Skyline(std::move(executor_usage));
  result.runtime_seconds = run.value().runtime_seconds;
  result.peak_executors_used = run.value().peak_tokens_used / cores;
  return result;
}

struct AutoExecutor::Impl {
  AutoExecutorOptions options;
  Tasq tasq;

  int DefaultExecutors(const Job& job) const {
    int cores = options.platform.cores_per_executor;
    int executors = static_cast<int>(
        std::ceil(job.default_tokens / static_cast<double>(cores)));
    return std::clamp(executors, 1, options.platform.max_executors);
  }
};

AutoExecutor::AutoExecutor(AutoExecutorOptions options)
    : impl_(std::make_unique<Impl>()) {
  impl_->options = std::move(options);
}
AutoExecutor::~AutoExecutor() = default;
AutoExecutor::AutoExecutor(AutoExecutor&&) noexcept = default;
AutoExecutor& AutoExecutor::operator=(AutoExecutor&&) noexcept = default;

bool AutoExecutor::trained() const { return impl_->tasq.trained(); }
const AutoExecutorOptions& AutoExecutor::options() const {
  return impl_->options;
}

Status AutoExecutor::Train(const std::vector<Job>& jobs) {
  if (jobs.empty()) {
    return Status::InvalidArgument("cannot train on zero jobs");
  }
  if (impl_->options.nn.loss_form == LossForm::kLF3) {
    return Status::InvalidArgument(
        "AutoExecutor trains only the NN; use LF1 or LF2");
  }
  // Observe each job once at its default executor count; the dataset
  // builder, AREPAS augmentation, and power-law targets are unit-agnostic,
  // so Tasq::Train runs unchanged with executors as the resource axis.
  std::vector<ObservedJob> observed;
  observed.reserve(jobs.size());
  for (const Job& job : jobs) {
    int executors = impl_->DefaultExecutors(job);
    Result<ExecutorRunResult> run = RunOnExecutors(
        job.plan, executors, impl_->options.platform, kObservationNoise,
        impl_->options.seed ^ (static_cast<uint64_t>(job.id) * 6364136223ULL));
    if (!run.ok()) return run.status();
    ObservedJob entry;
    entry.job = job;
    entry.skyline = std::move(run.value().executor_skyline);
    entry.runtime_seconds = run.value().runtime_seconds;
    entry.observed_tokens = static_cast<double>(executors);
    entry.peak_tokens = run.value().peak_executors_used;
    observed.push_back(std::move(entry));
  }
  TasqOptions options;
  options.nn = impl_->options.nn;
  options.train_xgb = false;
  options.train_gnn = false;
  Tasq tasq(options);
  Status trained = tasq.Train(observed);
  if (!trained.ok()) return trained;
  impl_->tasq = std::move(tasq);
  return Status::Ok();
}

Result<PowerLawPcc> AutoExecutor::PredictPcc(const JobGraph& graph) const {
  // The NN does not read the reference allocation; 1 executor is valid.
  return impl_->tasq.PredictPcc(graph, ModelKind::kNn, 1.0);
}

Result<int> AutoExecutor::RecommendExecutors(
    const JobGraph& graph, int max_executors,
    double min_improvement_percent) const {
  Result<PowerLawPcc> pcc = PredictPcc(graph);
  if (!pcc.ok()) return pcc.status();
  int cap = std::min(max_executors, impl_->options.platform.max_executors);
  if (cap < 1) {
    return Status::InvalidArgument("executor cap must be at least 1");
  }
  double optimal = pcc.value().OptimalTokens(min_improvement_percent,
                                             static_cast<double>(cap));
  return static_cast<int>(std::lround(std::clamp(
      optimal, 1.0, static_cast<double>(cap))));
}

}  // namespace tasq
