#include "simcluster/cluster_simulator.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <queue>
#include <vector>

#include "common/check.h"
#include "common/rng.h"

namespace tasq {
namespace {

/// Duration multiplier applied to straggler tasks.
constexpr double kStragglerFactor = 2.0;

// Accumulates busy-token time into 1-second ticks. Full ticks covered by a
// task interval go through a difference array (O(1) per task); the
// fractional edges are added directly, so the final skyline area equals the
// exact busy token-time.
class SkylineRecorder {
 public:
  void Paint(double start, double end) {
    if (end <= start) return;
    EnsureSize(static_cast<size_t>(std::floor(end)) + 2);
    double first_full = std::ceil(start);
    size_t start_tick = static_cast<size_t>(std::floor(start));
    if (first_full >= end) {
      // Interval lies within a single tick.
      partial_[start_tick] += end - start;
      return;
    }
    if (first_full > start) {
      partial_[start_tick] += first_full - start;
    }
    double last_full = std::floor(end);
    if (last_full > first_full) {
      full_diff_[static_cast<size_t>(first_full)] += 1.0;
      full_diff_[static_cast<size_t>(last_full)] -= 1.0;
    }
    if (end > last_full) {
      partial_[static_cast<size_t>(last_full)] += end - last_full;
    }
  }

  Skyline Finish(double makespan) const {
    size_t ticks = static_cast<size_t>(std::ceil(makespan));
    std::vector<double> usage(ticks, 0.0);
    double running = 0.0;
    for (size_t t = 0; t < ticks; ++t) {
      if (t < full_diff_.size()) running += full_diff_[t];
      usage[t] = running + (t < partial_.size() ? partial_[t] : 0.0);
    }
    return Skyline(std::move(usage));
  }

 private:
  void EnsureSize(size_t n) {
    if (full_diff_.size() < n) {
      full_diff_.resize(n, 0.0);
      partial_.resize(n, 0.0);
    }
  }

  std::vector<double> full_diff_;
  std::vector<double> partial_;
};

struct Completion {
  double time;
  int stage;
  bool operator>(const Completion& other) const { return time > other.time; }
};

}  // namespace

Result<RunResult> ClusterSimulator::Run(const JobPlan& plan,
                                        const RunConfig& config) const {
  Status valid = plan.Validate();
  if (!valid.ok()) return valid;
  if (config.tokens < 1.0) {
    return Status::InvalidArgument("token allocation must be at least 1");
  }
  // Tokens are integral units of admission; a fractional request is floored.
  int capacity = static_cast<int>(std::floor(config.tokens));

  size_t n = plan.stages.size();
  std::vector<std::vector<int>> dependents(n);
  std::vector<int> pending_deps(n, 0);
  std::vector<int> tasks_to_start(n);
  std::vector<int> tasks_unfinished(n);
  for (size_t i = 0; i < n; ++i) {
    tasks_to_start[i] = plan.stages[i].num_tasks;
    tasks_unfinished[i] = plan.stages[i].num_tasks;
    pending_deps[i] = static_cast<int>(plan.stages[i].dependencies.size());
    for (int dep : plan.stages[i].dependencies) {
      dependents[dep].push_back(static_cast<int>(i));
    }
  }

  std::deque<int> ready;
  for (size_t i = 0; i < n; ++i) {
    if (pending_deps[i] == 0) ready.push_back(static_cast<int>(i));
  }

  // One stream per run: each task's draws in the order tasks start, then
  // the usage draws. The run's noise is a pure function of its seed
  // (distinct seeds model distinct flights), and a task pays for its draws
  // only, not for seeding an engine of its own (see Rng::Fork).
  Rng rng(config.seed);
  // Draws a task's effective duration.
  auto task_duration = [&](int stage) {
    double base = plan.stages[stage].task_duration_seconds;
    if (!config.noise.enabled) return base;
    double sigma = config.noise.duration_jitter_sigma;
    double duration = base;
    if (sigma > 0.0) {
      // Log-normal multiplier with mean 1.
      duration *= rng.LogNormal(-sigma * sigma / 2.0, sigma);
    }
    if (rng.Bernoulli(config.noise.straggler_probability)) {
      duration *= kStragglerFactor;
    }
    if (rng.Bernoulli(config.noise.failure_probability)) {
      // The failed attempt holds the token for a fraction of the duration,
      // then the task reruns from scratch.
      duration *= 1.0 + rng.Uniform(0.2, 0.8);
    }
    return duration;
  };

  SkylineRecorder recorder;
  std::priority_queue<Completion, std::vector<Completion>, std::greater<>>
      completions;
  double now = 0.0;
  double makespan = 0.0;
  int free_tokens = capacity;
  int running = 0;
  int peak_running = 0;

  double busy_token_seconds = 0.0;

  while (true) {
    // Start as many ready tasks as tokens allow, FIFO across ready stages.
    while (free_tokens > 0 && !ready.empty()) {
      int stage = ready.front();
      double duration = task_duration(stage);
      // Drawn durations stay positive: every noise channel multiplies the
      // positive base duration by a positive factor. A zero/negative draw
      // would let a task "finish before it starts".
      TASQ_DCHECK_GT(duration, 0.0);
      recorder.Paint(now, now + duration);
      busy_token_seconds += duration;
      completions.push(Completion{now + duration, stage});
      --free_tokens;
      ++running;
      peak_running = std::max(peak_running, running);
      if (--tasks_to_start[stage] == 0) ready.pop_front();
    }
    // Token conservation: tasks in flight never exceed the admission
    // capacity, and the free count never goes negative.
    TASQ_CHECK_GE(free_tokens, 0);
    TASQ_CHECK_LE(running, capacity);
    TASQ_CHECK_EQ(free_tokens + running, capacity);
    if (completions.empty()) break;
    Completion done = completions.top();
    completions.pop();
    // Event time is monotone: the earliest pending completion can never
    // precede the clock (it was scheduled at start + positive duration).
    TASQ_CHECK_GE(done.time, now);
    now = done.time;
    makespan = std::max(makespan, now);
    ++free_tokens;
    --running;
    if (--tasks_unfinished[done.stage] == 0) {
      // Stage barrier released: dependents may become ready.
      for (int next : dependents[done.stage]) {
        if (--pending_deps[next] == 0) ready.push_back(next);
      }
    }
  }

  // Termination state: every task returned its token and every stage
  // drained. A leftover count means the DAG deadlocked or double-counted.
  TASQ_CHECK_EQ(running, 0);
  TASQ_CHECK_EQ(free_tokens, capacity);
  for (size_t i = 0; i < n; ++i) {
    TASQ_CHECK_EQ(tasks_unfinished[i], 0);
  }

  RunResult result;
  result.runtime_seconds = makespan;
  result.peak_tokens_used = static_cast<double>(peak_running);
  result.skyline = recorder.Finish(makespan);
  // Area conservation: the recorded skyline accounts for exactly the busy
  // token-time that was painted (SkylineRecorder's contract), up to
  // floating-point accumulation across ticks.
  TASQ_DCHECK_LE(std::fabs(result.skyline.Area() - busy_token_seconds),
                 1e-6 * std::max(1.0, busy_token_seconds));
  if (config.noise.enabled) {
    // Per-run usage-accounting noise: the recorded skyline scales without
    // the run time moving (idle token holding); rare gross outliers can
    // exceed the allocation, as errant production jobs do.
    double scale = 1.0;
    if (config.noise.usage_scale_sigma > 0.0) {
      scale = rng.LogNormal(0.0, config.noise.usage_scale_sigma);
    }
    bool outlier = rng.Bernoulli(config.noise.usage_outlier_probability);
    if (outlier) scale *= rng.Uniform(1.5, 2.5);
    // num: float-eq exactly-1 scale is a pure no-op skip
    if (scale != 1.0) {
      std::vector<double> scaled = result.skyline.values();
      for (double& v : scaled) {
        v *= scale;
        // Ordinary accounting noise cannot report more tokens than the
        // grant; only errant (outlier) runs exceed it.
        if (!outlier) v = std::min(v, static_cast<double>(capacity));
      }
      result.skyline = Skyline(std::move(scaled));
      result.peak_tokens_used = std::max(result.peak_tokens_used * scale,
                                         result.skyline.Peak());
      if (!outlier) {
        result.peak_tokens_used =
            std::min(result.peak_tokens_used, static_cast<double>(capacity));
      }
    }
  }
  return result;
}

}  // namespace tasq
