#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {

void Outcome::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) Fail(what);
}

void Outcome::Fail(const std::string& what) {
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

void Outcome::Note(const char* format, ...) {
  char line[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(line, sizeof(line), format, args);
  va_end(args);
  notes.emplace_back(line);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double position = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(position));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double weight = position - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * weight;
}

double PeakRssMb() {
  rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

uint64_t Ledger::TotalAllocations() const {
  uint64_t total = 0;
  for (const auto& [name, layer] : layers_) total += layer.allocations;
  return total;
}

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

template <typename T>
void MixBytes(uint64_t& hash, const T& value) {
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  for (unsigned char byte : bytes) {
    hash ^= byte;
    hash *= kFnvPrime;
  }
}

void MixPoint(uint64_t& hash, const tasq::WhatIfPoint& point) {
  MixBytes(hash, point.tokens);
  MixBytes(hash, point.predicted_runtime_seconds);
  MixBytes(hash, point.predicted_slowdown);
  MixBytes(hash, point.token_savings_fraction);
}

}  // namespace

uint64_t ReportDigest(const tasq::WhatIfReport& report) {
  uint64_t hash = kFnvOffset;
  MixBytes(hash, static_cast<int>(report.model));
  MixBytes(hash, report.reference_tokens);
  MixBytes(hash, report.pcc.a);
  MixBytes(hash, report.pcc.b);
  MixBytes(hash, report.has_pcc);
  MixBytes(hash, report.curve.size());
  for (const tasq::WhatIfPoint& point : report.curve) MixPoint(hash, point);
  MixBytes(hash, report.elbow_tokens);
  MixPoint(hash, report.aggressive);
  MixPoint(hash, report.bounded);
  return hash;
}

namespace {
constexpr int64_t kIdsPerSeed = 1000000;
constexpr uint64_t kSeedBlocks = 1000000;
}  // namespace

JobSource::JobSource(uint64_t seed)
    : generator_(tasq::WorkloadConfig{}),
      first_id_(static_cast<int64_t>(seed % kSeedBlocks) * kIdsPerSeed) {}

std::vector<tasq::Job> JobSource::Jobs(int64_t offset, int64_t count) const {
  return generator_.Generate(first_id_ + offset, count);
}

void Die(const char* what, const tasq::Status& status) {
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  std::exit(1);
}

tasq::Result<std::vector<tasq::ObservedJob>> Observe(
    const std::vector<tasq::Job>& jobs, uint64_t seed) {
  tasq::NoiseModel noise;
  noise.enabled = true;
  return tasq::ObserveWorkload(jobs, noise, seed);
}

std::vector<tasq::ObservedJob> ObserveHoldout(uint64_t seed) {
  auto holdout = Observe(JobSource(seed).Jobs(kTrainJobs, kHoldoutJobs), seed);
  if (!holdout.ok()) Die("observe held-out jobs", holdout.status());
  return std::move(holdout.value());
}

std::unique_ptr<tasq::Tasq> TrainServingPipeline(uint64_t seed) {
  auto observed = Observe(JobSource(seed).Jobs(0, kTrainJobs), seed);
  if (!observed.ok()) Die("observe training jobs", observed.status());
  tasq::TasqOptions options;
  options.nn.epochs = 40;
  options.gnn.epochs = 2;
  options.gnn.gcn_hidden = {8};
  options.gnn.head_hidden = {8};
  options.xgb.gbdt.num_trees = 40;
  auto pipeline = std::make_unique<tasq::Tasq>(options);
  tasq::Status trained = pipeline->Train(observed.value());
  if (!trained.ok()) Die("train serving pipeline", trained);
  return pipeline;
}

tasq::TasqOptions TrainingModelOptions() {
  tasq::TasqOptions options;
  options.nn.epochs = 150;
  options.nn.learning_rate = 2e-3;
  options.gnn.epochs = 35;
  options.gnn.learning_rate = 2e-3;
  options.xgb.gbdt.num_trees = 120;
  return options;
}

double HoldoutApePct(const tasq::Tasq& pipeline,
                     const std::vector<tasq::ObservedJob>& holdout) {
  std::vector<double> errors;
  errors.reserve(holdout.size());
  for (const tasq::ObservedJob& entry : holdout) {
    tasq::Result<double> predicted = pipeline.PredictRuntime(
        entry.job.graph, tasq::ModelKind::kNn, entry.observed_tokens,
        entry.observed_tokens);
    if (!predicted.ok()) Die("held-out prediction", predicted.status());
    if (entry.runtime_seconds <= 0.0) continue;
    errors.push_back(100.0 *
                     std::fabs(predicted.value() - entry.runtime_seconds) /
                     entry.runtime_seconds);
  }
  return Median(std::move(errors));
}

}  // namespace perfbench
