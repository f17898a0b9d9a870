#include "tasq/dataset.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "arepas/arepas.h"
#include "common/parallel.h"

namespace tasq {

/// Fractions of the job's *peak usage* where the AREPAS curve is sampled
/// to fit the power-law target (trend supervision).
constexpr std::array<double, 8> kTargetFractions = {0.2,  0.3, 0.4, 0.5,
                                                    0.65, 0.8, 0.9, 1.0};

Result<std::vector<ObservedJob>> ObserveWorkload(const std::vector<Job>& jobs,
                                                 const NoiseModel& noise,
                                                 uint64_t seed) {
  // Per-job runs are independent and seeded per job id, so the observation
  // fans out across threads with bit-identical results to a serial run.
  std::vector<ObservedJob> observed(jobs.size());
  std::vector<Status> errors(jobs.size());
  ParallelFor(jobs.size(), [&](size_t i) {
    const Job& job = jobs[i];
    ClusterSimulator simulator;
    RunConfig config;
    config.tokens = job.default_tokens;
    config.noise = noise;
    config.seed = seed ^ (static_cast<uint64_t>(job.id) * 2654435761ULL);
    Result<RunResult> run = simulator.Run(job.plan, config);
    if (!run.ok()) {
      errors[i] = run.status();
      return;
    }
    ObservedJob& entry = observed[i];
    entry.job = job;
    entry.skyline = std::move(run.value().skyline);
    entry.runtime_seconds = run.value().runtime_seconds;
    entry.observed_tokens = job.default_tokens;
    entry.peak_tokens = run.value().peak_tokens_used;
  });
  for (const Status& status : errors) {
    if (!status.ok()) return status;
  }
  return observed;
}

Result<Dataset> DatasetBuilder::Build(
    const std::vector<ObservedJob>& observed) const {
  if (observed.empty()) {
    return Status::InvalidArgument("cannot build a dataset from zero jobs");
  }
  Featurizer featurizer;
  Arepas arepas;
  Dataset dataset;
  dataset.job_feature_dim = Featurizer::kJobFeatureDim;
  dataset.op_feature_dim = Featurizer::kOperatorFeatureDim;

  for (const ObservedJob& entry : observed) {
    Result<JobFeatures> features = featurizer.Featurize(entry.job.graph);
    if (!features.ok()) return features.status();

    dataset.job_ids.push_back(entry.job.id);
    dataset.template_ids.push_back(entry.job.template_id);
    dataset.job_features.insert(dataset.job_features.end(),
                                features.value().job_vector.begin(),
                                features.value().job_vector.end());
    GraphExample graph;
    graph.num_nodes = features.value().num_operators;
    graph.node_features = std::move(features.value().op_matrix);
    graph.norm_adjacency = std::move(features.value().norm_adjacency);
    dataset.graphs.push_back(std::move(graph));

    dataset.observed_tokens.push_back(entry.observed_tokens);
    dataset.observed_runtime.push_back(entry.runtime_seconds);
    dataset.peak_tokens.push_back(entry.peak_tokens);

    // ---- Trend target: power law fitted to the AREPAS-synthesized curve.
    double peak = std::max(1.0, entry.peak_tokens);
    std::vector<double> grid;
    for (double fraction : kTargetFractions) {
      double tokens = std::max(1.0, std::round(fraction * peak));
      if (grid.empty() || tokens > grid.back()) grid.push_back(tokens);
    }
    PowerLawPcc target{0.0, std::max(entry.runtime_seconds, 1.0)};
    Result<std::vector<PccSample>> curve = SamplePcc(entry.skyline, grid);
    if (curve.ok()) {
      Result<PowerLawFit> fit = FitPowerLaw(curve.value());
      // A degenerate or (rare, quantization-induced) increasing fit falls
      // back to the flat curve at the observed run time.
      if (fit.ok() && fit.value().pcc.a <= 0.0 && fit.value().pcc.b > 0.0) {
        target = fit.value().pcc;
      }
    }
    dataset.targets.push_back(target);

    // ---- Augmented point-prediction examples (paper §4.4).
    auto append_point = [&](double tokens, double runtime) {
      size_t offset = (dataset.size() - 1) * dataset.job_feature_dim;
      dataset.point_features.insert(
          dataset.point_features.end(),
          dataset.job_features.begin() + static_cast<long>(offset),
          dataset.job_features.begin() +
              static_cast<long>(offset + dataset.job_feature_dim));
      dataset.point_tokens.push_back(tokens);
      dataset.point_runtimes.push_back(runtime);
    };
    for (double fraction : options_.point_fractions) {
      double tokens = std::max(1.0, std::round(fraction * entry.observed_tokens));
      Result<double> runtime =
          arepas.SimulateRunTimeSeconds(entry.skyline, tokens);
      if (runtime.ok()) append_point(tokens, runtime.value());
    }
    // Over-allocated examples: run time floored at the peak-allocation run
    // time (more tokens than the peak cannot help).
    for (double fraction : options_.over_peak_fractions) {
      double tokens = std::max(1.0, std::round(fraction * peak));
      append_point(tokens,
                   static_cast<double>(entry.skyline.duration_seconds()));
    }
  }
  return dataset;
}

Result<DatasetScalers> FitScalers(const Dataset& dataset) {
  if (dataset.size() == 0) {
    return Status::InvalidArgument("cannot fit scalers on an empty dataset");
  }
  Result<FeatureScaler> job_scaler = FeatureScaler::Fit(
      dataset.job_features, dataset.size(), dataset.job_feature_dim);
  if (!job_scaler.ok()) return job_scaler.status();

  std::vector<double> all_ops;
  for (const GraphExample& graph : dataset.graphs) {
    all_ops.insert(all_ops.end(), graph.node_features.begin(),
                   graph.node_features.end());
  }
  Result<FeatureScaler> op_scaler = FeatureScaler::Fit(
      all_ops, all_ops.size() / dataset.op_feature_dim,
      dataset.op_feature_dim);
  if (!op_scaler.ok()) return op_scaler.status();
  return DatasetScalers{std::move(job_scaler.value()),
                        std::move(op_scaler.value())};
}

void ApplyScalers(const DatasetScalers& scalers, Dataset& dataset) {
  scalers.job_scaler.TransformMatrix(dataset.job_features);
  scalers.job_scaler.TransformMatrix(dataset.point_features);
  for (GraphExample& graph : dataset.graphs) {
    scalers.op_scaler.TransformMatrix(graph.node_features);
  }
}

}  // namespace tasq
