// The `train` workload: the offline half of the paper's Figure 4 at the
// repository's bench model sizes. One operation is a full cycle
// ObserveWorkload -> Tasq::Train (XGBoost, NN, GNN) -> Save -> Load; the
// run repeats it for the measured time. The traced run alternates a plain
// cycle (the end-to-end time) with a replay of the public stage sequence
// Tasq::Train runs, a span around each stage.

#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "bench.h"
#include "common/text_io.h"

namespace perfbench {
namespace {

constexpr int kSetups = 3;

struct TrainInputs {
  std::vector<tasq::Job> jobs;
  std::vector<tasq::ObservedJob> holdout;
};

TrainInputs SetUp(uint64_t seed) {
  TrainInputs inputs;
  inputs.jobs = JobSource(seed).Jobs(0, kTrainJobs);
  inputs.holdout = ObserveHoldout(seed);
  return inputs;
}

struct Cycle {
  std::unique_ptr<tasq::Tasq> trained;
  std::unique_ptr<tasq::Tasq> loaded;
  std::string artifact;
  double seconds = 0.0;
};

Cycle RunCycle(const TrainInputs& inputs, uint64_t seed) {
  Cycle cycle;
  Clock::time_point start = Clock::now();
  auto observed = Observe(inputs.jobs, seed);
  if (!observed.ok()) Die("observe", observed.status());
  cycle.trained = std::make_unique<tasq::Tasq>(TrainingModelOptions());
  tasq::Status trained = cycle.trained->Train(observed.value());
  if (!trained.ok()) Die("train", trained);
  std::ostringstream out;
  tasq::Status saved = cycle.trained->Save(out);
  if (!saved.ok()) Die("save", saved);
  cycle.artifact = out.str();
  std::istringstream in(cycle.artifact);
  tasq::Result<tasq::Tasq> loaded = tasq::Tasq::Load(in);
  if (!loaded.ok()) Die("load", loaded.status());
  cycle.loaded = std::make_unique<tasq::Tasq>(std::move(loaded.value()));
  cycle.seconds = SecondsSince(start);
  return cycle;
}

template <typename Model>
std::string Serialized(const Model& model) {
  std::ostringstream out;
  tasq::TextArchiveWriter writer(out);
  model.Serialize(writer);
  return out.str();
}

/// Replays the stages of Tasq::Train on the cycle's inputs with a span
/// around each, then Save and Load of `pipeline`. Checks that every
/// replayed model serializes byte for byte like `pipeline`'s.
void ReplayCycle(const TrainInputs& inputs, uint64_t seed,
                 const tasq::Tasq& pipeline, Ledger& ledger,
                 Outcome& outcome) {
  const tasq::TasqOptions options = TrainingModelOptions();
  std::vector<tasq::ObservedJob> observed;
  {
    Ledger::Span span(ledger["simcluster.observe"]);
    auto result = Observe(inputs.jobs, seed);
    if (!result.ok()) Die("observe", result.status());
    observed = std::move(result.value());
  }
  tasq::Dataset dataset;
  {
    Ledger::Span span(ledger["tasq.dataset"]);
    auto built = tasq::DatasetBuilder(options.dataset).Build(observed);
    if (!built.ok()) Die("dataset", built.status());
    dataset = std::move(built.value());
  }
  std::unique_ptr<tasq::PccTargetScaling> scaling;
  {
    Ledger::Span span(ledger["tasq.scale"]);
    auto scalers = tasq::FitScalers(dataset);
    if (!scalers.ok()) Die("scalers", scalers.status());
    tasq::ApplyScalers(scalers.value(), dataset);
    auto fitted = tasq::PccTargetScaling::Fit(dataset.targets);
    if (!fitted.ok()) Die("target scaling", fitted.status());
    scaling = std::make_unique<tasq::PccTargetScaling>(fitted.value());
  }
  tasq::XgbRuntimeModel xgb(options.xgb);
  {
    Ledger::Span span(ledger["gbdt.train"]);
    tasq::Status trained = xgb.Train(
        dataset.point_features, dataset.point_size(), dataset.job_feature_dim,
        dataset.point_tokens, dataset.point_runtimes);
    if (!trained.ok()) Die("gbdt train", trained);
  }
  tasq::PccSupervision supervision;
  supervision.targets = dataset.targets;
  supervision.observed_tokens = dataset.observed_tokens;
  supervision.observed_runtime = dataset.observed_runtime;
  tasq::NnPccModel nn(dataset.job_feature_dim, options.nn);
  {
    Ledger::Span span(ledger["nn.train"]);
    auto loss = nn.Train(dataset.job_features, supervision);
    if (!loss.ok()) Die("nn train", loss.status());
  }
  tasq::GnnPccModel gnn(dataset.op_feature_dim, options.gnn);
  {
    Ledger::Span span(ledger["gnn.train"]);
    auto loss = gnn.Train(dataset.graphs, supervision);
    if (!loss.ok()) Die("gnn train", loss.status());
  }
  std::string artifact;
  {
    Ledger::Span span(ledger["tasq.save"]);
    std::ostringstream out;
    tasq::Status saved = pipeline.Save(out);
    if (!saved.ok()) Die("save", saved);
    artifact = out.str();
  }
  {
    Ledger::Span span(ledger["tasq.load"]);
    std::istringstream in(artifact);
    auto loaded = tasq::Tasq::Load(in);
    if (!loaded.ok()) Die("load", loaded.status());
  }
  outcome.Check(scaling->s1() == pipeline.target_scaling()->s1() &&
                    scaling->s2() == pipeline.target_scaling()->s2(),
                "replayed target scaling matches Tasq::Train");
  outcome.Check(Serialized(xgb) == Serialized(*pipeline.xgb()),
                "replayed XGBoost model matches Tasq::Train");
  outcome.Check(Serialized(nn) == Serialized(*pipeline.nn()),
                "replayed NN matches Tasq::Train");
  outcome.Check(Serialized(gnn) == Serialized(*pipeline.gnn()),
                "replayed GNN matches Tasq::Train");
}

/// Load(Save(p)) must score every held-out job, with every model kind,
/// to the same bytes as p.
void CheckRoundTrip(const Cycle& cycle, const TrainInputs& inputs,
                    Outcome& outcome) {
  uint64_t differing = 0;
  for (const tasq::ObservedJob& entry : inputs.holdout) {
    for (size_t k = 0; k < tasq::kModelKindCount; ++k) {
      auto kind = static_cast<tasq::ModelKind>(k);
      auto original = tasq::BuildWhatIfReport(
          *cycle.trained, entry.job.graph, kind, entry.observed_tokens);
      auto loaded = tasq::BuildWhatIfReport(*cycle.loaded, entry.job.graph,
                                            kind, entry.observed_tokens);
      ++outcome.attempted;
      if (!original.ok() || !loaded.ok() ||
          ReportDigest(original.value()) != ReportDigest(loaded.value())) {
        ++differing;
      }
    }
  }
  outcome.failed += differing;
  if (differing > 0) outcome.Fail("Load(Save(p)) scores differently from p");
}

}  // namespace

void RunTrain(const RunOptions& options, Outcome& outcome) {
  std::vector<double> setup_seconds;
  TrainInputs inputs;
  for (int i = 0; i < kSetups; ++i) {
    inputs = TrainInputs();
    Clock::time_point start = Clock::now();
    inputs = SetUp(options.seed);
    setup_seconds.push_back(SecondsSince(start));
  }
  auto& metrics = outcome.metrics;

  if (options.trace) {
    // Alternate plain cycles and traced replays; report the median of
    // each over the pairs, so a slow first cycle does not skew the ledger.
    constexpr const char* kStages[] = {
        "simcluster.observe", "tasq.dataset", "tasq.scale", "gbdt.train",
        "nn.train",           "gnn.train",    "tasq.save",  "tasq.load"};
    std::map<std::string, std::vector<double>> stage_seconds;
    std::vector<double> e2e;
    uint64_t artifact_bytes = 0;
    Clock::time_point start = Clock::now();
    while (e2e.empty() || SecondsSince(start) < options.seconds) {
      Cycle cycle = RunCycle(inputs, options.seed);
      ++outcome.attempted;
      e2e.push_back(cycle.seconds);
      artifact_bytes = cycle.artifact.size();
      Ledger ledger;
      ReplayCycle(inputs, options.seed, *cycle.trained, ledger, outcome);
      for (const char* stage : kStages) {
        stage_seconds[stage].push_back(ledger[stage].seconds);
      }
    }
    double e2e_s = Median(e2e);
    double stages_s = 0.0;
    for (const char* stage : kStages) {
      double seconds = Median(stage_seconds[stage]);
      metrics[std::string(stage) + "_s"] = seconds;
      stages_s += seconds;
    }
    metrics["tasq.artifact_bytes"] = static_cast<double>(artifact_bytes);
    metrics["train.e2e_s"] = e2e_s;
    metrics["train.unattributed_s"] = e2e_s - stages_s;
    outcome.Note("train ledger: %zu cycles, %.3f s end to end, %.3f s in "
                 "stages, %.3f s unattributed (%.1f%%)",
                 e2e.size(), e2e_s, stages_s, e2e_s - stages_s,
                 100.0 * (e2e_s - stages_s) / e2e_s);
    return;
  }

  std::optional<Cycle> first;  // Its pipelines feed the checks below.
  std::vector<double> cycle_seconds;
  Clock::time_point start = Clock::now();
  while (!first || SecondsSince(start) < options.seconds) {
    Cycle cycle = RunCycle(inputs, options.seed);
    ++outcome.attempted;
    cycle_seconds.push_back(cycle.seconds);
    if (!first) {
      first = std::move(cycle);
    } else {
      outcome.Check(cycle.artifact == first->artifact,
                    "training cycles produce the same artifact");
    }
  }
  CheckRoundTrip(*first, inputs, outcome);

  double ape = HoldoutApePct(*first->loaded, inputs.holdout);
  // Tokens the loaded NN's bounded recommendations give back.
  double requested_tokens = 0.0;
  double saved_tokens = 0.0;
  for (const tasq::ObservedJob& entry : inputs.holdout) {
    auto report = tasq::BuildWhatIfReport(*first->loaded, entry.job.graph,
                                          tasq::ModelKind::kNn,
                                          entry.observed_tokens);
    if (!report.ok()) Die("held-out report", report.status());
    requested_tokens += report.value().reference_tokens;
    saved_tokens +=
        report.value().reference_tokens - report.value().bounded.tokens;
  }

  double total_seconds = 0.0;
  for (double s : cycle_seconds) total_seconds += s;
  metrics["setup_s"] = Median(setup_seconds);
  metrics["p50_us"] = 1e6 * Median(cycle_seconds);
  metrics["throughput_per_s"] = static_cast<double>(kTrainJobs) *
                                static_cast<double>(cycle_seconds.size()) /
                                total_seconds;
  metrics["holdout_ape_pct"] = ape;
  metrics["tokens_saved_pct"] = 100.0 * saved_tokens / requested_tokens;
  metrics["peak_rss_mb"] = PeakRssMb();
  outcome.Note("train seed %llu: %zu cycles of %lld jobs, median %.3f s, "
               "artifact %zu bytes, holdout APE %.1f%%",
               static_cast<unsigned long long>(options.seed),
               cycle_seconds.size(), static_cast<long long>(kTrainJobs),
               Median(cycle_seconds), first->artifact.size(), ape);
}

}  // namespace perfbench
