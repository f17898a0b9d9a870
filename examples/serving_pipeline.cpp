// Serving pipeline: the paper's Figure-4 deployment split. A training job
// ingests the workload repository, trains TASQ, and registers the model
// artifact; a separate scoring service loads the artifact and serves
// predictions for incoming jobs without access to any telemetry.
//
// Usage: serving_pipeline [model_path]
// The workload repository is written beside the model, to
// <model_path>.workload.

#include <cstdio>
#include <string>

#include "tasq/repository.h"
#include "tasq/tasq.h"
#include "workload/generator.h"

int main(int argc, char** argv) {
  using namespace tasq;
  std::string model_path =
      argc > 1 ? argv[1] : std::string("/tmp/tasq_model.txt");
  std::string repo_path = model_path + ".workload";

  // ---- Ingestion: observed telemetry lands in the job repository. -------
  WorkloadGenerator generator(WorkloadConfig{});
  NoiseModel noise;
  noise.enabled = true;
  auto observed = ObserveWorkload(generator.Generate(0, 300), noise, 1);
  if (!observed.ok()) return 1;
  if (!SaveWorkloadToFile(repo_path, observed.value()).ok()) return 1;
  std::printf("[ingest]  %zu observed jobs written to %s\n",
              observed.value().size(), repo_path.c_str());

  // ---- Training job: replay the repository, train, register the model. --
  {
    auto workload = LoadWorkloadFromFile(repo_path);
    if (!workload.ok()) return 1;
    TasqOptions options;
    options.nn.epochs = 80;
    options.nn.learning_rate = 2e-3;
    options.gnn.epochs = 8;
    Tasq trainer(options);
    if (!trainer.Train(workload.value()).ok()) return 1;
    if (!trainer.SaveToFile(model_path).ok()) return 1;
    std::printf("[train]   model registered at %s\n", model_path.c_str());
  }

  // ---- Scoring service: load the artifact, serve compile-time requests. -
  Result<Tasq> service = Tasq::LoadFromFile(model_path);
  if (!service.ok()) {
    std::fprintf(stderr, "model load failed: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }
  std::printf("[serve]   model loaded; scoring incoming jobs\n\n");
  for (int64_t id = 40000; id < 40005; ++id) {
    Job incoming = generator.GenerateJob(id);
    // SLO: at most 25% predicted slowdown, plus the 1%-per-token
    // diminishing-returns bar.
    auto recommendation = service.value().RecommendTokens(
        incoming.graph, ModelKind::kNn, incoming.default_tokens, 1.0,
        /*max_slowdown_fraction=*/0.25);
    if (!recommendation.ok()) return 1;
    std::printf(
        "job %lld: requested %4.0f tokens -> recommend %4.0f "
        "(predicted slowdown %+.1f%%)\n",
        static_cast<long long>(id), incoming.default_tokens,
        recommendation.value().tokens,
        100.0 * recommendation.value().predicted_slowdown);
  }
  return 0;
}
