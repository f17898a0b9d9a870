// The paper's shape claims (DESIGN.md, "Shape expectations") as assertions
// instead of prose: the bench pipelines of Tables 3-6, Table 8 and
// Figure 12, run at one fixed reduced scale. Every threshold below cites
// what it was measured against at this scale (ranges span the simulator
// noise streams it was checked with); the table the fixture prints is the
// evidence to read when one fails.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "arepas/arepas.h"
#include "bench/bench_util.h"
#include "common/stats.h"
#include "tasq/evaluation.h"

namespace tasq {
namespace {

// Three quarters of the benches' TASQ_SCALE=1 sizes: 900 training jobs,
// 225 test jobs and 90 flighted jobs, about 16 s in Release on a 4-vCPU
// VM. Fixed here, not read from TASQ_SCALE, so the thresholds always meet
// the data they were measured on. At half scale the GNN's LF1 -> LF2 gain
// is within training noise (38% -> 44% on one simulator seed stream).
constexpr double kScale = 0.75;

constexpr ModelKind kKinds[] = {ModelKind::kXgboostSs, ModelKind::kXgboostPl,
                                ModelKind::kNn, ModelKind::kGnn};

struct Shapes {
  // Historical (AREPAS-proxy) test set, Tables 4 and 5.
  std::map<std::pair<LossForm, ModelKind>, ModelEvalMetrics> historical;
  // Flighted ground truth under LF2, Table 8.
  std::map<ModelKind, bench::FlightedModelEval> flighted;
  // AREPAS against flighted ground truth, Table 3 and Figure 13.
  bench::ArepasValidation arepas;
  // Pairwise area deviations (percent) of each flighted job's runs,
  // Figure 12.
  std::vector<double> area_deviations;
};

Shapes* MeasureShapes() {
  auto* shapes = new Shapes;
  bench::BenchSizes sizes = bench::BenchSizes::AtScale(kScale);
  WorkloadGenerator generator = bench::MakeGenerator();
  // Seeds, job ranges and options are those of table04_06_models and
  // table08_flighted.
  auto train = bench::ObserveJobs(generator, 0, sizes.train_jobs, 21);
  auto test = bench::ObserveJobs(generator, sizes.train_jobs, sizes.test_jobs,
                                 22);
  Dataset test_dataset =
      bench::Unwrap(DatasetBuilder().Build(test), "test dataset");
  std::vector<Job> flight_jobs =
      generator.Generate(sizes.train_jobs, sizes.flight_jobs);
  FlightConfig flight_config;
  flight_config.seed = 808;
  std::vector<FlightedJob> flighted =
      FlightHarness(flight_config).FlightJobs(flight_jobs);

  for (LossForm form : {LossForm::kLF1, LossForm::kLF2}) {
    Tasq pipeline(bench::BenchTasqOptions(form));
    Status trained = pipeline.Train(train);
    if (!trained.ok()) {
      ADD_FAILURE() << trained.ToString();
      return shapes;
    }
    for (ModelKind kind : kKinds) {
      shapes->historical[{form, kind}] = bench::Unwrap(
          EvaluateModel(pipeline, kind, test_dataset), "evaluate");
      if (form == LossForm::kLF2) {
        shapes->flighted[kind] =
            bench::EvaluateOnFlights(pipeline, kind, flighted, flight_jobs);
      }
    }
  }

  // table03_arepas_error and fig13_arepas_error's validation.
  shapes->arepas = bench::RunArepasValidation(2000, sizes.flight_jobs, 1313);
  for (const FlightedJob& job : shapes->arepas.flighted) {
    std::vector<Skyline> skylines;
    for (const FlightRecord& record : job.flights) {
      skylines.push_back(record.skyline);
    }
    std::vector<double> pairs = PairwiseAreaDeviations(skylines);
    shapes->area_deviations.insert(shapes->area_deviations.end(),
                                   pairs.begin(), pairs.end());
  }

  std::printf("%-11s %-5s %9s %9s %9s\n", "model", "set", "pattern%",
              "paramMAE", "runAE%");
  for (ModelKind kind : kKinds) {
    for (LossForm form : {LossForm::kLF1, LossForm::kLF2}) {
      const ModelEvalMetrics& m = shapes->historical[{form, kind}];
      std::printf("%-11s %-5s %9.1f %9.3f %9.1f\n", ModelKindName(kind),
                  form == LossForm::kLF1 ? "LF1" : "LF2",
                  m.pattern_nonincrease_percent, m.mae_curve_params,
                  m.median_ae_runtime_percent);
    }
    const bench::FlightedModelEval& f = shapes->flighted[kind];
    std::printf("%-11s %-5s %9.1f %9.3f %9.1f\n", ModelKindName(kind),
                "fl", f.pattern_percent, f.mae_params, f.median_ae_runtime);
  }
  std::printf("AREPAS: %zu executions, median APE %.1f%%, worst per-job "
              "%.1f%%; %.1f%% of %zu pairs within 30%% area\n",
              shapes->arepas.errors_non_anomalous.size(),
              Median(shapes->arepas.errors_non_anomalous),
              Quantile(shapes->arepas.per_job_error_non_anomalous, 1.0),
              100.0 * EmpiricalCdf(shapes->area_deviations, 30.0),
              shapes->area_deviations.size());
  return shapes;
}

class PaperShapesTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { shapes_ = MeasureShapes(); }
  static void TearDownTestSuite() {
    delete shapes_;
    shapes_ = nullptr;
  }

  static const ModelEvalMetrics& Historical(LossForm form, ModelKind kind) {
    return shapes_->historical.at({form, kind});
  }
  static const bench::FlightedModelEval& Flighted(ModelKind kind) {
    return shapes_->flighted.at(kind);
  }

  static Shapes* shapes_;
};

Shapes* PaperShapesTest::shapes_ = nullptr;

TEST_F(PaperShapesTest, NnAndGnnAreAlwaysMonotone) {
  // Monotone by construction (the power-law head), so exactly 100% on
  // every set, under both loss forms.
  for (ModelKind kind : {ModelKind::kNn, ModelKind::kGnn}) {
    SCOPED_TRACE(ModelKindName(kind));
    EXPECT_EQ(Historical(LossForm::kLF1, kind).pattern_nonincrease_percent,
              100.0);
    EXPECT_EQ(Historical(LossForm::kLF2, kind).pattern_nonincrease_percent,
              100.0);
    EXPECT_EQ(Flighted(kind).pattern_percent, 100.0);
  }
}

TEST_F(PaperShapesTest, Lf2BeatsLf1OnRuntimeError) {
  // Tables 4-5: LF2's run-time penalty lowers NN and GNN run-time median
  // AE (paper 31% -> 22% and 31% -> 20%; measured NN 36-37% -> 29%, GNN
  // 24-34% -> 22-24%). The GNN's gain is the thinnest margin in this file.
  for (ModelKind kind : {ModelKind::kNn, ModelKind::kGnn}) {
    SCOPED_TRACE(ModelKindName(kind));
    EXPECT_LT(Historical(LossForm::kLF2, kind).median_ae_runtime_percent,
              Historical(LossForm::kLF1, kind).median_ae_runtime_percent);
  }
}

TEST_F(PaperShapesTest, XgboostHasTheBestPointPrediction) {
  // Tables 4-6: XGBoost's window-local point model predicts the run time
  // at the observed tokens better than either curve model (paper 13% vs
  // 20-22%; measured 13-15% vs 22-29%).
  for (ModelKind xgb : {ModelKind::kXgboostSs, ModelKind::kXgboostPl}) {
    for (ModelKind curve : {ModelKind::kNn, ModelKind::kGnn}) {
      SCOPED_TRACE(std::string(ModelKindName(xgb)) + " vs " +
                   ModelKindName(curve));
      EXPECT_LT(
          Historical(LossForm::kLF2, xgb).median_ae_runtime_percent,
          Historical(LossForm::kLF2, curve).median_ae_runtime_percent);
    }
  }
}

TEST_F(PaperShapesTest, XgboostPlIsMonotoneMoreOftenThanSs) {
  // Tables 4-6: the power law fitted over XGBoost's window is monotone
  // more often than the smoothing spline (paper 73% vs 41%; measured 98%
  // vs 37-46%).
  EXPECT_GT(
      Historical(LossForm::kLF2, ModelKind::kXgboostPl)
          .pattern_nonincrease_percent,
      Historical(LossForm::kLF2, ModelKind::kXgboostSs)
          .pattern_nonincrease_percent);
}

TEST_F(PaperShapesTest, GnnIsNoWorseThanNnOnParameterMae) {
  // Tables 4-5: the graph model fits the curve parameters at least as well
  // as the job-level NN (paper 0.071 vs 0.086 and 0.090; measured
  // 0.56-0.57 vs 0.68-0.73).
  for (LossForm form : {LossForm::kLF1, LossForm::kLF2}) {
    EXPECT_LE(Historical(form, ModelKind::kGnn).mae_curve_params,
              Historical(form, ModelKind::kNn).mae_curve_params);
  }
}

TEST_F(PaperShapesTest, ErrorsGrowOnTheFlightedSet) {
  // Table 8 vs Table 5: against real re-executions, the learned curves'
  // parameter errors and XGBoost's run-time errors grow over the
  // AREPAS-proxy test set (paper 1.7-4x; measured NN MAE 0.68-0.70 ->
  // 0.78-0.84, GNN 0.57 -> 0.77-0.81, XGBoost 13-15% -> 19-20%). Not
  // asserted: XGBoost-PL's parameter MAE, which falls on flights (2.2 ->
  // 1.8), and the curve models' pooled run-time error, which rises or
  // falls by a few points with the simulator's noise draws.
  for (ModelKind kind : {ModelKind::kNn, ModelKind::kGnn}) {
    SCOPED_TRACE(ModelKindName(kind));
    EXPECT_GT(Flighted(kind).mae_params,
              Historical(LossForm::kLF2, kind).mae_curve_params);
  }
  for (ModelKind kind : {ModelKind::kXgboostSs, ModelKind::kXgboostPl}) {
    SCOPED_TRACE(ModelKindName(kind));
    EXPECT_GT(Flighted(kind).median_ae_runtime,
              Historical(LossForm::kLF2, kind).median_ae_runtime_percent);
  }
}

TEST_F(PaperShapesTest, ArepasMedianErrorIsFarBelowItsWorstCase) {
  // Table 3 / Figure 13: single-digit median error on non-anomalous
  // executions, with a bounded worst case (paper 9% and < 50%; measured
  // 6.2-6.5% and 23-24%).
  const bench::ArepasValidation& arepas = shapes_->arepas;
  ASSERT_FALSE(arepas.errors_non_anomalous.empty());
  double median = Median(arepas.errors_non_anomalous);
  double worst = Quantile(arepas.per_job_error_non_anomalous, 1.0);
  EXPECT_LT(median, 10.0);
  EXPECT_LT(worst, 50.0);
  EXPECT_LT(median, 0.5 * worst);
}

TEST_F(PaperShapesTest, AreaIsConservedForMostExecutionPairs) {
  // Figure 12: most pairs of one job's runs at different allocations use
  // token-seconds within 30% of each other (paper ~65%; measured 88-93%
  // of 540 pairs).
  ASSERT_FALSE(shapes_->area_deviations.empty());
  EXPECT_GT(EmpiricalCdf(shapes_->area_deviations, 30.0), 0.5);
}

}  // namespace
}  // namespace tasq
