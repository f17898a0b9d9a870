// Gap-filling tests for small utilities and edge cases across modules.

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "common/status.h"
#include "common/table.h"
#include "common/text_io.h"
#include "ml/autograd.h"
#include "ml/matrix_io.h"
#include "selection/job_selection.h"
#include "workload/operators.h"

namespace tasq {
namespace {

TEST(StatusCodeTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "Ok");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument),
               "InvalidArgument");
  EXPECT_STREQ(StatusCodeName(StatusCode::kFailedPrecondition),
               "FailedPrecondition");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
}

TEST(StatusFactoryTest, EveryFactoryProducesItsCode) {
  EXPECT_EQ(Status::Ok().code(), StatusCode::kOk);
  EXPECT_EQ(Status::InvalidArgument("x").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(ScaleFromEnvTest, ParsesAndFallsBack) {
  ASSERT_EQ(setenv("TASQ_SCALE", "2.5", 1), 0);
  EXPECT_DOUBLE_EQ(ScaleFromEnv(), 2.5);
  ASSERT_EQ(setenv("TASQ_SCALE", "garbage", 1), 0);
  EXPECT_DOUBLE_EQ(ScaleFromEnv(), 1.0);
  ASSERT_EQ(setenv("TASQ_SCALE", "-3", 1), 0);
  EXPECT_DOUBLE_EQ(ScaleFromEnv(), 1.0);
  ASSERT_EQ(unsetenv("TASQ_SCALE"), 0);
  EXPECT_DOUBLE_EQ(ScaleFromEnv(), 1.0);
}

TEST(TextTableTest, ShortRowsPadAndLongRowsTruncate) {
  TextTable t({"a", "b"});
  t.AddRow({"only"});                     // Missing cell renders empty.
  t.AddRow({"x", "y", "dropped"});        // Extra cell dropped.
  std::string out = t.ToString();
  EXPECT_EQ(out.find("dropped"), std::string::npos);
  EXPECT_NE(out.find("only"), std::string::npos);
}

TEST(TextArchiveTest, ForceErrorLatches) {
  std::stringstream stream("a 1\n");
  TextArchiveReader reader(stream);
  reader.ForceError("caller-side check failed");
  EXPECT_FALSE(reader.status().ok());
  double v = 9.0;
  reader.Scalar("a", v);
  EXPECT_DOUBLE_EQ(v, 9.0);  // Untouched after latch.
}

TEST(TextArchiveTest, RejectsAbsurdVectorSize) {
  std::stringstream stream("v 99999999999999 1.0\n");
  TextArchiveReader reader(stream);
  std::vector<double> out;
  reader.Vector("v", out);
  EXPECT_FALSE(reader.status().ok());
}

TEST(MatrixIoTest, ShapeMismatchLatchesError) {
  std::stringstream stream;
  TextArchiveWriter writer(stream);
  writer.Scalar("m.rows", static_cast<int64_t>(2));
  writer.Scalar("m.cols", static_cast<int64_t>(2));
  writer.Vector("m.data", {1.0, 2.0, 3.0});  // 3 != 2*2.
  TextArchiveReader reader(stream);
  Matrix m = LoadMatrix(reader, "m");
  EXPECT_EQ(m.size(), 0u);
}

TEST(AutogradEdgeTest, SoftplusExtremeInputsAreStable) {
  Var x = MakeConstant(Matrix(1, 3, {-745.0, 0.0, 745.0}));
  Var y = Softplus(x);
  EXPECT_NEAR(y->value.At(0, 0), 0.0, 1e-12);
  EXPECT_NEAR(y->value.At(0, 1), std::log(2.0), 1e-12);
  EXPECT_NEAR(y->value.At(0, 2), 745.0, 1e-9);
  for (double v : y->value.data()) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(AutogradEdgeTest, ReluAndAbsAtZero) {
  Var x = MakeParameter(Matrix(1, 1, {0.0}));
  Var loss = Mean(Add(Relu(x), Abs(x)));
  Backward(loss);
  // Subgradients at 0 are 0 by convention: no update pressure.
  EXPECT_DOUBLE_EQ(x->grad.At(0, 0), 0.0);
}

TEST(AutogradEdgeTest, DeepChainBackpropDoesNotOverflowStack) {
  // 2000 chained ops exercise the iterative topological sort.
  Var x = MakeParameter(Matrix(1, 1, {1.0}));
  Var y = x;
  for (int i = 0; i < 2000; ++i) y = ScalarMul(y, 1.0);
  Var loss = Mean(y);
  Backward(loss);
  EXPECT_DOUBLE_EQ(x->grad.At(0, 0), 1.0);
}

TEST(OperatorEnumTest, TraitFlagsAreConsistent) {
  for (size_t i = 0; i < kPhysicalOperatorCount; ++i) {
    const OperatorTraits& traits =
        GetOperatorTraits(static_cast<PhysicalOperator>(i));
    // A leaf reads storage and therefore cannot be multi-input.
    if (traits.is_leaf) {
      EXPECT_FALSE(traits.is_multi_input) << traits.name;
    }
    // Repartitioning exchanges are single-input operators here.
    if (traits.repartitions) {
      EXPECT_FALSE(traits.is_multi_input) << traits.name;
    }
  }
}

TEST(JobSelectionEdgeTest, CapDisabledAllowsRepeats) {
  // One template dominating the pool: with the cap disabled the quota can
  // be filled entirely from it.
  std::vector<double> features;
  std::vector<double> summary;
  std::vector<int> templates;
  std::vector<size_t> pool;
  for (int i = 0; i < 100; ++i) {
    features.push_back(static_cast<double>(i % 10));
    summary.push_back(static_cast<double>(i));
    templates.push_back(0);  // Everything is the same "type".
    pool.push_back(static_cast<size_t>(i));
  }
  SelectionConfig config;
  config.num_clusters = 2;
  config.sample_size = 40;
  config.max_per_template = 0;  // Disabled.
  auto outcome = SelectRepresentativeJobs(features, 100, 1, summary,
                                          templates, pool, config);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GE(outcome.value().selected.size(), 35u);
  // With a cap of 2 the same setup can select at most 2.
  config.max_per_template = 2;
  auto capped = SelectRepresentativeJobs(features, 100, 1, summary, templates,
                                         pool, config);
  ASSERT_TRUE(capped.ok());
  EXPECT_LE(capped.value().selected.size(), 2u);
}

}  // namespace
}  // namespace tasq
