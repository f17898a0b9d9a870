#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/table.h"

namespace tasq {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad tokens");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad tokens");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "Ok");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument),
               "InvalidArgument");
  EXPECT_STREQ(StatusCodeName(StatusCode::kFailedPrecondition),
               "FailedPrecondition");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
}

TEST(StatusTest, ToStringPropagatesMessageForEveryFactory) {
  EXPECT_EQ(Status::InvalidArgument("a").ToString(), "InvalidArgument: a");
  EXPECT_EQ(Status::FailedPrecondition("b").ToString(),
            "FailedPrecondition: b");
  EXPECT_EQ(Status::NotFound("c").ToString(), "NotFound: c");
  EXPECT_EQ(Status::OutOfRange("d").ToString(), "OutOfRange: d");
  EXPECT_EQ(Status::Internal("e").ToString(), "Internal: e");
  EXPECT_EQ(Status::Ok().ToString(), "Ok");
}

TEST(StatusTest, MessageSurvivesCopyAndMove) {
  Status original = Status::Internal("solver diverged");
  Status copy = original;
  EXPECT_EQ(copy.message(), "solver diverged");
  Status moved = std::move(original);
  EXPECT_EQ(moved.message(), "solver diverged");
  EXPECT_EQ(moved.code(), StatusCode::kInternal);
}

TEST(ResultTest, MoveOnlyValueMovesOut) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r.value(), 7);  // Lvalue access does not consume the value.
  std::unique_ptr<int> taken = std::move(r).value();
  ASSERT_NE(taken, nullptr);
  EXPECT_EQ(*taken, 7);
}

TEST(ResultTest, MoveOnlyErrorPath) {
  Result<std::unique_ptr<int>> r(Status::OutOfRange("no curve"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(r.status().message(), "no curve");
}

TEST(ResultTest, MutableValueReferenceWritesThrough) {
  Result<int> r(1);
  ASSERT_TRUE(r.ok());
  r.value() = 99;
  EXPECT_EQ(r.value(), 99);
}

using CheckDeathTest = ::testing::Test;

TEST(CheckDeathTest, CheckPrintsExpressionAndAborts) {
  EXPECT_DEATH(TASQ_CHECK(1 + 1 == 3), "check failed: 1 \\+ 1 == 3");
}

TEST(CheckDeathTest, CheckCmpPrintsBothOperands) {
  int free_tokens = -2;
  EXPECT_DEATH(TASQ_CHECK_GE(free_tokens, 0),
               "free_tokens >= 0 \\(lhs=-2, rhs=0\\)");
}

TEST(CheckDeathTest, CheckOkPrintsStatus) {
  EXPECT_DEATH(TASQ_CHECK_OK(Status::Internal("broken pool")),
               "Internal: broken pool");
}

TEST(CheckDeathTest, PassingChecksAreSilent) {
  TASQ_CHECK(true);
  TASQ_CHECK_EQ(2, 2);
  TASQ_CHECK_LE(1.0, 2.0);
  TASQ_CHECK_OK(Status::Ok());
  TASQ_DCHECK(true);
  TASQ_DCHECK_NE(1, 2);
  SUCCEED();
}

#if TASQ_DCHECK_IS_ON
TEST(CheckDeathTest, DcheckAbortsWhenEnabled) {
  EXPECT_DEATH(TASQ_DCHECK_LT(5, 3), "5 < 3");
}
#else
TEST(CheckDeathTest, DcheckCompilesOutWhenDisabled) {
  TASQ_DCHECK_LT(5, 3);  // Must be a no-op, not an abort.
  SUCCEED();
}
#endif

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000000), b.UniformInt(0, 1000000));
  }
}

TEST(RngTest, ForkIsIndependentOfParentDraws) {
  Rng a(5);
  Rng b(5);
  // Consuming entropy from one parent must not change its fork's stream.
  a.Uniform(0.0, 1.0);
  a.Uniform(0.0, 1.0);
  Rng fa = a.Fork(9);
  Rng fb = b.Fork(9);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(fa.UniformInt(0, 1 << 30), fb.UniformInt(0, 1 << 30));
  }
}

TEST(RngTest, DistinctForkTagsDiverge) {
  Rng root(5);
  Rng a = root.Fork(1);
  Rng b = root.Fork(2);
  int differing = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.UniformInt(0, 1 << 30) != b.UniformInt(0, 1 << 30)) ++differing;
  }
  EXPECT_GT(differing, 40);
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(1);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    saw_lo |= (v == 3);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(1);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  EXPECT_FALSE(rng.Bernoulli(-2.0));
  EXPECT_TRUE(rng.Bernoulli(2.0));
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(77);
  std::vector<double> weights = {0.0, 10.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.Categorical(weights), 1u);
  }
}

TEST(RngTest, CategoricalAllZeroIsUniform) {
  Rng rng(77);
  std::vector<double> weights = {0.0, 0.0, 0.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 3000; ++i) ++counts[rng.Categorical(weights)];
  for (int c : counts) EXPECT_GT(c, 500);
}

TEST(StatsTest, MeanAndStdDev) {
  std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Mean(v), 2.5);
  EXPECT_NEAR(StdDev(v), std::sqrt(1.25), 1e-12);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

TEST(StatsTest, QuantileInterpolates) {
  std::vector<double> v = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 25.0);
  EXPECT_DOUBLE_EQ(Median(v), 25.0);
}

TEST(StatsTest, MedianAbsolutePercentError) {
  std::vector<double> pred = {110.0, 90.0, 100.0};
  std::vector<double> act = {100.0, 100.0, 100.0};
  EXPECT_NEAR(MedianAbsolutePercentError(pred, act), 10.0, 1e-12);
  EXPECT_NEAR(MeanAbsolutePercentError(pred, act), 20.0 / 3.0, 1e-12);
}

TEST(StatsTest, PercentErrorsSkipZeroActuals) {
  std::vector<double> pred = {50.0, 110.0};
  std::vector<double> act = {0.0, 100.0};
  auto errs = AbsolutePercentErrors(pred, act);
  ASSERT_EQ(errs.size(), 1u);
  EXPECT_NEAR(errs[0], 10.0, 1e-12);
}

TEST(StatsTest, KsStatisticIdenticalSamplesIsZero) {
  std::vector<double> a = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(KsStatistic(a, a), 0.0);
}

TEST(StatsTest, KsStatisticDisjointSamplesIsOne) {
  std::vector<double> a = {1.0, 2.0};
  std::vector<double> b = {10.0, 20.0};
  EXPECT_DOUBLE_EQ(KsStatistic(a, b), 1.0);
}

TEST(StatsTest, KsStatisticDetectsShift) {
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 100; ++i) {
    a.push_back(static_cast<double>(i));
    b.push_back(static_cast<double>(i) + 30.0);
  }
  double d = KsStatistic(a, b);
  EXPECT_GT(d, 0.25);
  EXPECT_LT(d, 0.4);
}

TEST(StatsTest, KsStatisticEmptySampleIsMaximal) {
  EXPECT_DOUBLE_EQ(KsStatistic({}, {1.0}), 1.0);
}

TEST(StatsTest, FitLineRecoversSlopeIntercept) {
  std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  std::vector<double> y = {5.0, 7.0, 9.0, 11.0};
  LineFit fit = FitLine(x, y);
  ASSERT_TRUE(fit.ok);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-12);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(StatsTest, FitLineRejectsDegenerateInput) {
  EXPECT_FALSE(FitLine({1.0}, {2.0}).ok);
  EXPECT_FALSE(FitLine({1.0, 1.0}, {2.0, 3.0}).ok);  // Constant x.
}

TEST(TableTest, RendersAlignedColumns) {
  TextTable t({"Model", "Err"});
  t.AddRow({"NN", "0.5"});
  t.AddRow({"GNN", "0.25"});
  std::string out = t.ToString();
  EXPECT_NE(out.find("Model"), std::string::npos);
  EXPECT_NE(out.find("GNN"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TableTest, CellFormatsNumbers) {
  EXPECT_EQ(Cell(3.14159, 2), "3.14");
  EXPECT_EQ(Cell(static_cast<int64_t>(42)), "42");
}

}  // namespace
}  // namespace tasq
