// Property tests for the checked-math layer (common/fmath.h) over the
// domain edges that poison log-log pipelines: zeros of both signs,
// denormals, overflow boundaries, and NaN propagation. Everything here
// must also run trap-clean under -DTASQ_FPE=ON: the Safe* tier's contract
// is that a rejected domain never raises a floating-point exception.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/fmath.h"
#include "common/fpe.h"

namespace tasq {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kMax = std::numeric_limits<double>::max();
constexpr double kDenorm = std::numeric_limits<double>::denorm_min();

TEST(SafeLogTest, PositiveFiniteInputsMatchStdLog) {
  for (double x : {kDenorm, 1e-300, 1e-9, 0.5, 1.0, 2.0, 1e9, kMax}) {
    Result<double> r = SafeLog(x);
    ASSERT_TRUE(r.ok()) << "x=" << x;
    EXPECT_DOUBLE_EQ(r.value(), std::log(x));
  }
}

TEST(SafeLogTest, RejectsZerosOfBothSigns) {
  EXPECT_FALSE(SafeLog(0.0).ok());
  EXPECT_FALSE(SafeLog(-0.0).ok());
}

TEST(SafeLogTest, RejectsNegativeNanAndInfinity) {
  EXPECT_FALSE(SafeLog(-1.0).ok());
  EXPECT_FALSE(SafeLog(-kDenorm).ok());
  EXPECT_FALSE(SafeLog(kNan).ok());
  EXPECT_FALSE(SafeLog(kInf).ok());
  EXPECT_FALSE(SafeLog(-kInf).ok());
  EXPECT_EQ(SafeLog(kNan).status().code(), StatusCode::kOutOfRange);
}

TEST(SafeExpTest, InRangeMatchesStdExpAndUnderflowIsZero) {
  for (double x : {-5.0, 0.0, 1.0, 700.0, kMaxExpArg}) {
    Result<double> r = SafeExp(x);
    ASSERT_TRUE(r.ok()) << "x=" << x;
    EXPECT_DOUBLE_EQ(r.value(), std::exp(x));
  }
  // Underflow toward +0 is well-defined, not an error.
  Result<double> tiny = SafeExp(-1000.0);
  ASSERT_TRUE(tiny.ok());
  EXPECT_EQ(tiny.value(), 0.0);
}

TEST(SafeExpTest, RejectsOverflowNanAndInfinity) {
  EXPECT_FALSE(SafeExp(710.0).ok());
  EXPECT_FALSE(SafeExp(kInf).ok());
  EXPECT_FALSE(SafeExp(kNan).ok());
}

TEST(SafeDivTest, OrdinaryQuotientsMatchPlainDivision) {
  EXPECT_DOUBLE_EQ(SafeDiv(1.0, 4.0).value_or(-1), 0.25);
  EXPECT_DOUBLE_EQ(SafeDiv(-9.0, 3.0).value_or(-1), -3.0);
  EXPECT_DOUBLE_EQ(SafeDiv(0.0, 5.0).value_or(-1), 0.0);
  EXPECT_DOUBLE_EQ(SafeDiv(kDenorm, 2.0).value_or(-1), kDenorm / 2.0);
}

TEST(SafeDivTest, RejectsZeroDivisorsOfBothSigns) {
  EXPECT_FALSE(SafeDiv(1.0, 0.0).ok());
  EXPECT_FALSE(SafeDiv(1.0, -0.0).ok());
  EXPECT_FALSE(SafeDiv(0.0, 0.0).ok());
}

TEST(SafeDivTest, RejectsOverflowingQuotients) {
  EXPECT_FALSE(SafeDiv(1e308, 1e-100).ok());
  EXPECT_FALSE(SafeDiv(1.0, kDenorm).ok());
  EXPECT_FALSE(SafeDiv(kMax, 0.5).ok());
  // Near the boundary but finite: fine.
  EXPECT_TRUE(SafeDiv(1e300, 1e-7).ok());
}

TEST(SafeDivTest, RejectsNonFiniteOperands) {
  EXPECT_FALSE(SafeDiv(kNan, 1.0).ok());
  EXPECT_FALSE(SafeDiv(1.0, kNan).ok());
  EXPECT_FALSE(SafeDiv(kInf, 1.0).ok());
  EXPECT_FALSE(SafeDiv(1.0, kInf).ok());
}

TEST(SafePowTest, OrdinaryCasesMatchStdPow) {
  EXPECT_DOUBLE_EQ(SafePow(2.0, 10.0).value_or(-1), 1024.0);
  EXPECT_DOUBLE_EQ(SafePow(9.0, 0.5).value_or(-1), 3.0);
  EXPECT_DOUBLE_EQ(SafePow(10.0, -3.0).value_or(-1), 1e-3);
  // Negative base with an integer exponent is well-defined.
  EXPECT_DOUBLE_EQ(SafePow(-2.0, 3.0).value_or(-1), -8.0);
  EXPECT_DOUBLE_EQ(SafePow(-2.0, 2.0).value_or(-1), 4.0);
}

TEST(SafePowTest, ZeroBaseSplitsOnExponentSign) {
  EXPECT_DOUBLE_EQ(SafePow(0.0, 2.0).value_or(-1), 0.0);
  EXPECT_DOUBLE_EQ(SafePow(-0.0, 2.0).value_or(-1), 0.0);
  EXPECT_DOUBLE_EQ(SafePow(0.0, 0.0).value_or(-1), 1.0);  // IEEE pow(0,0).
  EXPECT_FALSE(SafePow(0.0, -1.0).ok());
  EXPECT_FALSE(SafePow(-0.0, -2.0).ok());
}

TEST(SafePowTest, RejectsNanDomains) {
  EXPECT_FALSE(SafePow(-8.0, 1.0 / 3.0).ok());
  EXPECT_FALSE(SafePow(-1.5, 0.5).ok());
  EXPECT_FALSE(SafePow(kNan, 2.0).ok());
  EXPECT_FALSE(SafePow(2.0, kNan).ok());
  EXPECT_FALSE(SafePow(kInf, 2.0).ok());
}

TEST(SafePowTest, RejectsOverflowButAllowsUnderflow) {
  EXPECT_FALSE(SafePow(1e300, 2.0).ok());
  EXPECT_FALSE(SafePow(10.0, 400.0).ok());
  EXPECT_FALSE(SafePow(-10.0, 401.0).ok());
  // The shrinking direction underflows toward zero: well-defined.
  Result<double> tiny = SafePow(10.0, -400.0);
  ASSERT_TRUE(tiny.ok());
  EXPECT_EQ(tiny.value(), 0.0);
  // |base| == 1 never grows, whatever the exponent.
  EXPECT_DOUBLE_EQ(SafePow(1.0, 1e308).value_or(-1), 1.0);
}

TEST(FiniteOrTest, PassesFiniteAndReplacesTheRest) {
  EXPECT_DOUBLE_EQ(FiniteOr(2.5, 0.0), 2.5);
  EXPECT_DOUBLE_EQ(FiniteOr(-0.0, 7.0), 0.0);
  EXPECT_DOUBLE_EQ(FiniteOr(kDenorm, 7.0), kDenorm);
  EXPECT_DOUBLE_EQ(FiniteOr(kNan, 7.0), 7.0);
  EXPECT_DOUBLE_EQ(FiniteOr(kInf, 7.0), 7.0);
  EXPECT_DOUBLE_EQ(FiniteOr(-kInf, 7.0), 7.0);
}

TEST(ClampedExpTest, IdenticalInRangeAndSaturatesAtMax) {
  EXPECT_DOUBLE_EQ(ClampedExp(0.0), 1.0);
  EXPECT_DOUBLE_EQ(ClampedExp(10.0), std::exp(10.0));
  EXPECT_EQ(ClampedExp(-1000.0), 0.0);
  EXPECT_EQ(ClampedExp(710.0), kMax);
  EXPECT_EQ(ClampedExp(1e12), kMax);
  EXPECT_TRUE(std::isfinite(ClampedExp(kMaxExpArg)));
}

TEST(StableSigmoidTest, MatchesNaiveFormInSafeRangeAndSaturates) {
  for (double x : {-30.0, -2.0, -0.5, 0.0, 0.5, 2.0, 30.0}) {
    EXPECT_NEAR(StableSigmoid(x), 1.0 / (1.0 + std::exp(-x)), 1e-15)
        << "x=" << x;
  }
  // Far tails: saturate without ever overflowing exp.
  EXPECT_EQ(StableSigmoid(-5000.0), 0.0);
  EXPECT_EQ(StableSigmoid(5000.0), 1.0);
  // Symmetry: sigmoid(-x) == 1 - sigmoid(x).
  EXPECT_NEAR(StableSigmoid(-3.0), 1.0 - StableSigmoid(3.0), 1e-15);
}

TEST(StableSoftplusTest, PositiveMonotoneAndAsymptotic) {
  EXPECT_NEAR(StableSoftplus(0.0), std::log(2.0), 1e-15);
  // Large x: softplus(x) -> x; large negative: -> 0.
  EXPECT_DOUBLE_EQ(StableSoftplus(5000.0), 5000.0);
  EXPECT_EQ(StableSoftplus(-5000.0), 0.0);
  double prev = StableSoftplus(-10.0);
  for (double x = -9.5; x <= 10.0; x += 0.5) {
    double here = StableSoftplus(x);
    EXPECT_GT(here, prev);
    prev = here;
  }
}

// The runtime tier: with traps requested (TASQ_FPE builds), the guarded
// functions above must already have proven trap-free — this test asserts
// the harness itself reports its state coherently either way.
TEST(FpeHarnessTest, RequestedStateMatchesBuildConfiguration) {
#if defined(TASQ_FPE)
  EXPECT_TRUE(FpeTrapsRequested());
#else
  EXPECT_FALSE(FpeTrapsRequested());
#endif
}

}  // namespace
}  // namespace tasq
