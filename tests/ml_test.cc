#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "ml/autograd.h"
#include "ml/kernels.h"
#include "ml/matrix.h"
#include "ml/optimizer.h"

namespace tasq {
namespace {

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m.At(1, 2) = 7.0;
  EXPECT_DOUBLE_EQ(m.At(1, 2), 7.0);
  EXPECT_DOUBLE_EQ(m.Sum(), 7.0);
}

TEST(MatrixTest, RowAndColumnVectors) {
  Matrix row(1, 3, {1.0, 2.0, 3.0});
  EXPECT_EQ(row.rows(), 1u);
  EXPECT_EQ(row.cols(), 3u);
  Matrix col = Matrix::ColumnVector({1.0, 2.0});
  EXPECT_EQ(col.rows(), 2u);
  EXPECT_EQ(col.cols(), 1u);
}

TEST(MatrixTest, MatMulKnownResult) {
  Matrix a(2, 2, {1.0, 2.0, 3.0, 4.0});
  Matrix b(2, 2, {5.0, 6.0, 7.0, 8.0});
  Matrix c = a.MatMul(b);
  EXPECT_DOUBLE_EQ(c.At(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c.At(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c.At(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c.At(1, 1), 50.0);
}

TEST(MatrixTest, TransposedRoundTrip) {
  Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix t = a.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t.At(2, 1), 6.0);
  Matrix back = t.Transposed();
  EXPECT_TRUE(back.SameShape(a));
  EXPECT_DOUBLE_EQ(back.At(1, 0), 4.0);
}

TEST(MatrixTest, GlorotUniformWithinLimit) {
  Rng rng(3);
  Matrix w = Matrix::GlorotUniform(10, 20, rng);
  double limit = std::sqrt(6.0 / 30.0);
  for (double v : w.data()) {
    EXPECT_GE(v, -limit);
    EXPECT_LE(v, limit);
  }
}

// Numeric gradient check: builds a scalar loss from `forward` applied to a
// parameter and compares autograd against central differences.
void CheckGradients(Matrix initial,
                    const std::function<Var(const Var&)>& forward,
                    double tolerance = 1e-6) {
  Var param = MakeParameter(initial);
  Var loss = forward(param);
  Backward(loss);
  Matrix analytic = param->grad;
  const double eps = 1e-6;
  for (size_t i = 0; i < initial.size(); ++i) {
    Matrix plus = initial;
    plus.data()[i] += eps;
    Matrix minus = initial;
    minus.data()[i] -= eps;
    double f_plus = forward(MakeConstant(plus))->value.At(0, 0);
    double f_minus = forward(MakeConstant(minus))->value.At(0, 0);
    double numeric = (f_plus - f_minus) / (2.0 * eps);
    EXPECT_NEAR(analytic.data()[i], numeric, tolerance) << "element " << i;
  }
}

TEST(AutogradTest, GradCheckMatMulChain) {
  Rng rng(1);
  Matrix x(3, 4);
  for (double& v : x.data()) v = rng.Uniform(-1.0, 1.0);
  Matrix w0(4, 2);
  for (double& v : w0.data()) v = rng.Uniform(-1.0, 1.0);
  Var input = MakeConstant(x);
  CheckGradients(w0, [&](const Var& w) {
    return Mean(Tanh(MatMul(input, w)));
  });
}

TEST(AutogradTest, GradCheckBiasBroadcast) {
  Rng rng(2);
  Matrix x(5, 3);
  for (double& v : x.data()) v = rng.Uniform(-1.0, 1.0);
  Var input = MakeConstant(x);
  Matrix bias(1, 3);
  for (double& v : bias.data()) v = rng.Uniform(-0.5, 0.5);
  CheckGradients(bias, [&](const Var& b) {
    return Mean(Sigmoid(Add(input, b)));
  });
}

TEST(AutogradTest, GradCheckSoftplusAbsExp) {
  Rng rng(3);
  Matrix x(4, 2);
  for (double& v : x.data()) v = rng.Uniform(-2.0, 2.0);
  CheckGradients(x, [&](const Var& v) {
    return Sum(Softplus(v));
  });
  CheckGradients(x, [&](const Var& v) {
    return Mean(Exp(ScalarMul(v, 0.3)));
  });
  // Abs away from zero.
  Matrix y(3, 3);
  for (double& v : y.data()) v = rng.Uniform(0.5, 2.0) * (rng.Bernoulli(0.5) ? 1 : -1);
  CheckGradients(y, [&](const Var& v) { return Mean(Abs(v)); });
}

TEST(AutogradTest, GradCheckMulSub) {
  Rng rng(4);
  Matrix x(3, 3);
  for (double& v : x.data()) v = rng.Uniform(-1.0, 1.0);
  Matrix other(3, 3);
  for (double& v : other.data()) v = rng.Uniform(-1.0, 1.0);
  Var constant = MakeConstant(other);
  CheckGradients(x, [&](const Var& v) {
    return Sum(Mul(Sub(v, constant), v));
  });
}

Matrix RandomUniform(size_t rows, size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (double& v : m.data()) v = rng.Uniform(-1.0, 1.0);
  return m;
}

TEST(AutogradTest, GradCheckAttentionPattern) {
  // The SimGNN-style segment pooling the GNN model runs, over a batch of
  // two graphs of different sizes (3 and 2 nodes).
  Rng rng(5);
  const std::vector<size_t> offsets = {0, 3, 5};
  size_t d = 3;
  Matrix h = RandomUniform(5, d, rng);
  Matrix wc = RandomUniform(d, d, rng);
  auto pool = [&](const Var& hidden, const Var& w) {
    Var context = Tanh(MatMul(SegmentMean(hidden, offsets), w));
    Var scores = Sigmoid(SegmentRowDot(hidden, context, offsets));
    return Mean(SegmentWeightedSum(scores, hidden, offsets));
  };
  CheckGradients(wc, [&](const Var& w) {
    return pool(MakeConstant(h), w);
  });
  CheckGradients(h, [&](const Var& hidden) {
    return pool(hidden, MakeConstant(wc));
  });
}

// Segments of unequal size, one of them a single row.
const std::vector<size_t> kSegments = {0, 3, 4, 6};

TEST(AutogradTest, GradCheckSegmentMean) {
  Rng rng(21);
  Matrix x = RandomUniform(6, 3, rng);
  CheckGradients(x, [&](const Var& v) {
    return Sum(Tanh(SegmentMean(v, kSegments)));
  });
}

TEST(AutogradTest, GradCheckSegmentRowDot) {
  Rng rng(22);
  Matrix a = RandomUniform(6, 3, rng);
  Matrix b = RandomUniform(3, 3, rng);
  CheckGradients(a, [&](const Var& v) {
    return Sum(Tanh(SegmentRowDot(v, MakeConstant(b), kSegments)));
  });
  CheckGradients(b, [&](const Var& v) {
    return Sum(Tanh(SegmentRowDot(MakeConstant(a), v, kSegments)));
  });
}

TEST(AutogradTest, GradCheckSegmentWeightedSum) {
  Rng rng(23);
  Matrix w = RandomUniform(6, 1, rng);
  Matrix a = RandomUniform(6, 2, rng);
  CheckGradients(w, [&](const Var& v) {
    return Sum(Tanh(SegmentWeightedSum(v, MakeConstant(a), kSegments)));
  });
  CheckGradients(a, [&](const Var& v) {
    return Sum(Tanh(SegmentWeightedSum(MakeConstant(w), v, kSegments)));
  });
}

// A 5 x 4 CSR with an empty row and unequal row lengths.
std::shared_ptr<CsrMatrix> SmallCsr() {
  auto csr = std::make_shared<CsrMatrix>();
  csr->rows = 5;
  csr->cols = 4;
  csr->row_begin = {0, 2, 2, 5, 6, 7};
  csr->col_index = {0, 3, 0, 1, 2, 2, 3};
  csr->values = {0.5, -1.25, 0.75, 2.0, -0.5, 1.5, 0.25};
  return csr;
}

Matrix DenseOf(const CsrMatrix& csr) {
  Matrix dense(csr.rows, csr.cols);
  for (size_t r = 0; r < csr.rows; ++r) {
    for (size_t e = csr.row_begin[r]; e < csr.row_begin[r + 1]; ++e) {
      dense.At(r, csr.col_index[e]) = csr.values[e];
    }
  }
  return dense;
}

TEST(AutogradTest, GradCheckSparseMatMul) {
  Rng rng(25);
  std::shared_ptr<const CsrMatrix> csr = SmallCsr();
  Matrix b = RandomUniform(4, 3, rng);
  CheckGradients(b, [&](const Var& v) {
    return Sum(Tanh(SparseMatMul(csr, v)));
  });
}

TEST(AutogradTest, BackwardSkipsNodesWithoutAParameter) {
  Var x = MakeConstant(Matrix(2, 2, {1.0, 2.0, 3.0, 4.0}));
  Var w = MakeParameter(Matrix(2, 1, {0.5, -0.5}));
  Var hidden = Tanh(x);
  Var loss = Sum(MatMul(hidden, w));
  EXPECT_FALSE(hidden->needs_grad);
  EXPECT_TRUE(loss->needs_grad);
  Backward(loss);
  // The constant branch got no gradient buffer; the weight got x's rows.
  EXPECT_EQ(x->grad.size(), 0u);
  EXPECT_EQ(hidden->grad.size(), 0u);
  EXPECT_DOUBLE_EQ(w->grad.At(0, 0), std::tanh(1.0) + std::tanh(3.0));
  EXPECT_DOUBLE_EQ(w->grad.At(1, 0), std::tanh(2.0) + std::tanh(4.0));
}

TEST(AutogradTest, ConcatColsForwardLayout) {
  Var a = MakeConstant(Matrix(2, 2, {1, 2, 3, 4}));
  Var b = MakeConstant(Matrix(2, 1, {5, 6}));
  Var c = ConcatCols(a, b);
  EXPECT_EQ(c->value.rows(), 2u);
  EXPECT_EQ(c->value.cols(), 3u);
  EXPECT_DOUBLE_EQ(c->value.At(0, 2), 5.0);
  EXPECT_DOUBLE_EQ(c->value.At(1, 0), 3.0);
}

TEST(AutogradTest, GradCheckConcatCols) {
  Rng rng(6);
  Matrix x(3, 2);
  for (double& v : x.data()) v = rng.Uniform(-1.0, 1.0);
  Matrix other(3, 2);
  for (double& v : other.data()) v = rng.Uniform(-1.0, 1.0);
  Var constant = MakeConstant(other);
  Matrix w(4, 2);
  for (double& v : w.data()) v = rng.Uniform(-1.0, 1.0);
  Var weights = MakeConstant(w);
  CheckGradients(x, [&](const Var& v) {
    return Mean(Tanh(MatMul(ConcatCols(v, constant), weights)));
  });
  // Gradient also flows through the right operand.
  CheckGradients(other, [&](const Var& v) {
    Var left = MakeConstant(x);
    return Mean(Tanh(MatMul(ConcatCols(left, v), weights)));
  });
}

TEST(AutogradTest, GradientAccumulatesWhenParameterUsedTwice) {
  Matrix x(1, 1, {2.0});
  Var p = MakeParameter(x);
  // loss = p * p -> d/dp = 2p = 4.
  Var loss = Mean(Mul(p, p));
  Backward(loss);
  EXPECT_NEAR(p->grad.At(0, 0), 4.0, 1e-12);
}

TEST(AutogradTest, MaeLossValueAndGradient) {
  Var pred = MakeParameter(Matrix::ColumnVector({1.0, 5.0}));
  Var target = MakeConstant(Matrix::ColumnVector({2.0, 3.0}));
  Var loss = MaeLoss(pred, target);
  EXPECT_NEAR(loss->value.At(0, 0), (1.0 + 2.0) / 2.0, 1e-12);
  Backward(loss);
  EXPECT_NEAR(pred->grad.At(0, 0), -0.5, 1e-12);
  EXPECT_NEAR(pred->grad.At(1, 0), 0.5, 1e-12);
}

TEST(AdamTest, MinimizesSimpleQuadratic) {
  // Minimize ||x - c||^2 from zero.
  Var x = MakeParameter(Matrix(1, 3, {0.0, 0.0, 0.0}));
  Matrix target_m(1, 3, {1.0, -2.0, 3.0});
  Var target = MakeConstant(target_m);
  AdamOptimizer adam({x}, {.learning_rate = 0.05});
  for (int step = 0; step < 500; ++step) {
    Var diff = Sub(x, target);
    Var loss = Mean(Mul(diff, diff));
    Backward(loss);
    adam.Step();
  }
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(x->value.data()[i], target_m.data()[i], 1e-2);
  }
}

// ---------------------------------------------------------------------------
// SIMD kernel conformance: the batch-major kernels (ml/kernels.h) must be
// bit-identical to the pre-vectorization scalar paths wherever the
// reduction order is unchanged. EXPECT_EQ on doubles is deliberate — the
// contract is "same bytes", not "close".
// ---------------------------------------------------------------------------

// The historical Matrix::MatMul inner kernel: i,k,j order with the
// exact-zero skip the scalar path used. MatMulAccum drops the skip (a
// branch kills vectorization) — for finite inputs `out += 0.0 * b` is a
// bit-exact no-op, which these tests prove on matrices salted with
// exact zeros.
Matrix ScalarMatMulReference(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t k = 0; k < a.cols(); ++k) {
      double av = a.At(i, k);
      if (av == 0.0) continue;  // num: float-eq exact-zero skip replica
      for (size_t j = 0; j < b.cols(); ++j) {
        out.At(i, j) += av * b.At(k, j);
      }
    }
  }
  return out;
}

Matrix RandomMatrix(size_t rows, size_t cols, Rng& rng, double zero_frac) {
  Matrix m(rows, cols);
  for (double& v : m.data()) {
    v = rng.Uniform(0.0, 1.0) < zero_frac ? 0.0 : rng.Uniform(-2.0, 2.0);
  }
  return m;
}

TEST(MatrixKernelTest, MatMulBitIdenticalToScalarReference) {
  Rng rng(99);
  // Shapes straddle every kernel boundary: cols not a multiple of the
  // 2-lane SSE width or the 4-wide unroll, inner dims hitting both the
  // k-unrolled body and the remainder loop, plus a zero-salted operand
  // to cover the dropped exact-zero skip.
  const size_t shapes[][3] = {
      {1, 1, 1}, {1, 4, 1}, {2, 3, 5}, {3, 5, 7}, {4, 8, 4},
      {5, 2, 9}, {7, 13, 3}, {8, 1, 6},
  };
  for (const auto& shape : shapes) {
    Matrix a = RandomMatrix(shape[0], shape[1], rng, 0.3);
    Matrix b = RandomMatrix(shape[1], shape[2], rng, 0.0);
    Matrix got = a.MatMul(b);
    Matrix want = ScalarMatMulReference(a, b);
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got.data()[i], want.data()[i])
          << shape[0] << "x" << shape[1] << "*" << shape[2]
          << " elem " << i;
    }
  }
}

TEST(MatrixKernelTest, MatMulEdgeShapesEmptyDimensions) {
  // 0xN, Nx0, and zero inner dimension must produce well-formed
  // all-zero results, not UB — these exercise the n==0 guards in the
  // raw-span kernels.
  Matrix a0(0, 3);
  Matrix b0(3, 4);
  Matrix c0 = a0.MatMul(b0);
  EXPECT_EQ(c0.rows(), 0u);
  EXPECT_EQ(c0.cols(), 4u);

  Matrix a1(2, 0);
  Matrix b1(0, 4);
  Matrix c1 = a1.MatMul(b1);
  EXPECT_EQ(c1.rows(), 2u);
  EXPECT_EQ(c1.cols(), 4u);
  for (size_t i = 0; i < c1.size(); ++i) EXPECT_EQ(c1.data()[i], 0.0);

  Matrix a2(2, 3);
  Matrix b2(3, 0);
  Matrix c2 = a2.MatMul(b2);
  EXPECT_EQ(c2.rows(), 2u);
  EXPECT_EQ(c2.cols(), 0u);
  EXPECT_EQ(c2.size(), 0u);
}

TEST(MatrixKernelTest, ElementwiseOpsBitIdenticalToScalarLoops) {
  Rng rng(7);
  // 11 elements: 5 full 2-lane vectors plus a scalar tail.
  Matrix a = RandomMatrix(1, 11, rng, 0.0);
  Matrix b = RandomMatrix(1, 11, rng, 0.0);
  Matrix add = a;
  add.AddInPlace(b);
  Matrix axpy = a;
  axpy.AddScaledInPlace(b, -1.7);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(add.data()[i], a.data()[i] + b.data()[i]);
    EXPECT_EQ(axpy.data()[i], a.data()[i] + -1.7 * b.data()[i]);
  }
}

TEST(MatrixKernelTest, SumMatchesFixedFourLaneReference) {
  Rng rng(11);
  for (size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 64u, 101u}) {
    Matrix m = RandomMatrix(1, n, rng, 0.0);
    const double* x = m.data().data();
    double want;
    if (n < 4) {
      // Degenerate shapes fold left-to-right, same as the historical
      // scalar sum.
      want = 0.0;
      for (size_t i = 0; i < n; ++i) want += x[i];
    } else {
      // The documented reduction: four strided lanes in source order,
      // combined (l0+l1)+(l2+l3), tail left-to-right.
      double lane[4] = {0.0, 0.0, 0.0, 0.0};
      size_t n4 = n - n % 4;
      for (size_t i = 0; i < n4; i += 4) {
        for (size_t l = 0; l < 4; ++l) lane[l] += x[i + l];
      }
      want = (lane[0] + lane[1]) + (lane[2] + lane[3]);
      for (size_t i = n4; i < n; ++i) want += x[i];
    }
    EXPECT_EQ(m.Sum(), want) << "n=" << n;
    EXPECT_EQ(VecSum(x, n), want) << "n=" << n;
  }
}

TEST(MatrixKernelTest, DotMatchesFixedFourLaneReference) {
  Rng rng(13);
  for (size_t n : {1u, 3u, 4u, 9u, 33u}) {
    Matrix a = RandomMatrix(1, n, rng, 0.0);
    Matrix b = RandomMatrix(1, n, rng, 0.0);
    const double* x = a.data().data();
    const double* y = b.data().data();
    double want;
    if (n < 4) {
      want = 0.0;
      for (size_t i = 0; i < n; ++i) want += x[i] * y[i];
    } else {
      double lane[4] = {0.0, 0.0, 0.0, 0.0};
      size_t n4 = n - n % 4;
      for (size_t i = 0; i < n4; i += 4) {
        for (size_t l = 0; l < 4; ++l) lane[l] += x[i + l] * y[i + l];
      }
      want = (lane[0] + lane[1]) + (lane[2] + lane[3]);
      for (size_t i = n4; i < n; ++i) want += x[i] * y[i];
    }
    EXPECT_EQ(VecDot(x, y, n), want) << "n=" << n;
  }
}

TEST(MatrixKernelTest, BiasReluFusionBitIdenticalToUnfusedOps) {
  Rng rng(17);
  Matrix o = RandomMatrix(1, 9, rng, 0.0);
  Matrix bias = RandomMatrix(1, 9, rng, 0.0);
  Matrix fused = o;
  VecBiasRelu(fused.data().data(), bias.data().data(), 9);
  for (size_t i = 0; i < 9; ++i) {
    double v = o.data()[i] + bias.data()[i];
    EXPECT_EQ(fused.data()[i], v > 0.0 ? v : 0.0);
  }
}

TEST(MatrixKernelTest, MatMulAccumTransABitIdenticalToTransposedCopy) {
  Rng rng(29);
  // Inner dims hit the k-unrolled body and its remainder (not multiples
  // of 4); column counts are not multiples of any vector width.
  const size_t shapes[][3] = {
      {1, 1, 1}, {3, 5, 7}, {5, 13, 9}, {8, 6, 11}, {2, 3, 17}, {7, 9, 3},
  };
  for (const auto& shape : shapes) {
    size_t rows = shape[0];
    size_t inner = shape[1];
    size_t cols = shape[2];
    Matrix a = RandomMatrix(inner, rows, rng, 0.2);  // aᵀ is rows x inner.
    Matrix b = RandomMatrix(inner, cols, rng, 0.0);
    Matrix start = RandomMatrix(rows, cols, rng, 0.0);
    Matrix got = start;
    MatMulAccumTransA(got.data().data(), a.data().data(), b.data().data(),
                      rows, inner, cols);
    Matrix want = start;
    Matrix at = a.Transposed();
    MatMulAccum(want.data().data(), at.data().data(), b.data().data(), rows,
                inner, cols);
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got.data()[i], want.data()[i])
          << rows << "x" << inner << "*" << cols << " elem " << i;
    }
  }
}

TEST(MatrixKernelTest, CsrMatMulBitIdenticalToDenseMatMul) {
  Rng rng(31);
  std::shared_ptr<CsrMatrix> csr = SmallCsr();
  Matrix b = RandomMatrix(4, 9, rng, 0.0);
  Matrix got = csr->MatMul(b);
  Matrix want = DenseOf(*csr).MatMul(b);
  ASSERT_TRUE(got.SameShape(want));
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.data()[i], want.data()[i]) << "elem " << i;
  }
  // The transposed product scatters into the same values as the dense
  // transpose, up to summation order.
  Matrix g = RandomMatrix(5, 9, rng, 0.0);
  Matrix scattered(4, 9);
  csr->TransposedMatMulAccum(g, scattered);
  Matrix dense_t = DenseOf(*csr).Transposed().MatMul(g);
  for (size_t i = 0; i < scattered.size(); ++i) {
    EXPECT_NEAR(scattered.data()[i], dense_t.data()[i], 1e-12);
  }
}

TEST(MatrixKernelTest, MatMulAccumAccumulatesOntoPartialSums) {
  // `out` need not start zeroed: the kernel contract is +=, which the
  // layered NN forward relies on never silently becoming =.
  Rng rng(19);
  Matrix a = RandomMatrix(2, 3, rng, 0.0);
  Matrix b = RandomMatrix(3, 4, rng, 0.0);
  Matrix out = RandomMatrix(2, 4, rng, 0.0);
  // The reference accumulates in the same k order onto the same partial
  // sums — adding a separately-computed product would round differently.
  Matrix expected = out;
  for (size_t i = 0; i < 2u; ++i) {
    for (size_t k = 0; k < 3u; ++k) {
      for (size_t j = 0; j < 4u; ++j) {
        expected.At(i, j) += a.At(i, k) * b.At(k, j);
      }
    }
  }
  MatMulAccum(out.data().data(), a.data().data(), b.data().data(), 2, 3, 4);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out.data()[i], expected.data()[i]);
  }
}

}  // namespace
}  // namespace tasq
