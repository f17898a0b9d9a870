#ifndef TASQ_ML_AUTOGRAD_H_
#define TASQ_ML_AUTOGRAD_H_

#include <functional>
#include <memory>
#include <vector>

#include "ml/matrix.h"

namespace tasq {

/// A node in a dynamically-built computation graph. Create nodes with
/// `MakeConstant` / `MakeParameter` and compose them with the free-function
/// operators below; call `Backward` on a scalar (1x1) result to populate
/// `grad` on every node between it and a parameter.
///
/// Graphs are rebuilt per forward pass (define-by-run); parameters persist
/// across passes and are updated by an optimizer reading their `grad`.
class AutogradNode {
 public:
  Matrix value;
  /// Gradient of the scalar loss w.r.t. `value`; sized on first use, and
  /// only on nodes with `needs_grad`.
  Matrix grad;
  /// True for trainable parameters (leaf nodes an optimizer updates).
  bool requires_grad = false;
  /// True when this node is a parameter or has one among its ancestors.
  /// Backward visits only such nodes, and an op's backprop writes only
  /// into parents that have it: constants (inputs, targets, adjacency)
  /// and everything computed from constants alone get no gradient.
  bool needs_grad = false;

  std::vector<std::shared_ptr<AutogradNode>> parents;
  /// Propagates this node's `grad` into its parents' `grad`s.
  std::function<void()> backprop;

  /// Zero-fills (and sizes) the gradient buffer.
  void EnsureGrad();
};

using Var = std::shared_ptr<AutogradNode>;

/// Wraps a value that does not require gradients (inputs, adjacency, ...).
Var MakeConstant(Matrix value);

/// Wraps a trainable parameter.
Var MakeParameter(Matrix value);

/// Runs reverse-mode differentiation from `root`, which must be 1x1.
/// Gradients accumulate into the `grad` of every ancestor that needs one.
void Backward(const Var& root);

// ---- Operators -----------------------------------------------------------

/// Matrix product a(M x K) * b(K x N). Backward computes an operand's
/// gradient only when it needs one; b's comes from MatMulAccumTransA,
/// with no transposed copy of a.
Var MatMul(const Var& a, const Var& b);

/// Sparse-dense product a(M x K) * b(K x N) with a constant CSR `a`
/// (CsrMatrix::MatMul); only b gets a gradient, aᵀ times the output's.
Var SparseMatMul(std::shared_ptr<const CsrMatrix> a, const Var& b);

/// Elementwise sum. Also supports bias broadcast: when `b` is 1 x C and `a`
/// is N x C, `b` is added to every row.
Var Add(const Var& a, const Var& b);

/// Elementwise difference (same shapes; no broadcast).
Var Sub(const Var& a, const Var& b);

/// Elementwise (Hadamard) product of same-shaped operands.
Var Mul(const Var& a, const Var& b);

/// Multiplies every element by the scalar `s`.
Var ScalarMul(const Var& a, double s);

/// Rectified linear unit, max(x, 0).
Var Relu(const Var& a);

/// Hyperbolic tangent.
Var Tanh(const Var& a);

/// Logistic sigmoid 1 / (1 + exp(-x)).
Var Sigmoid(const Var& a);

/// Elementwise absolute value (subgradient 0 at 0).
Var Abs(const Var& a);

/// Softplus log(1 + exp(x)): a smooth non-negative squashing used to
/// enforce sign constraints (e.g., the PCC exponent magnitude).
Var Softplus(const Var& a);

/// Elementwise exponential.
Var Exp(const Var& a);

// Segment ops over row-stacked groups (e.g. the nodes of a mini-batch's
// graphs): `offsets` has G + 1 non-decreasing entries from 0 to N, and
// segment g is rows [offsets[g], offsets[g + 1]). Each segment's result
// sums its rows in order, so it equals the same op on that segment alone.

/// Column-wise mean of each segment: N x C -> G x C. Segments must be
/// non-empty.
Var SegmentMean(const Var& a, const std::vector<size_t>& offsets);

/// Each row of `a` (N x C) dotted with its own segment's row of `b`
/// (G x C): N x 1, out[r] = sum_c a[r][c] * b[g(r)][c].
Var SegmentRowDot(const Var& a, const Var& b,
                  const std::vector<size_t>& offsets);

/// Weighted sum of each segment's rows: `w` is N x 1, `a` N x C, and
/// out[g] = sum over rows r of segment g of w[r] * a[r] (G x C).
Var SegmentWeightedSum(const Var& w, const Var& a,
                       const std::vector<size_t>& offsets);

/// Horizontal concatenation of same-row-count operands:
/// (N x C1, N x C2) -> N x (C1 + C2).
Var ConcatCols(const Var& a, const Var& b);

/// Mean of all elements -> 1 x 1.
Var Mean(const Var& a);

/// Sum of all elements -> 1 x 1.
Var Sum(const Var& a);

/// Mean absolute error between same-shaped predictions and targets -> 1x1.
/// Convenience for Mean(Abs(Sub(a, b))).
Var MaeLoss(const Var& prediction, const Var& target);

}  // namespace tasq

#endif  // TASQ_ML_AUTOGRAD_H_
