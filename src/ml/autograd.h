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
/// `grad` on every node that contributed to it.
///
/// Graphs are rebuilt per forward pass (define-by-run); parameters persist
/// across passes and are updated by an optimizer reading their `grad`.
class AutogradNode {
 public:
  Matrix value;
  /// Gradient of the scalar loss w.r.t. `value`; sized on first use.
  Matrix grad;
  /// True for trainable parameters (leaf nodes an optimizer updates).
  bool requires_grad = false;

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
/// Gradients accumulate into every ancestor's `grad`.
void Backward(const Var& root);

// ---- Operators -----------------------------------------------------------

/// Matrix product a(M x K) * b(K x N).
Var MatMul(const Var& a, const Var& b);

/// Elementwise sum. Also supports bias broadcast: when `b` is 1 x C and `a`
/// is N x C, `b` is added to every row.
Var Add(const Var& a, const Var& b);

/// Elementwise difference (same shapes; no broadcast).
Var Sub(const Var& a, const Var& b);

/// Elementwise (Hadamard) product of same-shaped operands.
Var Mul(const Var& a, const Var& b);

/// Multiplies every element by the scalar `s`.
Var ScalarMul(const Var& a, double s);

/// Transpose.
Var Transpose(const Var& a);

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

/// Column-wise mean over rows: N x C -> 1 x C.
Var MeanRows(const Var& a);

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
