#include "ml/autograd.h"

#include <cmath>
#include <unordered_set>

#include "common/check.h"
#include "common/fmath.h"
#include "ml/kernels.h"

namespace tasq {
namespace {

Var MakeOp(Matrix value, std::vector<Var> parents) {
  auto node = std::make_shared<AutogradNode>();
  node->value = std::move(value);
  for (const Var& parent : parents) node->needs_grad |= parent->needs_grad;
  node->parents = std::move(parents);
  return node;
}

// Checks that `offsets` segments an n-row matrix (see autograd.h).
void CheckSegments(const std::vector<size_t>& offsets, size_t n) {
  TASQ_CHECK_GE(offsets.size(), 1u);
  TASQ_CHECK_EQ(offsets.front(), 0u);
  TASQ_CHECK_EQ(offsets.back(), n);
  for (size_t g = 0; g + 1 < offsets.size(); ++g) {
    TASQ_CHECK_LE(offsets[g], offsets[g + 1]);
  }
}

}  // namespace

void AutogradNode::EnsureGrad() {
  if (!grad.SameShape(value)) {
    grad = Matrix(value.rows(), value.cols());
  } else {
    grad.SetZero();
  }
}

Var MakeConstant(Matrix value) {
  auto node = std::make_shared<AutogradNode>();
  node->value = std::move(value);
  return node;
}

Var MakeParameter(Matrix value) {
  auto node = std::make_shared<AutogradNode>();
  node->value = std::move(value);
  node->requires_grad = true;
  node->needs_grad = true;
  node->EnsureGrad();
  return node;
}

void Backward(const Var& root) {
  // Backprop seeds d(root)/d(root) = 1, which is only meaningful for a
  // scalar loss; a non-scalar root silently trains on garbage gradients.
  TASQ_CHECK_EQ(root->value.rows(), 1u);
  TASQ_CHECK_EQ(root->value.cols(), 1u);
  if (!root->needs_grad) return;
  // Iterative post-order DFS to topologically sort the nodes that lead to
  // a parameter; the rest of the graph gets no gradient.
  std::vector<AutogradNode*> order;
  std::unordered_set<AutogradNode*> visited;
  std::vector<std::pair<AutogradNode*, size_t>> stack;
  stack.emplace_back(root.get(), 0);
  visited.insert(root.get());
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->parents.size()) {
      AutogradNode* child = node->parents[next_child].get();
      ++next_child;
      if (child->needs_grad && visited.insert(child).second) {
        stack.emplace_back(child, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
  // Zero interior gradients (parameters keep accumulating until the
  // optimizer step zeroes them; interior nodes are fresh per forward pass,
  // so their grads start unset).
  for (AutogradNode* node : order) {
    if (!node->requires_grad) node->EnsureGrad();
  }
  root->grad.At(0, 0) = 1.0;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if ((*it)->backprop) (*it)->backprop();
  }
}

Var MatMul(const Var& a, const Var& b) {
  Var out = MakeOp(a->value.MatMul(b->value), {a, b});
  AutogradNode* o = out.get();
  out->backprop = [o, a, b]() {
    if (a->needs_grad) {
      a->grad.AddInPlace(o->grad.MatMul(b->value.Transposed()));
    }
    if (b->needs_grad) {
      // b's gradient aᵀ·grad accumulates in place. A weight is used once
      // per forward, so it accumulates into a zeroed gradient and matches
      // adding a separately computed product bit for bit.
      MatMulAccumTransA(b->grad.data().data(), a->value.data().data(),
                        o->grad.data().data(), a->value.cols(),
                        a->value.rows(), o->grad.cols());
    }
  };
  return out;
}

Var SparseMatMul(std::shared_ptr<const CsrMatrix> a, const Var& b) {
  Var out = MakeOp(a->MatMul(b->value), {b});
  AutogradNode* o = out.get();
  // One parent: backprop runs only when b needs a gradient.
  out->backprop = [o, a = std::move(a), b]() {
    a->TransposedMatMulAccum(o->grad, b->grad);
  };
  return out;
}

Var Add(const Var& a, const Var& b) {
  const Matrix& av = a->value;
  const Matrix& bv = b->value;
  bool broadcast = bv.rows() == 1 && av.rows() > 1 && bv.cols() == av.cols();
  // Either a true elementwise add or a row-vector bias broadcast; any other
  // shape pair is a wiring bug in the model graph.
  TASQ_CHECK(broadcast || av.SameShape(bv));
  Matrix value = av;
  if (broadcast) {
    // Row-broadcast bias add through the batch-major kernel: one
    // contiguous vectorized pass per batch row.
    for (size_t r = 0; r < av.rows(); ++r) {
      VecBiasAdd(value.Row(r), bv.Row(0), av.cols());
    }
  } else {
    value.AddInPlace(bv);
  }
  Var out = MakeOp(std::move(value), {a, b});
  AutogradNode* o = out.get();
  out->backprop = [o, a, b, broadcast]() {
    if (a->needs_grad) a->grad.AddInPlace(o->grad);
    if (!b->needs_grad) return;
    if (broadcast) {
      for (size_t r = 0; r < o->grad.rows(); ++r) {
        for (size_t c = 0; c < o->grad.cols(); ++c) {
          b->grad.At(0, c) += o->grad.At(r, c);
        }
      }
    } else {
      b->grad.AddInPlace(o->grad);
    }
  };
  return out;
}

Var Sub(const Var& a, const Var& b) {
  TASQ_CHECK(a->value.SameShape(b->value));
  Matrix value = a->value;
  value.AddScaledInPlace(b->value, -1.0);
  Var out = MakeOp(std::move(value), {a, b});
  AutogradNode* o = out.get();
  out->backprop = [o, a, b]() {
    if (a->needs_grad) a->grad.AddInPlace(o->grad);
    if (b->needs_grad) b->grad.AddScaledInPlace(o->grad, -1.0);
  };
  return out;
}

Var Mul(const Var& a, const Var& b) {
  TASQ_CHECK(a->value.SameShape(b->value));
  Matrix value = a->value;
  VecMulInPlace(value.data().data(), b->value.data().data(), value.size());
  Var out = MakeOp(std::move(value), {a, b});
  AutogradNode* o = out.get();
  out->backprop = [o, a, b]() {
    if (a->needs_grad) {
      for (size_t i = 0; i < o->grad.size(); ++i) {
        a->grad.data()[i] += o->grad.data()[i] * b->value.data()[i];
      }
    }
    if (b->needs_grad) {
      for (size_t i = 0; i < o->grad.size(); ++i) {
        b->grad.data()[i] += o->grad.data()[i] * a->value.data()[i];
      }
    }
  };
  return out;
}

Var ScalarMul(const Var& a, double s) {
  Matrix value = a->value;
  VecScale(value.data().data(), s, value.size());
  Var out = MakeOp(std::move(value), {a});
  AutogradNode* o = out.get();
  out->backprop = [o, a, s]() { a->grad.AddScaledInPlace(o->grad, s); };
  return out;
}

namespace {

// Shared scaffolding for elementwise unary ops whose derivative can be
// computed from input (x) and output (y) values. Taking the functions as
// template arguments lets them inline into the per-element loops.
template <typename Forward, typename Derivative>
Var UnaryOp(const Var& a, Forward fwd, Derivative dfn) {
  Matrix value = a->value;
  for (double& v : value.data()) v = fwd(v);
  Var out = MakeOp(std::move(value), {a});
  AutogradNode* o = out.get();
  out->backprop = [o, a, dfn]() {
    for (size_t i = 0; i < o->grad.size(); ++i) {
      a->grad.data()[i] +=
          o->grad.data()[i] * dfn(a->value.data()[i], o->value.data()[i]);
    }
  };
  return out;
}

}  // namespace

Var Relu(const Var& a) {
  return UnaryOp(
      a, [](double x) { return x > 0.0 ? x : 0.0; },
      [](double x, double) { return x > 0.0 ? 1.0 : 0.0; });
}

Var Tanh(const Var& a) {
  return UnaryOp(
      a, [](double x) { return std::tanh(x); },
      [](double, double y) { return 1.0 - y * y; });
}

Var Sigmoid(const Var& a) {
  return UnaryOp(
      a, [](double x) { return StableSigmoid(x); },
      [](double, double y) { return y * (1.0 - y); });
}

Var Abs(const Var& a) {
  return UnaryOp(
      a, [](double x) { return std::fabs(x); },
      [](double x, double) { return x > 0.0 ? 1.0 : (x < 0.0 ? -1.0 : 0.0); });
}

Var Softplus(const Var& a) {
  return UnaryOp(
      a,
      [](double x) { return StableSoftplus(x); },
      [](double x, double) { return StableSigmoid(x); });
}

Var Exp(const Var& a) {
  return UnaryOp(
      // Clamped so a wild pre-activation saturates at DBL_MAX instead
      // of overflowing to +inf (and trapping under TASQ_FPE).
      a, [](double x) { return ClampedExp(x); },
      [](double, double y) { return y; });
}

Var SegmentMean(const Var& a, const std::vector<size_t>& offsets) {
  size_t cols = a->value.cols();
  CheckSegments(offsets, a->value.rows());
  size_t segments = offsets.size() - 1;
  Matrix value(segments, cols);
  for (size_t g = 0; g < segments; ++g) {
    // Averaging zero rows divides by zero and poisons the whole graph
    // with NaNs several ops downstream of the actual bug.
    TASQ_CHECK_LT(offsets[g], offsets[g + 1]);
    double rows = static_cast<double>(offsets[g + 1] - offsets[g]);
    for (size_t r = offsets[g]; r < offsets[g + 1]; ++r) {
      for (size_t c = 0; c < cols; ++c) {
        value.At(g, c) += a->value.At(r, c) / rows;
      }
    }
  }
  Var out = MakeOp(std::move(value), {a});
  AutogradNode* o = out.get();
  out->backprop = [o, a, offsets, cols]() {
    for (size_t g = 0; g + 1 < offsets.size(); ++g) {
      double rows = static_cast<double>(offsets[g + 1] - offsets[g]);
      for (size_t r = offsets[g]; r < offsets[g + 1]; ++r) {
        for (size_t c = 0; c < cols; ++c) {
          a->grad.At(r, c) += o->grad.At(g, c) / rows;
        }
      }
    }
  };
  return out;
}

Var SegmentRowDot(const Var& a, const Var& b,
                  const std::vector<size_t>& offsets) {
  size_t cols = a->value.cols();
  CheckSegments(offsets, a->value.rows());
  TASQ_CHECK_EQ(b->value.rows(), offsets.size() - 1);
  TASQ_CHECK_EQ(b->value.cols(), cols);
  Matrix value(a->value.rows(), 1);
  for (size_t g = 0; g + 1 < offsets.size(); ++g) {
    for (size_t r = offsets[g]; r < offsets[g + 1]; ++r) {
      // A left-to-right sum from zero: the order of MatMul's kernel on a
      // 1-column product, so a one-segment batch matches a·bᵀ exactly.
      double dot = 0.0;
      for (size_t c = 0; c < cols; ++c) {
        dot += a->value.At(r, c) * b->value.At(g, c);
      }
      value.At(r, 0) = dot;
    }
  }
  Var out = MakeOp(std::move(value), {a, b});
  AutogradNode* o = out.get();
  out->backprop = [o, a, b, offsets, cols]() {
    for (size_t g = 0; g + 1 < offsets.size(); ++g) {
      for (size_t r = offsets[g]; r < offsets[g + 1]; ++r) {
        double up = o->grad.At(r, 0);
        if (a->needs_grad) {
          VecAddScaledInPlace(a->grad.Row(r), b->value.Row(g), up, cols);
        }
        if (b->needs_grad) {
          VecAddScaledInPlace(b->grad.Row(g), a->value.Row(r), up, cols);
        }
      }
    }
  };
  return out;
}

Var SegmentWeightedSum(const Var& w, const Var& a,
                       const std::vector<size_t>& offsets) {
  size_t cols = a->value.cols();
  CheckSegments(offsets, a->value.rows());
  TASQ_CHECK_EQ(w->value.rows(), a->value.rows());
  TASQ_CHECK_EQ(w->value.cols(), 1u);
  size_t segments = offsets.size() - 1;
  Matrix value(segments, cols);
  for (size_t g = 0; g < segments; ++g) {
    for (size_t r = offsets[g]; r < offsets[g + 1]; ++r) {
      VecAddScaledInPlace(value.Row(g), a->value.Row(r), w->value.At(r, 0),
                          cols);
    }
  }
  Var out = MakeOp(std::move(value), {w, a});
  AutogradNode* o = out.get();
  out->backprop = [o, w, a, offsets, cols]() {
    for (size_t g = 0; g + 1 < offsets.size(); ++g) {
      for (size_t r = offsets[g]; r < offsets[g + 1]; ++r) {
        if (w->needs_grad) {
          w->grad.At(r, 0) += VecDot(o->grad.Row(g), a->value.Row(r), cols);
        }
        if (a->needs_grad) {
          VecAddScaledInPlace(a->grad.Row(r), o->grad.Row(g),
                              w->value.At(r, 0), cols);
        }
      }
    }
  };
  return out;
}

Var ConcatCols(const Var& a, const Var& b) {
  TASQ_CHECK_EQ(a->value.rows(), b->value.rows());
  size_t rows = a->value.rows();
  size_t ca = a->value.cols();
  size_t cb = b->value.cols();
  Matrix value(rows, ca + cb);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < ca; ++c) value.At(r, c) = a->value.At(r, c);
    for (size_t c = 0; c < cb; ++c) value.At(r, ca + c) = b->value.At(r, c);
  }
  Var out = MakeOp(std::move(value), {a, b});
  AutogradNode* o = out.get();
  out->backprop = [o, a, b, rows, ca, cb]() {
    for (size_t r = 0; r < rows; ++r) {
      if (a->needs_grad) VecAddInPlace(a->grad.Row(r), o->grad.Row(r), ca);
      if (b->needs_grad) {
        VecAddInPlace(b->grad.Row(r), o->grad.Row(r) + ca, cb);
      }
    }
  };
  return out;
}

Var Mean(const Var& a) {
  TASQ_CHECK_GT(a->value.size(), 0u);
  double n = static_cast<double>(a->value.size());
  Matrix value(1, 1);
  value.At(0, 0) = a->value.Sum() / n;
  Var out = MakeOp(std::move(value), {a});
  AutogradNode* o = out.get();
  out->backprop = [o, a, n]() {
    double g = o->grad.At(0, 0) / n;
    for (double& v : a->grad.data()) v += g;
  };
  return out;
}

Var Sum(const Var& a) {
  Matrix value(1, 1);
  value.At(0, 0) = a->value.Sum();
  Var out = MakeOp(std::move(value), {a});
  AutogradNode* o = out.get();
  out->backprop = [o, a]() {
    double g = o->grad.At(0, 0);
    for (double& v : a->grad.data()) v += g;
  };
  return out;
}

Var MaeLoss(const Var& prediction, const Var& target) {
  return Mean(Abs(Sub(prediction, target)));
}

}  // namespace tasq
