#include "ml/optimizer.h"

#include <cmath>

#include "common/check.h"
#include "common/fmath.h"

namespace tasq {

namespace {

constexpr double kBeta1 = 0.9;
constexpr double kBeta2 = 0.999;
constexpr double kEpsilon = 1e-8;

}  // namespace

AdamOptimizer::AdamOptimizer(std::vector<Var> parameters, Options options)
    : parameters_(std::move(parameters)), options_(options) {
  m_.reserve(parameters_.size());
  v_.reserve(parameters_.size());
  for (const Var& p : parameters_) {
    m_.emplace_back(p->value.rows(), p->value.cols());
    v_.emplace_back(p->value.rows(), p->value.cols());
    p->EnsureGrad();
  }
}

void AdamOptimizer::Step() {
  ++steps_;
  double bias1 = 1.0 - CheckedPow(kBeta1, static_cast<double>(steps_));
  double bias2 = 1.0 - CheckedPow(kBeta2, static_cast<double>(steps_));
  for (size_t i = 0; i < parameters_.size(); ++i) {
    Matrix& value = parameters_[i]->value;
    Matrix& grad = parameters_[i]->grad;
    // The k-loop indexes value, grad, and the moment buffers with one
    // counter; if a parameter was resized after construction the update
    // would scribble across buffers instead of failing loudly.
    TASQ_DCHECK(grad.SameShape(value));
    TASQ_DCHECK(m_[i].SameShape(value));
    for (size_t k = 0; k < value.size(); ++k) {
      double g = grad.data()[k];
      if (options_.weight_decay > 0.0) {
        g += options_.weight_decay * value.data()[k];
      }
      double& m = m_[i].data()[k];
      double& v = v_[i].data()[k];
      m = kBeta1 * m + (1.0 - kBeta1) * g;
      v = kBeta2 * v + (1.0 - kBeta2) * g * g;
      double m_hat = m / bias1;
      double v_hat = v / bias2;
      // CheckedSqrt makes a NaN gradient die here (sanitizer/FPE
      // builds) instead of poisoning every parameter it touches.
      value.data()[k] -= options_.learning_rate * m_hat /
                         (CheckedSqrt(v_hat) + kEpsilon);
    }
    grad.SetZero();
  }
}

}  // namespace tasq
