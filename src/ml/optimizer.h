#ifndef TASQ_ML_OPTIMIZER_H_
#define TASQ_ML_OPTIMIZER_H_

#include <vector>

#include "ml/autograd.h"

namespace tasq {

/// Adam optimizer (Kingma & Ba) over a fixed set of parameter nodes.
/// Call `Step()` after `Backward` has populated gradients; gradients are
/// zeroed by the step, so the train loop is: forward -> Backward -> Step.
class AdamOptimizer {
 public:
  /// The moment decays and epsilon are Kingma & Ba's defaults
  /// (0.9, 0.999, 1e-8), fixed in optimizer.cc.
  struct Options {
    double learning_rate = 1e-3;
    /// Optional L2 weight decay (0 disables).
    double weight_decay = 0.0;
  };

  AdamOptimizer(std::vector<Var> parameters, Options options);

  /// Applies one Adam update from the accumulated gradients, then zeroes
  /// the gradients.
  void Step();

 private:
  std::vector<Var> parameters_;
  Options options_;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
  int64_t steps_ = 0;
};

}  // namespace tasq

#endif  // TASQ_ML_OPTIMIZER_H_
