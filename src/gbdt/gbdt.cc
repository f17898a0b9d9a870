#include "gbdt/gbdt.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/fmath.h"
#include "common/hot.h"
#include "common/rng.h"

namespace tasq {
namespace {

// Squared-error gradient/hessian, hoisted out of the per-row objective
// branch so the compiler sees a straight-line two-output elementwise
// kernel over __restrict spans. (The Gamma branch calls ClampedExp per
// row and stays scalar by design.)
void SquaredErrorGradHess(const double* __restrict score,
                          const double* __restrict targets,
                          double* __restrict grad, double* __restrict hess,
                          size_t n) {
  TASQ_VEC
  for (size_t i = 0; i < n; ++i) {
    grad[i] = score[i] - targets[i];
    hess[i] = 1.0;
  }
}

double LeafWeight(double grad, double hess, double l2) {
  return -grad / (hess + l2);
}

double SplitScore(double grad, double hess, double l2) {
  return grad * grad / (hess + l2);
}

// The gather kernels take __restrict *parameters* rather than local
// __restrict pointers: GCC only propagates the no-alias guarantee from
// parameter qualifiers, and without it the gather loads get no vectype /
// a possible-alias refusal (empirically verified; tasq_check.py vec
// would fire vec-not-vectorized on the local-pointer spelling).
void GatherPack(const int* __restrict idx, const double* __restrict g,
                const double* __restrict h, double* __restrict ng,
                double* __restrict nh, size_t n) {
  // The only indexed reads of grad/hess in the whole split search: one
  // fused gather pass per node instead of one gather per (feature, row).
  TASQ_VEC
  for (size_t i = 0; i < n; ++i) {
    ng[i] = g[static_cast<size_t>(idx[i])];
    nh[i] = h[static_cast<size_t>(idx[i])];
  }
}

void GatherBins(const int* __restrict idx, const int32_t* __restrict col,
                int32_t* __restrict nb, size_t n) {
  // Bin gather from the feature-major column (unit-stride destination).
  TASQ_VEC
  for (size_t i = 0; i < n; ++i) {
    nb[i] = col[static_cast<size_t>(idx[i])];
  }
}

}  // namespace

namespace gbdt_internal {

void PackNode(const std::vector<int>& samples, const std::vector<double>& grad,
              const std::vector<double>& hess, HistScratch& scratch) {
  size_t n = samples.size();
  scratch.node_grad.resize(n);
  scratch.node_hess.resize(n);
  GatherPack(samples.data(), grad.data(), hess.data(),
             scratch.node_grad.data(), scratch.node_hess.data(), n);
}

void BuildFeatureHistogram(const int32_t* col, const std::vector<int>& samples,
                           size_t nbins, HistScratch& scratch) {
  size_t n = samples.size();
  scratch.node_bins.resize(n);
  scratch.grad_sum.assign(nbins, 0.0);
  scratch.hess_sum.assign(nbins, 0.0);
  scratch.count.assign(nbins, 0);
  GatherBins(samples.data(), col, scratch.node_bins.data(), n);
  const int32_t* __restrict nb = scratch.node_bins.data();
  const double* __restrict ng = scratch.node_grad.data();
  const double* __restrict nh = scratch.node_hess.data();
  double* __restrict gs = scratch.grad_sum.data();
  double* __restrict hs = scratch.hess_sum.data();
  int* __restrict cnt = scratch.count.data();
  // Deliberately NOT TASQ_VEC: the scatter's bin indices are
  // data-dependent, so lanes can collide on the same accumulator and the
  // vectorizer rightly refuses. The packs above make every *read* here
  // unit-stride, which is the useful part. Accumulation order per bin is
  // samples order, exactly as the historical row-major build.
  for (size_t i = 0; i < n; ++i) {
    int32_t b = nb[i];
    gs[b] += ng[i];
    hs[b] += nh[i];
    ++cnt[b];
  }
}

}  // namespace gbdt_internal

GbdtRegressor::GbdtRegressor(GbdtOptions options)
    : options_(std::move(options)) {}

double GbdtRegressor::Tree::Eval(const double* row) const {
  int node = 0;
  while (nodes[static_cast<size_t>(node)].feature >= 0) {
    const TreeNode& n = nodes[static_cast<size_t>(node)];
    // Training buckets a value equal to a threshold into the *right* bin
    // (upper_bound semantics), so evaluation must use a strict comparison.
    node = row[n.feature] < n.threshold ? n.left : n.right;
  }
  return nodes[static_cast<size_t>(node)].value;
}

Status GbdtRegressor::Train(const std::vector<double>& features, size_t rows,
                            size_t dim, const std::vector<double>& targets) {
  if (rows == 0 || dim == 0 || features.size() != rows * dim ||
      targets.size() != rows) {
    return Status::InvalidArgument("feature/target matrix sizes mismatch");
  }
  for (double y : targets) {
    // isfinite first: a NaN target must not reach the ordered comparison
    // below (FE_INVALID under TASQ_FPE) or the gradient loop at all.
    if (!std::isfinite(y)) {
      return Status::InvalidArgument("targets must be finite");
    }
    if (options_.objective == GbdtOptions::Objective::kGamma && y <= 0.0) {
      return Status::InvalidArgument(
          "gamma objective requires positive targets");
    }
  }
  dim_ = dim;
  trees_.clear();

  // Base score in link space.
  double mean = 0.0;
  for (double y : targets) mean += y;
  mean /= static_cast<double>(rows);
  base_score_ = options_.objective == GbdtOptions::Objective::kGamma
                    ? CheckedLog(std::max(mean, 1e-12))
                    : mean;
  has_base_ = true;

  // Quantile thresholds per feature, computed once at the root.
  size_t bins = static_cast<size_t>(std::max(2, options_.max_bins));
  std::vector<std::vector<double>> thresholds(dim);
  {
    std::vector<double> column(rows);
    for (size_t f = 0; f < dim; ++f) {
      for (size_t r = 0; r < rows; ++r) column[r] = features[r * dim + f];
      std::sort(column.begin(), column.end());
      std::vector<double>& t = thresholds[f];
      for (size_t b = 1; b < bins; ++b) {
        double q = static_cast<double>(b) / static_cast<double>(bins);
        double v = column[static_cast<size_t>(
            q * static_cast<double>(rows - 1))];
        if (t.empty() || v > t.back()) t.push_back(v);
      }
    }
  }
  // Bin index per (feature, row): the number of thresholds <= value.
  // Feature-major (column f spans [f*rows, (f+1)*rows)) so the per-node
  // histogram build walks one contiguous column per feature; int32 rather
  // than uint16 because the bin-gather pass only vectorizes on 32-bit
  // element types (see DESIGN.md "Vectorization policy").
  std::vector<int32_t> bin_index(rows * dim);
  for (size_t f = 0; f < dim; ++f) {
    const auto& t = thresholds[f];
    int32_t* col = &bin_index[f * rows];
    for (size_t r = 0; r < rows; ++r) {
      double v = features[r * dim + f];
      col[r] = static_cast<int32_t>(
          std::upper_bound(t.begin(), t.end(), v) - t.begin());
    }
  }

  std::vector<double> score(rows, base_score_);
  std::vector<double> grad(rows);
  std::vector<double> hess(rows);
  Rng rng(options_.seed);

  gbdt_internal::HistScratch scratch;

  for (int tree_index = 0; tree_index < options_.num_trees; ++tree_index) {
    // First/second derivatives of the objective w.r.t. the link-space
    // score F, with the objective branch hoisted out of the row loop.
    if (options_.objective == GbdtOptions::Objective::kGamma) {
      for (size_t r = 0; r < rows; ++r) {
        double ratio = targets[r] * ClampedExp(-score[r]);
        grad[r] = 1.0 - ratio;
        hess[r] = ratio;
      }
    } else {
      SquaredErrorGradHess(score.data(), targets.data(), grad.data(),
                           hess.data(), rows);
    }
    std::vector<int> samples;
    samples.reserve(rows);
    if (options_.subsample < 1.0) {
      for (size_t r = 0; r < rows; ++r) {
        if (rng.Bernoulli(options_.subsample)) {
          samples.push_back(static_cast<int>(r));
        }
      }
      if (samples.empty()) samples.push_back(0);
    } else {
      samples.resize(rows);
      std::iota(samples.begin(), samples.end(), 0);
    }
    Tree tree;
    // The features matrix is needed to evaluate; splits use bins only. The
    // recursion takes grad/hess/bins/thresholds by reference and threads
    // one shared HistScratch so histogram buffers allocate once per Train.
    GrowNode(tree, samples, 0, grad, hess, bin_index, rows, thresholds,
             scratch);
    // Update scores with the shrunken tree output.
    for (size_t r = 0; r < rows; ++r) {
      score[r] += options_.learning_rate * tree.Eval(&features[r * dim]);
    }
    trees_.push_back(std::move(tree));
  }
  return Status::Ok();
}

int GbdtRegressor::GrowNode(Tree& tree, std::vector<int>& samples, int depth,
                            const std::vector<double>& grad,
                            const std::vector<double>& hess,
                            const std::vector<int32_t>& bins, size_t rows,
                            const std::vector<std::vector<double>>& thresholds,
                            gbdt_internal::HistScratch& scratch) {
  // Pack grad/hess for this node once; every feature's histogram pass
  // below then reads nothing but unit-stride spans.
  gbdt_internal::PackNode(samples, grad, hess, scratch);
  // Node totals accumulate sequentially in samples order — the exact
  // association the historical gather loop used, keeping trained trees
  // bit-identical across the restructure.
  double total_grad = 0.0;
  double total_hess = 0.0;
  for (size_t i = 0; i < samples.size(); ++i) {
    total_grad += scratch.node_grad[i];
    total_hess += scratch.node_hess[i];
  }
  int node_index = static_cast<int>(tree.nodes.size());
  tree.nodes.emplace_back();
  tree.nodes.back().value =
      LeafWeight(total_grad, total_hess, options_.l2_lambda);

  if (depth >= options_.max_depth ||
      static_cast<int>(samples.size()) < 2 * options_.min_samples_leaf) {
    return node_index;
  }

  // Best split across all features and their quantile thresholds.
  double parent_score = SplitScore(total_grad, total_hess, options_.l2_lambda);
  double best_gain = 1e-9;
  int best_feature = -1;
  int best_bin = -1;
  for (size_t f = 0; f < dim_; ++f) {
    size_t nbins = thresholds[f].size() + 1;
    if (nbins < 2) continue;
    gbdt_internal::BuildFeatureHistogram(&bins[f * rows], samples, nbins,
                                         scratch);
    double left_grad = 0.0;
    double left_hess = 0.0;
    int left_count = 0;
    for (size_t b = 0; b + 1 < nbins; ++b) {
      left_grad += scratch.grad_sum[b];
      left_hess += scratch.hess_sum[b];
      left_count += scratch.count[b];
      int right_count = static_cast<int>(samples.size()) - left_count;
      if (left_count < options_.min_samples_leaf ||
          right_count < options_.min_samples_leaf) {
        continue;
      }
      double gain =
          0.5 * (SplitScore(left_grad, left_hess, options_.l2_lambda) +
                 SplitScore(total_grad - left_grad, total_hess - left_hess,
                            options_.l2_lambda) -
                 parent_score);
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(f);
        best_bin = static_cast<int>(b);
      }
    }
  }
  if (best_feature < 0) return node_index;

  double threshold =
      thresholds[static_cast<size_t>(best_feature)][static_cast<size_t>(best_bin)];
  std::vector<int> left;
  std::vector<int> right;
  const int32_t* best_col = &bins[static_cast<size_t>(best_feature) * rows];
  for (int r : samples) {
    if (best_col[static_cast<size_t>(r)] <= best_bin) {
      left.push_back(r);
    } else {
      right.push_back(r);
    }
  }
  // Free the parent's sample list before recursing to bound memory.
  samples.clear();
  samples.shrink_to_fit();

  int left_child = GrowNode(tree, left, depth + 1, grad, hess, bins, rows,
                            thresholds, scratch);
  int right_child = GrowNode(tree, right, depth + 1, grad, hess, bins, rows,
                             thresholds, scratch);
  TreeNode& node = tree.nodes[static_cast<size_t>(node_index)];
  node.feature = best_feature;
  node.threshold = threshold;
  node.left = left_child;
  node.right = right_child;
  return node_index;
}

std::vector<double> GbdtRegressor::FeatureImportance() const {
  std::vector<double> importance(dim_, 0.0);
  double total = 0.0;
  for (const Tree& tree : trees_) {
    for (const TreeNode& node : tree.nodes) {
      if (node.feature >= 0 &&
          static_cast<size_t>(node.feature) < importance.size()) {
        importance[static_cast<size_t>(node.feature)] += 1.0;
        total += 1.0;
      }
    }
  }
  if (total > 0.0) {
    for (double& v : importance) v /= total;
  }
  return importance;
}

void GbdtRegressor::Serialize(TextArchiveWriter& writer) const {
  writer.String("gbdt.format", "tasq-gbdt-v1");
  writer.Scalar("gbdt.objective",
                static_cast<int64_t>(options_.objective ==
                                             GbdtOptions::Objective::kGamma
                                         ? 1
                                         : 0));
  writer.Scalar("gbdt.num_trees_opt", static_cast<int64_t>(options_.num_trees));
  writer.Scalar("gbdt.max_depth", static_cast<int64_t>(options_.max_depth));
  writer.Scalar("gbdt.learning_rate", options_.learning_rate);
  writer.Scalar("gbdt.min_samples_leaf",
                static_cast<int64_t>(options_.min_samples_leaf));
  writer.Scalar("gbdt.l2_lambda", options_.l2_lambda);
  writer.Scalar("gbdt.max_bins", static_cast<int64_t>(options_.max_bins));
  writer.Scalar("gbdt.subsample", options_.subsample);
  writer.Scalar("gbdt.seed", static_cast<int64_t>(options_.seed));
  writer.Scalar("gbdt.dim", static_cast<int64_t>(dim_));
  writer.Scalar("gbdt.has_base", static_cast<int64_t>(has_base_ ? 1 : 0));
  writer.Scalar("gbdt.base_score", base_score_);
  writer.Scalar("gbdt.num_trees", static_cast<int64_t>(trees_.size()));
  for (const Tree& tree : trees_) {
    // Flatten the node array: 5 numbers per node.
    std::vector<double> flat;
    flat.reserve(tree.nodes.size() * 5);
    for (const TreeNode& node : tree.nodes) {
      flat.push_back(static_cast<double>(node.feature));
      flat.push_back(node.threshold);
      flat.push_back(static_cast<double>(node.left));
      flat.push_back(static_cast<double>(node.right));
      flat.push_back(node.value);
    }
    writer.Vector("gbdt.tree", flat);
  }
}

GbdtRegressor GbdtRegressor::Deserialize(TextArchiveReader& reader) {
  std::string format;
  reader.String("gbdt.format", format);
  if (reader.status().ok() && format != "tasq-gbdt-v1") {
    reader.ForceError("unknown gbdt archive format '" + format + "'");
  }
  GbdtOptions options;
  int64_t objective = 0;
  int64_t num_trees_opt = 0;
  int64_t max_depth = 0;
  int64_t min_leaf = 0;
  int64_t max_bins = 0;
  int64_t seed = 0;
  reader.Scalar("gbdt.objective", objective);
  reader.Scalar("gbdt.num_trees_opt", num_trees_opt);
  reader.Scalar("gbdt.max_depth", max_depth);
  reader.Scalar("gbdt.learning_rate", options.learning_rate);
  reader.Scalar("gbdt.min_samples_leaf", min_leaf);
  reader.Scalar("gbdt.l2_lambda", options.l2_lambda);
  reader.Scalar("gbdt.max_bins", max_bins);
  reader.Scalar("gbdt.subsample", options.subsample);
  reader.Scalar("gbdt.seed", seed);
  options.objective = objective == 1 ? GbdtOptions::Objective::kGamma
                                     : GbdtOptions::Objective::kSquaredError;
  options.num_trees = static_cast<int>(num_trees_opt);
  options.max_depth = static_cast<int>(max_depth);
  options.min_samples_leaf = static_cast<int>(min_leaf);
  options.max_bins = static_cast<int>(max_bins);
  options.seed = static_cast<uint64_t>(seed);

  GbdtRegressor model(options);
  int64_t dim = 0;
  int64_t has_base = 0;
  int64_t tree_count = 0;
  reader.Scalar("gbdt.dim", dim);
  reader.Scalar("gbdt.has_base", has_base);
  reader.Scalar("gbdt.base_score", model.base_score_);
  reader.Scalar("gbdt.num_trees", tree_count);
  if (!reader.status().ok() || dim < 0 || tree_count < 0) {
    return GbdtRegressor(options);
  }
  model.dim_ = static_cast<size_t>(dim);
  model.has_base_ = has_base == 1;
  for (int64_t t = 0; t < tree_count; ++t) {
    std::vector<double> flat;
    reader.Vector("gbdt.tree", flat);
    if (!reader.status().ok() || flat.size() % 5 != 0) {
      reader.ForceError("malformed gbdt tree record");
      return GbdtRegressor(options);
    }
    Tree tree;
    tree.nodes.reserve(flat.size() / 5);
    int node_count = static_cast<int>(flat.size() / 5);
    for (size_t i = 0; i < flat.size(); i += 5) {
      TreeNode node;
      node.feature = static_cast<int>(flat[i]);
      node.threshold = flat[i + 1];
      node.left = static_cast<int>(flat[i + 2]);
      node.right = static_cast<int>(flat[i + 3]);
      node.value = flat[i + 4];
      if (node.feature >= static_cast<int>(model.dim_) ||
          node.left >= node_count || node.right >= node_count) {
        reader.ForceError("gbdt tree node references out of range");
        return GbdtRegressor(options);
      }
      tree.nodes.push_back(node);
    }
    if (tree.nodes.empty()) {
      reader.ForceError("gbdt tree has no nodes");
      return GbdtRegressor(options);
    }
    model.trees_.push_back(std::move(tree));
  }
  return model;
}

double GbdtRegressor::Predict(const double* row) const {
  if (!has_base_) return 0.0;
  double score = base_score_;
  for (const Tree& tree : trees_) {
    score += options_.learning_rate * tree.Eval(row);
  }
  return options_.objective == GbdtOptions::Objective::kGamma
             ? ClampedExp(score)
             : score;
}

}  // namespace tasq
