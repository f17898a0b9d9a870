#include "selection/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace tasq {
namespace {

double SquaredDistance(const double* a, const double* b, size_t dim) {
  double acc = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

}  // namespace

Result<KMeansResult> KMeans(const std::vector<double>& data, size_t rows,
                            size_t dim, size_t k, Rng& rng,
                            int max_iterations) {
  if (rows == 0 || dim == 0 || data.size() != rows * dim) {
    return Status::InvalidArgument("kmeans needs a non-empty rows*dim matrix");
  }
  if (k == 0 || k > rows) {
    return Status::InvalidArgument("kmeans needs 1 <= k <= rows");
  }
  KMeansResult result;
  result.k = k;
  result.dim = dim;
  result.centroids.resize(k * dim);
  result.assignments.assign(rows, 0);

  // k-means++ seeding.
  std::vector<double> min_dist(rows, std::numeric_limits<double>::max());
  size_t first = static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(rows) - 1));
  std::copy_n(&data[first * dim], dim, &result.centroids[0]);
  for (size_t c = 1; c < k; ++c) {
    for (size_t r = 0; r < rows; ++r) {
      double d = SquaredDistance(&data[r * dim],
                                 &result.centroids[(c - 1) * dim], dim);
      min_dist[r] = std::min(min_dist[r], d);
    }
    size_t chosen = rng.Categorical(min_dist);
    std::copy_n(&data[chosen * dim], dim, &result.centroids[c * dim]);
  }

  std::vector<double> sums(k * dim);
  std::vector<int> counts(k);
  for (int iter = 0; iter < max_iterations; ++iter) {
    bool changed = false;
    for (size_t r = 0; r < rows; ++r) {
      int best = 0;
      double best_dist = std::numeric_limits<double>::max();
      for (size_t c = 0; c < k; ++c) {
        double d = SquaredDistance(&data[r * dim], &result.centroids[c * dim],
                                   dim);
        if (d < best_dist) {
          best_dist = d;
          best = static_cast<int>(c);
        }
      }
      if (result.assignments[r] != best) {
        result.assignments[r] = best;
        changed = true;
      }
    }
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (size_t r = 0; r < rows; ++r) {
      size_t c = static_cast<size_t>(result.assignments[r]);
      ++counts[c];
      for (size_t i = 0; i < dim; ++i) sums[c * dim + i] += data[r * dim + i];
    }
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed an empty cluster from the point farthest from its
        // centroid assignment.
        size_t farthest = 0;
        double far_dist = -1.0;
        for (size_t r = 0; r < rows; ++r) {
          size_t assigned = static_cast<size_t>(result.assignments[r]);
          double d = SquaredDistance(&data[r * dim],
                                     &result.centroids[assigned * dim], dim);
          if (d > far_dist) {
            far_dist = d;
            farthest = r;
          }
        }
        std::copy_n(&data[farthest * dim], dim, &result.centroids[c * dim]);
        changed = true;
        continue;
      }
      for (size_t i = 0; i < dim; ++i) {
        result.centroids[c * dim + i] =
            sums[c * dim + i] / static_cast<double>(counts[c]);
      }
    }
    if (!changed) break;
  }
  result.inertia = 0.0;
  for (size_t r = 0; r < rows; ++r) {
    size_t c = static_cast<size_t>(result.assignments[r]);
    result.inertia +=
        SquaredDistance(&data[r * dim], &result.centroids[c * dim], dim);
  }
  return result;
}

}  // namespace tasq
