#ifndef TASQ_SELECTION_KMEANS_H_
#define TASQ_SELECTION_KMEANS_H_

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace tasq {

/// Result of a K-means run.
struct KMeansResult {
  size_t k = 0;
  size_t dim = 0;
  /// Row-major k x dim centroid matrix.
  std::vector<double> centroids;
  /// Cluster index per input row.
  std::vector<int> assignments;
  /// Sum of squared distances to assigned centroids.
  double inertia = 0.0;
};

/// Lloyd's algorithm with k-means++ initialization over a row-major
/// `rows` x `dim` matrix. Deterministic given `rng`'s seed. Requires
/// 1 <= k <= rows. Empty clusters are re-seeded from the farthest point.
TASQ_NODISCARD Result<KMeansResult> KMeans(const std::vector<double>& data, size_t rows,
                            size_t dim, size_t k, Rng& rng,
                            int max_iterations = 50);

}  // namespace tasq

#endif  // TASQ_SELECTION_KMEANS_H_
