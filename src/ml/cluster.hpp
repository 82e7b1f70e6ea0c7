// Clustering for AICCA class construction.
//
// The AICCA pipeline clusters latent representations of ~1M tiles with
// *agglomerative hierarchical clustering* (Ward linkage) to derive its 42
// cloud classes, then assigns unseen tiles to the nearest cluster centroid.
// We implement Ward via the nearest-neighbour-chain algorithm (O(n^2) time,
// O(n^2) memory), and the silhouette score for the "cluster evaluation"
// stage.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ml/tensor.hpp"

namespace mfw::util {
class ThreadPool;
}

namespace mfw::ml {

struct ClusterResult {
  int k = 0;
  std::size_t dim = 0;
  std::vector<int> labels;  // one label in [0, k) per input row
  Tensor centroids;         // [k][dim]
};

/// Ward-linkage agglomerative clustering of n rows of dimension d, cut at k
/// clusters. `data` is row-major n*d. Requires 1 <= k <= n.
///
/// The chain walk keeps a per-cluster cached nearest neighbour: Ward linkage
/// is reducible (a merged cluster is never closer to a bystander than the
/// nearer of its parts was), so a cache entry only goes stale when its target
/// was one of the two merged clusters. That drops the rescan work from O(n)
/// per chain step to O(n) per *merge* in the common case. tests/ml_test.cpp
/// checks it against a cache-free full-rescan reference.
///
/// If `pool` is non-null the initial O(n^2 d) distance-matrix fill is
/// parallelised across it; the merge sequence is identical either way.
ClusterResult agglomerative_ward(std::span<const float> data, std::size_t n,
                                 std::size_t d, int k,
                                 util::ThreadPool* pool);
ClusterResult agglomerative_ward(std::span<const float> data, std::size_t n,
                                 std::size_t d, int k);

/// Mean silhouette coefficient in [-1, 1]; higher is better separation.
/// O(n^2) — intended for evaluation-sized samples.
double silhouette(std::span<const float> data, std::size_t n, std::size_t d,
                  std::span<const int> labels, int k);

/// Index of the nearest centroid ([k][dim]) to `point` (squared Euclidean).
int nearest_centroid(const Tensor& centroids, std::span<const float> point);

}  // namespace mfw::ml
