#include "ml/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace mfw::ml {

namespace {

void check_inputs(std::span<const float> data, std::size_t n, std::size_t d,
                  int k) {
  if (n == 0 || d == 0) throw std::invalid_argument("clustering needs data");
  if (data.size() != n * d)
    throw std::invalid_argument("clustering data size != n*d");
  if (k < 1 || static_cast<std::size_t>(k) > n)
    throw std::invalid_argument("clustering needs 1 <= k <= n");
}

Tensor centroids_from_labels(std::span<const float> data, std::size_t n,
                             std::size_t d, std::span<const int> labels, int k) {
  Tensor centroids({k, static_cast<int>(d)});
  std::vector<std::size_t> counts(static_cast<std::size_t>(k), 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto label = static_cast<std::size_t>(labels[i]);
    ++counts[label];
    for (std::size_t j = 0; j < d; ++j)
      centroids[label * d + j] += data[i * d + j];
  }
  for (std::size_t c = 0; c < static_cast<std::size_t>(k); ++c) {
    if (counts[c] == 0) continue;
    for (std::size_t j = 0; j < d; ++j)
      centroids[c * d + j] /= static_cast<float>(counts[c]);
  }
  return centroids;
}

}  // namespace

ClusterResult agglomerative_ward(std::span<const float> data, std::size_t n,
                                 std::size_t d, int k,
                                 util::ThreadPool* pool) {
  check_inputs(data, n, d, k);
  // Ward distances held as squared merge costs in a full n x n matrix.
  // dist(i, j) = (|i||j| / (|i|+|j|)) * ||mu_i - mu_j||^2; for singletons
  // that is ||x_i - x_j||^2 / 2. Updates use the Lance-Williams recurrence.
  std::vector<double> dist(n * n, 0.0);
  const auto fill_rows = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const double d2 = squared_distance(data.subspan(i * d, d),
                                           data.subspan(j * d, d));
        // Row i owns (i, j) and column i of rows j > i: disjoint across i.
        dist[i * n + j] = dist[j * n + i] = d2 / 2.0;
      }
    }
  };
  if (pool != nullptr && n > 1) {
    util::parallel_for(*pool, n, /*chunk=*/16, fill_rows);
  } else {
    fill_rows(0, n);
  }
  std::vector<std::size_t> size(n, 1);
  std::vector<bool> active(n, true);
  // Dendrogram bookkeeping: parent chain resolved at the end.
  std::vector<std::size_t> merged_into(n);
  for (std::size_t i = 0; i < n; ++i) merged_into[i] = i;
  struct Merge {
    std::size_t a, b;  // b absorbed into a
    double cost;
  };
  std::vector<Merge> merges;
  merges.reserve(n - 1);

  // Nearest-neighbour chain: amortized O(n^2). Per-cluster cached NN —
  // Ward linkage is reducible, so d(a∪b, j) >= min(d(a,j), d(b,j)) >=
  // nn_d[j]: a merge can only invalidate caches that pointed AT one of the
  // merged clusters, never create a closer neighbour elsewhere. Recomputes
  // scan in the same ascending index order as a full rescan, so the merge
  // sequence is the cache-free one up to exact FP ties (tests/ml_test.cpp
  // checks this).
  std::vector<std::size_t> nn_of(n, 0);
  std::vector<double> nn_d(n, 0.0);
  std::vector<char> nn_valid(n, 0);
  std::vector<std::size_t> chain;
  chain.reserve(n);
  std::size_t n_active = n;
  auto nearest = [&](std::size_t c) {
    if (nn_valid[c]) return std::make_pair(nn_of[c], nn_d[c]);
    double best = std::numeric_limits<double>::infinity();
    std::size_t best_j = c;
    for (std::size_t j = 0; j < n; ++j) {
      if (!active[j] || j == c) continue;
      if (dist[c * n + j] < best) {
        best = dist[c * n + j];
        best_j = j;
      }
    }
    nn_of[c] = best_j;
    nn_d[c] = best;
    nn_valid[c] = 1;
    return std::make_pair(best_j, best);
  };

  while (n_active > 1) {
    if (chain.empty()) {
      for (std::size_t i = 0; i < n; ++i) {
        if (active[i]) {
          chain.push_back(i);
          break;
        }
      }
    }
    while (true) {
      const std::size_t top = chain.back();
      const auto [nn, cost] = nearest(top);
      if (chain.size() >= 2 && nn == chain[chain.size() - 2]) {
        // Reciprocal nearest neighbours: merge nn into top's slot.
        chain.pop_back();
        chain.pop_back();
        const std::size_t a = top;
        const std::size_t b = nn;
        merges.push_back(Merge{a, b, cost});
        // Lance-Williams Ward update for all other active clusters. The
        // loop already walks a's whole row in ascending order, so the merged
        // cluster's new nearest neighbour falls out for free — same scan
        // order and strict-< tie-break as the full rescan in nearest().
        const double na = static_cast<double>(size[a]);
        const double nb = static_cast<double>(size[b]);
        double a_best = std::numeric_limits<double>::infinity();
        std::size_t a_best_j = a;
        for (std::size_t j = 0; j < n; ++j) {
          if (!active[j] || j == a || j == b) continue;
          const double nj = static_cast<double>(size[j]);
          const double total = na + nb + nj;
          const double updated = ((na + nj) * dist[a * n + j] +
                                  (nb + nj) * dist[b * n + j] -
                                  nj * dist[a * n + b]) /
                                 total;
          dist[a * n + j] = dist[j * n + a] = updated;
          if (updated < a_best) {
            a_best = updated;
            a_best_j = j;
          }
        }
        active[b] = false;
        merged_into[b] = a;
        size[a] += size[b];
        --n_active;
        // a's cache comes from the update pass above; any cache pointing at
        // a or b is stale. Everyone else keeps theirs (reducibility).
        nn_of[a] = a_best_j;
        nn_d[a] = a_best;
        nn_valid[a] = n_active > 1 ? 1 : 0;
        for (std::size_t j = 0; j < n; ++j) {
          if (j != a && nn_valid[j] && (nn_of[j] == a || nn_of[j] == b))
            nn_valid[j] = 0;
        }
        break;
      }
      chain.push_back(nn);
    }
  }

  // Cut the dendrogram at k clusters: replay merges, stopping when n-k
  // merges have been applied; the union-find below resolves final roots.
  std::vector<std::size_t> root(n);
  for (std::size_t i = 0; i < n; ++i) root[i] = i;
  std::function<std::size_t(std::size_t)> find = [&](std::size_t x) {
    while (root[x] != x) {
      root[x] = root[root[x]];
      x = root[x];
    }
    return x;
  };
  const std::size_t merges_to_apply = n - static_cast<std::size_t>(k);
  for (std::size_t m = 0; m < merges_to_apply; ++m)
    root[find(merges[m].b)] = find(merges[m].a);

  ClusterResult result;
  result.k = k;
  result.dim = d;
  result.labels.resize(n);
  std::vector<std::size_t> root_to_label;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t r = find(i);
    auto it = std::find(root_to_label.begin(), root_to_label.end(), r);
    if (it == root_to_label.end()) {
      root_to_label.push_back(r);
      it = root_to_label.end() - 1;
    }
    result.labels[i] =
        static_cast<int>(std::distance(root_to_label.begin(), it));
  }
  result.centroids = centroids_from_labels(data, n, d, result.labels, k);
  return result;
}

ClusterResult agglomerative_ward(std::span<const float> data, std::size_t n,
                                 std::size_t d, int k) {
  return agglomerative_ward(data, n, d, k, nullptr);
}

ClusterResult kmeans(std::span<const float> data, std::size_t n, std::size_t d,
                     int k, util::Rng& rng, int max_iters) {
  check_inputs(data, n, d, k);
  // k-means++ seeding.
  Tensor centroids({k, static_cast<int>(d)});
  std::vector<double> min_d2(n, std::numeric_limits<double>::infinity());
  const std::size_t first = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  for (std::size_t j = 0; j < d; ++j) centroids[j] = data[first * d + j];
  for (int c = 1; c < k; ++c) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d2 = squared_distance(
          data.subspan(i * d, d),
          std::span<const float>(centroids.data() + (c - 1) * d, d));
      min_d2[i] = std::min(min_d2[i], d2);
      total += min_d2[i];
    }
    double pick = rng.uniform() * total;
    std::size_t chosen = n - 1;
    for (std::size_t i = 0; i < n; ++i) {
      pick -= min_d2[i];
      if (pick <= 0) {
        chosen = i;
        break;
      }
    }
    for (std::size_t j = 0; j < d; ++j)
      centroids[static_cast<std::size_t>(c) * d + j] = data[chosen * d + j];
  }

  ClusterResult result;
  result.k = k;
  result.dim = d;
  result.labels.assign(n, 0);
  for (int iter = 0; iter < max_iters; ++iter) {
    bool changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      const int label = nearest_centroid(centroids, data.subspan(i * d, d));
      if (label != result.labels[i]) {
        result.labels[i] = label;
        changed = true;
      }
    }
    centroids = centroids_from_labels(data, n, d, result.labels, k);
    if (!changed) break;
  }
  result.centroids = std::move(centroids);
  return result;
}

double silhouette(std::span<const float> data, std::size_t n, std::size_t d,
                  std::span<const int> labels, int k) {
  if (labels.size() != n) throw std::invalid_argument("labels size != n");
  if (k < 2 || n < 2) return 0.0;
  std::vector<std::size_t> counts(static_cast<std::size_t>(k), 0);
  for (std::size_t i = 0; i < n; ++i)
    ++counts[static_cast<std::size_t>(labels[i])];
  double total = 0.0;
  std::size_t scored = 0;
  std::vector<double> mean_to_cluster(static_cast<std::size_t>(k));
  for (std::size_t i = 0; i < n; ++i) {
    std::fill(mean_to_cluster.begin(), mean_to_cluster.end(), 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const double dij = std::sqrt(squared_distance(data.subspan(i * d, d),
                                                    data.subspan(j * d, d)));
      mean_to_cluster[static_cast<std::size_t>(labels[j])] += dij;
    }
    const auto own = static_cast<std::size_t>(labels[i]);
    if (counts[own] <= 1) continue;  // silhouette undefined for singletons
    double a = mean_to_cluster[own] / static_cast<double>(counts[own] - 1);
    double b = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < static_cast<std::size_t>(k); ++c) {
      if (c == own || counts[c] == 0) continue;
      b = std::min(b, mean_to_cluster[c] / static_cast<double>(counts[c]));
    }
    if (!std::isfinite(b)) continue;
    total += (b - a) / std::max(a, b);
    ++scored;
  }
  return scored ? total / static_cast<double>(scored) : 0.0;
}

double within_cluster_ss(std::span<const float> data, std::size_t n,
                         std::size_t d, const ClusterResult& result) {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto label = static_cast<std::size_t>(result.labels[i]);
    total += squared_distance(
        data.subspan(i * d, d),
        std::span<const float>(result.centroids.data() + label * d, d));
  }
  return total;
}

int nearest_centroid(const Tensor& centroids, std::span<const float> point) {
  const auto k = static_cast<std::size_t>(centroids.dim(0));
  const auto d = static_cast<std::size_t>(centroids.dim(1));
  if (point.size() != d)
    throw std::invalid_argument("nearest_centroid dimension mismatch");
  int best = 0;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < k; ++c) {
    const double d2 = squared_distance(
        std::span<const float>(centroids.data() + c * d, d), point);
    if (d2 < best_d2) {
      best_d2 = d2;
      best = static_cast<int>(c);
    }
  }
  return best;
}

}  // namespace mfw::ml
