// Unit tests for Ward agglomerative clustering and the cluster evaluation
// metric — the machinery that builds the 42 AICCA classes.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "ml/cluster.hpp"

namespace mfw::ml {
namespace {

// Three well-separated Gaussian blobs in 2-D.
std::vector<float> blobs(std::size_t per_blob, util::Rng& rng,
                         std::vector<int>* truth = nullptr) {
  const double centers[3][2] = {{0, 0}, {10, 0}, {0, 10}};
  std::vector<float> data;
  for (int b = 0; b < 3; ++b) {
    for (std::size_t i = 0; i < per_blob; ++i) {
      data.push_back(static_cast<float>(centers[b][0] + 0.5 * rng.normal()));
      data.push_back(static_cast<float>(centers[b][1] + 0.5 * rng.normal()));
      if (truth) truth->push_back(b);
    }
  }
  return data;
}

// Checks that a clustering exactly recovers blob structure (up to label
// permutation).
void expect_recovers_blobs(const ClusterResult& result,
                           const std::vector<int>& truth) {
  ASSERT_EQ(result.labels.size(), truth.size());
  std::map<int, int> mapping;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    const auto it = mapping.find(truth[i]);
    if (it == mapping.end()) {
      mapping[truth[i]] = result.labels[i];
    } else {
      ASSERT_EQ(result.labels[i], it->second) << "sample " << i;
    }
  }
  EXPECT_EQ(mapping.size(), 3u);  // three distinct cluster ids
}

TEST(Ward, RecoversSeparatedBlobs) {
  util::Rng rng(1);
  std::vector<int> truth;
  const auto data = blobs(40, rng, &truth);
  const auto result = agglomerative_ward(data, 120, 2, 3);
  expect_recovers_blobs(result, truth);
}

TEST(Ward, CentroidsNearBlobCenters) {
  util::Rng rng(2);
  const auto data = blobs(50, rng);
  const auto result = agglomerative_ward(data, 150, 2, 3);
  // Each blob center must be within 0.5 of some centroid.
  const double centers[3][2] = {{0, 0}, {10, 0}, {0, 10}};
  for (const auto& center : centers) {
    double best = 1e9;
    for (int c = 0; c < 3; ++c) {
      const double dx = result.centroids[static_cast<std::size_t>(c) * 2] - center[0];
      const double dy = result.centroids[static_cast<std::size_t>(c) * 2 + 1] - center[1];
      best = std::min(best, std::sqrt(dx * dx + dy * dy));
    }
    EXPECT_LT(best, 0.5);
  }
}

TEST(Ward, KEqualsNGivesSingletons) {
  const std::vector<float> data{0, 0, 1, 1, 2, 2};
  const auto result = agglomerative_ward(data, 3, 2, 3);
  std::set<int> labels(result.labels.begin(), result.labels.end());
  EXPECT_EQ(labels.size(), 3u);
}

TEST(Ward, KEqualsOneGroupsEverything) {
  util::Rng rng(3);
  const auto data = blobs(10, rng);
  const auto result = agglomerative_ward(data, 30, 2, 1);
  for (int label : result.labels) EXPECT_EQ(label, 0);
}

TEST(Ward, InputValidation) {
  const std::vector<float> data{0, 0, 1, 1};
  EXPECT_THROW(agglomerative_ward(data, 2, 2, 0), std::invalid_argument);
  EXPECT_THROW(agglomerative_ward(data, 2, 2, 3), std::invalid_argument);
  EXPECT_THROW(agglomerative_ward(data, 3, 2, 1), std::invalid_argument);
}

TEST(Ward, DeterministicAndLabelsCompact) {
  util::Rng rng(4);
  const auto data = blobs(20, rng);
  const auto a = agglomerative_ward(data, 60, 2, 5);
  const auto b = agglomerative_ward(data, 60, 2, 5);
  EXPECT_EQ(a.labels, b.labels);
  for (int label : a.labels) {
    ASSERT_GE(label, 0);
    ASSERT_LT(label, 5);
  }
}

TEST(Silhouette, HighForSeparatedLowForRandom) {
  util::Rng rng(10);
  std::vector<int> truth;
  const auto data = blobs(30, rng, &truth);
  const double good = silhouette(data, 90, 2, truth, 3);
  EXPECT_GT(good, 0.7);

  std::vector<int> shuffled = truth;
  util::Rng srng(11);
  for (std::size_t i = shuffled.size(); i > 1; --i)
    std::swap(shuffled[i - 1],
              shuffled[static_cast<std::size_t>(srng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  EXPECT_LT(silhouette(data, 90, 2, shuffled, 3), 0.2);
}

TEST(Silhouette, DegenerateCasesReturnZero) {
  const std::vector<float> data{0, 0, 1, 1};
  const std::vector<int> labels{0, 0};
  EXPECT_DOUBLE_EQ(silhouette(data, 2, 2, labels, 1), 0.0);
}

TEST(NearestCentroid, PicksClosest) {
  Tensor centroids({3, 2}, {0, 0, 10, 0, 0, 10});
  const std::vector<float> p1{1, 1};
  const std::vector<float> p2{9, 1};
  const std::vector<float> p3{1, 11};
  EXPECT_EQ(nearest_centroid(centroids, p1), 0);
  EXPECT_EQ(nearest_centroid(centroids, p2), 1);
  EXPECT_EQ(nearest_centroid(centroids, p3), 2);
  const std::vector<float> bad{1, 2, 3};
  EXPECT_THROW(nearest_centroid(centroids, bad), std::invalid_argument);
}

TEST(Ward, ScalesToAtlasSizedProblems) {
  // 42 clusters from ~800 latent points — AICCA-scale clustering.
  util::Rng rng(12);
  const std::size_t n = 800, d = 8;
  std::vector<float> data(n * d);
  for (auto& v : data) v = static_cast<float>(rng.normal());
  const auto result = agglomerative_ward(data, n, d, 42);
  EXPECT_EQ(result.k, 42);
  std::set<int> labels(result.labels.begin(), result.labels.end());
  EXPECT_EQ(labels.size(), 42u);
}

}  // namespace
}  // namespace mfw::ml
