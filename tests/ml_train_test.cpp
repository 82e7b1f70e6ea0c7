// Tests for RICC training: optimizers, autoencoder convergence, rotation
// invariance, centroid fitting, prediction, and model serialization.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "ml/optim.hpp"
#include "ml/ricc.hpp"

namespace mfw::ml {
namespace {

RiccConfig tiny_config() {
  RiccConfig config;
  config.tile_size = 8;
  config.channels = 2;
  config.base_channels = 4;
  config.conv_blocks = 2;
  config.latent_dim = 6;
  config.num_classes = 4;
  config.seed = 11;
  return config;
}

// Synthetic "cloud texture" tiles from two visually distinct families.
std::vector<Tensor> make_tiles(const RiccConfig& config, std::size_t count,
                               util::Rng& rng) {
  std::vector<Tensor> tiles;
  for (std::size_t i = 0; i < count; ++i) {
    Tensor tile({config.channels, config.tile_size, config.tile_size});
    const bool family = i % 2 == 0;
    for (int c = 0; c < config.channels; ++c) {
      for (int h = 0; h < config.tile_size; ++h) {
        for (int w = 0; w < config.tile_size; ++w) {
          const double base =
              family ? std::sin(0.9 * h) * std::cos(0.9 * w)
                     : std::exp(-0.08 * ((h - 4.0) * (h - 4.0) +
                                         (w - 4.0) * (w - 4.0)));
          tile.at3(c, h, w) =
              static_cast<float>(0.5 + 0.4 * base + 0.02 * rng.normal());
        }
      }
    }
    tiles.push_back(std::move(tile));
  }
  return tiles;
}

TEST(Optim, SgdDescendsQuadratic) {
  // Minimise f(w) = (w-3)^2 by hand-feeding gradients.
  Param p{"w", Tensor({1}, {0.0f}), Tensor({1}, {0.0f})};
  Sgd sgd({&p}, 0.1f);
  for (int i = 0; i < 100; ++i) {
    p.grad[0] = 2.0f * (p.value[0] - 3.0f);
    sgd.step(1);
  }
  EXPECT_NEAR(p.value[0], 3.0f, 1e-3);
}

TEST(Optim, AdamDescendsQuadratic) {
  Param p{"w", Tensor({1}, {0.0f}), Tensor({1}, {0.0f})};
  Adam adam({&p}, 0.1f);
  for (int i = 0; i < 300; ++i) {
    p.grad[0] = 2.0f * (p.value[0] - 3.0f);
    adam.step(1);
  }
  EXPECT_NEAR(p.value[0], 3.0f, 1e-2);
}

TEST(Optim, StepScalesByBatchAndClearsGrad) {
  Param p{"w", Tensor({1}, {0.0f}), Tensor({1}, {4.0f})};
  Sgd sgd({&p}, 1.0f);
  sgd.step(4);  // effective gradient 1.0
  EXPECT_FLOAT_EQ(p.value[0], -1.0f);
  EXPECT_FLOAT_EQ(p.grad[0], 0.0f);
}

TEST(RiccConfig, Validation) {
  RiccConfig config = tiny_config();
  EXPECT_NO_THROW(config.validate());
  config.tile_size = 10;  // not divisible by 2^2
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = tiny_config();
  config.latent_dim = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = tiny_config();
  EXPECT_EQ(config.top_size(), 2);
  EXPECT_EQ(config.top_channels(), 8);
}

TEST(RiccModel, EncodeShapesAndDeterminism) {
  RiccModel model(tiny_config());
  util::Rng rng(1);
  const auto tiles = make_tiles(model.config(), 2, rng);
  const Tensor z1 = model.encode(tiles[0]);
  EXPECT_EQ(z1.shape(), (std::vector<int>{6}));
  const Tensor z2 = model.encode(tiles[0]);
  for (std::size_t i = 0; i < z1.size(); ++i) EXPECT_FLOAT_EQ(z1[i], z2[i]);
  const Tensor recon = model.reconstruct(tiles[0]);
  EXPECT_EQ(recon.shape(), tiles[0].shape());
}

TEST(RiccModel, PredictRequiresCentroids) {
  RiccModel model(tiny_config());
  util::Rng rng(2);
  const auto tiles = make_tiles(model.config(), 1, rng);
  EXPECT_THROW(model.predict(tiles[0]), std::logic_error);
  EXPECT_THROW(model.set_centroids(Tensor({3, 6})), std::invalid_argument);
}

TEST(RiccTraining, ReconstructionLossDecreases) {
  RiccModel model(tiny_config());
  util::Rng rng(3);
  const auto tiles = make_tiles(model.config(), 24, rng);
  RiccTrainOptions options;
  options.epochs = 8;
  options.batch_size = 8;
  options.learning_rate = 2e-3f;
  options.rotations = 0;  // isolate the reconstruction objective
  const auto report = train_autoencoder(model, tiles, options);
  ASSERT_EQ(report.epoch_reconstruction_loss.size(), 8u);
  EXPECT_LT(report.epoch_reconstruction_loss.back(),
            report.epoch_reconstruction_loss.front() * 0.8f);
}

TEST(RiccTraining, InvarianceTermImprovesRotationScore) {
  RiccModel model(tiny_config());
  util::Rng rng(4);
  const auto tiles = make_tiles(model.config(), 24, rng);
  RiccTrainOptions options;
  options.epochs = 10;
  options.batch_size = 8;
  options.learning_rate = 2e-3f;
  options.lambda_invariance = 2.0f;
  options.rotations = 3;
  const auto report = train_autoencoder(model, tiles, options);
  EXPECT_LT(report.invariance_score_after,
            report.invariance_score_before * 0.8);
  // Invariance loss decreases over training.
  EXPECT_LT(report.epoch_invariance_loss.back(),
            report.epoch_invariance_loss.front());
}

TEST(RiccTraining, FitCentroidsEnablesPrediction) {
  RiccModel model(tiny_config());
  util::Rng rng(5);
  const auto tiles = make_tiles(model.config(), 24, rng);
  const auto clusters = fit_centroids(model, tiles);
  EXPECT_EQ(clusters.k, 4);
  EXPECT_TRUE(model.has_centroids());
  for (const auto& tile : tiles) {
    const int label = model.predict(tile);
    ASSERT_GE(label, 0);
    ASSERT_LT(label, 4);
  }
}

TEST(RiccTraining, TwoTextureFamiliesSeparateInLatentSpace) {
  RiccModel model(tiny_config());
  util::Rng rng(6);
  const auto tiles = make_tiles(model.config(), 32, rng);
  RiccTrainOptions options;
  options.epochs = 10;
  options.batch_size = 8;
  options.learning_rate = 2e-3f;
  const auto report = train_ricc(model, tiles, options);
  // Tiles of the same family should mostly map to the same class.
  std::map<int, std::map<int, int>> votes;  // family -> label -> count
  for (std::size_t i = 0; i < tiles.size(); ++i)
    votes[static_cast<int>(i % 2)][model.predict(tiles[i])]++;
  int agree = 0;
  for (auto& [family, counts] : votes) {
    int best = 0;
    for (auto& [label, n] : counts) best = std::max(best, n);
    agree += best;
  }
  EXPECT_GE(agree, static_cast<int>(tiles.size() * 3 / 4));
  EXPECT_GT(report.silhouette, -0.5);
}

TEST(RiccModel, SaveLoadRoundTrip) {
  RiccModel model(tiny_config());
  util::Rng rng(7);
  const auto tiles = make_tiles(model.config(), 16, rng);
  RiccTrainOptions options;
  options.epochs = 2;
  options.batch_size = 8;
  train_ricc(model, tiles, options);

  const auto bytes = model.save().serialize();
  auto loaded = RiccModel::load(storage::HdflFile::deserialize(bytes));
  EXPECT_EQ(loaded.config().latent_dim, model.config().latent_dim);
  ASSERT_TRUE(loaded.has_centroids());
  for (const auto& tile : tiles) {
    const Tensor z1 = model.encode(tile);
    const Tensor z2 = loaded.encode(tile);
    for (std::size_t i = 0; i < z1.size(); ++i)
      ASSERT_FLOAT_EQ(z1[i], z2[i]);
    EXPECT_EQ(model.predict(tile), loaded.predict(tile));
  }
}

TEST(RiccTraining, RefusesToTrainThroughAWeightSnapshotPlan) {
  // Fused and int8 plans encode with the weights they were built from, so
  // the post-training invariance score and the centroid fit would read
  // stale latents. Training requires the layer path.
  RiccModel model(tiny_config());
  util::Rng rng(9);
  const auto tiles = make_tiles(model.config(), 24, rng);
  RiccTrainOptions options;
  options.epochs = 2;
  options.batch_size = 8;
  model.set_encode_path(RiccModel::EncodePath::kFused);
  EXPECT_THROW(train_autoencoder(model, tiles, options), std::logic_error);
  EXPECT_THROW(train_ricc(model, tiles, options), std::logic_error);
  model.calibrate_int8(tiles);
  model.set_encode_path(RiccModel::EncodePath::kInt8);
  EXPECT_THROW(train_autoencoder(model, tiles, options), std::logic_error);

  model.set_encode_path(RiccModel::EncodePath::kLayers);
  const auto report = train_autoencoder(model, tiles, options);
  EXPECT_EQ(report.invariance_score_after,
            rotation_invariance_score(model, tiles));
}

TEST(RiccTraining, RejectsBadInputs) {
  RiccModel model(tiny_config());
  RiccTrainOptions options;
  EXPECT_THROW(train_autoencoder(model, {}, options), std::invalid_argument);
  util::Rng rng(8);
  const auto tiles = make_tiles(model.config(), 2, rng);
  EXPECT_THROW(fit_centroids(model, tiles), std::invalid_argument);
}

}  // namespace
}  // namespace mfw::ml
