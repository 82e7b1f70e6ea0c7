// RICC training: the "(2) RICC training" + "(3) cluster evaluation" stages
// of the original AICCA workflow (paper §II-B), scaled to run in seconds.
// Generates real ocean-cloud tiles with the tiler, trains the rotation-
// invariant autoencoder, builds class centroids with Ward clustering,
// evaluates cluster quality, and saves the model artifact the inference
// stage loads.
#include <cstdio>

#include "ml/ricc.hpp"
#include "preprocess/tiler.hpp"
#include "storage/memfs.hpp"
#include "util/log.hpp"

int main() {
  using namespace mfw;
  util::Logger::instance().set_level(util::LogLevel::kWarn);

  // 1. Build a training set of real ocean-cloud tiles from synthetic
  //    granules (reduced geometry; 16-px tiles for speed).
  modis::GranuleGenerator generator(2022);
  preprocess::TilerOptions tiler;
  tiler.tile_size = 16;
  tiler.channels = 6;
  std::vector<ml::Tensor> tiles;
  for (int slot = 0; slot < modis::kSlotsPerDay && tiles.size() < 96; ++slot) {
    modis::GranuleSpec spec;
    spec.slot = slot;
    spec.geometry = modis::GranuleGeometry{64, 48, 6};
    if (!modis::is_daytime(spec.satellite, spec.slot, spec.day_of_year))
      continue;
    const auto granule = generator.generate(spec);
    const auto result = preprocess::make_tiles(granule.mod02, granule.mod03,
                                               granule.mod06, tiler);
    for (const auto& tile : result.tiles) {
      tiles.emplace_back(
          std::vector<int>{tile.channels, tile.tile_size, tile.tile_size},
          tile.data);
    }
  }
  std::printf("Training set: %zu ocean-cloud tiles (16x16x6)\n", tiles.size());

  // 2. Train the rotation-invariant autoencoder and fit class centroids.
  ml::RiccConfig config;
  config.tile_size = 16;
  config.channels = 6;
  config.base_channels = 6;
  config.conv_blocks = 2;
  config.latent_dim = 16;
  config.num_classes = 12;  // scaled-down AICCA atlas
  ml::RiccModel model(config);

  ml::RiccTrainOptions options;
  options.epochs = 6;
  options.batch_size = 16;
  options.learning_rate = 1.5e-3f;
  options.lambda_invariance = 1.0f;
  options.rotations = 3;
  std::printf("Training autoencoder (%zu parameters) ...\n",
              model.encoder().param_count() + model.decoder().param_count());
  const auto report = ml::train_ricc(model, tiles, options);

  std::printf("\nEpoch losses (reconstruction / rotation-consistency):\n");
  for (std::size_t e = 0; e < report.epoch_reconstruction_loss.size(); ++e)
    std::printf("  epoch %zu: %.5f / %.5f\n", e + 1,
                report.epoch_reconstruction_loss[e],
                report.epoch_invariance_loss[e]);

  // 3. Cluster evaluation (the paper's stage 3).
  std::printf("\nCluster evaluation:\n");
  std::printf("  rotation-invariance score: %.3f -> %.3f (lower is better)\n",
              report.invariance_score_before, report.invariance_score_after);
  std::printf("  silhouette over %d classes: %.3f\n", config.num_classes,
              report.silhouette);

  // 4. Label a few tiles and save the model artifact.
  std::printf("\nSample predictions:");
  for (std::size_t i = 0; i < tiles.size() && i < 8; ++i)
    std::printf(" %d", model.predict(tiles[i]));
  std::printf("\n");

  storage::MemFs fs("defiant");
  fs.write_file("models/ricc.hdfl", model.save().serialize());
  std::printf("\nSaved model artifact: models/ricc.hdfl (%llu bytes)\n",
              static_cast<unsigned long long>(fs.file_size("models/ricc.hdfl")));
  std::printf("This artifact is what EomlConfig::model_path points at for\n"
              "materialized inference runs.\n");
  return 0;
}
