// Continual learning across observation periods (paper §V: continually
// train "on new data without catastrophically forgetting what had been
// learned previously"). Trains RICC on period-1 cloud regimes, then updates
// it across two later periods with and without experience replay, and
// reports the forgetting curves side by side.
#include <cstdio>

#include "ml/continual.hpp"
#include "modis/products.hpp"
#include "preprocess/tiler.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

using namespace mfw;

namespace {

// Ocean-cloud tiles from a given day (weather drifts with day-of-year, so
// different days act as different cloud-regime "periods").
std::vector<ml::Tensor> tiles_for_day(int day, std::size_t count) {
  modis::GranuleGenerator generator(2022);
  preprocess::TilerOptions options;
  options.tile_size = 16;
  options.channels = 6;
  std::vector<ml::Tensor> tiles;
  for (int slot = 0; slot < modis::kSlotsPerDay && tiles.size() < count;
       ++slot) {
    modis::GranuleSpec spec;
    spec.day_of_year = day;
    spec.slot = slot;
    spec.geometry = modis::GranuleGeometry{64, 48, 6};
    if (!modis::is_daytime(spec.satellite, slot, day)) continue;
    const auto granule = generator.generate(spec);
    const auto result = preprocess::make_tiles(granule.mod02, granule.mod03,
                                               granule.mod06, options);
    for (const auto& tile : result.tiles) {
      if (tiles.size() >= count) break;
      tiles.emplace_back(
          std::vector<int>{tile.channels, tile.tile_size, tile.tile_size},
          tile.data);
    }
  }
  return tiles;
}

}  // namespace

int main() {
  util::Logger::instance().set_level(util::LogLevel::kWarn);
  std::printf("Continual RICC updates across observation periods\n\n");

  ml::RiccConfig config;
  config.tile_size = 16;
  config.channels = 6;
  config.base_channels = 6;
  config.conv_blocks = 2;
  config.latent_dim = 12;
  config.num_classes = 8;

  const auto period1 = tiles_for_day(1, 48);
  const auto period1_eval = tiles_for_day(2, 24);  // held-out, same regime
  const auto period2 = tiles_for_day(120, 48);     // different season
  const auto period3 = tiles_for_day(240, 48);
  std::printf("Periods: %zu / %zu / %zu tiles (days 1, 120, 240)\n\n",
              period1.size(), period2.size(), period3.size());

  ml::RiccTrainOptions train;
  train.epochs = 5;
  train.batch_size = 16;
  train.learning_rate = 1.5e-3f;
  train.rotations = 0;

  auto run = [&](double replay_fraction) {
    ml::RiccModel model(config);
    ml::train_autoencoder(model, period1, train);
    ml::ReplayBuffer replay(128, 9);
    replay.offer_all(period1);
    ml::ContinualUpdateOptions options;
    options.train = train;
    options.replay_fraction = replay_fraction;
    options.refit_centroids = false;
    std::vector<ml::ForgettingReport> reports;
    reports.push_back(
        ml::continual_update(model, replay, period2, period1_eval, options));
    reports.push_back(
        ml::continual_update(model, replay, period3, period1_eval, options));
    return reports;
  };

  const auto naive = run(0.0);
  const auto replayed = run(0.5);

  util::Table table({"update", "strategy", "old loss before", "old loss after",
                     "forgetting", "new loss"});
  const char* updates[] = {"period 2", "period 3"};
  for (std::size_t u = 0; u < 2; ++u) {
    table.add_row({updates[u], "fine-tune",
                   util::Table::num(naive[u].old_loss_before, 5),
                   util::Table::num(naive[u].old_loss_after, 5),
                   util::Table::num(naive[u].forgetting(), 5),
                   util::Table::num(naive[u].new_loss_after, 5)});
    table.add_row({updates[u], "replay-0.5",
                   util::Table::num(replayed[u].old_loss_before, 5),
                   util::Table::num(replayed[u].old_loss_after, 5),
                   util::Table::num(replayed[u].forgetting(), 5),
                   util::Table::num(replayed[u].new_loss_after, 5)});
  }
  std::printf("%s\n", table.render().c_str());
  const bool mitigated =
      replayed[1].old_loss_after < naive[1].old_loss_after;
  std::printf("Replay mitigates forgetting on period-1 data: %s\n",
              mitigated ? "yes" : "no");
  return 0;
}
