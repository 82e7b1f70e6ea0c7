// Fig. 1 reproduction (qualitative): the AICCA label map over one MODIS
// swath. The paper's Fig. 1(b) shows a Terra swath off South America with
// 133 ocean-cloud tiles coloured by their AICCA class, illustrating that
// "spatially coherent and visually similar textures" share classes.
//
// We generate a daytime swath (reduced geometry), run the real tiler, train
// a compact RICC on its tiles, and print the tile-class map: neighbouring
// tiles of the same cloud regime should receive the same letter.
//
// --encode-path <layers|fused|int8> selects the inference fast path for the
// final labelling pass (default: layers, the fp32 reference); --tile-budget N
// bounds how many tiles are resident in the encode stage at once (0 = whole
// swath in one batch). ci_int8_smoke.sh runs `--encode-path int8
// --tile-budget 32` and checks the reported peak stays within the budget.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>

#include "bench_common.hpp"
#include "ml/ricc.hpp"
#include "preprocess/tiler.hpp"
#include "util/log.hpp"

using namespace mfw;

int main(int argc, char** argv) {
  util::Logger::instance().set_level(util::LogLevel::kWarn);
  ml::RiccModel::EncodePath encode_path = ml::RiccModel::EncodePath::kLayers;
  std::size_t tile_budget = 0;
  auto usage = [] {
    std::fprintf(stderr,
                 "usage: fig1_swath [--encode-path layers|fused|int8] "
                 "[--tile-budget N]\n");
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--encode-path") && i + 1 < argc) {
      try {
        encode_path = ml::RiccModel::parse_encode_path(argv[++i]);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "fig1_swath: %s\n", e.what());
        return usage();
      }
    } else if (!std::strcmp(argv[i], "--tile-budget") && i + 1 < argc &&
               benchx::parse_count(argv[i + 1], 0, tile_budget)) {
      ++i;
    } else {
      return usage();
    }
  }
  benchx::print_header(
      "Fig. 1 — AICCA class map over one MODIS swath (qualitative)",
      "Kurihana et al., SC24, Fig. 1(b)");

  // A daytime granule with a rich ocean-cloud field.
  modis::GranuleGenerator generator(2022);
  modis::GranuleSpec spec;
  spec.geometry = modis::GranuleGeometry{160, 128, 6};
  int best_slot = -1, best_tiles = -1;
  for (int slot = 0; slot < modis::kSlotsPerDay; ++slot) {
    modis::GranuleSpec probe = spec;
    probe.slot = slot;
    probe.geometry = modis::kFullGeometry;
    const auto stats = modis::estimate_granule_stats(generator, probe);
    if (stats.daytime && stats.selected_tiles > best_tiles) {
      best_tiles = stats.selected_tiles;
      best_slot = slot;
    }
  }
  spec.slot = best_slot;

  preprocess::TilerOptions options;
  options.tile_size = 16;
  options.channels = 6;
  const auto result = preprocess::make_tiles(generator.mod02(spec),
                                             generator.mod03(spec),
                                             generator.mod06(spec), options);
  std::printf("Swath slot %d: %d tile positions, %zu ocean-cloud tiles "
              "(paper's example: 133)\n\n",
              spec.slot, result.candidate_positions, result.tiles.size());
  if (result.tiles.size() < 12) {
    std::printf("(too few tiles on this swath for a meaningful atlas)\n");
    return 0;
  }

  // Train a compact RICC on this swath's tiles and label them.
  std::vector<ml::Tensor> tiles;
  for (const auto& tile : result.tiles)
    tiles.emplace_back(
        std::vector<int>{tile.channels, tile.tile_size, tile.tile_size},
        tile.data);
  ml::RiccConfig config;
  config.tile_size = 16;
  config.channels = 6;
  config.base_channels = 6;
  config.conv_blocks = 2;
  config.latent_dim = 12;
  config.num_classes = std::min<int>(8, static_cast<int>(tiles.size() / 3));
  ml::RiccModel model(config);
  ml::RiccTrainOptions train;
  train.epochs = 6;
  train.batch_size = 16;
  train.learning_rate = 1.5e-3f;
  train.lambda_invariance = 2.0f;
  const auto report = ml::train_ricc(model, tiles, train);

  // Paint the tile grid: '.' = rejected position, letter = class.
  const int grid_rows = spec.geometry.rows / options.tile_size;
  const int grid_cols = spec.geometry.cols / options.tile_size;
  std::vector<std::string> canvas(static_cast<std::size_t>(grid_rows),
                                  std::string(static_cast<std::size_t>(grid_cols), '.'));
  std::map<int, int> class_counts;
  if (encode_path == ml::RiccModel::EncodePath::kInt8)
    model.calibrate_int8(tiles);
  model.set_encode_path(encode_path);
  // With a tile budget, encode in bounded batches instead of one swath-wide
  // batch; peak resident tiles in the encode stage never exceeds the budget.
  std::vector<ml::Tensor> latents;
  latents.reserve(tiles.size());
  std::size_t peak_resident = 0;
  const std::size_t step = tile_budget > 0 ? tile_budget : tiles.size();
  for (std::size_t begin = 0; begin < tiles.size(); begin += step) {
    const std::size_t count = std::min(step, tiles.size() - begin);
    peak_resident = std::max(peak_resident, count);
    auto batch = model.encode_batch(
        std::span<const ml::Tensor>(tiles.data() + begin, count));
    for (auto& z : batch) latents.push_back(std::move(z));
  }
  std::printf("Encode path: %s   tile budget: %zu   peak resident tiles: %zu   "
              "within budget: %s\n",
              encode_path == ml::RiccModel::EncodePath::kInt8    ? "int8"
              : encode_path == ml::RiccModel::EncodePath::kFused ? "fused"
                                                                 : "layers",
              tile_budget, peak_resident,
              tile_budget == 0 || peak_resident <= tile_budget ? "yes" : "NO");
  for (std::size_t i = 0; i < result.tiles.size(); ++i) {
    const auto& tile = result.tiles[i];
    const int label = ml::nearest_centroid(model.centroids(), latents[i].span());
    ++class_counts[label];
    canvas[static_cast<std::size_t>(tile.origin_row / options.tile_size)]
          [static_cast<std::size_t>(tile.origin_col / options.tile_size)] =
        static_cast<char>('A' + label % 26);
  }
  std::printf("Tile-class map ('.' = land/clear/rejected):\n\n");
  for (const auto& row : canvas) std::printf("    %s\n", row.c_str());
  std::printf("\nClass histogram:");
  for (const auto& [label, count] : class_counts)
    std::printf("  %c=%d", 'A' + label % 26, count);
  std::printf("\nSilhouette: %.3f   rotation-invariance score: %.3f -> %.3f\n",
              report.silhouette, report.invariance_score_before,
              report.invariance_score_after);

  // Counterfactual: the same training *without* the rotation-consistency
  // term — the invariant model must end with a lower (better) score.
  ml::RiccConfig plain_config = config;
  plain_config.seed = config.seed;
  ml::RiccModel plain(plain_config);
  auto plain_train = train;
  plain_train.rotations = 0;
  const auto plain_report = ml::train_ricc(plain, tiles, plain_train);
  std::printf("Without the invariance term: score %.3f -> %.3f   "
              "(RICC objective keeps it %s)\n",
              plain_report.invariance_score_before,
              plain_report.invariance_score_after,
              report.invariance_score_after < plain_report.invariance_score_after
                  ? "lower, as intended"
                  : "NOT lower (unexpected)");
  std::printf(
      "\nExpected shape (paper): contiguous regions of the swath share a\n"
      "class (spatially coherent textures), with multiple classes splitting\n"
      "the stratocumulus field's subtle spatial differences.\n");
  return 0;
}
