// Workload `materialized`: the end-to-end materialized workflow with real
// granule bytes, single-threaded, at reduced geometry (512 x 340 px, 6 bands,
// 32-px tiles). The real tiler runs, a RICC model at its default
// architecture and encode path is staged on Defiant's filesystem, labels are
// appended and the files ship to Orion. The only workload where `ml`,
// `preprocess`, the `storage` codecs and `modis` pixel synthesis run; `flow`
// carries per-tile label lists here.
#include <algorithm>
#include <map>
#include <optional>

#include "ml/ricc.hpp"
#include "modis/geo.hpp"
#include "pipeline/eoml_workflow.hpp"
#include "preprocess/tile_io.hpp"
#include "preprocess/tiler.hpp"
#include "replay.hpp"
#include "sim/link.hpp"
#include "storage/hdfl.hpp"
#include "storage/memfs.hpp"
#include "transfer/transfer_service.hpp"
#include "util/rng.hpp"

namespace mfwbench {

using namespace mfw;

namespace {

constexpr std::size_t kGranules = 4;
constexpr int kDay = 1;
constexpr const char* kModelPath = "models/ricc.hdfl";

/// The granules are fixed: the default world's first daytime MOD02 granules
/// of 2022. Tiles per granule vary several-fold between granules while host
/// time is mostly per-granule pixel synthesis, so a seeded granule choice
/// would move tiles/s with the seed. The seed draws the model instead
/// (model_bytes), which changes every label.
pipeline::EomlConfig materialized_config(const Options& options) {
  pipeline::EomlConfig config;
  config.span = modis::DaySpan{2022, kDay, kDay};
  config.daytime_only = true;
  config.max_files = options.toy ? 1 : kGranules;
  config.materialize = true;
  config.geometry = options.toy ? modis::GranuleGeometry{128, 96, 6}
                                : modis::GranuleGeometry{512, 340, 6};
  config.tiler.tile_size = 32;
  config.tiler.channels = 6;
  config.model_path = kModelPath;
  return config;
}

std::vector<modis::GranuleId> daytime_granules(const pipeline::EomlConfig& config) {
  const modis::ArchiveService archive(config.seed);
  std::vector<modis::GranuleId> ids;
  for (const auto& entry :
       archive.list(modis::ProductKind::kMod02, config.satellite, config.span)) {
    if (!modis::is_daytime(entry.id.satellite, entry.id.slot,
                           entry.id.day_of_year))
      continue;
    ids.push_back(entry.id);
    if (ids.size() == *config.max_files) break;
  }
  return ids;
}

/// A RICC model at its default architecture with seeded centroids, saved
/// as the artifact the workflow loads.
std::vector<std::byte> model_bytes(std::uint64_t seed) {
  util::Rng rng(util::mix64(seed, 0xce));
  ml::RiccConfig architecture;
  architecture.seed = rng() >> 33;  // the saved model keeps its seed as a signed integer
  ml::RiccModel model(architecture);
  model.set_centroids(
      ml::Tensor::he_normal({ml::RiccConfig{}.num_classes, ml::RiccConfig{}.latent_dim}, rng));
  return model.save().serialize();
}

/// Multiply-adds x 2 of one tile's encode plus its nearest-centroid search.
double mflop_per_tile(const ml::RiccConfig& c) {
  double flop = 0.0;
  int ch = c.channels, out = c.base_channels, size = c.tile_size;
  for (int b = 0; b < c.conv_blocks; ++b) {
    flop += 2.0 * out * ch * 9.0 * size * size;
    ch = out;
    size /= 2;
    if (b + 1 < c.conv_blocks) out *= 2;
  }
  flop += 2.0 * ch * size * size * c.latent_dim;
  flop += 2.0 * c.num_classes * c.latent_dim;
  return flop / 1e6;
}

struct MaterializedRun {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::size_t granules = 0;
  std::size_t shipped = 0;
  std::size_t tiles = 0;
  std::size_t labeled = 0;
  double makespan = 0.0;
  /// Orion file basename -> labels.
  std::map<std::string, std::vector<std::int32_t>> labels;
  /// Orion file basename -> tiles (kept only when asked for).
  std::map<std::string, std::vector<preprocess::Tile>> tiles_by_file;
  bool every_file_labelled = true;
};

MaterializedRun run_once(const pipeline::EomlConfig& config,
                         std::uint64_t seed, bool keep_tiles, SpanLog* log) {
  MaterializedRun out;
  std::optional<SpanLog::Scope> setup_span;
  if (log) setup_span.emplace(*log, "pipeline.setup");
  const double t0 = now_s();
  pipeline::EomlWorkflow workflow(config);
  workflow.defiant_fs().write_file(kModelPath, model_bytes(seed));
  out.setup_s = now_s() - t0;
  setup_span.reset();

  std::optional<SpanLog::Scope> run_span;
  if (log) run_span.emplace(*log, "pipeline.run");
  const double t1 = now_s();
  const auto report = workflow.run();
  out.run_s = now_s() - t1;
  run_span.reset();

  out.granules = report.granules;
  out.shipped = report.shipped_files;
  out.tiles = report.total_tiles;
  out.labeled = report.labeled_tiles;
  out.makespan = report.makespan;
  for (const auto& info : workflow.orion_fs().list("aicca/*.ncl")) {
    const std::string name = info.path.substr(info.path.rfind('/') + 1);
    if (!preprocess::read_tile_summary(workflow.orion_fs(), info.path).has_labels) {
      out.every_file_labelled = false;
      continue;
    }
    const auto file = preprocess::read_tile_file(workflow.orion_fs(), info.path);
    auto& labels = out.labels[name];
    if (file.has_var("label")) {
      const auto stored = file.var("label").as_i32();
      labels.assign(stored.begin(), stored.end());
    }
    if (keep_tiles && file.has_var("tiles"))
      out.tiles_by_file[name] = preprocess::tiles_from_ncl(file);
  }
  return out;
}

ml::Tensor tile_tensor(const preprocess::Tile& tile) {
  return ml::Tensor({tile.channels, tile.tile_size, tile.tile_size}, tile.data);
}

/// Compares a spread sample of shipped labels with an independently loaded
/// model's predictions. Returns mismatches; `checked` receives the count.
std::size_t check_label_sample(const MaterializedRun& run, std::uint64_t seed,
                               std::size_t* checked) {
  auto model = ml::RiccModel::load(
      storage::HdflFile::deserialize(model_bytes(seed)));
  std::size_t total = 0;
  for (const auto& [name, tiles] : run.tiles_by_file) total += tiles.size();
  const std::size_t stride = std::max<std::size_t>(1, total / 64);
  std::size_t index = 0, mismatches = 0;
  *checked = 0;
  for (const auto& [name, tiles] : run.tiles_by_file) {
    const auto& labels = run.labels.at(name);
    for (std::size_t i = 0; i < tiles.size(); ++i, ++index) {
      if (index % stride != 0) continue;
      ++*checked;
      if (i >= labels.size() || model.predict(tile_tensor(tiles[i])) != labels[i])
        ++mismatches;
    }
  }
  return mismatches;
}

bool check_run(Report& report, const MaterializedRun& run,
               const MaterializedRun& first, std::size_t expected_granules) {
  const bool counts_ok = run.granules == expected_granules &&
                         run.shipped == expected_granules &&
                         run.labels.size() == expected_granules;
  const bool labelled_ok = run.every_file_labelled && run.labeled == run.tiles;
  const bool repeat_ok = run.tiles == first.tiles && run.labels == first.labels &&
                         run.makespan == first.makespan;
  const bool ok = counts_ok && labelled_ok && repeat_ok;
  if (!ok) {
    report.check("materialized.counts", counts_ok,
                 std::to_string(run.granules) + " granules, " +
                     std::to_string(run.shipped) + " shipped of " +
                     std::to_string(expected_granules));
    report.check("materialized.labelled", labelled_ok,
                 "every Orion file carries one label per tile");
    report.check("materialized.repeatable", repeat_ok,
                 "tiles, labels and makespan equal the first run's");
  }
  return ok;
}

void traced(const Options& options, const pipeline::EomlConfig& config,
            Report& report) {
  SpanLog log;
  const auto granules = daytime_granules(config);
  const MaterializedRun run = run_once(config, options.seed, false, &log);
  const double run_s = log.total("pipeline.run");

  const modis::ArchiveService archive(config.seed);
  auto model = ml::RiccModel::load(
      storage::HdflFile::deserialize(model_bytes(options.seed)));
  storage::MemFs defiant("defiant");
  std::size_t materialize_calls = 0, tile_count = 0;
  double materialized_bytes = 0.0;
  std::vector<std::vector<int>> flow_labels;
  std::size_t label_mismatches = 0;
  for (const auto& id : granules) {
    std::vector<std::byte> bytes[3];
    {
      SpanLog::Scope span(log, "modis.materialize");
      for (int k = 0; k < 3; ++k) {
        modis::GranuleId product = id;
        product.product = static_cast<modis::ProductKind>(k);
        bytes[k] = archive.materialize(product, config.geometry);
        materialized_bytes += static_cast<double>(bytes[k].size());
        ++materialize_calls;
      }
    }
    std::optional<modis::Mod02Granule> mod02;
    std::optional<modis::Mod03Granule> mod03;
    std::optional<modis::Mod06Granule> mod06;
    {
      SpanLog::Scope span(log, "storage.hdfl.decode");
      mod02 = modis::Mod02Granule::from_hdfl(storage::HdflFile::deserialize(bytes[0]));
      mod03 = modis::Mod03Granule::from_hdfl(storage::HdflFile::deserialize(bytes[1]));
      mod06 = modis::Mod06Granule::from_hdfl(storage::HdflFile::deserialize(bytes[2]));
    }
    std::optional<preprocess::TilerResult> tiled;
    {
      SpanLog::Scope span(log, "preprocess.tile");
      tiled = preprocess::make_tiles(*mod02, *mod03, *mod06, config.tiler);
    }
    const std::string name = id.filename() + ".ncl";
    std::vector<preprocess::Tile> tiles;
    {
      SpanLog::Scope span(log, "storage.ncl.io");
      preprocess::write_tile_file(defiant, "tiles/" + name, id, *tiled);
      tiles = preprocess::tiles_from_ncl(
          preprocess::read_tile_file(defiant, "tiles/" + name));
    }
    std::vector<int> labels;
    {
      SpanLog::Scope span(log, "ml.encode");
      for (const auto& tile : tiles) labels.push_back(model.predict(tile_tensor(tile)));
    }
    tile_count += tiles.size();
    const auto shipped = run.labels.find(name);
    if (shipped == run.labels.end() ||
        !std::equal(labels.begin(), labels.end(), shipped->second.begin(),
                    shipped->second.end()))
      ++label_mismatches;
    flow_labels.push_back(std::move(labels));
  }
  replay_granule_stats(log, archive.generator(), granules, config.preprocess_cost);
  const std::size_t runs =
      replay_flow_runner(log, flow_labels, config.flow_action_overhead);
  std::size_t shipped_files = 0;
  {
    SpanLog::Scope span(log, "transfer.ship");
    sim::SimEngine engine;
    sim::FlowLink link(engine, "defiant-orion", config.facility_link_bps);
    storage::MemFs orion("orion");
    transfer::TransferService shipper(engine, link);
    transfer::TransferRequest request;
    request.source = &defiant;
    request.destination = &orion;
    request.pattern = "tiles/*.ncl";
    request.dest_prefix = "aicca";
    request.parallel_streams = config.shipment_streams;
    shipper.submit(request, [&shipped_files](const transfer::TransferEvent& e) {
      if (e.kind == transfer::TransferEventKind::kFileDone) ++shipped_files;
    });
    engine.run();
  }

  const auto count = [](double v) { return v; };
  const double encode_s = log.total("ml.encode");
  const double stats_s = log.total("modis.granule_stats");
  report.metric("pipeline.run_s", run_s, "s");
  LayerSplit split(report, run_s);
  report.metric("modis.materialize.calls", count(materialize_calls), "count");
  split.add("modis.materialize", log.total("modis.materialize"));
  report.metric("modis.materialize.mb", materialized_bytes / (1024.0 * 1024.0), "MiB");
  split.add("storage.hdfl.decode", log.total("storage.hdfl.decode"), false);
  report.metric("preprocess.tile.tiles", count(tile_count), "count");
  split.add("preprocess.tile", log.total("preprocess.tile"));
  split.add("storage.ncl.io", log.total("storage.ncl.io"), false);
  report.metric("ml.encode.tiles", count(tile_count), "count");
  split.add("ml.encode", encode_s);
  report.metric("ml.encode.us_per_tile",
                1e6 * encode_s / static_cast<double>(std::max<std::size_t>(1, tile_count)),
                "us");
  report.metric("ml.encode.mflop_per_tile", mflop_per_tile(ml::RiccConfig{}), "Mflop");
  report.metric("modis.granule_stats.calls", count(granules.size()), "count");
  split.add("modis.granule_stats", stats_s);
  report.metric("flow.runner.runs", count(runs), "count");
  split.add("flow.runner", log.total("flow.runner"));
  report.metric("transfer.ship.files", count(shipped_files), "count");
  split.add("transfer.ship", log.total("transfer.ship"));
  split.residual("pipeline.residual");

  report.check("materialized.replay_labels", label_mismatches == 0,
               "replayed encode labels equal every shipped file's labels (" +
                   std::to_string(label_mismatches) + " files differ)");
  report.check("materialized.replay_counts",
               tile_count == run.tiles && runs == granules.size() &&
                   shipped_files == granules.size(),
               std::to_string(tile_count) + " tiles vs " + std::to_string(run.tiles));
  report.count(run.tiles, label_mismatches == 0 ? 0 : run.tiles);
  if (!options.trace_out.empty() && !log.write(options.trace_out))
    report.check("trace.write", false, options.trace_out);
}

}  // namespace

Report run_materialized(const Options& options) {
  Report report;
  const pipeline::EomlConfig config = materialized_config(options);
  if (options.trace) {
    traced(options, config, report);
    return report;
  }
  const std::size_t expected = daytime_granules(config).size();

  // Set-up is milliseconds against seconds of run: sample it apart as well.
  std::vector<double> setup, rate, raw;
  for (int i = 0; i < 64; ++i) {
    const double t0 = now_s();
    pipeline::EomlWorkflow workflow(config);
    workflow.defiant_fs().write_file(kModelPath, model_bytes(options.seed));
    setup.push_back(now_s() - t0);
  }
  std::optional<MaterializedRun> first;
  std::size_t bad_runs = 0;
  HostSpeed host;
  const double deadline = now_s() + options.seconds;
  do {
    MaterializedRun run = run_once(config, options.seed, !first, nullptr);
    const double scaled_s = host.scale(run.run_s);
    bool ok = true;
    if (!first) {
      std::size_t checked = 0;
      const std::size_t mismatches = check_label_sample(run, options.seed, &checked);
      report.check("materialized.label_sample", checked > 0 && mismatches == 0,
                   std::to_string(mismatches) + " of " + std::to_string(checked) +
                       " sampled labels differ from an independently loaded "
                       "model's predict");
      ok = checked > 0 && mismatches == 0;
      run.tiles_by_file.clear();
      first = run;
    }
    ok = check_run(report, run, *first, expected) && ok;
    if (!ok) ++bad_runs;
    report.count(run.tiles, ok ? 0 : run.tiles);
    setup.push_back(run.setup_s);
    raw.push_back(static_cast<double>(run.labeled) / run.run_s);
    rate.push_back(static_cast<double>(run.labeled) / scaled_s);
  } while (now_s() < deadline || rate.size() < 3);

  report.check("materialized.outputs", bad_runs == 0,
               std::to_string(first->granules) + " granules, " +
                   std::to_string(first->tiles) + " tiles labelled and shipped");
  report.metric("tiles_per_s", median(rate), "1/s", rate.size());
  report.metric("tiles_per_host_s", median(raw), "1/s", raw.size());
  report.metric("host.reference_s", host.reference_s(), "s");
  report.metric("items_per_s", median(rate), "1/s", rate.size());
  report.metric("setup_s", host.scale_run(median(setup)), "s", setup.size());
  report.metric("setup_host_s", median(setup), "s", setup.size());
  report.metric("peak_rss_mb", peak_rss_mib(), "MiB");
  return report;
}

}  // namespace mfwbench
