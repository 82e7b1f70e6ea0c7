#include "ml/ricc.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "ml/loss.hpp"
#include "ml/optim.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace mfw::ml {

namespace {
constexpr const char* kComponent = "ricc";

Tensor tensor_from_dataset(const storage::Dataset& ds) {
  const auto values = ds.as_f32();
  std::vector<int> shape;
  shape.reserve(ds.shape.size());
  for (auto dim : ds.shape) shape.push_back(static_cast<int>(dim));
  return Tensor(std::move(shape), std::vector<float>(values.begin(), values.end()));
}

storage::Dataset dataset_from_tensor(std::string name, const Tensor& t) {
  std::vector<std::uint64_t> shape;
  shape.reserve(t.rank());
  for (auto dim : t.shape()) shape.push_back(static_cast<std::uint64_t>(dim));
  return storage::Dataset::f32(std::move(name), std::move(shape), t.span());
}
}  // namespace

void RiccConfig::validate() const {
  if (tile_size <= 0 || channels <= 0 || base_channels <= 0 ||
      latent_dim <= 0 || num_classes <= 0 || conv_blocks <= 0)
    throw std::invalid_argument("RiccConfig: all dimensions must be positive");
  if (tile_size % (1 << conv_blocks) != 0)
    throw std::invalid_argument(
        "RiccConfig: tile_size must be divisible by 2^conv_blocks");
}

int RiccConfig::top_channels() const {
  return base_channels << (conv_blocks - 1);
}

int RiccConfig::top_size() const { return tile_size >> conv_blocks; }

RiccModel::RiccModel(const RiccConfig& config) : config_(config) {
  config_.validate();
  util::Rng rng(config_.seed);
  // Encoder: conv_blocks x [conv 3x3 (stride 1, pad 1), LeakyReLU, pool 2x2],
  // then flatten + dense to the latent.
  int ch = config_.channels;
  int out_ch = config_.base_channels;
  for (int b = 0; b < config_.conv_blocks; ++b) {
    encoder_.emplace<Conv2d>(ch, out_ch, 3, 1, 1, rng);
    encoder_.emplace<LeakyReLU>();
    encoder_.emplace<MaxPool2x2>();
    ch = out_ch;
    if (b + 1 < config_.conv_blocks) out_ch *= 2;
  }
  const int top = config_.top_size();
  encoder_.emplace<Flatten>();
  encoder_.emplace<Dense>(ch * top * top, config_.latent_dim, rng);

  // Decoder mirrors the encoder with nearest-neighbour upsampling.
  decoder_.emplace<Dense>(config_.latent_dim, ch * top * top, rng);
  decoder_.emplace<LeakyReLU>();
  decoder_.emplace<Reshape>(std::vector<int>{ch, top, top});
  for (int b = 0; b < config_.conv_blocks; ++b) {
    const bool last = b + 1 == config_.conv_blocks;
    const int next_ch = last ? config_.channels : ch / 2;
    decoder_.emplace<UpsampleNearest2x>();
    decoder_.emplace<Conv2d>(ch, next_ch, 3, 1, 1, rng);
    if (!last) decoder_.emplace<LeakyReLU>();
    ch = next_ch;
  }
}

RiccModel::EncodePath RiccModel::parse_encode_path(std::string_view name) {
  if (name == "layers") return EncodePath::kLayers;
  if (name == "fused") return EncodePath::kFused;
  if (name == "int8") return EncodePath::kInt8;
  throw std::invalid_argument("unknown encode path '" + std::string(name) +
                              "' (expected layers|fused|int8)");
}

void RiccModel::set_encode_path(EncodePath path) {
  if (path == EncodePath::kFused) {
    fused_ = FusedEncoder::build(encoder_, config_.tile_size);
  } else if (path == EncodePath::kInt8 && !int8_ready()) {
    throw std::logic_error(
        "RiccModel::set_encode_path(kInt8): calibrate_int8() first");
  }
  encode_path_ = path;
}

void RiccModel::calibrate_int8(std::span<const Tensor> sample) {
  int8_ = QuantizedEncoder::build(encoder_, config_.tile_size, sample);
}

Tensor RiccModel::encode(const Tensor& tile) {
  if (auto& metrics = obs::MetricsRegistry::instance(); metrics.enabled())
    metrics.counter_add("mfw.ml.encode_tiles_total", 1.0);
  switch (encode_path_) {
    case EncodePath::kFused:
      return fused_->encode(tile, scratch_);
    case EncodePath::kInt8:
      return int8_->encode(tile, scratch_);
    case EncodePath::kLayers:
      break;
  }
  return encoder_.forward(tile);
}

std::vector<Tensor> RiccModel::encode_batch(std::span<const Tensor> tiles,
                                            util::ThreadPool* pool) {
  std::vector<Tensor> out(tiles.size());
  obs::SpanId span;
  if (auto& rec = obs::TraceRecorder::instance(); rec.enabled())
    span = rec.begin_span("ml/encode", "ml", "ml.encode",
                          {{"tiles", std::to_string(tiles.size())}});
  const EncodePath path = encode_path_;
  auto encode_range = [&](std::size_t begin, std::size_t end,
                          EncodeScratch& scratch) {
    switch (path) {
      case EncodePath::kFused:
        for (std::size_t i = begin; i < end; ++i)
          out[i] = fused_->encode(tiles[i], scratch);
        break;
      case EncodePath::kInt8:
        for (std::size_t i = begin; i < end; ++i)
          out[i] = int8_->encode(tiles[i], scratch);
        break;
      case EncodePath::kLayers:
        break;  // handled below (needs a Sequential, not scratch)
    }
  };
  if (pool == nullptr || tiles.size() < 2) {
    if (path == EncodePath::kLayers) {
      for (std::size_t i = 0; i < tiles.size(); ++i)
        out[i] = encoder_.forward(tiles[i]);
    } else {
      encode_range(0, tiles.size(), scratch_);
    }
  } else {
    // Every tile writes only its own slot, so the output is bitwise
    // independent of the thread count. The layer path needs one encoder
    // replica per dispatched chunk (forward mutates layer caches); the
    // fused/int8 plans are const and shared, with per-chunk scratch.
    const std::size_t chunk = std::max<std::size_t>(
        1, (tiles.size() + pool->thread_count()) / (pool->thread_count() + 1));
    util::parallel_for(*pool, tiles.size(), chunk,
                       [&](std::size_t begin, std::size_t end) {
                         if (path == EncodePath::kLayers) {
                           Sequential replica = encoder_.clone_net();
                           for (std::size_t i = begin; i < end; ++i)
                             out[i] = replica.forward(tiles[i]);
                         } else {
                           EncodeScratch scratch;
                           encode_range(begin, end, scratch);
                         }
                       });
  }
  if (auto& metrics = obs::MetricsRegistry::instance(); metrics.enabled())
    metrics.counter_add("mfw.ml.encode_tiles_total",
                        static_cast<double>(tiles.size()));
  obs::TraceRecorder::instance().end_span(span);
  return out;
}

Tensor RiccModel::reconstruct(const Tensor& tile) {
  return decoder_.forward(encoder_.forward(tile));
}

void RiccModel::set_centroids(Tensor centroids) {
  if (centroids.rank() != 2 || centroids.dim(0) != config_.num_classes ||
      centroids.dim(1) != config_.latent_dim)
    throw std::invalid_argument("centroids must be [num_classes][latent_dim]");
  centroids_ = std::move(centroids);
}

int RiccModel::predict(const Tensor& tile) {
  if (!has_centroids())
    throw std::logic_error("RiccModel::predict requires fitted centroids");
  const Tensor z = encode(tile);
  return nearest_centroid(centroids_, z.span());
}

storage::HdflFile RiccModel::save() {
  storage::HdflFile file;
  auto& attrs = file.attrs();
  attrs["model"] = "ricc";
  attrs["tile_size"] = std::to_string(config_.tile_size);
  attrs["channels"] = std::to_string(config_.channels);
  attrs["base_channels"] = std::to_string(config_.base_channels);
  attrs["conv_blocks"] = std::to_string(config_.conv_blocks);
  attrs["latent_dim"] = std::to_string(config_.latent_dim);
  attrs["num_classes"] = std::to_string(config_.num_classes);
  attrs["seed"] = std::to_string(config_.seed);
  int index = 0;
  for (Param* p : encoder_.params())
    file.add(dataset_from_tensor("encoder/" + std::to_string(index++) + "/" +
                                     p->name,
                                 p->value));
  index = 0;
  for (Param* p : decoder_.params())
    file.add(dataset_from_tensor("decoder/" + std::to_string(index++) + "/" +
                                     p->name,
                                 p->value));
  if (has_centroids()) file.add(dataset_from_tensor("centroids", centroids_));
  return file;
}

RiccModel RiccModel::load(const storage::HdflFile& file) {
  const auto& attrs = file.attrs();
  auto get = [&](const char* key) {
    const auto it = attrs.find(key);
    if (it == attrs.end())
      throw storage::FormatError(std::string("ricc model missing attr ") + key);
    return std::stoll(it->second);
  };
  RiccConfig config;
  config.tile_size = static_cast<int>(get("tile_size"));
  config.channels = static_cast<int>(get("channels"));
  config.base_channels = static_cast<int>(get("base_channels"));
  config.conv_blocks = static_cast<int>(get("conv_blocks"));
  config.latent_dim = static_cast<int>(get("latent_dim"));
  config.num_classes = static_cast<int>(get("num_classes"));
  config.seed = static_cast<std::uint64_t>(get("seed"));
  RiccModel model(config);
  auto load_params = [&](Sequential& net, const std::string& prefix) {
    int index = 0;
    for (Param* p : net.params()) {
      const std::string name =
          prefix + "/" + std::to_string(index++) + "/" + p->name;
      const Tensor stored = tensor_from_dataset(file.dataset(name));
      if (stored.shape() != p->value.shape())
        throw storage::FormatError("ricc model: shape mismatch in " + name);
      p->value = stored;
    }
  };
  load_params(model.encoder_, "encoder");
  load_params(model.decoder_, "decoder");
  if (file.has("centroids"))
    model.set_centroids(tensor_from_dataset(file.dataset("centroids")));
  return model;
}

RiccTrainReport train_autoencoder(RiccModel& model,
                                  std::span<const Tensor> tiles,
                                  const RiccTrainOptions& options) {
  if (tiles.empty())
    throw std::invalid_argument("train_autoencoder needs tiles");
  if (options.epochs <= 0 || options.batch_size <= 0)
    throw std::invalid_argument("train_autoencoder: bad options");
  // A fused or int8 plan snapshots the weights it was built from: the
  // invariance score and any centroid fit after training would read stale
  // latents through it.
  if (model.encode_path() != RiccModel::EncodePath::kLayers)
    throw std::logic_error(
        "train_autoencoder: select EncodePath::kLayers before training");
  RiccTrainReport report;
  report.invariance_score_before = rotation_invariance_score(model, tiles);

  auto params = model.encoder().params();
  for (Param* p : model.decoder().params()) params.push_back(p);
  Adam optimizer(params, options.learning_rate);
  util::Rng shuffle_rng(model.config().seed ^ 0xdecafULL);

  std::vector<std::size_t> order(tiles.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  // Parallel path: each mini-batch is cut into fixed kGradChunk-sample
  // chunks regardless of thread count, each chunk runs forward/backward on
  // its own model replica, and chunk gradients/losses are reduced in chunk
  // index order — so the result is a function of the data only, not of how
  // chunks land on threads.
  constexpr std::size_t kGradChunk = 4;
  struct ChunkOut {
    std::vector<Tensor> grads;  // one per param, in `params` order
    double recon = 0.0;
    double inv = 0.0;
  };
  auto run_chunk = [&](std::span<const std::size_t> sample_ids, ChunkOut& out) {
    Sequential enc = model.encoder().clone_net();
    Sequential dec = model.decoder().clone_net();
    auto rep_params = enc.params();
    for (Param* p : dec.params()) rep_params.push_back(p);
    for (Param* p : rep_params) {
      float* g = p->grad.data();
      std::fill(g, g + p->grad.span().size(), 0.0f);
    }
    for (const std::size_t sample : sample_ids) {
      const Tensor& x = tiles[sample];
      const Tensor z = enc.forward(x);
      const Tensor y = dec.forward(z);
      const LossGrad rec = mse_loss(y, x);
      out.recon += rec.loss;
      const Tensor grad_z = dec.backward(rec.grad);
      enc.backward(grad_z);
      for (int r = 1; r <= options.rotations; ++r) {
        const Tensor zr = enc.forward(rotate90(x, r));
        const LossGrad inv = latent_consistency_loss(zr, z);
        out.inv += inv.loss;
        Tensor scaled = inv.grad;
        scaled *= options.lambda_invariance;
        enc.backward(scaled);
      }
    }
    out.grads.reserve(rep_params.size());
    for (Param* p : rep_params) out.grads.push_back(std::move(p->grad));
  };

  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    obs::SpanId epoch_span;
    if (auto& rec = obs::TraceRecorder::instance(); rec.enabled())
      epoch_span = rec.begin_span("ml/train", "ml", "ml.train.epoch",
                                  {{"epoch", std::to_string(epoch)}});
    // Fisher-Yates shuffle for stochasticity.
    for (std::size_t i = order.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          shuffle_rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(order[i - 1], order[j]);
    }
    double recon_sum = 0.0;
    double inv_sum = 0.0;
    if (options.pool == nullptr) {
      // Sample-sequential path: the original (seed) numerics, exactly.
      std::size_t in_batch = 0;
      for (std::size_t idx = 0; idx < order.size(); ++idx) {
        const Tensor& x = tiles[order[idx]];
        // Reconstruction pass.
        const Tensor z = model.encoder().forward(x);
        const Tensor y = model.decoder().forward(z);
        const LossGrad rec = mse_loss(y, x);
        recon_sum += rec.loss;
        const Tensor grad_z = model.decoder().backward(rec.grad);
        model.encoder().backward(grad_z);
        // Rotation-consistency passes (stop-gradient on z).
        for (int r = 1; r <= options.rotations; ++r) {
          const Tensor zr = model.encoder().forward(rotate90(x, r));
          const LossGrad inv = latent_consistency_loss(zr, z);
          inv_sum += inv.loss;
          Tensor scaled = inv.grad;
          scaled *= options.lambda_invariance;
          model.encoder().backward(scaled);
        }
        if (++in_batch == static_cast<std::size_t>(options.batch_size) ||
            idx + 1 == order.size()) {
          optimizer.step(in_batch);
          in_batch = 0;
        }
      }
    } else {
      for (std::size_t b0 = 0; b0 < order.size();
           b0 += static_cast<std::size_t>(options.batch_size)) {
        const std::size_t b1 =
            std::min(order.size(),
                     b0 + static_cast<std::size_t>(options.batch_size));
        const std::size_t batch_n = b1 - b0;
        const std::size_t chunks = (batch_n + kGradChunk - 1) / kGradChunk;
        std::vector<ChunkOut> outs(chunks);
        util::parallel_for(
            *options.pool, batch_n, kGradChunk,
            [&](std::size_t begin, std::size_t end) {
              run_chunk(std::span<const std::size_t>(order)
                            .subspan(b0 + begin, end - begin),
                        outs[begin / kGradChunk]);
            });
        // Ordered reduction into the live model's grad accumulators.
        for (const ChunkOut& out : outs) {
          recon_sum += out.recon;
          inv_sum += out.inv;
          for (std::size_t pi = 0; pi < params.size(); ++pi) {
            float* dst = params[pi]->grad.data();
            const float* src = out.grads[pi].data();
            const std::size_t sz = params[pi]->grad.span().size();
            for (std::size_t e = 0; e < sz; ++e) dst[e] += src[e];
          }
        }
        optimizer.step(batch_n);
      }
    }
    const auto n = static_cast<double>(tiles.size());
    report.epoch_reconstruction_loss.push_back(static_cast<float>(recon_sum / n));
    report.epoch_invariance_loss.push_back(static_cast<float>(
        options.rotations ? inv_sum / (n * options.rotations) : 0.0));
    MFW_DEBUG(kComponent, "epoch ", epoch, " recon=", recon_sum / n,
              " inv=", inv_sum / n);
    obs::TraceRecorder::instance().end_span(
        epoch_span, {{"recon_loss", std::to_string(recon_sum / n)},
                     {"inv_loss", std::to_string(inv_sum / n)}});
  }
  report.final_loss = report.epoch_reconstruction_loss.back();
  report.invariance_score_after = rotation_invariance_score(model, tiles);
  return report;
}

ClusterResult fit_centroids(RiccModel& model, std::span<const Tensor> tiles,
                            util::ThreadPool* pool) {
  if (tiles.size() < static_cast<std::size_t>(model.config().num_classes))
    throw std::invalid_argument("fit_centroids needs >= num_classes tiles");
  const auto d = static_cast<std::size_t>(model.config().latent_dim);
  const std::vector<Tensor> zs = model.encode_batch(tiles, pool);
  std::vector<float> latents(tiles.size() * d);
  for (std::size_t i = 0; i < tiles.size(); ++i)
    std::memcpy(latents.data() + i * d, zs[i].data(), d * sizeof(float));
  ClusterResult result = agglomerative_ward(latents, tiles.size(), d,
                                            model.config().num_classes, pool);
  model.set_centroids(result.centroids);
  return result;
}

double rotation_invariance_score(RiccModel& model,
                                 std::span<const Tensor> tiles) {
  if (tiles.empty()) return 0.0;
  const std::size_t n = std::min<std::size_t>(tiles.size(), 64);
  std::vector<Tensor> latents;
  latents.reserve(n);
  double rotation_disp = 0.0;
  std::size_t rotation_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    latents.push_back(model.encode(tiles[i]));
    for (int r = 1; r <= 3; ++r) {
      const Tensor zr = model.encode(rotate90(tiles[i], r));
      rotation_disp +=
          std::sqrt(squared_distance(zr.span(), latents.back().span()));
      ++rotation_count;
    }
  }
  double pairwise = 0.0;
  std::size_t pair_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      pairwise += std::sqrt(squared_distance(latents[i].span(), latents[j].span()));
      ++pair_count;
    }
  }
  if (pair_count == 0 || pairwise <= 0.0) return 0.0;
  const double mean_rot = rotation_disp / static_cast<double>(rotation_count);
  const double mean_pair = pairwise / static_cast<double>(pair_count);
  return mean_rot / mean_pair;
}

RiccTrainReport train_ricc(RiccModel& model, std::span<const Tensor> tiles,
                           const RiccTrainOptions& options) {
  RiccTrainReport report = train_autoencoder(model, tiles, options);
  const ClusterResult clusters = fit_centroids(model, tiles, options.pool);
  const auto d = static_cast<std::size_t>(model.config().latent_dim);
  const std::vector<Tensor> zs = model.encode_batch(tiles, options.pool);
  std::vector<float> latents(tiles.size() * d);
  for (std::size_t i = 0; i < tiles.size(); ++i)
    std::memcpy(latents.data() + i * d, zs[i].data(), d * sizeof(float));
  report.silhouette = silhouette(latents, tiles.size(), d, clusters.labels,
                                 clusters.k);
  return report;
}

}  // namespace mfw::ml
