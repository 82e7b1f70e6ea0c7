// RICC: Rotationally Invariant Cloud Clustering (Kurihana et al., TGRS 2021)
// and the AICCA atlas built on it (Remote Sensing 2022).
//
// The model is a convolutional autoencoder whose encoder is trained to be
// invariant to tile rotation, plus a set of cluster centroids (42 for AICCA)
// in latent space obtained by Ward agglomerative clustering of encoded
// training tiles. Inference = encode tile -> nearest centroid -> class id.
//
// Training objective (per tile x):
//     L = MSE(D(E(x)), x) + lambda * (1/3) sum_{r=1..3} ||E(rot_r x) - sg(E(x))||^2 / latent_dim
// where sg() is stop-gradient: the un-rotated latent acts as the consistency
// target. This is a simplification of the paper's transform-invariant loss
// that preserves its effect (rotated copies of a tile map to nearby
// latents) while keeping the layer cache machinery single-pass; the
// `rotation_invariance_score` metric verifies the effect directly and is
// exercised by tests and the ricc_training example.
#pragma once

#include <optional>
#include <span>
#include <string_view>

#include "ml/cluster.hpp"
#include "ml/layers.hpp"
#include "ml/quant.hpp"
#include "storage/hdfl.hpp"

namespace mfw::ml {

struct RiccConfig {
  int tile_size = 32;    // H == W; must be divisible by 2^conv_blocks
  int channels = 6;      // input channels (the 6 RICC bands)
  int base_channels = 8; // channels after the first conv block
  int conv_blocks = 3;   // each block halves resolution and doubles channels
  int latent_dim = 32;
  int num_classes = 42;  // AICCA's class count
  std::uint64_t seed = 7;

  void validate() const;
  /// Spatial size after the last conv block.
  int top_size() const;
};

/// Encoder + decoder + centroids. Each inference worker owns a replica
/// (forward passes mutate layer caches).
class RiccModel {
 public:
  explicit RiccModel(const RiccConfig& config);

  const RiccConfig& config() const { return config_; }
  Sequential& encoder() { return encoder_; }
  Sequential& decoder() { return decoder_; }

  /// Encodes a [channels][tile][tile] tile to a [latent_dim] vector.
  Tensor encode(const Tensor& tile);
  /// Encodes many tiles. With a pool, tiles are fanned out in fixed-size
  /// chunks, each run on its own encoder replica (layer caches make an
  /// instance non-reentrant); every tile's latent is independent and lands
  /// in its own slot, so the result is bitwise identical at any thread
  /// count, including the sequential pool == nullptr path.
  std::vector<Tensor> encode_batch(std::span<const Tensor> tiles,
                                   util::ThreadPool* pool = nullptr);
  /// Full autoencoder pass (for reconstruction-quality evaluation).
  Tensor reconstruct(const Tensor& tile);

  bool has_centroids() const { return !centroids_.empty(); }
  const Tensor& centroids() const { return centroids_; }
  /// Sets [num_classes][latent_dim] centroids.
  void set_centroids(Tensor centroids);

  /// Class id in [0, num_classes) for a tile; requires centroids.
  int predict(const Tensor& tile);

  /// Which encoder implementation encode/encode_batch/predict run
  /// (DESIGN.md §13). kLayers is the default layer-by-layer path and the
  /// fp32 oracle; kFused is the fused fp32 plan (bitwise identical to
  /// kLayers on the same weights); kInt8 is the quantized plan and needs
  /// calibrate_int8() first. Plans snapshot the weights when selected /
  /// calibrated — after retraining or loading new weights, re-select the
  /// path to rebuild them.
  enum class EncodePath { kLayers, kFused, kInt8 };

  /// Maps "layers" / "fused" / "int8" (the config-file spellings) to the
  /// enum; throws std::invalid_argument on anything else.
  static EncodePath parse_encode_path(std::string_view name);

  EncodePath encode_path() const { return encode_path_; }
  /// Selects the inference path. kFused (re)builds the fused plan from the
  /// current weights; kInt8 throws std::logic_error unless int8_ready().
  void set_encode_path(EncodePath path);
  /// Builds the int8 plan: quantizes the current weights and calibrates
  /// activation scales by running `sample` (non-empty) through the fp32
  /// reference. Does not switch the path by itself.
  void calibrate_int8(std::span<const Tensor> sample);
  bool int8_ready() const { return int8_.has_value(); }

  /// Serializes config + weights + centroids into an hdfl container — the
  /// "pretrained model" artifact the inference stage loads.
  storage::HdflFile save();
  static RiccModel load(const storage::HdflFile& file);

 private:
  RiccConfig config_;
  Sequential encoder_;
  Sequential decoder_;
  Tensor centroids_;  // [num_classes][latent_dim], empty until clustering
  EncodePath encode_path_ = EncodePath::kLayers;
  std::optional<FusedEncoder> fused_;   // built by set_encode_path(kFused)
  std::optional<QuantizedEncoder> int8_;  // built by calibrate_int8()
  EncodeScratch scratch_;  // single-tile encode buffers (plans are const)
};

struct RiccTrainOptions {
  int epochs = 10;
  int batch_size = 16;
  float learning_rate = 1e-3f;
  float lambda_invariance = 0.5f;
  /// Rotations per sample used for the consistency term (0 disables it).
  int rotations = 3;
  /// Optional data-parallel substrate. nullptr trains sample-sequentially
  /// (the original numerics). With a pool, each mini-batch is split into
  /// fixed 4-sample chunks run on cloned model replicas and the gradients
  /// are reduced in chunk index order — results are reproducible at any
  /// thread count (but differ from the sequential path in FP summation
  /// order).
  util::ThreadPool* pool = nullptr;
};

struct RiccTrainReport {
  std::vector<float> epoch_reconstruction_loss;
  std::vector<float> epoch_invariance_loss;
  float final_loss = 0.0f;
  double invariance_score_before = 0.0;
  double invariance_score_after = 0.0;
  double silhouette = 0.0;
};

/// Trains the autoencoder on tiles with the rotation-consistency objective.
/// Throws std::logic_error unless model.encode_path() is kLayers: a selected
/// fused or int8 plan would keep encoding with the pre-training weights.
RiccTrainReport train_autoencoder(RiccModel& model,
                                  std::span<const Tensor> tiles,
                                  const RiccTrainOptions& options);

/// Stage 2 of the AICCA workflow: encode all tiles, run Ward clustering,
/// and install the resulting centroids. Returns the clustering result.
/// A pool parallelises the encode fan-out and the Ward distance fill.
ClusterResult fit_centroids(RiccModel& model, std::span<const Tensor> tiles,
                            util::ThreadPool* pool = nullptr);

/// Mean latent displacement under rotation, normalized by the mean pairwise
/// latent distance (0 = perfectly invariant, ~1 = rotation moves a tile as
/// far as to another random tile). Used for cluster evaluation.
double rotation_invariance_score(RiccModel& model,
                                 std::span<const Tensor> tiles);

/// End-to-end "RICC training" stage: train AE, cluster, install centroids.
RiccTrainReport train_ricc(RiccModel& model, std::span<const Tensor> tiles,
                           const RiccTrainOptions& options);

}  // namespace mfw::ml
