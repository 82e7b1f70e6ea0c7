// Neural-network layers with forward + backward passes.
//
// Single-sample ([C][H][W] or flat [D]) semantics; the trainer accumulates
// gradients across a mini-batch by running samples sequentially. Layers
// cache what backward() needs, so a layer instance is not reentrant — each
// worker owns its model replica (the paper's inference workers each hold the
// pretrained RICC model).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ml/tensor.hpp"

namespace mfw::ml {

/// A learnable tensor and its gradient accumulator.
struct Param {
  std::string name;
  Tensor value;
  Tensor grad;
};

class Layer {
 public:
  virtual ~Layer() = default;

  virtual Tensor forward(const Tensor& input) = 0;
  /// Given dL/d(output), returns dL/d(input) and accumulates parameter grads.
  virtual Tensor backward(const Tensor& grad_output) = 0;
  virtual std::vector<Param*> params() { return {}; }
  virtual std::string name() const = 0;
  /// Deep copy (weights, grads, and hyperparameters; caches come along but
  /// are irrelevant to the next forward). Each data-parallel worker runs its
  /// own replica because forward/backward mutate the layer caches.
  virtual std::unique_ptr<Layer> clone() const = 0;
};

/// 2-D convolution over [C][H][W] with square kernel, stride, and symmetric
/// zero padding.
class Conv2d final : public Layer {
 public:
  Conv2d(int in_channels, int out_channels, int kernel, int stride, int pad,
         util::Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  std::string name() const override { return "conv2d"; }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Conv2d>(*this);
  }

  int out_height(int in_height) const;
  int out_width(int in_width) const;

  // Hyperparameter / weight views for inference-plan builders (quant.hpp).
  int in_channels() const { return in_channels_; }
  int out_channels() const { return out_channels_; }
  int kernel_size() const { return kernel_; }
  int stride() const { return stride_; }
  int padding() const { return pad_; }
  const Tensor& weight() const { return weight_.value; }
  const Tensor& bias() const { return bias_.value; }

 private:
  int in_channels_, out_channels_, kernel_, stride_, pad_;
  Param weight_;  // [out][in][k][k]
  Param bias_;    // [out]
  Tensor input_;             // cached for backward
  std::vector<float> col_;   // cached im2col of input_
};

/// Fully connected layer over flat input.
class Dense final : public Layer {
 public:
  Dense(int in_features, int out_features, util::Rng& rng);

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  std::string name() const override { return "dense"; }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Dense>(*this);
  }

  int in_features() const { return in_features_; }
  int out_features() const { return out_features_; }
  const Tensor& weight() const { return weight_.value; }
  const Tensor& bias() const { return bias_.value; }

 private:
  int in_features_, out_features_;
  Param weight_;  // [out][in]
  Param bias_;    // [out]
  Tensor input_;
};

class LeakyReLU final : public Layer {
 public:
  explicit LeakyReLU(float slope = 0.1f) : slope_(slope) {}
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "leaky_relu"; }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<LeakyReLU>(*this);
  }

  float slope() const { return slope_; }

 private:
  float slope_;
  Tensor input_;
};

/// 2x2 max pooling with stride 2 (requires even H and W).
class MaxPool2x2 final : public Layer {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "maxpool2x2"; }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<MaxPool2x2>(*this);
  }

 private:
  std::vector<int> shape_;
  std::vector<std::size_t> argmax_;  // flat source index per output element
};

/// Nearest-neighbour 2x upsampling.
class UpsampleNearest2x final : public Layer {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "upsample2x"; }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<UpsampleNearest2x>(*this);
  }

 private:
  std::vector<int> in_shape_;
};

/// [C][H][W] -> flat [C*H*W].
class Flatten final : public Layer {
 public:
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "flatten"; }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Flatten>(*this);
  }

 private:
  std::vector<int> in_shape_;
};

/// Flat [D] -> [C][H][W].
class Reshape final : public Layer {
 public:
  explicit Reshape(std::vector<int> target) : target_(std::move(target)) {}
  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return "reshape"; }
  std::unique_ptr<Layer> clone() const override {
    return std::make_unique<Reshape>(*this);
  }

 private:
  std::vector<int> target_;
  std::vector<int> in_shape_;
};

/// Ordered layer container; owns its layers.
class Sequential final : public Layer {
 public:
  Sequential() = default;

  void add(std::unique_ptr<Layer> layer) { layers_.push_back(std::move(layer)); }
  template <typename L, typename... Args>
  void emplace(Args&&... args) {
    layers_.push_back(std::make_unique<L>(std::forward<Args>(args)...));
  }

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param*> params() override;
  std::string name() const override { return "sequential"; }
  std::unique_ptr<Layer> clone() const override;
  /// Typed deep copy — the replica a data-parallel worker owns.
  Sequential clone_net() const;

  std::size_t layer_count() const { return layers_.size(); }
  const Layer& layer(std::size_t i) const { return *layers_.at(i); }
  /// Total scalar parameter count.
  std::size_t param_count();

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace mfw::ml
