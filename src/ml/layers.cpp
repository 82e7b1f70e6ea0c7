#include "ml/layers.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "ml/kernels.hpp"

namespace mfw::ml {

namespace {
void expect_rank(const Tensor& t, std::size_t rank, const char* who) {
  if (t.rank() != rank)
    throw std::invalid_argument(std::string(who) + ": expected rank " +
                                std::to_string(rank) + " input, got " +
                                t.shape_str());
}
}  // namespace

// ---------------------------------------------------------------- Conv2d --

Conv2d::Conv2d(int in_channels, int out_channels, int kernel, int stride,
               int pad, util::Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad) {
  if (in_channels <= 0 || out_channels <= 0 || kernel <= 0 || stride <= 0 ||
      pad < 0)
    throw std::invalid_argument("Conv2d: bad hyperparameters");
  weight_ = Param{"weight",
                  Tensor::he_normal({out_channels, in_channels, kernel, kernel}, rng),
                  Tensor::zeros({out_channels, in_channels, kernel, kernel})};
  bias_ = Param{"bias", Tensor::zeros({out_channels}),
                Tensor::zeros({out_channels})};
}

int Conv2d::out_height(int in_height) const {
  return (in_height + 2 * pad_ - kernel_) / stride_ + 1;
}
int Conv2d::out_width(int in_width) const {
  return (in_width + 2 * pad_ - kernel_) / stride_ + 1;
}

Tensor Conv2d::forward(const Tensor& input) {
  expect_rank(input, 3, "Conv2d");
  if (input.dim(0) != in_channels_)
    throw std::invalid_argument("Conv2d: channel mismatch");
  input_ = input;
  const int in_h = input.dim(1);
  const int in_w = input.dim(2);
  const int out_h = out_height(in_h);
  const int out_w = out_width(in_w);
  if (out_h <= 0 || out_w <= 0)
    throw std::invalid_argument("Conv2d: output would be empty");
  // GEMM path: out[oc][oh*ow] = W[oc][ic*k*k] * col[ic*k*k][oh*ow] + bias.
  // The weight tensor's [out][in][k][k] layout *is* the [M][K] gemm operand.
  const std::size_t patch = kernels::im2col_rows(in_channels_, kernel_);
  const std::size_t out_n = static_cast<std::size_t>(out_h) * out_w;
  col_.resize(patch * out_n);
  kernels::im2col(input.data(), in_channels_, in_h, in_w, kernel_, stride_,
                  pad_, col_.data());
  Tensor out({out_channels_, out_h, out_w});
  float* odata = out.data();
  for (int oc = 0; oc < out_channels_; ++oc) {
    const float b = bias_.value[static_cast<std::size_t>(oc)];
    float* orow = odata + static_cast<std::size_t>(oc) * out_n;
    for (std::size_t i = 0; i < out_n; ++i) orow[i] = b;
  }
  kernels::sgemm(static_cast<std::size_t>(out_channels_), out_n, patch,
                 weight_.value.data(), col_.data(), odata, /*accumulate=*/true);
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  expect_rank(grad_output, 3, "Conv2d::backward");
  const int in_h = input_.dim(1);
  const int in_w = input_.dim(2);
  const int out_h = grad_output.dim(1);
  const int out_w = grad_output.dim(2);
  const std::size_t patch = kernels::im2col_rows(in_channels_, kernel_);
  const std::size_t out_n = static_cast<std::size_t>(out_h) * out_w;
  const auto m = static_cast<std::size_t>(out_channels_);
  const float* g = grad_output.data();
  // Bias grad: row sums of dY.
  for (std::size_t oc = 0; oc < m; ++oc) {
    float acc = 0.0f;
    const float* grow = g + oc * out_n;
    for (std::size_t i = 0; i < out_n; ++i) acc += grow[i];
    bias_.grad[oc] += acc;
  }
  // Weight grad: dW[oc][p] += sum_n dY[oc][n] * col[p][n]  — expressed as the
  // nn gemm dY[M][N] * colT[N][K] so the inner loop stays contiguous.
  std::vector<float> scratch(std::max(out_n * patch, patch * m));
  kernels::transpose(patch, out_n, col_.data(), scratch.data());
  kernels::sgemm(m, patch, out_n, g, scratch.data(), weight_.grad.data(),
                 /*accumulate=*/true);
  // Input grad: dcol[p][n] = sum_oc W[oc][p] * dY[oc][n], then scatter-add.
  kernels::transpose(m, patch, weight_.value.data(), scratch.data());
  std::vector<float> dcol(patch * out_n);
  kernels::sgemm(patch, out_n, m, scratch.data(), g, dcol.data(),
                 /*accumulate=*/false);
  Tensor grad_in(input_.shape());
  kernels::col2im(dcol.data(), in_channels_, in_h, in_w, kernel_, stride_,
                  pad_, grad_in.data());
  return grad_in;
}

// ----------------------------------------------------------------- Dense --

Dense::Dense(int in_features, int out_features, util::Rng& rng)
    : in_features_(in_features), out_features_(out_features) {
  if (in_features <= 0 || out_features <= 0)
    throw std::invalid_argument("Dense: bad dimensions");
  weight_ = Param{"weight", Tensor::he_normal({out_features, in_features}, rng),
                  Tensor::zeros({out_features, in_features})};
  bias_ = Param{"bias", Tensor::zeros({out_features}),
                Tensor::zeros({out_features})};
}

Tensor Dense::forward(const Tensor& input) {
  expect_rank(input, 1, "Dense");
  if (input.dim(0) != in_features_)
    throw std::invalid_argument("Dense: feature mismatch");
  input_ = input;
  Tensor out({out_features_});
  for (int o = 0; o < out_features_; ++o) {
    float acc = bias_.value[static_cast<std::size_t>(o)];
    const float* wrow =
        weight_.value.data() + static_cast<std::size_t>(o) * in_features_;
    for (int i = 0; i < in_features_; ++i) acc += wrow[i] * input[static_cast<std::size_t>(i)];
    out[static_cast<std::size_t>(o)] = acc;
  }
  return out;
}

Tensor Dense::backward(const Tensor& grad_output) {
  expect_rank(grad_output, 1, "Dense::backward");
  Tensor grad_in({in_features_});
  for (int o = 0; o < out_features_; ++o) {
    const float g = grad_output[static_cast<std::size_t>(o)];
    bias_.grad[static_cast<std::size_t>(o)] += g;
    float* gw_row = weight_.grad.data() + static_cast<std::size_t>(o) * in_features_;
    const float* w_row =
        weight_.value.data() + static_cast<std::size_t>(o) * in_features_;
    for (int i = 0; i < in_features_; ++i) {
      gw_row[i] += g * input_[static_cast<std::size_t>(i)];
      grad_in[static_cast<std::size_t>(i)] += g * w_row[i];
    }
  }
  return grad_in;
}

// ----------------------------------------------------------- activations --

Tensor LeakyReLU::forward(const Tensor& input) {
  input_ = input;
  Tensor out = input;
  for (std::size_t i = 0; i < out.size(); ++i)
    if (out[i] < 0.0f) out[i] *= slope_;
  return out;
}

Tensor LeakyReLU::backward(const Tensor& grad_output) {
  Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.size(); ++i)
    if (input_[i] <= 0.0f) grad[i] *= slope_;
  return grad;
}

// --------------------------------------------------------------- pooling --

Tensor MaxPool2x2::forward(const Tensor& input) {
  expect_rank(input, 3, "MaxPool2x2");
  const int channels = input.dim(0);
  const int in_h = input.dim(1);
  const int in_w = input.dim(2);
  if (in_h % 2 != 0 || in_w % 2 != 0)
    throw std::invalid_argument("MaxPool2x2 requires even H and W");
  shape_ = input.shape();
  const int out_h = in_h / 2;
  const int out_w = in_w / 2;
  Tensor out({channels, out_h, out_w});
  argmax_.assign(out.size(), 0);
  std::size_t o = 0;
  for (int c = 0; c < channels; ++c) {
    for (int oh = 0; oh < out_h; ++oh) {
      for (int ow = 0; ow < out_w; ++ow, ++o) {
        float best = -std::numeric_limits<float>::infinity();
        std::size_t best_idx = 0;
        for (int dh = 0; dh < 2; ++dh) {
          for (int dw = 0; dw < 2; ++dw) {
            const int ih = oh * 2 + dh;
            const int iw = ow * 2 + dw;
            const std::size_t idx =
                (static_cast<std::size_t>(c) * in_h + ih) * in_w + iw;
            if (input[idx] > best) {
              best = input[idx];
              best_idx = idx;
            }
          }
        }
        out[o] = best;
        argmax_[o] = best_idx;
      }
    }
  }
  return out;
}

Tensor MaxPool2x2::backward(const Tensor& grad_output) {
  Tensor grad_in(shape_);
  for (std::size_t o = 0; o < grad_output.size(); ++o)
    grad_in[argmax_[o]] += grad_output[o];
  return grad_in;
}

Tensor UpsampleNearest2x::forward(const Tensor& input) {
  expect_rank(input, 3, "UpsampleNearest2x");
  in_shape_ = input.shape();
  const int channels = input.dim(0);
  const int in_h = input.dim(1);
  const int in_w = input.dim(2);
  Tensor out({channels, in_h * 2, in_w * 2});
  for (int c = 0; c < channels; ++c)
    for (int h = 0; h < in_h * 2; ++h)
      for (int w = 0; w < in_w * 2; ++w)
        out.at3(c, h, w) = input.at3(c, h / 2, w / 2);
  return out;
}

Tensor UpsampleNearest2x::backward(const Tensor& grad_output) {
  Tensor grad_in(in_shape_);
  const int channels = in_shape_[0];
  const int in_h = in_shape_[1];
  const int in_w = in_shape_[2];
  for (int c = 0; c < channels; ++c)
    for (int h = 0; h < in_h * 2; ++h)
      for (int w = 0; w < in_w * 2; ++w)
        grad_in.at3(c, h / 2, w / 2) += grad_output.at3(c, h, w);
  return grad_in;
}

// ----------------------------------------------------------- reshape ops --

Tensor Flatten::forward(const Tensor& input) {
  in_shape_ = input.shape();
  return input.reshaped({static_cast<int>(input.size())});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  return grad_output.reshaped(in_shape_);
}

Tensor Reshape::forward(const Tensor& input) {
  in_shape_ = input.shape();
  return input.reshaped(target_);
}

Tensor Reshape::backward(const Tensor& grad_output) {
  return grad_output.reshaped(in_shape_);
}

// -------------------------------------------------------------- container --

Tensor Sequential::forward(const Tensor& input) {
  Tensor x = input;
  for (auto& layer : layers_) x = layer->forward(x);
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
    g = (*it)->backward(g);
  return g;
}

std::vector<Param*> Sequential::params() {
  std::vector<Param*> out;
  for (auto& layer : layers_) {
    for (Param* p : layer->params()) out.push_back(p);
  }
  return out;
}

std::unique_ptr<Layer> Sequential::clone() const {
  auto copy = std::make_unique<Sequential>();
  for (const auto& layer : layers_) copy->add(layer->clone());
  return copy;
}

Sequential Sequential::clone_net() const {
  Sequential copy;
  for (const auto& layer : layers_) copy.add(layer->clone());
  return copy;
}

std::size_t Sequential::param_count() {
  std::size_t n = 0;
  for (Param* p : params()) n += p->value.size();
  return n;
}

}  // namespace mfw::ml
