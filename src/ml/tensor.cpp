#include "ml/tensor.hpp"

#include <cassert>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace mfw::ml {

namespace {
std::size_t shape_size(const std::vector<int>& shape) {
  std::size_t n = 1;
  for (int d : shape) {
    if (d <= 0) throw std::invalid_argument("tensor dims must be positive");
    n *= static_cast<std::size_t>(d);
  }
  return shape.empty() ? 0 : n;
}
}  // namespace

Tensor::Tensor(std::vector<int> shape)
    : shape_(std::move(shape)), data_(shape_size(shape_), 0.0f) {}

Tensor::Tensor(std::vector<int> shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  if (data_.size() != shape_size(shape_))
    throw std::invalid_argument("tensor data size does not match shape");
}

Tensor Tensor::he_normal(std::vector<int> shape, util::Rng& rng) {
  Tensor t(shape);
  std::size_t fan_in = 1;
  for (std::size_t i = 1; i < shape.size(); ++i)
    fan_in *= static_cast<std::size_t>(shape[i]);
  const float stddev =
      std::sqrt(2.0f / static_cast<float>(fan_in == 0 ? 1 : fan_in));
  for (auto& v : t.data_) v = static_cast<float>(rng.normal()) * stddev;
  return t;
}

float& Tensor::at3(int c, int h, int w) {
  assert(rank() == 3);
  return data_[(static_cast<std::size_t>(c) * shape_[1] + h) * shape_[2] + w];
}
float Tensor::at3(int c, int h, int w) const {
  assert(rank() == 3);
  return data_[(static_cast<std::size_t>(c) * shape_[1] + h) * shape_[2] + w];
}

Tensor Tensor::reshaped(std::vector<int> shape) const {
  if (shape_size(shape) != data_.size())
    throw std::invalid_argument("reshape element count mismatch");
  return Tensor(std::move(shape), data_);
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

Tensor& Tensor::operator*=(float scalar) {
  for (auto& v : data_) v *= scalar;
  return *this;
}

float Tensor::norm() const {
  double s = 0.0;
  for (float v : data_) s += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(s));
}

std::string Tensor::shape_str() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i) os << 'x';
    os << shape_[i];
  }
  os << ']';
  return os.str();
}

Tensor rotate90(const Tensor& chw, int quarter_turns) {
  if (chw.rank() != 3) throw std::invalid_argument("rotate90 needs [C][H][W]");
  int turns = ((quarter_turns % 4) + 4) % 4;
  if (turns == 0) return chw;
  const int channels = chw.dim(0);
  const int height = chw.dim(1);
  const int width = chw.dim(2);
  if (turns % 2 == 1 && height != width)
    throw std::invalid_argument("odd quarter-turns require square tiles");
  Tensor out(chw.shape());
  for (int c = 0; c < channels; ++c) {
    for (int h = 0; h < height; ++h) {
      for (int w = 0; w < width; ++w) {
        int sh = h, sw = w;
        // Destination (h, w) <- source pixel rotated CCW by `turns`.
        switch (turns) {
          case 1: sh = w; sw = height - 1 - h; break;
          case 2: sh = height - 1 - h; sw = width - 1 - w; break;
          case 3: sh = width - 1 - w; sw = h; break;
          default: break;
        }
        out.at3(c, h, w) = chw.at3(c, sh, sw);
      }
    }
  }
  return out;
}

float mse(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape())
    throw std::invalid_argument("mse shape mismatch");
  if (a.size() == 0) return 0.0f;
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    s += d * d;
  }
  return static_cast<float>(s / static_cast<double>(a.size()));
}

float squared_distance(std::span<const float> a, std::span<const float> b) {
  if (a.size() != b.size())
    throw std::invalid_argument("squared_distance length mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    s += d * d;
  }
  return static_cast<float>(s);
}

}  // namespace mfw::ml
