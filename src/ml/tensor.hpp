// Minimal dense float tensor for the RICC substrate.
//
// Row-major, owning, up to 4 dimensions. This is all the inference and
// training stack needs; no views/broadcasting — clarity over generality.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace mfw::ml {

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::vector<int> shape);
  Tensor(std::vector<int> shape, std::vector<float> data);

  static Tensor zeros(std::vector<int> shape) { return Tensor(std::move(shape)); }
  /// He-normal initialisation for conv/dense weights (fan_in derived from
  /// all but the first dimension).
  static Tensor he_normal(std::vector<int> shape, util::Rng& rng);

  const std::vector<int>& shape() const { return shape_; }
  int dim(std::size_t axis) const { return shape_.at(axis); }
  std::size_t rank() const { return shape_.size(); }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> span() { return data_; }
  std::span<const float> span() const { return data_; }

  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  // Indexed access (bounds unchecked in release; asserts in debug).
  float& at3(int c, int h, int w);
  float at3(int c, int h, int w) const;

  /// Same data, new shape; element counts must match.
  Tensor reshaped(std::vector<int> shape) const;

  void fill(float value);
  void zero() { fill(0.0f); }

  /// Scales every element in place.
  Tensor& operator*=(float scalar);

  /// L2 norm of all elements.
  float norm() const;

  std::string shape_str() const;

 private:
  std::vector<int> shape_;
  std::vector<float> data_;
};

/// Rotates a [C][H][W] tensor by 90° * quarter_turns counter-clockwise.
/// Requires H == W for quarter_turns odd.
Tensor rotate90(const Tensor& chw, int quarter_turns);

/// Mean squared error between same-shaped tensors.
float mse(const Tensor& a, const Tensor& b);

/// Squared Euclidean distance between flat tensors.
float squared_distance(std::span<const float> a, std::span<const float> b);

}  // namespace mfw::ml
