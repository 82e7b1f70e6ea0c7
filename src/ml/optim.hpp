// Adam, the optimizer RICC training runs.
#pragma once

#include <vector>

#include "ml/layers.hpp"

namespace mfw::ml {

class Adam {
 public:
  Adam(std::vector<Param*> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f);

  /// Applies the accumulated gradients (scaled by 1/batch_size) and clears
  /// them.
  void step(std::size_t batch_size);

 private:
  std::vector<Param*> params_;
  float lr_, beta1_, beta2_, eps_;
  std::size_t t_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

}  // namespace mfw::ml
